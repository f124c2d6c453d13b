#include "storage/writeback.h"

#include <fcntl.h>

#include "obs/metrics.h"

namespace ickpt::storage {

void WritebackHint::advance(int fd, std::uint64_t end) {
  if (end < next_ + kWritebackSpan) return;
  const std::uint64_t bytes = (end - next_) / kWritebackSpan * kWritebackSpan;
  static obs::Counter& calls =
      obs::registry().counter("storage.writeback_calls");
  calls.inc();
  (void)::sync_file_range(fd, static_cast<off64_t>(next_),
                          static_cast<off64_t>(bytes), SYNC_FILE_RANGE_WRITE);
  next_ += bytes;
}

}  // namespace ickpt::storage
