// Early device writeback for durable writers.
//
// A durable close() ends in fdatasync, which has to push every dirty
// page of the object to the device before it returns.  A writer that
// starts writeback of each completed span while it is still writing
// leaves the sync less to wait for (docs/PERF.md, "Early writeback").
#pragma once

#include <cstdint>

namespace ickpt::storage {

/// Bytes per writeback hint.  A hint per 256 KiB was measured too and
/// lost on perfbench sage-ickptd, whose daemon then spends its time
/// issuing hints (docs/PERF.md, "Early writeback").
inline constexpr std::uint64_t kWritebackSpan = std::uint64_t{1} << 20;

/// Starts writeback of a file written front to back from `start`:
/// each time the written end passes another kWritebackSpan bytes, one
/// sync_file_range(SYNC_FILE_RANGE_WRITE) covers the spans completed
/// since the last call.  It never waits for the device, and it
/// reports no error: the closing fdatasync does.  Every call counts
/// in storage.writeback_calls.
class WritebackHint {
 public:
  explicit WritebackHint(std::uint64_t start = 0) : next_(start) {}

  /// Bytes of `fd` below `end` are written.
  void advance(int fd, std::uint64_t end);

 private:
  std::uint64_t next_;  ///< first byte not yet handed to writeback
};

}  // namespace ickpt::storage
