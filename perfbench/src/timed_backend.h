// Timing decorators over storage::StorageBackend, Writer and Reader.
//
// Every virtual is forwarded — including supports_read_at(),
// supports_map() and map_at() — so a decorated store takes exactly the
// code paths the bare one does (restore's zero-copy mmap reads among
// them); each call is recorded as a span of the decorator's layer.  The
// benchmark wraps the local store as Layer::kStorage, the RemoteBackend
// client as Layer::kNet, and the store the daemon serves as
// Layer::kStorage again.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"
#include "storage/backend.h"

namespace perfbench {

/// Span names of one decorated layer (string literals).
struct CallNames {
  const char* create;
  const char* open;
  const char* remove;
  const char* list;
  const char* exists;
  const char* write;
  const char* close;
  const char* read;
  const char* read_at;
  const char* map_at;
};

extern const CallNames kStorageCalls;  ///< "storage.create", ...
extern const CallNames kNetCalls;      ///< "net.create", ...

/// Objects and bytes that went through decorated writers which closed
/// successfully.
struct WriteTally {
  std::atomic<std::uint64_t> objects{0};
  std::atomic<std::uint64_t> bytes{0};
};

class TimedBackend final : public ickpt::storage::StorageBackend {
 public:
  /// `inner` must outlive the decorator and every writer/reader it hands
  /// out.
  TimedBackend(ickpt::storage::StorageBackend& inner, Layer layer,
               const CallNames& names);

  ickpt::Result<std::unique_ptr<ickpt::storage::Writer>> create(
      const std::string& key) override;
  ickpt::Result<std::unique_ptr<ickpt::storage::Reader>> open(
      const std::string& key) override;
  ickpt::Status remove(const std::string& key) override;
  ickpt::Result<std::vector<std::string>> list() override;
  bool exists(const std::string& key) override;
  std::uint64_t total_bytes_stored() const noexcept override;

  const WriteTally& tally() const noexcept { return *tally_; }

 private:
  ickpt::storage::StorageBackend& inner_;
  Layer layer_;
  const CallNames& names_;
  std::shared_ptr<WriteTally> tally_;
};

}  // namespace perfbench
