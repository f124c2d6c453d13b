// Storage backends for checkpoint data.
//
// The paper sizes checkpointing against two sinks (Section 3): the
// interconnect (QsNet II, 900 MB/s) and secondary storage (SCSI,
// 320 MB/s).  The backends here provide real persistence (file), fast
// in-memory storage (for diskless-style checkpointing and tests), a
// byte-counting null sink, a bandwidth-throttling decorator that
// models the 2004 ceilings, and a fault-injecting decorator for
// failure testing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace ickpt::obs {
class Counter;
class Histogram;
}  // namespace ickpt::obs

namespace ickpt::storage {

/// Sequential writer for one object.  close() must be called for the
/// object to become visible; destroying an unclosed writer aborts it.
class Writer {
 public:
  virtual ~Writer() = default;
  virtual Status write(std::span<const std::byte> data) = 0;
  virtual Status close() = 0;
  virtual std::uint64_t bytes_written() const noexcept = 0;
};

/// Sequential reader for one object.  Backends that can serve byte
/// ranges also implement read_at(), which the parallel restore path
/// uses to read each decode shard's byte range into a shard buffer
/// without streaming the whole object.
class Reader {
 public:
  virtual ~Reader() = default;
  /// Reads up to out.size() bytes; returns the count (0 at EOF).
  virtual Result<std::size_t> read(std::span<std::byte> out) = 0;
  virtual std::uint64_t size() const noexcept = 0;

  /// True when read_at() is implemented.
  virtual bool supports_read_at() const noexcept { return false; }

  /// Reads up to out.size() bytes starting at `offset`; returns the
  /// count (0 when offset is at or past EOF).  May reposition the
  /// sequential cursor — callers must not interleave read() and
  /// read_at() on the same reader.
  virtual Result<std::size_t> read_at(std::uint64_t offset,
                                      std::span<std::byte> out) {
    (void)offset;
    (void)out;
    return unsupported("read_at not supported by this backend");
  }

  /// No library reader implements these; they stay only because the
  /// benchmark's decorator (perfbench/src/timed_backend.cc) overrides
  /// them.
  virtual bool supports_map() const noexcept { return false; }
  virtual Result<std::span<const std::byte>> map_at(std::uint64_t offset,
                                                    std::size_t length) {
    (void)offset;
    (void)length;
    return unsupported("map_at not supported by this backend");
  }
};

class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  virtual Result<std::unique_ptr<Writer>> create(const std::string& key) = 0;
  virtual Result<std::unique_ptr<Reader>> open(const std::string& key) = 0;
  virtual Status remove(const std::string& key) = 0;
  virtual Result<std::vector<std::string>> list() = 0;
  virtual bool exists(const std::string& key) = 0;

  /// Cumulative payload bytes accepted by close()d writers.
  virtual std::uint64_t total_bytes_stored() const noexcept = 0;
};

struct FileBackendOptions {
  /// Write objects with O_DIRECT through an aligned staging buffer,
  /// bypassing the page cache (the encode pipeline emits full-object
  /// buffers, so writes are large and sequential — ideal direct-I/O
  /// shape).  The filesystem's logical block size is probed once per
  /// backend directory (512 B, then 4 KiB); filesystems that refuse
  /// O_DIRECT (tmpfs, some overlayfs) fall back transparently to
  /// buffered writes and increment the storage.direct_io_fallback
  /// counter.  close()/rename visibility and flush() durability
  /// semantics are identical in both modes.
  bool direct_io = false;

  /// Make close() crash-durable: fdatasync the object bytes before the
  /// rename and fsync the parent directory after it, so a successfully
  /// returned close() survives power loss — never a visible-but-empty
  /// or lost object.  The rename alone orders visibility only within a
  /// running kernel.  Costs two device syncs per object (counted in
  /// storage.fsync_calls, timed in storage.publish_sync_ns, spanned as
  /// ckpt.publish_sync); turn off only for stores whose loss is
  /// acceptable (bench scratch, caches).
  bool durable_publish = true;
};

/// Test-only fault hooks for the file writers (no-ops in production).
namespace testing_hooks {
/// Force the O_DIRECT block size instead of probing (0 = probe again).
/// Lets tests exercise DirectFileWriter on filesystems whose probe
/// would refuse O_DIRECT.
void force_direct_block_size(std::size_t block);
/// Make the next `n` data-write syscalls issued by DirectFileWriter
/// fail with EINVAL (both the direct and the buffered path), so tests
/// can drive the mid-write fallback/recovery logic on any filesystem.
void fail_writes_einval(int n);
}  // namespace testing_hooks

/// Files under a directory; keys may contain '/' (subdirectories are
/// created on demand).  Writes go to a ".tmp" sibling and are renamed
/// on close so a crash never leaves a half-visible checkpoint.
Result<std::unique_ptr<StorageBackend>> make_file_backend(
    const std::string& directory);
Result<std::unique_ptr<StorageBackend>> make_file_backend(
    const std::string& directory, const FileBackendOptions& options);

/// In-memory objects (thread-safe).
std::unique_ptr<StorageBackend> make_memory_backend();

/// Discards all data, keeps byte counts (bandwidth quantification).
std::unique_ptr<StorageBackend> make_null_backend();

/// Decorator: models a fixed-bandwidth device.  Accumulates the
/// virtual seconds each write would take at `bytes_per_second`; when
/// `really_sleep` is set it also stalls the caller (for wall-clock
/// experiments).  The decorated backend must outlive the decorator.
class ThrottledBackend : public StorageBackend {
 public:
  ThrottledBackend(StorageBackend& inner, double bytes_per_second,
                   bool really_sleep = false);

  Result<std::unique_ptr<Writer>> create(const std::string& key) override;
  Result<std::unique_ptr<Reader>> open(const std::string& key) override;
  Status remove(const std::string& key) override;
  Result<std::vector<std::string>> list() override;
  bool exists(const std::string& key) override;
  std::uint64_t total_bytes_stored() const noexcept override;

  /// Total modelled transfer time so far, in seconds.
  double modeled_seconds() const noexcept;

 private:
  class ThrottledWriter;
  StorageBackend& inner_;
  double bytes_per_second_;
  bool really_sleep_;
  std::shared_ptr<std::atomic<std::uint64_t>> throttled_bytes_;
};

/// Decorator: publishes per-object write metrics to the process-wide
/// obs registry under `prefix` — "<prefix>.objects" / "<prefix>.bytes"
/// counters, a "<prefix>.write_ns" latency histogram (create() to
/// close(), as seen by the writing thread) and a "<prefix>.object_bytes"
/// size histogram.  Pure pass-through otherwise; the decorated backend
/// must outlive the decorator.
class MeteredBackend : public StorageBackend {
 public:
  explicit MeteredBackend(StorageBackend& inner,
                          const std::string& prefix = "storage");

  Result<std::unique_ptr<Writer>> create(const std::string& key) override;
  Result<std::unique_ptr<Reader>> open(const std::string& key) override;
  Status remove(const std::string& key) override;
  Result<std::vector<std::string>> list() override;
  bool exists(const std::string& key) override;
  std::uint64_t total_bytes_stored() const noexcept override;

 private:
  class MeteredWriter;
  StorageBackend& inner_;
  // Registry-owned metric objects; immortal, so writers may hold them.
  obs::Counter& objects_;
  obs::Counter& bytes_;
  obs::Histogram& write_ns_;
  obs::Histogram& object_bytes_;
};

/// Decorator: fails writes after `fail_after_bytes` total payload
/// bytes (kIoError), for failure-injection tests.
class FaultyBackend : public StorageBackend {
 public:
  FaultyBackend(StorageBackend& inner, std::uint64_t fail_after_bytes);

  Result<std::unique_ptr<Writer>> create(const std::string& key) override;
  Result<std::unique_ptr<Reader>> open(const std::string& key) override;
  Status remove(const std::string& key) override;
  Result<std::vector<std::string>> list() override;
  bool exists(const std::string& key) override;
  std::uint64_t total_bytes_stored() const noexcept override;

 private:
  class FaultyWriter;
  StorageBackend& inner_;
  std::shared_ptr<std::atomic<std::uint64_t>> budget_;
};

}  // namespace ickpt::storage
