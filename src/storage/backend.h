// Storage backends for checkpoint data.
//
// The paper sizes checkpointing against two sinks (Section 3): the
// interconnect (QsNet II, 900 MB/s) and secondary storage (SCSI,
// 320 MB/s); those ceilings live in analysis/feasibility.h.  The
// backends here provide real persistence (file), fast in-memory
// storage and a byte-counting null sink; storage/segment_backend.h adds
// a log-structured store.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

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
/// ranges also implement read_at(), which restore uses to read an
/// object's header, index and chosen chunks without streaming the
/// whole object.
class Reader {
 public:
  virtual ~Reader() = default;
  /// Reads up to out.size() bytes; returns the count (0 at EOF).
  virtual Result<std::size_t> read(std::span<std::byte> out) = 0;
  virtual std::uint64_t size() const noexcept = 0;

  /// True when read_at() is implemented.
  virtual bool supports_read_at() const noexcept { return false; }

  /// Reads up to out.size() bytes starting at `offset`; returns the
  /// count (0 when offset is at or past EOF).  Leaves the sequential
  /// cursor of read() where it was.  Safe to call from several threads
  /// at once on one reader: the file and segment readers pread a shared
  /// fd, the memory reader copies from an immutable buffer, and the
  /// remote reader leases a pooled connection per call.  Restore's
  /// decode workers share one reader per object on that basis.
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
  /// Make close() crash-durable: fdatasync the object bytes before the
  /// rename and fsync the parent directory after it, so a successfully
  /// returned close() survives power loss — never a visible-but-empty
  /// or lost object.  The rename alone orders visibility only within a
  /// running kernel.  Costs two device syncs per object (counted in
  /// storage.fsync_calls, timed in storage.publish_sync_ns, spanned as
  /// ckpt.publish_sync); turn off only for stores whose loss is
  /// acceptable (bench scratch, caches).  A durable writer also starts
  /// device writeback of each MiB as it is written
  /// (storage.writeback_calls), so the sync finds less to wait for.
  bool durable_publish = true;
};

/// Files under a directory; keys may contain '/' (subdirectories are
/// created on demand).  Writes go to a ".tmp" sibling and are renamed
/// on close so a crash never leaves a half-visible checkpoint; keys
/// ending in ".tmp" are therefore refused by create() and not found by
/// open(), exists() and remove().
Result<std::unique_ptr<StorageBackend>> make_file_backend(
    const std::string& directory);
Result<std::unique_ptr<StorageBackend>> make_file_backend(
    const std::string& directory, const FileBackendOptions& options);

/// In-memory objects (thread-safe).
std::unique_ptr<StorageBackend> make_memory_backend();

/// Discards all data, keeps byte counts (bandwidth quantification).
std::unique_ptr<StorageBackend> make_null_backend();

}  // namespace ickpt::storage
