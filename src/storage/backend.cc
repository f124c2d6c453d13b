#include "storage/backend.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>

#include "common/io_util.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace ickpt::storage {

namespace fs = std::filesystem;

// ------------------------------------------------------------------- file

namespace {

/// Direct-I/O observability: fallbacks (O_DIRECT refused — probe
/// failure or a mid-stream EINVAL) and writers that ran direct.
struct DirectIoMetrics {
  obs::Counter& fallbacks;
  obs::Counter& writers;

  static DirectIoMetrics& get() {
    auto& r = obs::registry();
    static DirectIoMetrics m{r.counter("storage.direct_io_fallback"),
                             r.counter("storage.direct_io_writers")};
    return m;
  }
};

/// Durable-publish observability, shared by every backend that syncs:
/// fsync/fdatasync syscalls issued and the wall time one publish
/// spends waiting on the device.
struct SyncMetrics {
  obs::Counter& fsync_calls;
  obs::Histogram& publish_sync_ns;
  std::uint16_t span;

  static SyncMetrics& get() {
    auto& r = obs::registry();
    static SyncMetrics m{
        r.counter("storage.fsync_calls"),
        r.histogram("storage.publish_sync_ns"),
        obs::trace_name("ckpt.publish_sync", obs::TraceCat::kStorage)};
    return m;
  }
};

// Test-only fault injection (see testing_hooks in backend.h).
std::atomic<std::size_t> g_forced_direct_block{0};
std::atomic<int> g_einval_writes{0};

/// True when the test hook says this write syscall must fail EINVAL.
bool consume_einval_fault() {
  int n = g_einval_writes.load(std::memory_order_relaxed);
  while (n > 0) {
    if (g_einval_writes.compare_exchange_weak(n, n - 1,
                                              std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

/// fdatasync `fd`, counting the call; kIoError on failure.
Status synced_fdatasync(int fd, const fs::path& what) {
  SyncMetrics::get().fsync_calls.inc();
  if (::fdatasync(fd) != 0) {
    return io_error("fdatasync failed: " + what.string() + ": " +
                    std::strerror(errno));
  }
  return Status::ok();
}

/// fsync the directory containing `child` so its rename/creation is
/// itself durable (a renamed file is lost on power loss until the
/// directory entry reaches the journal).
Status sync_parent_dir(const fs::path& child) {
  const fs::path dir = child.parent_path();
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return io_error("open dir for fsync failed: " + dir.string() + ": " +
                    std::strerror(errno));
  }
  SyncMetrics::get().fsync_calls.inc();
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return io_error("fsync dir failed: " + dir.string() + ": " +
                    std::strerror(errno));
  }
  return Status::ok();
}

/// Block-aligned heap buffer for O_DIRECT staging.
class AlignedBuf {
 public:
  AlignedBuf(std::size_t alignment, std::size_t size) {
    if (::posix_memalign(&p_, alignment, size) != 0) p_ = nullptr;
  }
  ~AlignedBuf() { std::free(p_); }
  AlignedBuf(const AlignedBuf&) = delete;
  AlignedBuf& operator=(const AlignedBuf&) = delete;

  unsigned char* data() noexcept { return static_cast<unsigned char*>(p_); }

 private:
  void* p_ = nullptr;
};

/// Probe the logical block size O_DIRECT needs under `dir`: open a
/// scratch file with O_DIRECT and try a 512-byte, then a 4-KiB
/// aligned write.  Returns the smallest size that works, or 0 when
/// the filesystem refuses direct I/O outright (tmpfs and some overlay
/// mounts fail the open or every write with EINVAL).  Called once per
/// backend directory; the result is cached by FileBackend.
std::size_t probe_direct_block_size(const fs::path& dir) {
  const fs::path probe = dir / ".ickpt-dio-probe.tmp";
  int fd = ::open(probe.c_str(),
                  O_WRONLY | O_CREAT | O_TRUNC | O_DIRECT | O_CLOEXEC, 0644);
  std::size_t found = 0;
  if (fd >= 0) {
    AlignedBuf buf(4096, 4096);  // 4 KiB alignment satisfies both probes
    if (buf.data() != nullptr) {
      std::memset(buf.data(), 0, 4096);
      for (std::size_t cand : {std::size_t{512}, std::size_t{4096}}) {
        if (::pwrite(fd, buf.data(), cand, 0) ==
            static_cast<ssize_t>(cand)) {
          found = cand;
          break;
        }
        if (errno != EINVAL) break;
      }
    }
    ::close(fd);
  }
  std::error_code ec;
  fs::remove(probe, ec);
  return found;
}

/// Publish `tmp` as `final_path`: optionally fdatasync the written
/// bytes, rename, then fsync the parent directory.  The sync pair is
/// what makes the atomic-rename publish *crash*-atomic — without it a
/// power loss can surface the renamed object empty (data never hit the
/// device) or lose the rename entirely (directory entry never hit the
/// journal).  `fd` must still be open on the tmp file when durable.
Status publish_file(int fd, const fs::path& tmp, const fs::path& final_path,
                    bool durable) {
  obs::ScopedTimer timer(SyncMetrics::get().publish_sync_ns);
  obs::TraceSpan span(SyncMetrics::get().span);
  const Status sync_st =
      durable ? synced_fdatasync(fd, tmp) : Status::ok();
  const int close_rc = ::close(fd);  // fd is consumed on every path
  ICKPT_RETURN_IF_ERROR(sync_st);
  if (close_rc != 0) {
    return io_error("close failed: " + tmp.string());
  }
  std::error_code ec;
  fs::rename(tmp, final_path, ec);
  if (ec) return io_error("rename failed: " + ec.message());
  if (durable) ICKPT_RETURN_IF_ERROR(sync_parent_dir(final_path));
  if (!durable) {
    timer.cancel();  // nothing was synced; keep the histogram honest
  }
  return Status::ok();
}

class FileWriter final : public Writer {
 public:
  FileWriter(fs::path tmp, fs::path final_path, bool durable,
             std::atomic<std::uint64_t>* total)
      : tmp_(std::move(tmp)),
        final_(std::move(final_path)),
        durable_(durable),
        total_(total) {
    fd_ = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                 0644);
  }
  ~FileWriter() override {
    if (!closed_) {
      if (fd_ >= 0) ::close(fd_);
      std::error_code ec;
      fs::remove(tmp_, ec);  // abort: discard partial object
    }
  }
  Status write(std::span<const std::byte> data) override {
    if (closed_) return failed_precondition("write after close");
    if (fd_ < 0) return io_error("file open failed: " + tmp_.string());
    auto st = ioutil::write_full(fd_, data);
    if (!st.is_ok()) return io_error("file write failed: " + tmp_.string());
    bytes_ += data.size();
    return Status::ok();
  }
  Status close() override {
    if (closed_) return Status::ok();
    if (fd_ < 0) return io_error("file open failed: " + tmp_.string());
    auto st = publish_file(fd_, tmp_, final_, durable_);
    fd_ = -1;  // publish_file closed it (or it is unusable)
    ICKPT_RETURN_IF_ERROR(st);
    closed_ = true;
    total_->fetch_add(bytes_, std::memory_order_relaxed);
    return Status::ok();
  }
  std::uint64_t bytes_written() const noexcept override { return bytes_; }

 private:
  fs::path tmp_, final_;
  int fd_ = -1;
  std::uint64_t bytes_ = 0;
  bool durable_;
  bool closed_ = false;
  std::atomic<std::uint64_t>* total_;
};

/// O_DIRECT writer: payload accumulates in a block-aligned staging
/// buffer and leaves in whole-buffer direct writes; close() writes the
/// remaining full blocks direct, then drops O_DIRECT (fcntl) for the
/// sub-block tail, so arbitrary object sizes need no padding and the
/// on-disk bytes are identical to the buffered writer's.  Any EINVAL
/// mid-stream (stale probe, filesystem boundary) permanently downgrades
/// this writer to buffered writes on the same fd — transparent to the
/// caller, counted in storage.direct_io_fallback.
class DirectFileWriter final : public Writer {
 public:
  /// 1 MiB staging: large enough to amortize syscalls, a multiple of
  /// every probe-able block size.
  static constexpr std::size_t kStageSize = 1u << 20;

  DirectFileWriter(fs::path tmp, fs::path final_path, std::size_t block,
                   bool durable, std::atomic<std::uint64_t>* total)
      : tmp_(std::move(tmp)),
        final_(std::move(final_path)),
        total_(total),
        block_(block),
        durable_(durable),
        stage_(block, kStageSize) {
    fd_ = ::open(tmp_.c_str(),
                 O_WRONLY | O_CREAT | O_TRUNC | O_DIRECT | O_CLOEXEC, 0644);
    if (fd_ < 0 && errno == EINVAL) {
      // The probe said yes but this file says no (e.g. a bind mount
      // inside the directory): degrade instead of failing the write.
      DirectIoMetrics::get().fallbacks.inc();
      direct_ = false;
      fd_ = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                   0644);
    }
    if (direct_) DirectIoMetrics::get().writers.inc();
  }

  ~DirectFileWriter() override {
    if (!closed_) {
      if (fd_ >= 0) ::close(fd_);
      std::error_code ec;
      fs::remove(tmp_, ec);  // abort: discard partial object
    }
  }

  Status write(std::span<const std::byte> data) override {
    if (closed_) return failed_precondition("write after close");
    if (fd_ < 0 || stage_.data() == nullptr) {
      return io_error("direct writer open failed: " + tmp_.string());
    }
    const auto* src = reinterpret_cast<const unsigned char*>(data.data());
    std::size_t left = data.size();
    while (left > 0) {
      const std::size_t n = std::min(left, kStageSize - fill_);
      std::memcpy(stage_.data() + fill_, src, n);
      fill_ += n;
      src += n;
      left -= n;
      if (fill_ == kStageSize) {
        ICKPT_RETURN_IF_ERROR(drain(kStageSize));
      }
    }
    bytes_ += data.size();
    return Status::ok();
  }

  Status close() override {
    if (closed_) return Status::ok();
    if (fd_ < 0) return io_error("direct writer open failed: " + tmp_.string());
    // Full blocks leave direct; the tail needs the flag off.
    const std::size_t full = fill_ - fill_ % block_;
    if (full > 0) ICKPT_RETURN_IF_ERROR(drain(full));
    if (fill_ > 0) {
      drop_direct();
      ICKPT_RETURN_IF_ERROR(drain(fill_));
    }
    auto st = publish_file(fd_, tmp_, final_, durable_);
    fd_ = -1;  // publish_file consumed it
    ICKPT_RETURN_IF_ERROR(st);
    closed_ = true;
    total_->fetch_add(bytes_, std::memory_order_relaxed);
    return Status::ok();
  }

  std::uint64_t bytes_written() const noexcept override { return bytes_; }

 private:
  /// One data-write syscall, with the test fault hook applied.
  ssize_t raw_write(const void* buf, std::size_t n) {
    if (consume_einval_fault()) {
      errno = EINVAL;
      return -1;
    }
    return ::write(fd_, buf, n);
  }

  /// Write the first `n` staged bytes at the current file offset.  On
  /// EINVAL in direct mode, downgrade to buffered and retry.  EINVAL
  /// can also surface *after* the downgrade (the F_SETFL drop is
  /// advisory — some filesystems keep rejecting unaligned writes on an
  /// fd opened O_DIRECT): that lands in the same counted fallback path
  /// by reopening the tmp file without O_DIRECT at the current offset,
  /// never in an opaque io_error.
  Status drain(std::size_t n) {
    std::size_t done = 0;
    while (done < n && direct_) {
      ssize_t got = raw_write(stage_.data() + done, n - done);
      if (got < 0) {
        if (errno == EINTR) continue;
        if (errno == EINVAL) {
          DirectIoMetrics::get().fallbacks.inc();
          drop_direct();
          break;  // remainder goes through the buffered path below
        }
        return io_error("file write failed: " + tmp_.string());
      }
      done += static_cast<std::size_t>(got);
    }
    while (done < n) {
      ssize_t got = raw_write(stage_.data() + done, n - done);
      if (got < 0) {
        if (errno == EINTR) continue;
        if (errno == EINVAL && !reopened_) {
          DirectIoMetrics::get().fallbacks.inc();
          ICKPT_RETURN_IF_ERROR(reopen_buffered());
          continue;
        }
        return io_error("file write failed: " + tmp_.string());
      }
      done += static_cast<std::size_t>(got);
    }
    // Shift any remainder (only on the close() tail path, where a
    // partial drain never happens mid-buffer) and reset the fill.
    if (n < fill_) std::memmove(stage_.data(), stage_.data() + n, fill_ - n);
    fill_ -= n;
    return Status::ok();
  }

  void drop_direct() {
    if (!direct_) return;
    direct_ = false;
    const int flags = ::fcntl(fd_, F_GETFL);
    if (flags >= 0) ::fcntl(fd_, F_SETFL, flags & ~O_DIRECT);
  }

  /// Last-resort EINVAL recovery: swap the fd for one opened without
  /// O_DIRECT, positioned where the old one stopped.  Done at most
  /// once per writer.
  Status reopen_buffered() {
    reopened_ = true;
    const off_t off = ::lseek(fd_, 0, SEEK_CUR);
    if (off < 0) return io_error("lseek failed: " + tmp_.string());
    int fresh = ::open(tmp_.c_str(), O_WRONLY | O_CLOEXEC);
    if (fresh < 0) return io_error("reopen failed: " + tmp_.string());
    if (::lseek(fresh, off, SEEK_SET) != off) {
      ::close(fresh);
      return io_error("lseek failed: " + tmp_.string());
    }
    ::close(fd_);
    fd_ = fresh;
    direct_ = false;
    return Status::ok();
  }

  fs::path tmp_, final_;
  std::atomic<std::uint64_t>* total_;
  std::size_t block_;
  bool durable_;
  AlignedBuf stage_;
  std::size_t fill_ = 0;
  std::uint64_t bytes_ = 0;
  int fd_ = -1;
  bool direct_ = true;
  bool reopened_ = false;
  bool closed_ = false;
};

class FileReader final : public Reader {
 public:
  explicit FileReader(const fs::path& path) : size_(fs::file_size(path)) {
    is_.open(path, std::ios::binary);
  }

  Result<std::size_t> read(std::span<std::byte> out) override {
    is_.read(reinterpret_cast<char*>(out.data()),
             static_cast<std::streamsize>(out.size()));
    auto got = static_cast<std::size_t>(is_.gcount());
    if (got == 0 && !is_.eof()) return io_error("file read failed");
    return got;
  }
  bool supports_read_at() const noexcept override { return true; }
  Result<std::size_t> read_at(std::uint64_t offset,
                              std::span<std::byte> out) override {
    if (offset >= size_) return std::size_t{0};
    is_.clear();
    is_.seekg(static_cast<std::streamoff>(offset));
    if (!is_) return io_error("file seek failed");
    is_.read(reinterpret_cast<char*>(out.data()),
             static_cast<std::streamsize>(out.size()));
    auto got = static_cast<std::size_t>(is_.gcount());
    if (got == 0 && !is_.eof()) return io_error("file read failed");
    return got;
  }

  std::uint64_t size() const noexcept override { return size_; }

 private:
  std::ifstream is_;
  std::uint64_t size_;
};

class FileBackend final : public StorageBackend {
 public:
  FileBackend(fs::path dir, FileBackendOptions options)
      : dir_(std::move(dir)), options_(options) {}

  Result<std::unique_ptr<Writer>> create(const std::string& key) override {
    fs::path final_path = dir_ / key;
    std::error_code ec;
    fs::create_directories(final_path.parent_path(), ec);
    fs::path tmp = final_path;
    tmp += ".tmp";
    if (options_.direct_io) {
      const std::size_t block = direct_block_size();
      if (block > 0) {
        return std::unique_ptr<Writer>(new DirectFileWriter(
            tmp, final_path, block, options_.durable_publish, &total_));
      }
      // Probe said no (counted once, below): buffered writes.
    }
    auto w = std::make_unique<FileWriter>(tmp, final_path,
                                          options_.durable_publish, &total_);
    return std::unique_ptr<Writer>(std::move(w));
  }

  Result<std::unique_ptr<Reader>> open(const std::string& key) override {
    fs::path p = dir_ / key;
    std::error_code ec;
    if (!fs::exists(p, ec)) return not_found("no such object: " + key);
    return std::unique_ptr<Reader>(new FileReader(p));
  }

  Status remove(const std::string& key) override {
    std::error_code ec;
    if (!fs::remove(dir_ / key, ec)) {
      return not_found("no such object: " + key);
    }
    return Status::ok();
  }

  Result<std::vector<std::string>> list() override {
    std::vector<std::string> keys;
    std::error_code ec;
    for (auto it = fs::recursive_directory_iterator(dir_, ec);
         !ec && it != fs::recursive_directory_iterator(); ++it) {
      // ".tmp" siblings are unpublished writes (possibly left behind
      // by a crash mid-publish) — never visible objects.
      if (it->is_regular_file() && it->path().extension() != ".tmp") {
        keys.push_back(fs::relative(it->path(), dir_).string());
      }
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  bool exists(const std::string& key) override {
    std::error_code ec;
    return fs::exists(dir_ / key, ec);
  }

  std::uint64_t total_bytes_stored() const noexcept override {
    return total_.load(std::memory_order_relaxed);
  }

 private:
  /// The O_DIRECT logical block size for this backend's directory,
  /// probed on the first direct writer and cached (0 = unsupported).
  /// One probe per directory, not per write: the answer is a property
  /// of the filesystem under `dir_`.
  std::size_t direct_block_size() {
    const std::size_t forced =
        g_forced_direct_block.load(std::memory_order_relaxed);
    if (forced > 0) return forced;
    std::call_once(probe_once_, [this] {
      probed_block_ = probe_direct_block_size(dir_);
      if (probed_block_ == 0) DirectIoMetrics::get().fallbacks.inc();
    });
    return probed_block_;
  }

  fs::path dir_;
  FileBackendOptions options_;
  std::once_flag probe_once_;
  std::size_t probed_block_ = 0;
  std::atomic<std::uint64_t> total_{0};
};

}  // namespace

namespace testing_hooks {
void force_direct_block_size(std::size_t block) {
  g_forced_direct_block.store(block, std::memory_order_relaxed);
}
void fail_writes_einval(int n) {
  g_einval_writes.store(n, std::memory_order_relaxed);
}
}  // namespace testing_hooks

Result<std::unique_ptr<StorageBackend>> make_file_backend(
    const std::string& directory) {
  return make_file_backend(directory, FileBackendOptions{});
}

Result<std::unique_ptr<StorageBackend>> make_file_backend(
    const std::string& directory, const FileBackendOptions& options) {
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) return io_error("cannot create " + directory + ": " + ec.message());
  return std::unique_ptr<StorageBackend>(new FileBackend(directory, options));
}

// ----------------------------------------------------------------- memory

namespace {

// Objects are immutable once closed; readers share the buffer instead
// of copying it, so many concurrent readers of one object (parallel
// restore shards) cost O(1) memory each.
struct MemoryStore {
  std::mutex mu;
  std::map<std::string, std::shared_ptr<const std::vector<std::byte>>> objects;
  std::atomic<std::uint64_t> total{0};
};

class MemoryWriter final : public Writer {
 public:
  MemoryWriter(std::shared_ptr<MemoryStore> store, std::string key)
      : store_(std::move(store)), key_(std::move(key)) {}
  Status write(std::span<const std::byte> data) override {
    if (closed_) return failed_precondition("write after close");
    buf_.insert(buf_.end(), data.begin(), data.end());
    return Status::ok();
  }
  Status close() override {
    if (closed_) return Status::ok();
    closed_ = true;
    bytes_ = buf_.size();
    store_->total.fetch_add(buf_.size(), std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(store_->mu);
    store_->objects[key_] =
        std::make_shared<const std::vector<std::byte>>(std::move(buf_));
    return Status::ok();
  }
  std::uint64_t bytes_written() const noexcept override {
    return closed_ ? bytes_ : buf_.size();
  }

 private:
  std::shared_ptr<MemoryStore> store_;
  std::string key_;
  std::vector<std::byte> buf_;
  std::uint64_t bytes_ = 0;
  bool closed_ = false;
};

class MemoryReader final : public Reader {
 public:
  explicit MemoryReader(std::shared_ptr<const std::vector<std::byte>> data)
      : data_(std::move(data)) {}
  Result<std::size_t> read(std::span<std::byte> out) override {
    std::size_t n = std::min(out.size(), data_->size() - pos_);
    std::memcpy(out.data(), data_->data() + pos_, n);
    pos_ += n;
    return n;
  }
  bool supports_read_at() const noexcept override { return true; }
  Result<std::size_t> read_at(std::uint64_t offset,
                              std::span<std::byte> out) override {
    if (offset >= data_->size()) return std::size_t{0};
    std::size_t n = std::min<std::uint64_t>(out.size(),
                                            data_->size() - offset);
    std::memcpy(out.data(), data_->data() + offset, n);
    return n;
  }
  std::uint64_t size() const noexcept override { return data_->size(); }

 private:
  std::shared_ptr<const std::vector<std::byte>> data_;
  std::size_t pos_ = 0;
};

class MemoryBackend final : public StorageBackend {
 public:
  MemoryBackend() : store_(std::make_shared<MemoryStore>()) {}

  Result<std::unique_ptr<Writer>> create(const std::string& key) override {
    return std::unique_ptr<Writer>(new MemoryWriter(store_, key));
  }
  Result<std::unique_ptr<Reader>> open(const std::string& key) override {
    std::lock_guard<std::mutex> lock(store_->mu);
    auto it = store_->objects.find(key);
    if (it == store_->objects.end()) {
      return not_found("no such object: " + key);
    }
    return std::unique_ptr<Reader>(new MemoryReader(it->second));
  }
  Status remove(const std::string& key) override {
    std::lock_guard<std::mutex> lock(store_->mu);
    if (store_->objects.erase(key) == 0) {
      return not_found("no such object: " + key);
    }
    return Status::ok();
  }
  Result<std::vector<std::string>> list() override {
    std::lock_guard<std::mutex> lock(store_->mu);
    std::vector<std::string> keys;
    keys.reserve(store_->objects.size());
    for (const auto& [k, data] : store_->objects) keys.push_back(k);
    return keys;
  }
  bool exists(const std::string& key) override {
    std::lock_guard<std::mutex> lock(store_->mu);
    return store_->objects.count(key) > 0;
  }
  std::uint64_t total_bytes_stored() const noexcept override {
    return store_->total.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<MemoryStore> store_;
};

// ------------------------------------------------------------------- null

class NullWriter final : public Writer {
 public:
  explicit NullWriter(std::atomic<std::uint64_t>* total) : total_(total) {}
  Status write(std::span<const std::byte> data) override {
    bytes_ += data.size();
    return Status::ok();
  }
  Status close() override {
    if (!closed_) {
      closed_ = true;
      total_->fetch_add(bytes_, std::memory_order_relaxed);
    }
    return Status::ok();
  }
  std::uint64_t bytes_written() const noexcept override { return bytes_; }

 private:
  std::uint64_t bytes_ = 0;
  bool closed_ = false;
  std::atomic<std::uint64_t>* total_;
};

class NullBackend final : public StorageBackend {
 public:
  Result<std::unique_ptr<Writer>> create(const std::string&) override {
    return std::unique_ptr<Writer>(new NullWriter(&total_));
  }
  Result<std::unique_ptr<Reader>> open(const std::string& key) override {
    return not_found("null backend stores nothing: " + key);
  }
  Status remove(const std::string&) override { return Status::ok(); }
  Result<std::vector<std::string>> list() override {
    return std::vector<std::string>{};
  }
  bool exists(const std::string&) override { return false; }
  std::uint64_t total_bytes_stored() const noexcept override {
    return total_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> total_{0};
};

}  // namespace

std::unique_ptr<StorageBackend> make_memory_backend() {
  return std::make_unique<MemoryBackend>();
}

std::unique_ptr<StorageBackend> make_null_backend() {
  return std::make_unique<NullBackend>();
}

// -------------------------------------------------------------- throttled

class ThrottledBackend::ThrottledWriter final : public Writer {
 public:
  ThrottledWriter(std::unique_ptr<Writer> inner, double bytes_per_second,
                  bool really_sleep,
                  std::shared_ptr<std::atomic<std::uint64_t>> counter)
      : inner_(std::move(inner)),
        bps_(bytes_per_second),
        sleep_(really_sleep),
        counter_(std::move(counter)) {}

  Status write(std::span<const std::byte> data) override {
    ICKPT_RETURN_IF_ERROR(inner_->write(data));
    counter_->fetch_add(data.size(), std::memory_order_relaxed);
    if (sleep_ && bps_ > 0) {
      auto stall = std::chrono::duration<double>(
          static_cast<double>(data.size()) / bps_);
      std::this_thread::sleep_for(stall);
    }
    return Status::ok();
  }
  Status close() override { return inner_->close(); }
  std::uint64_t bytes_written() const noexcept override {
    return inner_->bytes_written();
  }

 private:
  std::unique_ptr<Writer> inner_;
  double bps_;
  bool sleep_;
  std::shared_ptr<std::atomic<std::uint64_t>> counter_;
};

ThrottledBackend::ThrottledBackend(StorageBackend& inner,
                                   double bytes_per_second, bool really_sleep)
    : inner_(inner),
      bytes_per_second_(bytes_per_second),
      really_sleep_(really_sleep),
      throttled_bytes_(std::make_shared<std::atomic<std::uint64_t>>(0)) {}

Result<std::unique_ptr<Writer>> ThrottledBackend::create(
    const std::string& key) {
  auto w = inner_.create(key);
  if (!w.is_ok()) return w.status();
  return std::unique_ptr<Writer>(
      new ThrottledWriter(std::move(w.value()), bytes_per_second_,
                          really_sleep_, throttled_bytes_));
}

Result<std::unique_ptr<Reader>> ThrottledBackend::open(
    const std::string& key) {
  return inner_.open(key);
}
Status ThrottledBackend::remove(const std::string& key) {
  return inner_.remove(key);
}
Result<std::vector<std::string>> ThrottledBackend::list() {
  return inner_.list();
}
bool ThrottledBackend::exists(const std::string& key) {
  return inner_.exists(key);
}
std::uint64_t ThrottledBackend::total_bytes_stored() const noexcept {
  return inner_.total_bytes_stored();
}
double ThrottledBackend::modeled_seconds() const noexcept {
  if (bytes_per_second_ <= 0) return 0;
  return static_cast<double>(
             throttled_bytes_->load(std::memory_order_relaxed)) /
         bytes_per_second_;
}

// ---------------------------------------------------------------- metered

class MeteredBackend::MeteredWriter final : public Writer {
 public:
  MeteredWriter(std::unique_ptr<Writer> inner, obs::Counter& objects,
                obs::Counter& bytes, obs::Histogram& write_ns,
                obs::Histogram& object_bytes)
      : inner_(std::move(inner)),
        objects_(objects),
        bytes_(bytes),
        write_ns_(write_ns),
        object_bytes_(object_bytes),
        start_ns_(obs::now_ns()) {}

  Status write(std::span<const std::byte> data) override {
    return inner_->write(data);
  }

  Status close() override {
    ICKPT_RETURN_IF_ERROR(inner_->close());
    const std::uint64_t n = inner_->bytes_written();
    objects_.inc();
    bytes_.inc(n);
    if (obs::enabled()) {
      write_ns_.record(obs::now_ns() - start_ns_);
      object_bytes_.record(n);
    }
    return Status::ok();
  }

  std::uint64_t bytes_written() const noexcept override {
    return inner_->bytes_written();
  }

 private:
  std::unique_ptr<Writer> inner_;
  obs::Counter& objects_;
  obs::Counter& bytes_;
  obs::Histogram& write_ns_;
  obs::Histogram& object_bytes_;
  std::uint64_t start_ns_;
};

MeteredBackend::MeteredBackend(StorageBackend& inner,
                               const std::string& prefix)
    : inner_(inner),
      objects_(obs::registry().counter(prefix + ".objects")),
      bytes_(obs::registry().counter(prefix + ".bytes")),
      write_ns_(obs::registry().histogram(prefix + ".write_ns")),
      object_bytes_(obs::registry().histogram(prefix + ".object_bytes",
                                              obs::Unit::kBytes)) {}

Result<std::unique_ptr<Writer>> MeteredBackend::create(
    const std::string& key) {
  auto w = inner_.create(key);
  if (!w.is_ok()) return w.status();
  return std::unique_ptr<Writer>(new MeteredWriter(
      std::move(w.value()), objects_, bytes_, write_ns_, object_bytes_));
}
Result<std::unique_ptr<Reader>> MeteredBackend::open(const std::string& key) {
  return inner_.open(key);
}
Status MeteredBackend::remove(const std::string& key) {
  return inner_.remove(key);
}
Result<std::vector<std::string>> MeteredBackend::list() {
  return inner_.list();
}
bool MeteredBackend::exists(const std::string& key) {
  return inner_.exists(key);
}
std::uint64_t MeteredBackend::total_bytes_stored() const noexcept {
  return inner_.total_bytes_stored();
}

// ----------------------------------------------------------------- faulty

class FaultyBackend::FaultyWriter final : public Writer {
 public:
  FaultyWriter(std::unique_ptr<Writer> inner,
               std::shared_ptr<std::atomic<std::uint64_t>> budget)
      : inner_(std::move(inner)), budget_(std::move(budget)) {}

  Status write(std::span<const std::byte> data) override {
    std::uint64_t before =
        budget_->load(std::memory_order_relaxed);
    if (before < data.size()) {
      budget_->store(0, std::memory_order_relaxed);
      return io_error("injected storage fault (budget exhausted)");
    }
    budget_->fetch_sub(data.size(), std::memory_order_relaxed);
    return inner_->write(data);
  }
  Status close() override { return inner_->close(); }
  std::uint64_t bytes_written() const noexcept override {
    return inner_->bytes_written();
  }

 private:
  std::unique_ptr<Writer> inner_;
  std::shared_ptr<std::atomic<std::uint64_t>> budget_;
};

FaultyBackend::FaultyBackend(StorageBackend& inner,
                             std::uint64_t fail_after_bytes)
    : inner_(inner),
      budget_(std::make_shared<std::atomic<std::uint64_t>>(
          fail_after_bytes)) {}

Result<std::unique_ptr<Writer>> FaultyBackend::create(const std::string& key) {
  auto w = inner_.create(key);
  if (!w.is_ok()) return w.status();
  return std::unique_ptr<Writer>(
      new FaultyWriter(std::move(w.value()), budget_));
}
Result<std::unique_ptr<Reader>> FaultyBackend::open(const std::string& key) {
  return inner_.open(key);
}
Status FaultyBackend::remove(const std::string& key) {
  return inner_.remove(key);
}
Result<std::vector<std::string>> FaultyBackend::list() {
  return inner_.list();
}
bool FaultyBackend::exists(const std::string& key) {
  return inner_.exists(key);
}
std::uint64_t FaultyBackend::total_bytes_stored() const noexcept {
  return inner_.total_bytes_stored();
}

}  // namespace ickpt::storage
