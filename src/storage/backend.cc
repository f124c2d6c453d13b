#include "storage/backend.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <string_view>

#include "common/io_util.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "storage/writeback.h"

namespace ickpt::storage {

namespace fs = std::filesystem;

// ------------------------------------------------------------------- file

namespace {

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

constexpr std::string_view kTmpSuffix = ".tmp";

/// True for the name of a write not yet published by close().
bool is_tmp_name(std::string_view name) {
  return name.ends_with(kTmpSuffix);
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
    if (durable_) writeback_.advance(fd_, bytes_);
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
  WritebackHint writeback_;  ///< durable only: the fdatasync finds less
};

/// Reads with pread(2) only: read() advances the reader's own cursor,
/// read_at() leaves it where it is.
class FileReader final : public Reader {
 public:
  FileReader(int fd, std::uint64_t size) : fd_(fd), size_(size) {}
  ~FileReader() override { ::close(fd_); }

  FileReader(const FileReader&) = delete;
  FileReader& operator=(const FileReader&) = delete;

  Result<std::size_t> read(std::span<std::byte> out) override {
    ICKPT_ASSIGN_OR_RETURN(got, read_at(pos_, out));
    pos_ += got;
    return got;
  }
  bool supports_read_at() const noexcept override { return true; }
  Result<std::size_t> read_at(std::uint64_t offset,
                              std::span<std::byte> out) override {
    if (offset >= size_) return std::size_t{0};
    for (;;) {
      const ssize_t n = ::pread(fd_, out.data(), out.size(),
                                static_cast<off_t>(offset));
      if (n >= 0) return static_cast<std::size_t>(n);
      if (errno != EINTR) {
        return io_error(std::string("file read failed: ") +
                        std::strerror(errno));
      }
    }
  }

  std::uint64_t size() const noexcept override { return size_; }

 private:
  int fd_;
  std::uint64_t size_;
  std::uint64_t pos_ = 0;
};

class FileBackend final : public StorageBackend {
 public:
  FileBackend(fs::path dir, FileBackendOptions options)
      : dir_(std::move(dir)), options_(options) {}

  Result<std::unique_ptr<Writer>> create(const std::string& key) override {
    if (is_tmp_name(key)) {
      return invalid_argument("key names an unpublished write: " + key);
    }
    fs::path final_path = dir_ / key;
    std::error_code ec;
    fs::create_directories(final_path.parent_path(), ec);
    fs::path tmp = final_path;
    tmp += kTmpSuffix;
    return std::unique_ptr<Writer>(new FileWriter(
        tmp, final_path, options_.durable_publish, &total_));
  }

  /// Only published regular files are objects: a key naming a directory
  /// (".", or a prefix like "rank0") or a ".tmp" sibling is kNotFound,
  /// as is a missing one.  One open(2) and one fstat(2); never throws.
  Result<std::unique_ptr<Reader>> open(const std::string& key) override {
    if (is_tmp_name(key)) return not_found("no such object: " + key);
    const fs::path p = dir_ / key;
    const int fd = ::open(p.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      if (errno == ENOENT || errno == ENOTDIR) {
        return not_found("no such object: " + key);
      }
      return io_error("open failed: " + p.string() + ": " +
                      std::strerror(errno));
    }
    struct stat st;
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
      ::close(fd);
      return not_found("no such object: " + key);
    }
    return std::unique_ptr<Reader>(
        new FileReader(fd, static_cast<std::uint64_t>(st.st_size)));
  }

  Status remove(const std::string& key) override {
    const fs::path p = dir_ / key;
    std::error_code ec;
    if (!is_object(key, p) || !fs::remove(p, ec)) {
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
      if (it->is_regular_file() && !is_tmp_name(it->path().string())) {
        // The iterator's paths extend dir_ as given, so the key is the
        // lexical remainder (fs::relative would canonicalize both paths,
        // a system call per component).
        keys.push_back(it->path().lexically_relative(dir_).string());
      }
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  bool exists(const std::string& key) override {
    return is_object(key, dir_ / key);
  }

  std::uint64_t total_bytes_stored() const noexcept override {
    return total_.load(std::memory_order_relaxed);
  }

 private:
  /// Objects are the published regular files; the ".tmp" siblings of
  /// in-flight writes and directories are not.
  static bool is_object(const std::string& key, const fs::path& p) {
    std::error_code ec;
    return !is_tmp_name(key) && fs::is_regular_file(p, ec);
  }

  fs::path dir_;
  FileBackendOptions options_;
  std::atomic<std::uint64_t> total_{0};
};

}  // namespace

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

}  // namespace ickpt::storage
