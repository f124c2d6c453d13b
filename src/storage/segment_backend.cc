#include "storage/segment_backend.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <vector>

#include "common/crc32.h"
#include "common/io_util.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "storage/writeback.h"

namespace ickpt::storage {

namespace fs = std::filesystem;

namespace {

// ------------------------------------------------------------ on-disk
// Authoritative prose twin: docs/FORMAT.md, "Segment store layout".

#pragma pack(push, 1)

/// Precedes every record (object or tombstone).  header_crc covers the
/// first 24 bytes plus the key, so a torn or misaligned header is
/// rejected before its lengths are trusted.
struct RecordHeader {
  std::uint32_t magic = 0x47455349;  // "ISEG"
  std::uint8_t type = 0;             // 1 object, 2 tombstone
  std::uint8_t reserved[3] = {0, 0, 0};
  std::uint32_t key_len = 0;
  std::uint64_t payload_len = 0;
  std::uint32_t payload_crc = 0;
  std::uint32_t header_crc = 0;
};
static_assert(sizeof(RecordHeader) == 28);

/// One footer entry per record, in record order (replay order matters:
/// later records supersede earlier ones).
struct FooterEntry {
  std::uint8_t type = 0;
  std::uint32_t key_len = 0;
  std::uint64_t payload_off = 0;  // absolute offset of payload in segment
  std::uint64_t payload_len = 0;
  std::uint32_t payload_crc = 0;
};
static_assert(sizeof(FooterEntry) == 25);

/// Fixed-size trailer at EOF of a sealed segment; locates and guards
/// the entries block so open() can index without scanning records.
struct FooterTrailer {
  std::uint32_t magic = 0x52544649;  // "IFTR"
  std::uint32_t entry_count = 0;
  std::uint64_t entries_bytes = 0;
  std::uint32_t entries_crc = 0;
  std::uint32_t end_magic = 0x444e4549;  // "IEND"
};
static_assert(sizeof(FooterTrailer) == 24);

#pragma pack(pop)

constexpr std::uint8_t kObject = 1;
constexpr std::uint8_t kTombstone = 2;
constexpr std::uint32_t kMaxKeyLen = 4096;

std::string segment_name(std::uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "seg-%010llu.seg",
                static_cast<unsigned long long>(id));
  return buf;
}

/// seg-<10 digits>.seg -> id; nullopt for anything else.
bool parse_segment_name(const std::string& name, std::uint64_t* id) {
  if (name.size() != 18 || name.rfind("seg-", 0) != 0 ||
      name.compare(14, 4, ".seg") != 0) {
    return false;
  }
  std::uint64_t v = 0;
  for (std::size_t i = 4; i < 14; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *id = v;
  return true;
}

std::uint32_t header_crc(const RecordHeader& h, std::string_view key) {
  Crc32 crc;
  crc.update(&h, offsetof(RecordHeader, header_crc));
  crc.update(key.data(), key.size());
  return crc.value();
}

RecordHeader make_header(std::uint8_t type, std::string_view key,
                         std::uint64_t payload_len,
                         std::uint32_t payload_crc) {
  RecordHeader h;
  h.type = type;
  h.key_len = static_cast<std::uint32_t>(key.size());
  h.payload_len = payload_len;
  h.payload_crc = payload_crc;
  h.header_crc = header_crc(h, key);
  return h;
}

std::span<const std::byte> header_bytes(const RecordHeader& h) {
  return {reinterpret_cast<const std::byte*>(&h), sizeof h};
}

std::span<const std::byte> key_bytes(std::string_view key) {
  return {reinterpret_cast<const std::byte*>(key.data()), key.size()};
}

struct SegmentMetrics {
  obs::Counter& fsync_calls;
  obs::Histogram& publish_sync_ns;
  obs::Counter& appends;
  obs::Counter& seals;
  obs::Counter& torn_records;
  obs::Counter& demotions;
  std::uint16_t publish_span;

  static SegmentMetrics& get() {
    auto& r = obs::registry();
    static SegmentMetrics m{
        r.counter("storage.fsync_calls"),
        r.histogram("storage.publish_sync_ns"),
        r.counter("storage.segment_appends"),
        r.counter("storage.segment_seals"),
        r.counter("storage.segment_torn_records"),
        r.counter("storage.segment_demotions"),
        obs::trace_name("ckpt.publish_sync", obs::TraceCat::kStorage)};
    return m;
  }
};

// ------------------------------------------------------------ in-memory

/// One segment file.  Immutable once it stops being the active
/// segment; the index entries and readers that point into it share it,
/// and its fd closes when the last of them goes.
struct SegmentFile {
  fs::path path;
  int fd = -1;  ///< O_RDWR (active) or O_RDONLY

  ~SegmentFile() {
    if (fd >= 0) ::close(fd);
  }
};

using SegPtr = std::shared_ptr<SegmentFile>;

/// A record as known to the index / replay.
struct Rec {
  std::uint8_t type = 0;
  std::string key;
  std::uint64_t payload_off = 0;
  std::uint64_t payload_len = 0;
  std::uint32_t payload_crc = 0;
};

struct IndexEntry {
  SegPtr seg;
  std::uint64_t payload_off = 0;
  std::uint64_t payload_len = 0;
  std::uint32_t payload_crc = 0;
};

Status pread_exact(int fd, void* buf, std::size_t n, std::uint64_t off,
                   const fs::path& path) {
  std::size_t done = 0;
  auto* p = static_cast<std::byte*>(buf);
  while (done < n) {
    const ssize_t got =
        ::pread(fd, p + done, n - done, static_cast<off_t>(off + done));
    if (got < 0) {
      if (errno == EINTR) continue;
      return io_error("pread failed: " + path.string() + ": " +
                      std::strerror(errno));
    }
    if (got == 0) return corruption("short read in " + path.string());
    done += static_cast<std::size_t>(got);
  }
  return Status::ok();
}

// -------------------------------------------------------------- reader

/// Reader over one committed object: read()/read_at() are pread into
/// the shared segment fd.
class SegmentReader final : public Reader {
 public:
  SegmentReader(SegPtr seg, std::uint64_t payload_off,
                std::uint64_t payload_len)
      : seg_(std::move(seg)), off_(payload_off), len_(payload_len) {}

  Result<std::size_t> read(std::span<std::byte> out) override {
    ICKPT_ASSIGN_OR_RETURN(got, read_at(pos_, out));
    pos_ += got;
    return got;
  }

  bool supports_read_at() const noexcept override { return true; }
  Result<std::size_t> read_at(std::uint64_t offset,
                              std::span<std::byte> out) override {
    if (offset >= len_) return std::size_t{0};
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(out.size(),
                                                         len_ - offset));
    ICKPT_RETURN_IF_ERROR(
        pread_exact(seg_->fd, out.data(), n, off_ + offset, seg_->path));
    return n;
  }

  std::uint64_t size() const noexcept override { return len_; }

 private:
  SegPtr seg_;
  std::uint64_t off_, len_;
  std::uint64_t pos_ = 0;
};

// ------------------------------------------------------------- backend

/// Stands in for a streamed record's header until close() writes the
/// real one: magic 0, which no scan accepts.
constexpr RecordHeader kPlaceholder = [] {
  RecordHeader h;
  h.magic = 0;
  return h;
}();

class SegmentBackendImpl final : public StorageBackend {
 public:
  /// A record payload given as consecutive pieces.
  using Parts = std::span<const std::span<const std::byte>>;

  SegmentBackendImpl(fs::path dir, SegmentBackendOptions options)
      : dir_(std::move(dir)), options_(options) {}

  ~SegmentBackendImpl() override {
    std::lock_guard<std::mutex> lock(mu_);
    (void)seal_active_locked();  // best effort: footer for fast reopen
  }

  Status init();

  Result<std::unique_ptr<Writer>> create(const std::string& key) override;

  Result<std::unique_ptr<Reader>> open(const std::string& key) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) return not_found("no such object: " + key);
    return std::unique_ptr<Reader>(new SegmentReader(
        it->second.seg, it->second.payload_off, it->second.payload_len));
  }

  Status remove(const std::string& key) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) return not_found("no such object: " + key);
    ICKPT_RETURN_IF_ERROR(append_locked(kTombstone, key, {}, 0));
    index_.erase(it);
    return Status::ok();
  }

  Result<std::vector<std::string>> list() override {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> keys;
    keys.reserve(index_.size());
    for (const auto& [k, e] : index_) keys.push_back(k);
    return keys;  // std::map iterates sorted
  }

  bool exists(const std::string& key) override {
    std::lock_guard<std::mutex> lock(mu_);
    return index_.count(key) > 0;
  }

  std::uint64_t total_bytes_stored() const noexcept override {
    return total_.load(std::memory_order_relaxed);
  }

 private:
  class SegmentWriter;

  /// Point the index at the object record that ends at active_end_.
  /// Caller holds mu_.
  void index_object_locked(const std::string& key, std::uint64_t len,
                           std::uint32_t crc) {
    index_[key] = IndexEntry{active_, active_end_ - len, len, crc};
  }

  /// Buffered writers and demoted streams hold their objects in parts
  /// of kPartBytes, so each byte is copied once, where a doubling
  /// vector copies and faults in two to three times the object.
  static constexpr std::size_t kPartBytes = 1u << 20;

  static std::vector<std::byte> new_part() {
    std::vector<std::byte> part;
    part.reserve(kPartBytes);
    return part;
  }

  static std::uint64_t parts_size(Parts parts) {
    std::uint64_t n = 0;
    for (const auto part : parts) n += part.size();
    return n;
  }

  // ---- Streams.  At most one writer at a time leases the active
  // segment's tail; the functions below run under mu_.

  /// Lease the tail to `w` when no stream holds it.
  Status lease_locked(SegmentWriter& w);
  /// Write `data` into the open stream `w`, at its next offset.
  Status stream_locked(SegmentWriter& w, std::span<const std::byte> data);
  /// Write `w`'s real header, publish its record and release the lease.
  Status finish_stream_locked(SegmentWriter& w);
  /// Give `w` up unclosed: drop its streamed bytes.
  void abort_locked(SegmentWriter& w);
  /// Make the open stream, if any, a buffered writer again: read its
  /// bytes back into parts and cut the tail to the last committed
  /// record, so the caller's append lands there.
  Status demote_stream_locked();

  /// Cut the active segment back to its last committed record.
  Status truncate_tail_locked() {
    if (::ftruncate(active_->fd, static_cast<off_t>(active_end_)) != 0) {
      return io_error("ftruncate failed: " + active_->path.string() + ": " +
                      std::strerror(errno));
    }
    return Status::ok();
  }

  /// Make sure there is an active segment with room, rolling to a fresh
  /// one once the active one is full.  Caller holds mu_.
  Status ensure_room_locked() {
    if (active_ != nullptr && active_end_ < options_.segment_bytes) {
      return Status::ok();
    }
    ICKPT_RETURN_IF_ERROR(seal_active_locked());
    return start_segment_locked();
  }

  /// Append one record, whose payload is `parts` in order, to the
  /// active segment (rolling/creating it as needed) and, when durable,
  /// sync it.  Caller holds mu_.
  Status append_locked(std::uint8_t type, const std::string& key,
                       Parts parts, std::uint32_t payload_crc) {
    ICKPT_RETURN_IF_ERROR(demote_stream_locked());
    ICKPT_RETURN_IF_ERROR(ensure_room_locked());
    const std::uint64_t payload_len = parts_size(parts);
    const RecordHeader h = make_header(type, key, payload_len, payload_crc);
    // One append at the tail: header || key || payload.  Sequential
    // writes only — the whole point of the log structure.
    pieces_.clear();
    pieces_.push_back(header_bytes(h));
    pieces_.push_back(key_bytes(key));
    pieces_.insert(pieces_.end(), parts.begin(), parts.end());
    auto st = ioutil::pwrite_full(active_->fd, pieces_, active_end_);
    if (!st.is_ok()) {
      // The next open()'s scan would drop the torn tail; cut it now so
      // the next append does not leave it behind its own record.
      (void)truncate_tail_locked();
      return st;
    }
    return landed_locked(type, key, payload_len, payload_crc);
  }

  /// Account for the record just written at active_end_ and, when
  /// durable, sync it.  Caller holds mu_.
  Status landed_locked(std::uint8_t type, const std::string& key,
                       std::uint64_t payload_len, std::uint32_t payload_crc) {
    active_end_ += sizeof(RecordHeader) + key.size() + payload_len;
    active_records_.push_back(Rec{type, key, active_end_ - payload_len,
                                  payload_len, payload_crc});
    unsynced_ = true;
    SegmentMetrics::get().appends.inc();
    if (options_.durable) ICKPT_RETURN_IF_ERROR(sync_active_locked());
    return Status::ok();
  }

  /// Commit one buffered object (the close() of a writer without the
  /// lease): its payload is `parts`, in order, whose CRC is `crc`.
  Status commit(const std::string& key, Parts parts, std::uint32_t crc) {
    std::lock_guard<std::mutex> lock(mu_);
    ICKPT_RETURN_IF_ERROR(append_locked(kObject, key, parts, crc));
    const std::uint64_t len = parts_size(parts);
    index_object_locked(key, len, crc);
    total_.fetch_add(len, std::memory_order_relaxed);
    return Status::ok();
  }

  Status sync_active_locked() {
    if (!unsynced_ || active_ == nullptr) return Status::ok();
    auto& m = SegmentMetrics::get();
    obs::ScopedTimer timer(m.publish_sync_ns);
    obs::TraceSpan span(m.publish_span);
    m.fsync_calls.inc();
    if (::fdatasync(active_->fd) != 0) {
      return io_error("fdatasync failed: " + active_->path.string());
    }
    unsynced_ = false;
    return Status::ok();
  }

  Status start_segment_locked() {
    auto seg = std::make_shared<SegmentFile>();
    seg->path = dir_ / segment_name(next_id_++);
    seg->fd = ::open(seg->path.c_str(),
                     O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (seg->fd < 0) {
      return io_error("cannot create segment: " + seg->path.string() + ": " +
                      std::strerror(errno));
    }
    // The segment file's existence must itself survive a crash before
    // anything committed into it can be trusted durable.
    if (options_.durable) {
      int dfd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
      if (dfd >= 0) {
        SegmentMetrics::get().fsync_calls.inc();
        (void)::fsync(dfd);
        ::close(dfd);
      }
    }
    active_ = std::move(seg);
    active_end_ = 0;
    active_records_.clear();
    unsynced_ = false;
    return Status::ok();
  }

  /// Write the footer for the active segment and retire it: from here
  /// on only the index entries and readers that point into it hold it.
  /// Caller holds mu_.
  Status seal_active_locked() {
    if (active_ == nullptr) return Status::ok();
    ICKPT_RETURN_IF_ERROR(demote_stream_locked());
    // Entries block, in record order.
    buf_.clear();
    for (const Rec& r : active_records_) {
      FooterEntry e;
      e.type = r.type;
      e.key_len = static_cast<std::uint32_t>(r.key.size());
      e.payload_off = r.payload_off;
      e.payload_len = r.payload_len;
      e.payload_crc = r.payload_crc;
      const auto* eb = reinterpret_cast<const std::byte*>(&e);
      buf_.insert(buf_.end(), eb, eb + sizeof e);
      const auto* kb = reinterpret_cast<const std::byte*>(r.key.data());
      buf_.insert(buf_.end(), kb, kb + r.key.size());
    }
    FooterTrailer t;
    t.entry_count = static_cast<std::uint32_t>(active_records_.size());
    t.entries_bytes = buf_.size();
    t.entries_crc = crc32(buf_);
    const auto* tb = reinterpret_cast<const std::byte*>(&t);
    buf_.insert(buf_.end(), tb, tb + sizeof t);
    const std::span<const std::byte> footer[] = {buf_};
    ICKPT_RETURN_IF_ERROR(
        ioutil::pwrite_full(active_->fd, footer, active_end_));
    unsynced_ = true;
    ICKPT_RETURN_IF_ERROR(sync_active_locked());
    SegmentMetrics::get().seals.inc();
    active_ = nullptr;
    active_records_.clear();
    active_end_ = 0;
    return Status::ok();
  }

  /// Records of an on-disk segment, via its footer when sealed, else
  /// by a scan that re-CRCs every record and stops at the first one
  /// that is torn or invalid.
  static Result<std::vector<Rec>> load_records(const SegmentFile& seg,
                                               std::uint64_t file_size);

  /// Apply `recs` to the index in record order: later records
  /// supersede earlier ones.  Caller holds mu_.
  void replay_segment_locked(const SegPtr& seg, const std::vector<Rec>& recs) {
    for (const Rec& r : recs) {
      if (r.type == kObject) {
        index_[r.key] = IndexEntry{seg, r.payload_off, r.payload_len,
                                   r.payload_crc};
      } else {
        index_.erase(r.key);
      }
    }
  }

  fs::path dir_;
  SegmentBackendOptions options_;
  std::mutex mu_;
  std::map<std::string, IndexEntry> index_;
  SegPtr active_;
  /// End of the last committed record of the active segment: every
  /// append, and the stream's record, starts here (under mu_).
  std::uint64_t active_end_ = 0;
  std::vector<Rec> active_records_;
  /// The writer that leases the active segment's tail, or null.  While
  /// it is set, the segment's bytes past active_end_ are its record.
  SegmentWriter* stream_ = nullptr;
  std::vector<std::byte> buf_;  ///< footer scratch (under mu_)
  std::vector<std::span<const std::byte>> pieces_;  ///< append scratch
  std::uint64_t next_id_ = 0;
  bool unsynced_ = false;
  std::atomic<std::uint64_t> total_{0};
};

/// Writes one object.  A writer created while no other holds the
/// active segment's tail leases it, and streams: each write() goes
/// straight into the segment behind a placeholder header, the payload
/// CRC is updated as the bytes pass, and close() writes the real
/// header last, then syncs once.  A crash before the header lands
/// leaves a torn tail, which the reopen scan drops.
///
/// Every other writer buffers its object in parts and commits it as
/// one record on close().  So does a stream that another append
/// demoted — a buffered commit, a tombstone or a seal: the demotion
/// reads its bytes back into parts.  Records thus never interleave,
/// and no append waits for a stream to finish.
class SegmentBackendImpl::SegmentWriter final : public Writer {
 public:
  SegmentWriter(SegmentBackendImpl& backend, std::string key)
      : backend_(backend), key_(std::move(key)) {}

  ~SegmentWriter() override {
    if (closed_) return;
    std::lock_guard<std::mutex> lock(backend_.mu_);
    backend_.abort_locked(*this);
  }

  Status write(std::span<const std::byte> data) override {
    if (closed_) return failed_precondition("write after close");
    if (data.empty()) return Status::ok();
    crc_.update(data.data(), data.size());
    {
      std::lock_guard<std::mutex> lock(backend_.mu_);
      if (backend_.stream_ == this) return backend_.stream_locked(*this, data);
    }
    ICKPT_RETURN_IF_ERROR(error_);
    bytes_ += data.size();
    while (!data.empty()) {
      if (parts_.empty() || parts_.back().size() == kPartBytes) {
        parts_.push_back(new_part());
      }
      auto& part = parts_.back();
      const auto n = std::min(data.size(), kPartBytes - part.size());
      part.insert(part.end(), data.begin(),
                  data.begin() + static_cast<std::ptrdiff_t>(n));
      data = data.subspan(n);
    }
    return Status::ok();
  }

  Status close() override {
    if (closed_) return Status::ok();
    closed_ = true;
    {
      std::lock_guard<std::mutex> lock(backend_.mu_);
      if (backend_.stream_ == this) return backend_.finish_stream_locked(*this);
    }
    Status st = error_;
    if (st.is_ok()) {
      const std::vector<std::span<const std::byte>> parts(parts_.begin(),
                                                          parts_.end());
      st = backend_.commit(key_, parts, crc_.value());
    }
    parts_.clear();
    return st;
  }

  std::uint64_t bytes_written() const noexcept override { return bytes_; }

 private:
  friend class SegmentBackendImpl;

  SegmentBackendImpl& backend_;
  std::string key_;
  Crc32 crc_;  ///< of every byte written
  std::uint64_t bytes_ = 0;
  /// A stream's record starts here, at the active_end_ of its lease.
  std::uint64_t record_off_ = 0;
  WritebackHint writeback_;  ///< a durable stream's early writeback
  std::vector<std::vector<std::byte>> parts_;  ///< a buffered object
  Status error_;  ///< set when a stream's bytes could not be kept
  bool closed_ = false;
};

Result<std::unique_ptr<Writer>> SegmentBackendImpl::create(
    const std::string& key) {
  if (key.empty() || key.size() > kMaxKeyLen) {
    return invalid_argument("bad key length: " + key);
  }
  auto writer = std::make_unique<SegmentWriter>(*this, key);
  Status st;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stream_ == nullptr) st = lease_locked(*writer);
  }
  // On failure the writer dies here, after the lock is released.
  ICKPT_RETURN_IF_ERROR(st);
  return std::unique_ptr<Writer>(std::move(writer));
}

Status SegmentBackendImpl::lease_locked(SegmentWriter& w) {
  ICKPT_RETURN_IF_ERROR(ensure_room_locked());
  stream_ = &w;
  w.record_off_ = active_end_;
  w.writeback_ = WritebackHint(active_end_);
  return Status::ok();
}

Status SegmentBackendImpl::stream_locked(SegmentWriter& w,
                                         std::span<const std::byte> data) {
  const std::uint64_t payload_off =
      w.record_off_ + sizeof(RecordHeader) + w.key_.size();
  Status st;
  if (w.bytes_ == 0) {
    // The record's first bytes go out with the placeholder and the key.
    const std::span<const std::byte> pieces[] = {header_bytes(kPlaceholder),
                                                 key_bytes(w.key_), data};
    st = ioutil::pwrite_full(active_->fd, pieces, w.record_off_);
  } else {
    const std::span<const std::byte> pieces[] = {data};
    st = ioutil::pwrite_full(active_->fd, pieces, payload_off + w.bytes_);
  }
  if (!st.is_ok()) {
    abort_locked(w);
    w.error_ = st;
    return st;
  }
  w.bytes_ += data.size();
  if (options_.durable) {
    w.writeback_.advance(active_->fd, payload_off + w.bytes_);
  }
  return Status::ok();
}

Status SegmentBackendImpl::finish_stream_locked(SegmentWriter& w) {
  stream_ = nullptr;
  const std::uint32_t crc = w.crc_.value();
  const RecordHeader h = make_header(kObject, w.key_, w.bytes_, crc);
  // The real header goes last: until it lands, the placeholder keeps
  // the record invisible to a reopen.  An empty object never wrote its
  // key, so it goes too.
  const std::span<const std::byte> pieces[] = {header_bytes(h),
                                               key_bytes(w.key_)};
  auto st = ioutil::pwrite_full(
      active_->fd, std::span(pieces).first(w.bytes_ == 0 ? 2 : 1),
      w.record_off_);
  if (!st.is_ok()) {
    (void)truncate_tail_locked();
    return st;
  }
  ICKPT_RETURN_IF_ERROR(landed_locked(kObject, w.key_, w.bytes_, crc));
  index_object_locked(w.key_, w.bytes_, crc);
  total_.fetch_add(w.bytes_, std::memory_order_relaxed);
  return Status::ok();
}

void SegmentBackendImpl::abort_locked(SegmentWriter& w) {
  if (stream_ == &w) {
    stream_ = nullptr;
    (void)truncate_tail_locked();  // the next record lands where it began
  }
}

Status SegmentBackendImpl::demote_stream_locked() {
  if (stream_ == nullptr) return Status::ok();
  SegmentWriter& w = *stream_;
  stream_ = nullptr;
  SegmentMetrics::get().demotions.inc();
  const std::uint64_t payload_off =
      w.record_off_ + sizeof(RecordHeader) + w.key_.size();
  for (std::uint64_t done = 0; done < w.bytes_ && w.error_.is_ok();) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kPartBytes, w.bytes_ - done));
    w.parts_.push_back(new_part());
    w.parts_.back().resize(n);
    w.error_ = pread_exact(active_->fd, w.parts_.back().data(), n,
                           payload_off + done, active_->path);
    done += n;
  }
  return truncate_tail_locked();
}

Result<std::vector<Rec>> SegmentBackendImpl::load_records(
    const SegmentFile& seg, std::uint64_t file_size) {
  std::vector<Rec> recs;

  // Sealed fast path: trailer at EOF locates the entries block.
  if (file_size >= sizeof(FooterTrailer)) {
    FooterTrailer t;
    auto st = pread_exact(seg.fd, &t, sizeof t, file_size - sizeof t,
                          seg.path);
    if (st.is_ok() && t.magic == FooterTrailer{}.magic &&
        t.end_magic == FooterTrailer{}.end_magic &&
        t.entries_bytes <= file_size - sizeof t) {
      std::vector<std::byte> entries(t.entries_bytes);
      const std::uint64_t entries_off =
          file_size - sizeof t - t.entries_bytes;
      st = pread_exact(seg.fd, entries.data(), entries.size(), entries_off,
                       seg.path);
      if (st.is_ok() && crc32(entries) == t.entries_crc) {
        std::size_t off = 0;
        bool ok = true;
        for (std::uint32_t i = 0; i < t.entry_count && ok; ++i) {
          if (off + sizeof(FooterEntry) > entries.size()) {
            ok = false;
            break;
          }
          FooterEntry e;
          std::memcpy(&e, entries.data() + off, sizeof e);
          off += sizeof e;
          // No sum of on-disk lengths: a crafted one could wrap.
          if (e.key_len > kMaxKeyLen || off + e.key_len > entries.size() ||
              e.payload_off > entries_off ||
              e.payload_len > entries_off - e.payload_off) {
            ok = false;
            break;
          }
          Rec r;
          r.type = e.type;
          r.key.assign(reinterpret_cast<const char*>(entries.data()) + off,
                       e.key_len);
          off += e.key_len;
          r.payload_off = e.payload_off;
          r.payload_len = e.payload_len;
          r.payload_crc = e.payload_crc;
          recs.push_back(std::move(r));
        }
        if (ok && off == entries.size()) return recs;
        recs.clear();  // corrupt footer: fall through to the scan
      }
    }
  }

  // Scan path: walk records from the front; the first structurally or
  // CRC-invalid record ends the valid prefix (an append the crash
  // interrupted never committed — "complete object or nothing").
  std::uint64_t off = 0;
  std::vector<std::byte> payload;
  while (off + sizeof(RecordHeader) <= file_size) {
    RecordHeader h;
    ICKPT_RETURN_IF_ERROR(pread_exact(seg.fd, &h, sizeof h, off, seg.path));
    if (h.magic != RecordHeader{}.magic ||
        (h.type != kObject && h.type != kTombstone) ||
        h.key_len == 0 || h.key_len > kMaxKeyLen) {
      break;
    }
    // Bound each length by the bytes left, never their sum: a crafted
    // payload_len near 2^64 would wrap the sum past the check.
    const std::uint64_t left = file_size - off - sizeof h;
    if (h.key_len > left || h.payload_len > left - h.key_len) break;
    const std::uint64_t total = sizeof h + h.key_len + h.payload_len;
    std::string key(h.key_len, '\0');
    ICKPT_RETURN_IF_ERROR(
        pread_exact(seg.fd, key.data(), key.size(), off + sizeof h, seg.path));
    if (header_crc(h, key) != h.header_crc) break;
    const std::uint64_t payload_off = off + sizeof h + h.key_len;
    if (h.payload_len > 0) {
      payload.resize(h.payload_len);
      ICKPT_RETURN_IF_ERROR(pread_exact(seg.fd, payload.data(),
                                        payload.size(), payload_off, seg.path));
      if (crc32(payload) != h.payload_crc) break;
    }
    recs.push_back(Rec{h.type, std::move(key), payload_off, h.payload_len,
                       h.payload_crc});
    off += total;
  }
  if (off < file_size) SegmentMetrics::get().torn_records.inc();
  return recs;
}

Status SegmentBackendImpl::init() {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return io_error("cannot create " + dir_.string() + ": " + ec.message());
  }

  std::map<std::uint64_t, fs::path> found;
  for (auto it = fs::directory_iterator(dir_, ec);
       !ec && it != fs::directory_iterator(); ++it) {
    std::uint64_t id = 0;
    if (it->is_regular_file() &&
        parse_segment_name(it->path().filename().string(), &id)) {
      found[id] = it->path();
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, path] : found) {
    auto seg = std::make_shared<SegmentFile>();
    seg->path = path;
    seg->fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (seg->fd < 0) {
      return io_error("cannot open segment: " + path.string() + ": " +
                      std::strerror(errno));
    }
    struct stat st{};
    if (::fstat(seg->fd, &st) != 0) {
      return io_error("fstat failed: " + path.string());
    }
    ICKPT_ASSIGN_OR_RETURN(
        recs, load_records(*seg, static_cast<std::uint64_t>(st.st_size)));
    replay_segment_locked(seg, recs);
    next_id_ = std::max(next_id_, id + 1);
  }
  return Status::ok();
}

}  // namespace

Result<std::unique_ptr<StorageBackend>> make_segment_backend(
    const std::string& directory) {
  return make_segment_backend(directory, SegmentBackendOptions{});
}

Result<std::unique_ptr<StorageBackend>> make_segment_backend(
    const std::string& directory, const SegmentBackendOptions& options) {
  if (options.segment_bytes == 0) {
    return invalid_argument("segment_bytes must be > 0");
  }
  auto backend = std::make_unique<SegmentBackendImpl>(directory, options);
  ICKPT_RETURN_IF_ERROR(backend->init());
  return std::unique_ptr<StorageBackend>(std::move(backend));
}

bool segment_store_present(const std::string& directory) {
  std::error_code ec;
  for (auto it = fs::directory_iterator(directory, ec);
       !ec && it != fs::directory_iterator(); ++it) {
    std::uint64_t id = 0;
    if (it->is_regular_file() &&
        parse_segment_name(it->path().filename().string(), &id)) {
      return true;
    }
  }
  return false;
}

}  // namespace ickpt::storage
