#include "checkpoint/restore.h"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <set>
#include <utility>

#include "checkpoint/compress.h"
#include "common/crc32.h"
#include "common/io_util.h"
#include "common/page.h"
#include "common/thread_pool.h"
#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace ickpt::checkpoint {

namespace {

/// Stage metrics for the restore pipeline (see DESIGN.md §10).
struct RestoreMetrics {
  obs::Counter& chains;
  obs::Counter& objects;
  obs::Counter& pages_decoded;
  obs::Counter& pages_skipped;
  obs::Counter& bytes_read;
  obs::Counter& truncated_tails;
  obs::Histogram& plan_ns;
  obs::Histogram& probe_ns;
  obs::Histogram& decode_ns;
  std::uint16_t t_plan;         ///< "restore.plan" span
  std::uint16_t t_list;         ///< "restore.list" span (in the plan)
  std::uint16_t t_probe;        ///< "restore.probe" span (in the plan)
  std::uint16_t t_decode_read;  ///< "restore.decode_read" span
  std::uint16_t t_fail;         ///< "restore.fail" instant

  static RestoreMetrics& get() {
    auto& r = obs::registry();
    static RestoreMetrics m{r.counter("restore.chains"),
                            r.counter("restore.objects"),
                            r.counter("restore.pages_decoded"),
                            r.counter("restore.pages_skipped"),
                            r.counter("restore.bytes_read"),
                            r.counter("restore.truncated_tails"),
                            r.histogram("restore.plan_ns"),
                            r.histogram("restore.probe_ns"),
                            r.histogram("restore.decode_ns"),
                            obs::trace_name("restore.plan",
                                            obs::TraceCat::kRestore),
                            obs::trace_name("restore.list",
                                            obs::TraceCat::kRestore),
                            obs::trace_name("restore.probe",
                                            obs::TraceCat::kRestore),
                            obs::trace_name("restore.decode_read",
                                            obs::TraceCat::kRestore),
                            obs::trace_name("restore.fail",
                                            obs::TraceCat::kRestore)};
    return m;
  }
};

/// The most bytes one read_at asks for.  Restore merges consecutive
/// winning chunks of one object into reads up to this size (a single
/// larger chunk is read alone); the whole-object parse reads the object
/// in pieces of this size.
constexpr std::uint64_t kMaxRead = 1 << 20;

/// Read [offset, offset + out.size()) of an object with read_at(),
/// counting every byte served in restore.bytes_read.  ioutil::read_full
/// retries short counts; an object that ends first is kCorruption.
Status read_range(storage::Reader& in, std::uint64_t offset,
                  std::span<std::byte> out) {
  auto& bytes_read = RestoreMetrics::get().bytes_read;
  // `rest` is the still-unfilled tail of `out`.
  auto got = ioutil::read_full(
      [&](std::span<std::byte> rest) {
        auto served = in.read_at(
            offset + static_cast<std::uint64_t>(rest.data() - out.data()),
            rest);
        if (served.is_ok()) bytes_read.inc(*served);
        return served;
      },
      out);
  if (!got.is_ok()) return got.status();
  if (*got < out.size()) return corruption("truncated checkpoint file");
  return Status::ok();
}

template <typename T>
std::span<std::byte> bytes_of(T& v) {
  return {reinterpret_cast<std::byte*>(&v), sizeof v};
}

Status validate_header(const FileHeader& h, const std::string& key) {
  if (h.magic != kMagic) return corruption("bad magic in " + key);
  if (h.version != kFormatVersion) {
    return unsupported("unknown checkpoint version in " + key);
  }
  if (h.page_size == 0 || (h.page_size & (h.page_size - 1)) != 0) {
    return corruption("bad page size in " + key);
  }
  if (h.kind != static_cast<std::uint16_t>(Kind::kFull) &&
      h.kind != static_cast<std::uint16_t>(Kind::kIncremental)) {
    return corruption("bad checkpoint kind in " + key);
  }
  if (h.block_count > 1u << 20) {
    return corruption("implausible block count in " + key);
  }
  return Status::ok();
}

Status validate_block(const BlockHeader& bh, const std::string& key) {
  if (bh.name_len > 4096) return corruption("block name too long in " + key);
  if (bh.bytes > (std::uint64_t{1} << 40)) {
    return corruption("implausible block size in " + key);
  }
  return Status::ok();
}

/// A fresh zero block of `len` bytes.  Its 2 MiB-aligned interior is
/// advised onto transparent huge pages, which take 512 times fewer
/// faults when decode writes it.  A hint only: without huge pages
/// nothing changes.
BlockBytes fresh_block(std::size_t len) {
  constexpr std::uintptr_t kHugePage = std::uintptr_t{2} << 20;
  BlockBytes out(len);
  const auto begin = reinterpret_cast<std::uintptr_t>(out.data());
  const std::uintptr_t lo = (begin + kHugePage - 1) & ~(kHugePage - 1);
  const std::uintptr_t hi = (begin + len) & ~(kHugePage - 1);
  if (hi > lo) {
    (void)::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
  }
  return out;
}

// ===================================================================
// Sequential parse (fsck and the test oracle): every byte, every CRC.
// ===================================================================

/// Sequential reader with CRC tracking and strict bounds.  It fills a
/// buffer with one read_at of up to kMaxRead bytes at a time and parses
/// from memory, so an object costs one store call per MiB it spans plus
/// one that finds its end (over RemoteBackend each is a round trip).
/// Its reads stay out of restore.bytes_read, which counts what restore
/// reads.  Bytes are hashed in pieces: cut() closes the current piece,
/// folds it into the whole-object CRC and returns the piece's own CRC,
/// so the chunk CRCs and the object CRC come from one pass over the
/// bytes.
class CrcReader {
 public:
  explicit CrcReader(storage::Reader& in) : in_(in) {}

  Status read_exact(void* out, std::size_t len) {
    ICKPT_RETURN_IF_ERROR(take({static_cast<std::byte*>(out), len}));
    piece_.update(out, len);
    piece_len_ += len;
    return Status::ok();
  }

  /// Read without CRC accounting (for the trailer itself).
  Status read_raw(void* out, std::size_t len) {
    return take({static_cast<std::byte*>(out), len},
                "truncated checkpoint trailer");
  }

  std::uint32_t cut() {
    const std::uint32_t crc = piece_.value();
    whole_.combine(crc, piece_len_);
    piece_.reset();
    piece_len_ = 0;
    return crc;
  }

  /// CRC of everything read through read_exact.
  std::uint32_t crc() {
    cut();
    return whole_.value();
  }

  std::uint64_t offset() const noexcept { return offset_; }

  /// True when no byte follows the ones taken so far.
  Result<bool> at_end() {
    if (pos_ < len_) return false;
    ICKPT_ASSIGN_OR_RETURN(got, refill());
    return got == 0;
  }

 private:
  /// Replace the drained buffer with the bytes at offset_: one read_at
  /// of up to kMaxRead bytes.  Returns the count, 0 past the end.
  Result<std::size_t> refill() {
    ICKPT_ASSIGN_OR_RETURN(got, in_.read_at(offset_, {buf_.get(), kMaxRead}));
    pos_ = 0;
    len_ = got;
    return got;
  }

  Status take(std::span<std::byte> out,
              const char* truncated = "truncated checkpoint file") {
    for (std::size_t done = 0; done < out.size();) {
      if (pos_ == len_) {
        ICKPT_ASSIGN_OR_RETURN(got, refill());
        if (got == 0) return corruption(truncated);
      }
      const std::size_t n = std::min(out.size() - done, len_ - pos_);
      std::memcpy(out.data() + done, buf_.get() + pos_, n);
      pos_ += n;
      done += n;
      offset_ += n;
    }
    return Status::ok();
  }

  storage::Reader& in_;
  std::unique_ptr<std::byte[]> buf_ =
      std::make_unique_for_overwrite<std::byte[]>(kMaxRead);
  std::size_t pos_ = 0;  ///< next unread byte of buf_
  std::size_t len_ = 0;  ///< bytes held in buf_
  Crc32 whole_;
  Crc32 piece_;
  std::uint64_t piece_len_ = 0;
  std::uint64_t offset_ = 0;  ///< object offset of the next byte taken
};

void append(std::vector<std::byte>& buf, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::byte*>(data);
  buf.insert(buf.end(), p, p + len);
}

/// Parse the body, rebuilding the index it implies, then require the
/// stored index and the trailer to match it exactly.
Result<CheckpointFile> parse(storage::StorageBackend& storage,
                             const std::string& key) {
  auto reader = storage.open(key);
  if (!reader.is_ok()) return reader.status();
  CrcReader in(**reader);

  CheckpointFile out;
  out.size = (*reader)->size();
  FileHeader& h = out.header;
  ICKPT_RETURN_IF_ERROR(in.read_exact(&h, sizeof h));
  ICKPT_RETURN_IF_ERROR(validate_header(h, key));
  const std::uint32_t header_crc = in.cut();

  out.state.sequence = h.sequence;
  out.state.virtual_time = h.virtual_time;

  std::vector<std::byte> index;
  std::vector<ChunkEntry> chunks;
  const std::size_t psize = h.page_size;
  for (std::uint32_t b = 0; b < h.block_count; ++b) {
    BlockHeader bh;
    ICKPT_RETURN_IF_ERROR(in.read_exact(&bh, sizeof bh));
    ICKPT_RETURN_IF_ERROR(validate_block(bh, key));
    std::string name(bh.name_len, '\0');
    ICKPT_RETURN_IF_ERROR(in.read_exact(name.data(), name.size()));
    append(index, &bh, sizeof bh);
    append(index, name.data(), name.size());

    RestoredBlock block;
    block.id = bh.block_id;
    block.name = std::move(name);
    block.kind = static_cast<region::AreaKind>(bh.kind);
    const std::size_t rounded = page_ceil(bh.bytes, psize);
    // No CRC checked so far covers the size, so a damaged one can ask
    // for more than the host can map.
    try {
      block.data = BlockBytes(rounded);
    } catch (const std::bad_alloc&) {
      return corruption("unmappable block size in " + key);
    }
    const std::size_t block_pages = rounded / psize;

    auto& run_list = out.runs[bh.block_id];
    std::vector<std::byte> payload;
    for (std::uint32_t r = 0; r < bh.run_count; ++r) {
      RunHeader run;
      ICKPT_RETURN_IF_ERROR(in.read_exact(&run, sizeof run));
      if (std::size_t{run.first_page} + run.page_count > block_pages) {
        return corruption("run out of block bounds in " + key);
      }
      append(index, &run, sizeof run);
      in.cut();  // the run's chunks start here
      std::uint32_t chunk_len = 0;
      for (std::uint32_t p = 0; p < run.page_count; ++p) {
        PageRecord rec;
        ICKPT_RETURN_IF_ERROR(in.read_exact(&rec, sizeof rec));
        if (rec.payload_len > 2 * psize) {
          return corruption("implausible page payload in " + key);
        }
        payload.resize(rec.payload_len);
        if (!payload.empty()) {
          ICKPT_RETURN_IF_ERROR(
              in.read_exact(payload.data(), payload.size()));
        }
        std::span<std::byte> page_out{
            block.data.data() + (std::size_t{run.first_page} + p) * psize,
            psize};
        ICKPT_RETURN_IF_ERROR(decode_page(
            static_cast<PageEncoding>(rec.encoding), payload, page_out));
        chunk_len += static_cast<std::uint32_t>(sizeof rec) + rec.payload_len;
        if ((p + 1) % kChunkPages == 0 || p + 1 == run.page_count) {
          chunks.push_back(ChunkEntry{chunk_len, in.cut()});
          chunk_len = 0;
        }
      }
      run_list.push_back(run);
    }
    out.state.blocks.emplace(block.id, std::move(block));
  }
  const std::uint64_t body_end = in.offset();
  append(index, chunks.data(), chunks.size() * sizeof(ChunkEntry));

  in.cut();
  std::vector<std::byte> stored(index.size());
  ICKPT_RETURN_IF_ERROR(in.read_exact(stored.data(), stored.size()));
  const std::uint32_t stored_crc = in.cut();
  if (stored != index) {
    return corruption("body and index disagree in " + key);
  }
  const std::uint32_t computed_crc = in.crc();
  FileTrailer trailer;
  ICKPT_RETURN_IF_ERROR(in.read_raw(&trailer, sizeof trailer));
  if (trailer.end_magic != kEndMagic) {
    return corruption("bad end magic in " + key);
  }
  if (trailer.crc32 != computed_crc) {
    return corruption("crc mismatch in " + key);
  }
  if (trailer.index_offset != body_end ||
      trailer.index_crc !=
          crc32_combine(header_crc, stored_crc, stored.size())) {
    return corruption("bad index trailer in " + key);
  }
  auto end = in.at_end();
  if (!end.is_ok()) return end.status();
  if (!*end) return corruption("bytes after trailer in " + key);
  return out;
}

// ===================================================================
// Plan: header, trailer and index of each object; newest-wins pages.
// ===================================================================

static_assert(kChunkPages <= 16, "Chunk::winners is a 16-bit page mask");

/// Block manifest entry as first seen (restore keeps the oldest live
/// object's name/kind for a block, like the serial overlay did).
struct BlockMeta {
  std::uint32_t id = 0;
  std::string name;
  region::AreaKind kind = region::AreaKind::kHeap;
  std::size_t rounded = 0;  ///< page-rounded extent
};

/// One indexed chunk of one object.
struct Chunk {
  std::uint64_t offset = 0;  ///< of the chunk's first PageRecord
  std::uint32_t length = 0;
  std::uint32_t crc = 0;
  std::uint32_t block_id = 0;
  std::uint32_t first_page = 0;  ///< within the block
  std::uint32_t page_count = 0;
  std::uint16_t winners = 0;     ///< bit i: page first_page + i is returned
  std::byte* out = nullptr;      ///< the block's output (winning chunks)
};

struct ObjectIndex {
  std::string key;
  FileHeader header;
  std::vector<BlockMeta> manifest;  ///< every block listed (runs or not)
  std::vector<Chunk> chunks;        ///< body order
};

/// Bounds-checked cursor over an in-memory byte range.
class ByteCursor {
 public:
  explicit ByteCursor(std::span<const std::byte> bytes) : bytes_(bytes) {}

  bool take(void* out, std::size_t len) {
    if (len > bytes_.size() - pos_) return false;
    std::memcpy(out, bytes_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  bool done() const noexcept { return pos_ == bytes_.size(); }

 private:
  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

/// Parse an index whose CRC has been checked.  Every bound the body
/// scan would check is checked here: runs inside their block, chunk
/// lengths that can hold their page records, and chunk offsets that
/// end exactly where the index begins.
Status parse_index(std::span<const std::byte> bytes,
                   std::uint64_t index_offset, ObjectIndex& obj) {
  const std::string& key = obj.key;
  const auto bad = [&key] { return corruption("bad index in " + key); };
  const std::uint64_t psize = obj.header.page_size;
  ByteCursor in(bytes);

  // Manifest and run tables.  `lead` counts the structural body bytes
  // (block headers, names, run headers) before each run's chunks.
  struct Run {
    std::uint32_t block_id;
    RunHeader run;
    std::uint64_t lead;
  };
  std::vector<Run> runs;
  std::uint64_t lead = 0;
  for (std::uint32_t b = 0; b < obj.header.block_count; ++b) {
    BlockHeader bh;
    if (!in.take(&bh, sizeof bh)) return bad();
    ICKPT_RETURN_IF_ERROR(validate_block(bh, key));
    BlockMeta meta;
    meta.id = bh.block_id;
    meta.name.resize(bh.name_len);
    if (!in.take(meta.name.data(), meta.name.size())) return bad();
    meta.kind = static_cast<region::AreaKind>(bh.kind);
    meta.rounded = page_ceil(bh.bytes, psize);
    lead += sizeof bh + bh.name_len;
    for (std::uint32_t r = 0; r < bh.run_count; ++r) {
      RunHeader run;
      if (!in.take(&run, sizeof run)) return bad();
      if (std::uint64_t{run.first_page} + run.page_count >
          meta.rounded / psize) {
        return corruption("run out of block bounds in " + key);
      }
      runs.push_back(Run{bh.block_id, run, lead + sizeof run});
      lead = 0;
    }
    obj.manifest.push_back(std::move(meta));
  }

  // Chunk entries; their offsets are running sums over the body.
  std::uint64_t offset = sizeof(FileHeader);
  for (const Run& r : runs) {
    offset += r.lead;
    for (std::uint32_t c = 0; std::uint64_t{c} * kChunkPages < r.run.page_count;
         ++c) {
      ChunkEntry e;
      if (!in.take(&e, sizeof e)) return bad();
      Chunk chunk;
      chunk.offset = offset;
      chunk.length = e.length;
      chunk.crc = e.crc32;
      chunk.block_id = r.block_id;
      chunk.first_page = r.run.first_page + c * kChunkPages;
      chunk.page_count =
          std::min(kChunkPages, r.run.page_count - c * kChunkPages);
      if (e.length < std::uint64_t{chunk.page_count} * sizeof(PageRecord) ||
          e.length > chunk.page_count * (sizeof(PageRecord) + 2 * psize)) {
        return bad();
      }
      obj.chunks.push_back(chunk);
      offset += e.length;
    }
  }
  if (!in.done() || offset + lead != index_offset) return bad();
  return Status::ok();
}

/// Read the trailer and the index at the end of an object and check
/// the index CRC, which covers the header too.
Status read_index(storage::Reader& in, ObjectIndex& obj) {
  const std::string& key = obj.key;
  const std::uint64_t size = in.size();
  if (size < sizeof(FileHeader) + sizeof(FileTrailer)) {
    return corruption("truncated checkpoint file " + key);
  }
  FileTrailer trailer;
  ICKPT_RETURN_IF_ERROR(
      read_range(in, size - sizeof trailer, bytes_of(trailer)));
  if (trailer.end_magic != kEndMagic) {
    return corruption("bad end magic in " + key);
  }
  const std::uint64_t index_end = size - sizeof trailer;
  if (trailer.index_offset < sizeof(FileHeader) ||
      trailer.index_offset > index_end) {
    return corruption("bad index trailer in " + key);
  }
  std::vector<std::byte> index(index_end - trailer.index_offset);
  ICKPT_RETURN_IF_ERROR(read_range(in, trailer.index_offset, index));
  Crc32 crc;
  crc.update(&obj.header, sizeof obj.header);
  crc.update(index);
  if (crc.value() != trailer.index_crc) {
    return corruption("index crc mismatch in " + key);
  }
  return parse_index(index, trailer.index_offset, obj);
}

struct Candidate {
  std::uint64_t sequence = 0;
  bool header_ok = false;
  ObjectIndex object;    ///< header always; index when at or below upto
  Status header_status;  ///< why the header is unusable
  Status index_status;   ///< why the index is unusable
};

/// Open one object and read its header; when it is at or below `upto`,
/// also its trailer and index.  One open and at most three read_at
/// calls.  Returns the header's status; the index's lands in
/// `c.index_status`.
Status probe(storage::StorageBackend& storage, std::uint64_t upto,
             Candidate& c) {
  ObjectIndex& obj = c.object;
  auto reader = storage.open(obj.key);
  if (!reader.is_ok()) return reader.status();
  if ((*reader)->size() < sizeof obj.header) {
    return corruption("bad header in " + obj.key);
  }
  ICKPT_RETURN_IF_ERROR(read_range(**reader, 0, bytes_of(obj.header)));
  ICKPT_RETURN_IF_ERROR(validate_header(obj.header, obj.key));
  c.header_ok = true;
  c.sequence = obj.header.sequence;
  if (c.sequence <= upto) c.index_status = read_index(**reader, obj);
  return Status::ok();
}

/// The worker threads of one restore_chain call: the pool is built on
/// first use and kept until the call returns, so tolerant retries reuse
/// it.  Work that needs one thread runs inline on the caller.
class Workers {
 public:
  explicit Workers(std::size_t threads) : threads_(threads) {}

  /// Run `worker` on min(tasks, threads) threads at once and wait for
  /// all of them; `worker` hands out the tasks from a shared cursor.
  template <typename F>
  void run(std::size_t tasks, F& worker) {
    const std::size_t n = std::min(tasks, threads_);
    if (n <= 1) {
      worker();
      return;
    }
    if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(threads_);
    for (std::size_t w = 0; w < n; ++w) pool_->submit([&worker] { worker(); });
    pool_->wait_idle();
  }

 private:
  std::size_t threads_;
  std::unique_ptr<ThreadPool> pool_;
};

// ===================================================================
// Decode: read the winning chunks, verify, decode.
// ===================================================================

/// One read: winning chunks [first, end) of one object, with only
/// structural bytes between them.
struct ChunkRead {
  std::uint32_t obj = 0;
  std::uint32_t first = 0;
  std::uint32_t end = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  Status status;
  std::uint32_t decoded = 0;
};

/// Read one range, check each chunk's CRC, then decode its winning
/// pages into their blocks.  Chunks own disjoint output pages, so
/// workers never race.
Status decode_read(storage::Reader& in, const ObjectIndex& obj,
                   ChunkRead& r, std::vector<std::byte>& buf) {
  obs::TraceSpan span(RestoreMetrics::get().t_decode_read, r.end - r.first,
                      r.length);
  const auto len = static_cast<std::size_t>(r.length);
  if (buf.size() < len) buf.resize(len);
  ICKPT_RETURN_IF_ERROR(read_range(in, r.offset, {buf.data(), len}));
  const std::size_t psize = obj.header.page_size;
  const auto unfilled = [&obj] {
    return corruption("page records do not fill a chunk in " + obj.key);
  };
  for (std::uint32_t c = r.first; c < r.end; ++c) {
    const Chunk& chunk = obj.chunks[c];
    const std::span<const std::byte> bytes{
        buf.data() + (chunk.offset - r.offset), chunk.length};
    if (crc32(bytes) != chunk.crc) {
      return corruption("crc mismatch in " + obj.key);
    }
    std::size_t pos = 0;
    for (std::uint32_t p = 0; p < chunk.page_count; ++p) {
      PageRecord rec;
      if (bytes.size() - pos < sizeof rec) return unfilled();
      std::memcpy(&rec, bytes.data() + pos, sizeof rec);
      pos += sizeof rec;
      if (rec.payload_len > bytes.size() - pos) return unfilled();
      if ((chunk.winners >> p) & 1u) {
        const auto encoding = static_cast<PageEncoding>(rec.encoding);
        // The output is fresh, so a zero page is zero already; one that
        // carries a payload still fails in decode_page.
        if (encoding != PageEncoding::kZero || rec.payload_len != 0) {
          ICKPT_RETURN_IF_ERROR(decode_page(
              encoding, bytes.subspan(pos, rec.payload_len),
              {chunk.out + (std::size_t{chunk.first_page} + p) * psize,
               psize}));
        }
        ++r.decoded;
      }
      pos += rec.payload_len;
    }
    if (pos != bytes.size()) return unfilled();
  }
  return Status::ok();
}

/// One strict plan-then-decode attempt at `upto`.  In tolerant mode
/// (`truncate_tail`) chain damage detectable from headers alone is
/// healed by cutting the candidate list; damage found later (a corrupt
/// index or winning chunk in the live range) is reported via
/// *failed_seq so the caller can retry below it.
Result<RestoredState> attempt(storage::StorageBackend& storage,
                              std::uint32_t rank, std::uint64_t upto,
                              Workers& workers, bool truncate_tail,
                              std::uint64_t* failed_seq,
                              bool* have_failed_seq) {
  auto& metrics = RestoreMetrics::get();
  obs::ScopedTimer plan_timer(metrics.plan_ns);
  obs::TraceSpan plan_span(metrics.t_plan, upto);
  const auto fail = [&](std::uint64_t seq, Status st) {
    *failed_seq = seq;
    *have_failed_seq = true;
    return st;
  };

  std::vector<Candidate> probed;
  {
    obs::TraceSpan list_span(metrics.t_list);
    auto keys = storage.list();
    if (!keys.is_ok()) return keys.status();
    const std::string prefix = "rank" + std::to_string(rank) + "/";
    for (const auto& k : *keys) {
      if (k.rfind(prefix, 0) == 0) probed.emplace_back().object.key = k;
    }
    list_span.end(keys->size(), probed.size());
  }
  if (probed.empty()) {
    return not_found("no checkpoints for rank " + std::to_string(rank));
  }

  // ---- Probe, on the workers: place every object in the chain by
  // sequence, and read the index of every object at or below upto.
  {
    obs::ScopedTimer probe_timer(metrics.probe_ns);
    obs::TraceSpan probe_span(metrics.t_probe, probed.size());
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
      for (std::size_t i = next.fetch_add(1); i < probed.size();
           i = next.fetch_add(1)) {
        probed[i].header_status = probe(storage, upto, probed[i]);
      }
    };
    workers.run(probed.size(), worker);
  }

  // Judge the probes in key order, so every error and tolerant-mode
  // decision is the one a serial probe would make.
  std::vector<Candidate> cands;
  cands.reserve(probed.size());
  for (Candidate& c : probed) {
    if (!c.header_ok && !parse_checkpoint_key(c.object.key, &c.sequence)) {
      // Unreadable header and unparseable key: the object cannot even
      // be placed in the chain.
      if (!truncate_tail) return c.header_status;
      continue;  // orphan; fsck --repair quarantines these
    }
    if (c.sequence > upto) continue;  // header only, never indexed
    if (!c.header_ok && !truncate_tail) return c.header_status;
    cands.push_back(std::move(c));
  }
  if (cands.empty()) {
    return not_found("no checkpoint at or before requested sequence");
  }
  // Sequences are compared numerically — never trust the key sort
  // (zero-pad widths may differ across writer versions).
  std::stable_sort(cands.begin(), cands.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.sequence < b.sequence;
                   });
  for (std::size_t i = 1; i < cands.size(); ++i) {
    if (cands[i].sequence == cands[i - 1].sequence) {
      if (!truncate_tail) {
        return corruption("duplicate sequence " +
                          std::to_string(cands[i].sequence) + " in chain");
      }
      cands.resize(i);
      break;
    }
  }
  // Tolerant mode: an unreadable header above the newest readable full
  // checkpoint ends the usable prefix there; one below it lies outside
  // the live range, so it is passed over.  With no readable full
  // checkpoint the first unreadable header ends the prefix.
  const auto is_full = [](const Candidate& c) {
    return c.header_ok &&
           c.object.header.kind == static_cast<std::uint16_t>(Kind::kFull);
  };
  const auto unreadable = [](const Candidate& c) { return !c.header_ok; };
  if (truncate_tail) {
    const auto seed = std::find_if(cands.rbegin(), cands.rend(), is_full);
    const auto live = seed == cands.rend() ? cands.begin() : seed.base() - 1;
    cands.erase(std::find_if(live, cands.end(), unreadable), cands.end());
    std::erase_if(cands, unreadable);
    if (cands.empty()) {
      return not_found("no checkpoint at or before requested sequence");
    }
  }

  // ---- Seed: newest full checkpoint; validate parent links after it.
  const auto seed = std::find_if(cands.rbegin(), cands.rend(), is_full);
  if (seed == cands.rend()) {
    return corruption("chain has no full checkpoint to seed recovery");
  }
  const auto start = static_cast<std::size_t>(cands.rend() - seed) - 1;
  std::size_t end = cands.size();
  for (std::size_t i = start + 1; i < end; ++i) {
    const FileHeader& h = cands[i].object.header;
    if (h.parent_sequence != cands[i - 1].sequence) {
      if (!truncate_tail) {
        return corruption(
            "chain gap: sequence " + std::to_string(cands[i].sequence) +
            " expects parent " + std::to_string(h.parent_sequence) +
            " but " + std::to_string(cands[i - 1].sequence) +
            " is the newest applied");
      }
      end = i;  // recover the prefix before the gap
      break;
    }
  }

  // ---- The live range (seed..end) must have usable indexes.
  std::vector<ObjectIndex> objs;
  objs.reserve(end - start);
  for (std::size_t i = start; i < end; ++i) {
    if (!cands[i].index_status.is_ok()) {
      return fail(cands[i].sequence, cands[i].index_status);
    }
    objs.push_back(std::move(cands[i].object));
  }

  // ---- Newest-wins page plan over the indexed manifests.
  struct Winner {
    std::uint32_t obj = UINT32_MAX;
    std::uint32_t chunk = 0;  ///< into objs[obj].chunks
  };
  struct LiveBlock {
    BlockMeta meta;  ///< first-seen name/kind/extent
    std::vector<Winner> winners;
  };
  std::map<std::uint32_t, LiveBlock> live;
  const std::uint32_t psize = objs.front().header.page_size;
  std::set<std::uint32_t> listed;
  std::uint64_t total_pages = 0;
  for (std::size_t o = 0; o < objs.size(); ++o) {
    ObjectIndex& obj = objs[o];
    if (obj.header.page_size != psize) {
      return fail(obj.header.sequence,
                  corruption("page size changed mid-chain in " + obj.key));
    }
    // Memory exclusion: drop blocks absent from the newer manifest.
    listed.clear();
    for (const BlockMeta& m : obj.manifest) listed.insert(m.id);
    for (auto it = live.begin(); it != live.end();) {
      if (listed.count(it->first) == 0) {
        it = live.erase(it);
      } else {
        ++it;
      }
    }
    for (BlockMeta& m : obj.manifest) {
      auto it = live.find(m.id);
      if (it == live.end()) {
        LiveBlock lb;
        lb.winners.assign(m.rounded / psize, Winner{});
        lb.meta = std::move(m);
        live.emplace(lb.meta.id, std::move(lb));
      } else if (it->second.meta.rounded != m.rounded) {
        // Same id cannot change extent (reallocation assigns fresh
        // ids); treat as corruption rather than guessing.
        return fail(obj.header.sequence,
                    corruption("block " + std::to_string(m.id) +
                               " changed size mid-chain"));
      }
    }
    for (std::size_t c = 0; c < obj.chunks.size(); ++c) {
      const Chunk& chunk = obj.chunks[c];
      auto it = live.find(chunk.block_id);
      if (it == live.end() || std::size_t{chunk.first_page} + chunk.page_count >
                                  it->second.winners.size()) {
        return fail(obj.header.sequence,
                    corruption("run out of block bounds in " + obj.key));
      }
      for (std::uint32_t p = 0; p < chunk.page_count; ++p) {
        it->second.winners[chunk.first_page + p] =
            Winner{static_cast<std::uint32_t>(o),
                   static_cast<std::uint32_t>(c)};
      }
      total_pages += chunk.page_count;
    }
  }

  // ---- Output state (final footprint only), in mappings made for this
  // attempt: decode skips zero pages, so it must never reuse memory
  // that anything has written, not even a failed attempt's output.
  // Mark the single writer of each surviving page in its chunk.
  RestoredState state;
  state.sequence = objs.back().header.sequence;
  state.virtual_time = objs.back().header.virtual_time;
  for (const auto& [id, lb] : live) {
    RestoredBlock b;
    b.id = id;
    b.name = lb.meta.name;
    b.kind = lb.meta.kind;
    b.data = fresh_block(lb.meta.rounded);
    std::byte* out =
        state.blocks.emplace(id, std::move(b)).first->second.data.data();
    for (std::size_t p = 0; p < lb.winners.size(); ++p) {
      const Winner& w = lb.winners[p];
      if (w.obj == UINT32_MAX) continue;
      Chunk& chunk = objs[w.obj].chunks[w.chunk];
      chunk.winners = static_cast<std::uint16_t>(
          chunk.winners | (1u << (p - chunk.first_page)));
      chunk.out = out;
    }
  }

  // ---- Reads: consecutive winning chunks, merged up to kMaxRead.
  std::vector<ChunkRead> reads;
  for (std::size_t o = 0; o < objs.size(); ++o) {
    const std::vector<Chunk>& chunks = objs[o].chunks;
    for (std::size_t c = 0; c < chunks.size();) {
      if (chunks[c].winners == 0) {
        ++c;
        continue;
      }
      ChunkRead r;
      r.obj = static_cast<std::uint32_t>(o);
      r.first = static_cast<std::uint32_t>(c);
      r.offset = chunks[c].offset;
      for (r.end = r.first; r.end < chunks.size() &&
                            chunks[r.end].winners != 0;
           ++r.end) {
        const std::uint64_t stop = chunks[r.end].offset + chunks[r.end].length;
        if (r.end > r.first && stop - r.offset > kMaxRead) break;
        r.length = stop - r.offset;
      }
      c = r.end;
      reads.push_back(std::move(r));
    }
  }

  plan_timer.stop();
  plan_span.end(total_pages, reads.size());
  obs::ScopedTimer decode_timer(metrics.decode_ns);

  // One reader per object, shared by the workers: the first to reach
  // the object opens it, and whoever finishes its last read closes it.
  // Reads are in object order and each worker takes the next one, so
  // at most as many objects as workers are open at once.
  struct OpenObject {
    std::mutex mu;
    bool tried = false;
    std::unique_ptr<storage::Reader> reader;
    Status status;
    std::atomic<std::size_t> reads_left{0};
  };
  std::vector<OpenObject> opened(objs.size());
  for (const ChunkRead& r : reads) {
    opened[r.obj].reads_left.fetch_add(1, std::memory_order_relaxed);
  }
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    std::vector<std::byte> buf;
    for (std::size_t i = next.fetch_add(1); i < reads.size();
         i = next.fetch_add(1)) {
      ChunkRead& r = reads[i];
      OpenObject& o = opened[r.obj];
      storage::Reader* reader = nullptr;
      {
        std::lock_guard<std::mutex> lock(o.mu);
        if (!o.tried) {
          o.tried = true;
          auto got = storage.open(objs[r.obj].key);
          o.status = got.status();
          if (got.is_ok()) o.reader = std::move(*got);
        }
        reader = o.reader.get();
        r.status = o.status;
      }
      // read_at is safe to call concurrently on one reader.
      if (reader != nullptr) {
        r.status = decode_read(*reader, objs[r.obj], r, buf);
      }
      if (o.reads_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(o.mu);
        o.reader.reset();
      }
    }
  };
  workers.run(reads.size(), worker);
  decode_timer.stop();

  // ---- Surface failures oldest object first, so a tolerant retry
  // truncates as little as possible.
  std::uint64_t pages_decoded = 0;
  for (const ChunkRead& r : reads) {
    if (!r.status.is_ok()) return fail(objs[r.obj].header.sequence, r.status);
    pages_decoded += r.decoded;
  }

  metrics.chains.inc();
  metrics.objects.inc(objs.size());
  metrics.pages_decoded.inc(pages_decoded);
  metrics.pages_skipped.inc(total_pages - pages_decoded);
  return state;
}

/// Final-failure bookkeeping for restore_chain: an instant trace event
/// carrying the failing sequence plus a flight-recorder dump (when one
/// is configured) so the failure is diagnosable post-mortem.
Status note_restore_failure(const Status& st, std::uint64_t failed_seq) {
  obs::trace_instant(RestoreMetrics::get().t_fail, failed_seq,
                     static_cast<std::uint64_t>(st.code()));
  obs::flightrec::dump("restore_chain failed: " + st.to_string());
  return st;
}

}  // namespace

Result<CheckpointFile> read_checkpoint_file(storage::StorageBackend& storage,
                                            const std::string& key) {
  return parse(storage, key);
}

Result<RestoredState> restore_chain(storage::StorageBackend& storage,
                                    std::uint32_t rank,
                                    const RestoreOptions& options) {
  Workers workers(options.decode_threads > 0
                      ? static_cast<std::size_t>(options.decode_threads)
                      : ThreadPool::hardware_threads());
  std::uint64_t upto = options.upto;
  for (;;) {
    std::uint64_t failed_seq = 0;
    bool have_failed_seq = false;
    auto state = attempt(storage, rank, upto, workers,
                         options.allow_truncated_tail, &failed_seq,
                         &have_failed_seq);
    if (state.is_ok()) return state;
    if (!options.allow_truncated_tail ||
        state.status().code() != ErrorCode::kCorruption ||
        !have_failed_seq || failed_seq == 0) {
      return note_restore_failure(state.status(), failed_seq);
    }
    // A corrupt object at failed_seq: recover the prefix below it.
    RestoreMetrics::get().truncated_tails.inc();
    upto = failed_seq - 1;
  }
}

Result<RestoredState> restore_chain(storage::StorageBackend& storage,
                                    std::uint32_t rank, std::uint64_t upto) {
  RestoreOptions options;
  options.upto = upto;
  return restore_chain(storage, rank, options);
}

Result<std::map<std::uint32_t, region::BlockId>> materialize(
    RestoredState& state, region::AddressSpace& space) {
  std::map<std::uint32_t, region::BlockId> mapping;
  auto blocks = std::exchange(state.blocks, {});
  for (auto& [id, block] : blocks) {
    auto ref =
        space.adopt(block.data.release(), block.kind, std::move(block.name));
    if (!ref.is_ok()) return ref.status();
    mapping[id] = ref->id;
  }
  return mapping;
}

}  // namespace ickpt::checkpoint
