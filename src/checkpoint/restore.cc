#include "checkpoint/restore.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <set>

#include "checkpoint/compress.h"
#include "checkpoint/format.h"
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
  obs::Histogram& decode_ns;
  obs::Histogram& stitch_ns;
  std::uint16_t t_plan;          ///< "restore.plan" span
  std::uint16_t t_decode_shard;  ///< "restore.decode_shard" span
  std::uint16_t t_stitch;        ///< "restore.stitch" span
  std::uint16_t t_fail;          ///< "restore.fail" instant

  static RestoreMetrics& get() {
    auto& r = obs::registry();
    static RestoreMetrics m{r.counter("restore.chains"),
                            r.counter("restore.objects"),
                            r.counter("restore.pages_decoded"),
                            r.counter("restore.pages_skipped"),
                            r.counter("restore.bytes_read"),
                            r.counter("restore.truncated_tails"),
                            r.histogram("restore.plan_ns"),
                            r.histogram("restore.decode_ns"),
                            r.histogram("restore.stitch_ns"),
                            obs::trace_name("restore.plan",
                                            obs::TraceCat::kRestore),
                            obs::trace_name("restore.decode_shard",
                                            obs::TraceCat::kRestore),
                            obs::trace_name("restore.stitch",
                                            obs::TraceCat::kRestore),
                            obs::trace_name("restore.fail",
                                            obs::TraceCat::kRestore)};
    return m;
  }
};

/// Fill all of `out` from `rd` (ioutil::read_full retries short
/// counts); a source that ends first is kCorruption(`truncated`).
template <typename ReadFn>
Status fill_exact(ReadFn&& rd, std::span<std::byte> out,
                  const char* truncated = "truncated checkpoint file") {
  auto got = ioutil::read_full(std::forward<ReadFn>(rd), out);
  if (!got.is_ok()) return got.status();
  if (*got < out.size()) return corruption(truncated);
  return Status::ok();
}

/// The sequential cursor of `in` as an ioutil::read_full source.
auto sequential(storage::Reader& in) {
  return [&in](std::span<std::byte> rest) { return in.read(rest); };
}

/// Buffered sequential reader with CRC tracking and strict bounds.
class CrcReader {
 public:
  explicit CrcReader(storage::Reader& in) : in_(in) {}

  Status read_exact(void* out, std::size_t len) {
    ICKPT_RETURN_IF_ERROR(
        fill_exact(sequential(in_), {static_cast<std::byte*>(out), len}));
    crc_.update(out, len);
    return Status::ok();
  }

  /// Read without CRC accounting (for the trailer itself).
  Status read_raw(void* out, std::size_t len) {
    return fill_exact(sequential(in_), {static_cast<std::byte*>(out), len},
                      "truncated checkpoint trailer");
  }

  std::uint32_t crc() const noexcept { return crc_.value(); }

 private:
  storage::Reader& in_;
  Crc32 crc_;
};

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

struct ParsedCheckpoint {
  FileHeader header;
  RestoredState state;  ///< blocks with only *this file's* runs applied
  /// For incrementals: per block, the runs present (page spans).
  std::map<std::uint32_t, std::vector<RunHeader>> runs;
};

Result<ParsedCheckpoint> parse(storage::StorageBackend& storage,
                               const std::string& key) {
  auto reader = storage.open(key);
  if (!reader.is_ok()) return reader.status();
  CrcReader in(**reader);

  ParsedCheckpoint out;
  FileHeader& h = out.header;
  ICKPT_RETURN_IF_ERROR(in.read_exact(&h, sizeof h));
  ICKPT_RETURN_IF_ERROR(validate_header(h, key));

  out.state.sequence = h.sequence;
  out.state.virtual_time = h.virtual_time;

  const std::size_t psize = h.page_size;
  for (std::uint32_t b = 0; b < h.block_count; ++b) {
    BlockHeader bh;
    ICKPT_RETURN_IF_ERROR(in.read_exact(&bh, sizeof bh));
    if (bh.name_len > 4096) return corruption("block name too long in " + key);
    if (bh.bytes > (std::uint64_t{1} << 40)) {
      return corruption("implausible block size in " + key);
    }
    std::string name(bh.name_len, '\0');
    ICKPT_RETURN_IF_ERROR(in.read_exact(name.data(), name.size()));

    RestoredBlock block;
    block.id = bh.block_id;
    block.name = std::move(name);
    block.kind = static_cast<region::AreaKind>(bh.kind);
    const std::size_t rounded = page_ceil(bh.bytes, psize);
    block.data.assign(rounded, std::byte{0});
    const std::size_t block_pages = rounded / psize;

    auto& run_list = out.runs[bh.block_id];
    std::vector<std::byte> payload;
    for (std::uint32_t r = 0; r < bh.run_count; ++r) {
      RunHeader run;
      ICKPT_RETURN_IF_ERROR(in.read_exact(&run, sizeof run));
      if (std::size_t{run.first_page} + run.page_count > block_pages) {
        return corruption("run out of block bounds in " + key);
      }
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
      }
      run_list.push_back(run);
    }
    out.state.blocks.emplace(block.id, std::move(block));
  }

  std::uint32_t computed_crc = in.crc();
  FileTrailer trailer;
  ICKPT_RETURN_IF_ERROR(in.read_raw(&trailer, sizeof trailer));
  if (trailer.end_magic != kEndMagic) {
    return corruption("bad end magic in " + key);
  }
  if (trailer.crc32 != computed_crc) {
    return corruption("crc mismatch in " + key);
  }
  return out;
}

// ===================================================================
// Phase 1 (plan): header peek, manifest scan, newest-wins page plan.
// ===================================================================

/// One page payload inside one object, located during the manifest
/// scan.  `decode` is set during planning for the single newest writer
/// of each surviving (block, page).
struct PageEntry {
  std::uint64_t rec_offset = 0;  ///< file offset of the PageRecord
  std::uint32_t payload_len = 0;
  std::uint32_t encoding = 0;
  std::uint32_t block_id = 0;
  std::uint32_t page_index = 0;  ///< within the block
  bool decode = false;
};

/// A contiguous byte range of one object, in file order.  Structural
/// segments (headers, names, run tables) are CRC'd during the scan;
/// page segments (PageRecord + payload interleavings of one run) are
/// CRC'd by the decode shards that read them.  Folding all segment
/// CRCs in order via crc32_combine reproduces the full-file CRC.
struct Segment {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint32_t crc = 0;       ///< structural segments only
  bool structural = true;
  std::size_t first_page = 0;  ///< page segments: index into pages
  std::size_t page_count = 0;
};

/// Block manifest entry as first seen (restore keeps the oldest live
/// object's name/kind for a block, like the serial overlay did).
struct BlockMeta {
  std::uint32_t id = 0;
  std::string name;
  region::AreaKind kind = region::AreaKind::kHeap;
  std::size_t rounded = 0;  ///< page-rounded extent
};

struct ObjectPlan {
  std::string key;
  FileHeader header;
  std::vector<BlockMeta> manifest;  ///< every block listed (runs or not)
  std::vector<PageEntry> pages;     ///< file order
  std::vector<Segment> segments;    ///< file order, header..last payload
  std::uint32_t trailer_crc = 0;
};

/// Buffered scanner over a storage::Reader that separates structural
/// bytes (CRC'd now) from payload bytes (skipped now, CRC'd by decode
/// shards).  Works on random-access and purely sequential readers.
class ObjectScanner {
 public:
  static constexpr std::size_t kBufSize = 64 * 1024;

  explicit ObjectScanner(storage::Reader& in)
      : in_(in), random_(in.supports_read_at()) {}

  /// Read bytes without CRC accounting (PageRecords, the trailer).
  Status read_plain(void* out, std::size_t len) {
    auto* dst = static_cast<std::byte*>(out);
    std::size_t got = 0;
    while (got < len) {
      if (pos_ == len_) ICKPT_RETURN_IF_ERROR(refill());
      std::size_t n = std::min(len - got, len_ - pos_);
      std::memcpy(dst + got, buf_.data() + pos_, n);
      pos_ += n;
      offset_ += n;
      got += n;
    }
    return Status::ok();
  }

  /// Read bytes into the current structural segment.
  Status read_struct(void* out, std::size_t len) {
    if (piece_len_ == 0) piece_off_ = offset_;
    ICKPT_RETURN_IF_ERROR(read_plain(out, len));
    piece_.update(out, len);
    piece_len_ += len;
    return Status::ok();
  }

  /// Skip payload bytes.  Random-access readers jump; sequential ones
  /// read through a scratch window.
  Status skip(std::uint64_t len) {
    while (len > 0) {
      if (pos_ < len_) {
        auto n = std::min<std::uint64_t>(len, len_ - pos_);
        pos_ += static_cast<std::size_t>(n);
        offset_ += n;
        len -= n;
        continue;
      }
      if (random_) {
        offset_ += len;
        return Status::ok();
      }
      ICKPT_RETURN_IF_ERROR(refill());
    }
    return Status::ok();
  }

  /// Close the current structural segment, if any, into `segs`.
  void end_struct(std::vector<Segment>& segs) {
    if (piece_len_ == 0) return;
    Segment s;
    s.offset = piece_off_;
    s.length = piece_len_;
    s.crc = piece_.value();
    s.structural = true;
    segs.push_back(s);
    piece_.reset();
    piece_len_ = 0;
  }

  std::uint64_t offset() const noexcept { return offset_; }

 private:
  Status refill() {
    buf_.resize(kBufSize);
    pos_ = 0;
    len_ = 0;
    Result<std::size_t> got = random_
                                  ? in_.read_at(offset_, {buf_.data(),
                                                          buf_.size()})
                                  : in_.read({buf_.data(), buf_.size()});
    if (!got.is_ok()) return got.status();
    if (*got == 0) return corruption("truncated checkpoint file");
    len_ = *got;
    return Status::ok();
  }

  storage::Reader& in_;
  bool random_;
  std::uint64_t offset_ = 0;  ///< logical position == buffer start + pos_
  std::vector<std::byte> buf_;
  std::size_t pos_ = 0;
  std::size_t len_ = 0;
  Crc32 piece_;
  std::uint64_t piece_len_ = 0;
  std::uint64_t piece_off_ = 0;
};

/// Read just the FileHeader (read-exact: streaming backends may return
/// short counts), without touching the rest of the object.
Result<FileHeader> peek_header(storage::StorageBackend& storage,
                               const std::string& key) {
  auto reader = storage.open(key);
  if (!reader.is_ok()) return reader.status();
  FileHeader h;
  auto got = ioutil::read_full(sequential(**reader),
                               {reinterpret_cast<std::byte*>(&h), sizeof h});
  if (!got.is_ok()) return got.status();
  if (*got < sizeof h) return corruption("bad header in " + key);
  ICKPT_RETURN_IF_ERROR(validate_header(h, key));
  return h;
}

/// Structural scan of one object: headers, names, run tables and page
/// records are read (and CRC'd into structural segments); page
/// payloads are skipped.  No payload is decoded.
Result<ObjectPlan> scan_object(storage::StorageBackend& storage,
                               const std::string& key) {
  auto reader = storage.open(key);
  if (!reader.is_ok()) return reader.status();
  ObjectScanner in(**reader);

  ObjectPlan out;
  out.key = key;
  FileHeader& h = out.header;
  ICKPT_RETURN_IF_ERROR(in.read_struct(&h, sizeof h));
  ICKPT_RETURN_IF_ERROR(validate_header(h, key));

  const std::size_t psize = h.page_size;
  for (std::uint32_t b = 0; b < h.block_count; ++b) {
    BlockHeader bh;
    ICKPT_RETURN_IF_ERROR(in.read_struct(&bh, sizeof bh));
    if (bh.name_len > 4096) return corruption("block name too long in " + key);
    if (bh.bytes > (std::uint64_t{1} << 40)) {
      return corruption("implausible block size in " + key);
    }
    std::string name(bh.name_len, '\0');
    ICKPT_RETURN_IF_ERROR(in.read_struct(name.data(), name.size()));

    BlockMeta meta;
    meta.id = bh.block_id;
    meta.name = std::move(name);
    meta.kind = static_cast<region::AreaKind>(bh.kind);
    meta.rounded = page_ceil(bh.bytes, psize);
    const std::size_t block_pages = meta.rounded / psize;

    for (std::uint32_t r = 0; r < bh.run_count; ++r) {
      RunHeader run;
      ICKPT_RETURN_IF_ERROR(in.read_struct(&run, sizeof run));
      if (std::size_t{run.first_page} + run.page_count > block_pages) {
        return corruption("run out of block bounds in " + key);
      }
      if (run.page_count == 0) continue;
      in.end_struct(out.segments);
      Segment seg;
      seg.structural = false;
      seg.offset = in.offset();
      seg.first_page = out.pages.size();
      seg.page_count = run.page_count;
      for (std::uint32_t p = 0; p < run.page_count; ++p) {
        PageRecord rec;
        const std::uint64_t rec_offset = in.offset();
        ICKPT_RETURN_IF_ERROR(in.read_plain(&rec, sizeof rec));
        if (rec.payload_len > 2 * psize) {
          return corruption("implausible page payload in " + key);
        }
        PageEntry pe;
        pe.rec_offset = rec_offset;
        pe.payload_len = rec.payload_len;
        pe.encoding = rec.encoding;
        pe.block_id = bh.block_id;
        pe.page_index = run.first_page + p;
        out.pages.push_back(pe);
        ICKPT_RETURN_IF_ERROR(in.skip(rec.payload_len));
      }
      seg.length = in.offset() - seg.offset;
      out.segments.push_back(seg);
    }
    out.manifest.push_back(std::move(meta));
  }
  in.end_struct(out.segments);

  FileTrailer trailer;
  ICKPT_RETURN_IF_ERROR(in.read_plain(&trailer, sizeof trailer));
  if (trailer.end_magic != kEndMagic) {
    return corruption("bad end magic in " + key);
  }
  out.trailer_crc = trailer.crc32;
  return out;
}

/// Parse "rank<r>/ckpt-<seq>" (any zero-pad width).  Lets the planner
/// place an object in the chain even when its header is unreadable.
bool parse_key_sequence(const std::string& key, std::uint64_t* seq) {
  unsigned long long r = 0, s = 0;
  if (std::sscanf(key.c_str(), "rank%llu/ckpt-%llu", &r, &s) == 2) {
    *seq = s;
    return true;
  }
  return false;
}

struct Candidate {
  std::string key;
  std::uint64_t sequence = 0;
  bool header_ok = false;
  FileHeader header;
};

// ===================================================================
// Phase 2 (decode): sharded payload read + decode, CRC stitching.
// ===================================================================

struct DecodeShard {
  std::size_t obj_idx = 0;
  std::uint64_t offset = 0;  ///< byte range in the object
  std::uint64_t length = 0;
  std::size_t first_page = 0;  ///< into ObjectPlan::pages
  std::uint32_t page_count = 0;
  std::uint32_t crc = 0;  ///< CRC of the byte range (set by the worker)
  std::uint32_t decoded = 0;
  std::uint32_t skipped = 0;
  Status status;  ///< per-shard result
};

/// Read [offset, offset+len) of an object into `out`, preferring
/// random access and falling back to a sequential skip-read.
Status read_range(storage::Reader& in, std::uint64_t offset,
                  std::span<std::byte> out) {
  if (in.supports_read_at()) {
    // `rest` is the still-unfilled tail of `out`.
    return fill_exact(
        [&](std::span<std::byte> rest) {
          return in.read_at(offset + static_cast<std::uint64_t>(
                                         rest.data() - out.data()),
                            rest);
        },
        out);
  }
  // Sequential reader: discard up to `offset`, then read-exact.
  std::vector<std::byte> scratch(ObjectScanner::kBufSize);
  for (std::uint64_t to_skip = offset; to_skip > 0;) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(to_skip, scratch.size()));
    ICKPT_RETURN_IF_ERROR(fill_exact(sequential(in), {scratch.data(), n}));
    to_skip -= n;
  }
  return fill_exact(sequential(in), out);
}

/// Decode one shard: read its byte range into a shard buffer, CRC it,
/// decode the winner pages straight into the final block buffers.
/// Shards touch disjoint output pages, so workers never race.
void run_shard(storage::StorageBackend& storage,
               const std::vector<ObjectPlan>& objs,
               const std::map<std::uint32_t, std::byte*>& out_base,
               DecodeShard& s) {
  obs::TraceSpan span(RestoreMetrics::get().t_decode_shard, s.page_count,
                      s.length);
  const ObjectPlan& obj = objs[s.obj_idx];
  auto reader = storage.open(obj.key);
  if (!reader.is_ok()) {
    s.status = reader.status();
    return;
  }
  std::vector<std::byte> bytes(static_cast<std::size_t>(s.length));
  s.status = read_range(**reader, s.offset, bytes);
  if (!s.status.is_ok()) return;
  s.crc = crc32(bytes);

  const std::size_t psize = obj.header.page_size;
  for (std::size_t i = s.first_page; i < s.first_page + s.page_count; ++i) {
    const PageEntry& pe = obj.pages[i];
    const std::size_t rel =
        static_cast<std::size_t>(pe.rec_offset - s.offset);
    PageRecord rec;
    std::memcpy(&rec, bytes.data() + rel, sizeof rec);
    if (rec.payload_len != pe.payload_len || rec.encoding != pe.encoding) {
      s.status = corruption("object changed during restore: " + obj.key);
      return;
    }
    if (!pe.decode) {
      ++s.skipped;
      continue;
    }
    std::span<const std::byte> payload{bytes.data() + rel + sizeof rec,
                                       pe.payload_len};
    std::span<std::byte> page_out{
        out_base.at(pe.block_id) + std::size_t{pe.page_index} * psize,
        psize};
    s.status = decode_page(static_cast<PageEncoding>(pe.encoding), payload,
                           page_out);
    if (!s.status.is_ok()) return;
    ++s.decoded;
  }
}

/// Shard granularity: mirror the encoder's policy — enough shards to
/// balance the workers, large enough to amortize dispatch, bounded so
/// one shard's buffer stays a few MB.
std::uint32_t pick_shard_pages(std::uint64_t total_pages, int threads) {
  const std::uint64_t target =
      total_pages / (static_cast<std::uint64_t>(threads) * 8) + 1;
  return static_cast<std::uint32_t>(
      std::clamp<std::uint64_t>(target, 16, 1024));
}

/// One strict plan-then-decode attempt at `upto`.  In tolerant mode
/// (`truncate_tail`) chain damage detectable from headers alone is
/// healed by cutting the candidate list; damage found later (corrupt
/// manifest or payload in the live range) is reported via *failed_seq
/// so the caller can retry below it.
Result<RestoredState> attempt(storage::StorageBackend& storage,
                              std::uint32_t rank, std::uint64_t upto,
                              int threads, bool truncate_tail,
                              std::uint64_t* failed_seq,
                              bool* have_failed_seq) {
  auto& metrics = RestoreMetrics::get();
  obs::ScopedTimer plan_timer(metrics.plan_ns);
  obs::TraceSpan plan_span(metrics.t_plan, upto);

  auto keys = storage.list();
  if (!keys.is_ok()) return keys.status();
  const std::string prefix = "rank" + std::to_string(rank) + "/";
  std::vector<std::string> chain_keys;
  for (const auto& k : *keys) {
    if (k.rfind(prefix, 0) == 0) chain_keys.push_back(k);
  }
  if (chain_keys.empty()) {
    return not_found("no checkpoints for rank " + std::to_string(rank));
  }

  // ---- Header peek: place every object in the chain by sequence.
  std::vector<Candidate> cands;
  cands.reserve(chain_keys.size());
  for (const auto& k : chain_keys) {
    Candidate c;
    c.key = k;
    auto h = peek_header(storage, k);
    if (h.is_ok()) {
      c.header_ok = true;
      c.header = *h;
      c.sequence = h->sequence;
    } else if (!parse_key_sequence(k, &c.sequence)) {
      // Unreadable header and unparseable key: the object cannot even
      // be placed in the chain.
      if (!truncate_tail) return h.status();
      continue;  // orphan; fsck --repair quarantines these
    }
    if (c.sequence > upto) continue;  // peeked only, never fully parsed
    if (!c.header_ok && !truncate_tail) return h.status();
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
  // Tolerant mode: an unreadable header ends the usable prefix there.
  if (truncate_tail) {
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (!cands[i].header_ok) {
        cands.resize(i);
        break;
      }
    }
    if (cands.empty()) {
      return not_found("no checkpoint at or before requested sequence");
    }
  }

  // ---- Seed: newest full checkpoint; validate parent links after it.
  std::ptrdiff_t start = -1;
  for (std::ptrdiff_t i = static_cast<std::ptrdiff_t>(cands.size()) - 1;
       i >= 0; --i) {
    if (cands[static_cast<std::size_t>(i)].header.kind ==
        static_cast<std::uint16_t>(Kind::kFull)) {
      start = i;
      break;
    }
  }
  if (start < 0) {
    return corruption("chain has no full checkpoint to seed recovery");
  }
  std::size_t end = cands.size();
  for (std::size_t i = static_cast<std::size_t>(start) + 1; i < end; ++i) {
    if (cands[i].header.parent_sequence != cands[i - 1].sequence) {
      if (!truncate_tail) {
        return corruption(
            "chain gap: sequence " + std::to_string(cands[i].sequence) +
            " expects parent " +
            std::to_string(cands[i].header.parent_sequence) + " but " +
            std::to_string(cands[i - 1].sequence) +
            " is the newest applied");
      }
      end = i;  // recover the prefix before the gap
      break;
    }
  }

  // ---- Manifest scan of the live range (seed..end) and page plan.
  std::vector<ObjectPlan> objs;
  objs.reserve(end - static_cast<std::size_t>(start));
  for (std::size_t i = static_cast<std::size_t>(start); i < end; ++i) {
    auto plan = scan_object(storage, cands[i].key);
    if (!plan.is_ok()) {
      *failed_seq = cands[i].sequence;
      *have_failed_seq = true;
      return plan.status();
    }
    objs.push_back(std::move(plan.value()));
  }

  struct Winner {
    std::uint32_t obj = UINT32_MAX;
    std::uint32_t page = 0;  ///< into objs[obj].pages
  };
  struct LiveBlock {
    BlockMeta meta;  ///< first-seen name/kind/extent
    std::vector<Winner> winners;
  };
  std::map<std::uint32_t, LiveBlock> live;
  const std::uint32_t psize = objs.front().header.page_size;
  std::set<std::uint32_t> listed;
  for (std::size_t o = 0; o < objs.size(); ++o) {
    ObjectPlan& obj = objs[o];
    if (obj.header.page_size != psize) {
      *failed_seq = obj.header.sequence;
      *have_failed_seq = true;
      return corruption("page size changed mid-chain in " + obj.key);
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
        *failed_seq = obj.header.sequence;
        *have_failed_seq = true;
        return corruption("block " + std::to_string(m.id) +
                          " changed size mid-chain");
      }
    }
    for (std::size_t p = 0; p < obj.pages.size(); ++p) {
      const PageEntry& pe = obj.pages[p];
      auto it = live.find(pe.block_id);
      if (it == live.end() || pe.page_index >= it->second.winners.size()) {
        *failed_seq = obj.header.sequence;
        *have_failed_seq = true;
        return corruption("run out of block bounds in " + obj.key);
      }
      it->second.winners[pe.page_index] =
          Winner{static_cast<std::uint32_t>(o),
                 static_cast<std::uint32_t>(p)};
    }
  }
  // Newest-wins: mark the single decoder of each surviving page.
  for (const auto& [id, lb] : live) {
    for (const Winner& w : lb.winners) {
      if (w.obj != UINT32_MAX) objs[w.obj].pages[w.page].decode = true;
    }
  }

  // ---- Output state: final footprint only, zero-filled.
  RestoredState state;
  state.sequence = objs.back().header.sequence;
  state.virtual_time = objs.back().header.virtual_time;
  std::map<std::uint32_t, std::byte*> out_base;
  for (const auto& [id, lb] : live) {
    RestoredBlock b;
    b.id = id;
    b.name = lb.meta.name;
    b.kind = lb.meta.kind;
    b.data.assign(lb.meta.rounded, std::byte{0});
    auto [it, inserted] = state.blocks.emplace(id, std::move(b));
    out_base[id] = it->second.data.data();
  }

  // ---- Shard every page segment for the decode pool.
  std::uint64_t total_pages = 0;
  for (const auto& obj : objs) total_pages += obj.pages.size();
  const std::uint32_t shard_pages =
      pick_shard_pages(total_pages, std::max(1, threads));
  std::vector<DecodeShard> shards;
  // Per object, the indices of its shards in file order (for the fold).
  std::vector<std::vector<std::size_t>> object_shards(objs.size());
  for (std::size_t o = 0; o < objs.size(); ++o) {
    const ObjectPlan& obj = objs[o];
    for (const Segment& seg : obj.segments) {
      if (seg.structural) continue;
      for (std::size_t off = 0; off < seg.page_count; off += shard_pages) {
        DecodeShard s;
        s.obj_idx = o;
        s.first_page = seg.first_page + off;
        s.page_count = static_cast<std::uint32_t>(
            std::min<std::size_t>(shard_pages, seg.page_count - off));
        s.offset = obj.pages[s.first_page].rec_offset;
        const std::size_t last = s.first_page + s.page_count - 1;
        s.length = obj.pages[last].rec_offset + sizeof(PageRecord) +
                   obj.pages[last].payload_len - s.offset;
        object_shards[o].push_back(shards.size());
        shards.push_back(s);
      }
    }
  }

  plan_timer.stop();
  plan_span.end(total_pages, shards.size());
  obs::ScopedTimer decode_timer(metrics.decode_ns);

  if (threads > 1 && shards.size() > 1) {
    ThreadPool pool(static_cast<std::size_t>(threads));
    for (DecodeShard& s : shards) {
      pool.submit([&storage, &objs, &out_base, &s] {
        run_shard(storage, objs, out_base, s);
      });
    }
    pool.wait_idle();
  } else {
    for (DecodeShard& s : shards) {
      run_shard(storage, objs, out_base, s);
    }
  }

  decode_timer.stop();
  obs::ScopedTimer stitch_timer(metrics.stitch_ns);
  obs::TraceSpan stitch_span(metrics.t_stitch);

  // ---- Stitch: surface shard failures (oldest object first, so a
  // tolerant retry truncates as little as possible), then fold segment
  // CRCs in file order and compare against each trailer.
  std::uint64_t pages_decoded = 0;
  std::uint64_t pages_skipped = 0;
  std::uint64_t bytes_read = 0;
  for (std::size_t o = 0; o < objs.size(); ++o) {
    for (std::size_t si : object_shards[o]) {
      const DecodeShard& s = shards[si];
      if (!s.status.is_ok()) {
        *failed_seq = objs[o].header.sequence;
        *have_failed_seq = true;
        return s.status;
      }
      pages_decoded += s.decoded;
      pages_skipped += s.skipped;
      bytes_read += s.length;
    }
    Crc32 fold;
    std::size_t next_shard = 0;
    for (const Segment& seg : objs[o].segments) {
      if (seg.structural) {
        fold.combine(seg.crc, seg.length);
        continue;
      }
      std::uint64_t covered = 0;
      while (covered < seg.length) {
        const DecodeShard& s = shards[object_shards[o][next_shard++]];
        fold.combine(s.crc, s.length);
        covered += s.length;
      }
    }
    if (fold.value() != objs[o].trailer_crc) {
      *failed_seq = objs[o].header.sequence;
      *have_failed_seq = true;
      return corruption("crc mismatch in " + objs[o].key);
    }
  }
  stitch_timer.stop();

  metrics.chains.inc();
  metrics.objects.inc(objs.size());
  metrics.pages_decoded.inc(pages_decoded);
  metrics.pages_skipped.inc(pages_skipped);
  metrics.bytes_read.inc(bytes_read);
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

Result<RestoredState> read_checkpoint_file(storage::StorageBackend& storage,
                                           const std::string& key) {
  auto parsed = parse(storage, key);
  if (!parsed.is_ok()) return parsed.status();
  return std::move(parsed->state);
}

Result<RestoredState> restore_chain(storage::StorageBackend& storage,
                                    std::uint32_t rank,
                                    const RestoreOptions& options) {
  int threads = options.decode_threads;
  if (threads <= 0) {
    threads = static_cast<int>(ThreadPool::hardware_threads());
  }
  std::uint64_t upto = options.upto;
  for (;;) {
    std::uint64_t failed_seq = 0;
    bool have_failed_seq = false;
    auto state = attempt(storage, rank, upto, threads,
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

Result<RestoredState> restore_chain_serial(storage::StorageBackend& storage,
                                           std::uint32_t rank,
                                           std::uint64_t upto) {
  auto keys = storage.list();
  if (!keys.is_ok()) return keys.status();
  const std::string prefix = "rank" + std::to_string(rank) + "/";
  std::vector<std::string> chain_keys;
  for (const auto& k : *keys) {
    if (k.rfind(prefix, 0) == 0) chain_keys.push_back(k);
  }
  std::sort(chain_keys.begin(), chain_keys.end());
  if (chain_keys.empty()) {
    return not_found("no checkpoints for rank " + std::to_string(rank));
  }

  // Parse everything, then walk backwards to the newest full
  // checkpoint with sequence <= upto.
  std::ptrdiff_t start = -1;
  std::vector<ParsedCheckpoint> parsed_files;
  parsed_files.reserve(chain_keys.size());
  for (const auto& k : chain_keys) {
    auto p = parse(storage, k);
    if (!p.is_ok()) return p.status();
    if (p->header.sequence > upto) continue;
    parsed_files.push_back(std::move(p.value()));
  }
  std::sort(parsed_files.begin(), parsed_files.end(),
            [](const ParsedCheckpoint& a, const ParsedCheckpoint& b) {
              return a.header.sequence < b.header.sequence;
            });
  if (parsed_files.empty()) {
    return not_found("no checkpoint at or before requested sequence");
  }
  for (std::ptrdiff_t i =
           static_cast<std::ptrdiff_t>(parsed_files.size()) - 1;
       i >= 0; --i) {
    if (parsed_files[static_cast<std::size_t>(i)].header.kind ==
        static_cast<std::uint16_t>(Kind::kFull)) {
      start = i;
      break;
    }
  }
  if (start < 0) {
    return corruption("chain has no full checkpoint to seed recovery");
  }

  // Seed with the full checkpoint, then overlay each incremental.
  RestoredState state =
      std::move(parsed_files[static_cast<std::size_t>(start)].state);
  std::uint64_t prev_seq =
      parsed_files[static_cast<std::size_t>(start)].header.sequence;
  for (std::size_t i = static_cast<std::size_t>(start) + 1;
       i < parsed_files.size(); ++i) {
    ParsedCheckpoint& inc = parsed_files[i];
    // A gap in the chain means lost deltas: refuse to fabricate state.
    if (inc.header.parent_sequence != prev_seq) {
      return corruption("chain gap: sequence " +
                        std::to_string(inc.header.sequence) +
                        " expects parent " +
                        std::to_string(inc.header.parent_sequence) +
                        " but " + std::to_string(prev_seq) +
                        " is the newest applied");
    }
    prev_seq = inc.header.sequence;
    // Memory exclusion: drop blocks absent from the newer manifest.
    for (auto it = state.blocks.begin(); it != state.blocks.end();) {
      if (inc.state.blocks.find(it->first) == inc.state.blocks.end()) {
        it = state.blocks.erase(it);
      } else {
        ++it;
      }
    }
    const std::size_t psize = inc.header.page_size;
    for (auto& [id, newer] : inc.state.blocks) {
      auto it = state.blocks.find(id);
      if (it == state.blocks.end()) {
        // New block: starts zero-filled with this file's runs applied.
        state.blocks.emplace(id, std::move(newer));
        continue;
      }
      RestoredBlock& base = it->second;
      if (base.data.size() != newer.data.size()) {
        return corruption("block " + std::to_string(id) +
                          " changed size mid-chain");
      }
      for (const RunHeader& run : inc.runs[id]) {
        std::size_t off = std::size_t{run.first_page} * psize;
        std::size_t len = std::size_t{run.page_count} * psize;
        std::memcpy(base.data.data() + off, newer.data.data() + off, len);
      }
    }
    state.sequence = inc.state.sequence;
    state.virtual_time = inc.state.virtual_time;
  }
  return state;
}

Result<std::map<std::uint32_t, region::BlockId>> materialize(
    const RestoredState& state, region::AddressSpace& space) {
  std::map<std::uint32_t, region::BlockId> mapping;
  for (const auto& [id, block] : state.blocks) {
    auto ref = space.map(block.data.size(), block.kind, block.name);
    if (!ref.is_ok()) return ref.status();
    std::memcpy(ref->mem.data(), block.data.data(), block.data.size());
    mapping[id] = ref->id;
  }
  return mapping;
}

}  // namespace ickpt::checkpoint
