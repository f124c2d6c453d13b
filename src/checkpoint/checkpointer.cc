#include "checkpoint/checkpointer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <memory>

#include "checkpoint/compress.h"
#include "common/crc32.h"
#include "common/page.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace ickpt::checkpoint {

namespace {

/// Stage metrics for the encode pipeline.  Handles are resolved once;
/// workers and the calling thread record via relaxed atomics only.
struct CkptMetrics {
  obs::Counter& objects;
  obs::Counter& full;
  obs::Counter& incremental;
  obs::Counter& pages;
  obs::Counter& file_bytes;
  obs::Counter& shards;
  obs::Counter& zero_pages;
  obs::Counter& rle_pages;
  obs::Histogram& plan_ns;
  obs::Histogram& encode_ns;
  obs::Histogram& crc_ns;
  obs::Histogram& write_ns;
  obs::Histogram& encode_stall_ns;
  obs::Histogram& flush_ns;
  std::uint16_t t_plan;         ///< "ckpt.plan" span
  std::uint16_t t_encode_shard; ///< "ckpt.encode_shard" span
  std::uint16_t t_write;        ///< "ckpt.write" span
  std::uint16_t t_flush;        ///< "ckpt.flush" span

  static CkptMetrics& get() {
    auto& r = obs::registry();
    static CkptMetrics m{r.counter("ckpt.objects"),
                         r.counter("ckpt.full"),
                         r.counter("ckpt.incremental"),
                         r.counter("ckpt.pages"),
                         r.counter("ckpt.file_bytes"),
                         r.counter("ckpt.shards"),
                         r.counter("ckpt.zero_pages"),
                         r.counter("ckpt.rle_pages"),
                         r.histogram("ckpt.plan_ns"),
                         r.histogram("ckpt.encode_ns"),
                         r.histogram("ckpt.crc_ns"),
                         r.histogram("ckpt.write_ns"),
                         r.histogram("ckpt.encode_stall_ns"),
                         r.histogram("ckpt.flush_ns"),
                         obs::trace_name("ckpt.plan", obs::TraceCat::kCkpt),
                         obs::trace_name("ckpt.encode_shard",
                                         obs::TraceCat::kCkpt),
                         obs::trace_name("ckpt.write", obs::TraceCat::kCkpt),
                         obs::trace_name("ckpt.flush", obs::TraceCat::kCkpt)};
    return m;
  }
};

}  // namespace

std::string checkpoint_key(std::uint32_t rank, std::uint64_t sequence) {
  // 20 digits covers the full uint64 range, so lexicographic key order
  // matches numeric sequence order (the old 12-digit pad mis-sorted at
  // sequence >= 10^12).  Readers still sort parsed sequences
  // numerically, which also keeps mixed-pad stores restorable.
  char buf[64];
  std::snprintf(buf, sizeof buf, "rank%u/ckpt-%020llu", rank,
                static_cast<unsigned long long>(sequence));
  return buf;
}

Checkpointer::Checkpointer(region::AddressSpace& space,
                           storage::StorageBackend& storage,
                           CheckpointerOptions options)
    : space_(space), storage_(storage), options_(options) {
  if (options_.encode_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(options_.encode_threads));
  }
  if (options_.async) {
    async_ = std::make_unique<storage::AsyncWriter>(storage_);
  }
}

Result<std::unique_ptr<Checkpointer>> Checkpointer::create(
    region::AddressSpace& space, storage::StorageBackend* storage,
    CheckpointerOptions options) {
  if (storage == nullptr) {
    return invalid_argument("Checkpointer: storage backend must not be null");
  }
  if (options.encode_threads < 1 ||
      options.encode_threads > kMaxEncodeThreads) {
    return invalid_argument(
        "Checkpointer: encode_threads must be in [1, " +
        std::to_string(kMaxEncodeThreads) + "], got " +
        std::to_string(options.encode_threads));
  }
  if (options.full_every > kMaxFullEvery) {
    return invalid_argument(
        "Checkpointer: full_every " + std::to_string(options.full_every) +
        " exceeds " + std::to_string(kMaxFullEvery) +
        " (likely an overflowed or negative value)");
  }
  return std::unique_ptr<Checkpointer>(
      new Checkpointer(space, *storage, options));
}

namespace {

/// Compress a sorted page-index list into contiguous runs.
std::vector<RunHeader> make_runs(const std::vector<std::uint32_t>& pages) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < pages.size(); ++i) {
    if (i == 0 || pages[i] != pages[i - 1] + 1) ++count;
  }
  std::vector<RunHeader> runs;
  runs.reserve(count);
  std::size_t i = 0;
  while (i < pages.size()) {
    std::size_t j = i + 1;
    while (j < pages.size() && pages[j] == pages[j - 1] + 1) ++j;
    runs.push_back(RunHeader{pages[i],
                             static_cast<std::uint32_t>(j - i)});
    i = j;
  }
  return runs;
}

/// CRC-tracking write helper.
struct CrcWriter {
  storage::Writer& out;
  Crc32 crc;

  Status write(const void* data, std::size_t len) {
    crc.update(data, len);
    return out.write({static_cast<const std::byte*>(data), len});
  }

  /// Write a pre-encoded byte range whose finalized CRC is already
  /// known, folding it into the stream CRC in O(log len).
  Status write_hashed(std::span<const std::byte> data, std::uint32_t data_crc) {
    crc.combine(data_crc, data.size());
    return out.write(data);
  }
};

/// Writer that accumulates the object in memory (async mode: the
/// buffer is handed to the AsyncWriter once complete).
class VectorWriter final : public storage::Writer {
 public:
  Status write(std::span<const std::byte> data) override {
    buf_.insert(buf_.end(), data.begin(), data.end());
    return Status::ok();
  }
  Status close() override { return Status::ok(); }
  std::uint64_t bytes_written() const noexcept override {
    return buf_.size();
  }
  std::vector<std::byte> take() { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

/// One unit of parallel encoding: a contiguous page range of one run.
/// A worker fills `buf` with exactly the bytes the serial writer would
/// emit for those pages (PageRecord + payload each) plus their CRC, so
/// the main thread stitches shards into a byte-identical file.
struct EncodeShard {
  const std::byte* base = nullptr;  ///< first page's data
  std::uint32_t page_count = 0;

  std::vector<std::byte> buf;
  std::uint32_t crc = 0;  ///< finalized CRC of buf
  std::uint32_t zero_pages = 0;
  std::uint32_t rle_pages = 0;
};

void append(std::vector<std::byte>& buf, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::byte*>(data);
  buf.insert(buf.end(), p, p + len);
}

void encode_shard(EncodeShard& shard, std::size_t psize, bool compress) {
  auto& metrics = CkptMetrics::get();
  obs::ScopedTimer encode_timer(metrics.encode_ns);
  obs::TraceSpan span(metrics.t_encode_shard, shard.page_count);
  shard.buf.reserve(shard.page_count * (sizeof(PageRecord) + psize));
  std::vector<std::byte> payload;
  for (std::uint32_t p = 0; p < shard.page_count; ++p) {
    const std::byte* page_data = shard.base + std::size_t{p} * psize;
    PageRecord rec;
    if (compress) {
      PageEncoding enc = encode_page({page_data, psize}, payload);
      rec.encoding = static_cast<std::uint32_t>(enc);
      rec.payload_len = static_cast<std::uint32_t>(payload.size());
      append(shard.buf, &rec, sizeof rec);
      if (!payload.empty()) {
        append(shard.buf, payload.data(), payload.size());
      }
      if (enc == PageEncoding::kZero) ++shard.zero_pages;
      if (enc == PageEncoding::kRle) ++shard.rle_pages;
    } else {
      rec.encoding = static_cast<std::uint32_t>(PageEncoding::kPlain);
      rec.payload_len = static_cast<std::uint32_t>(psize);
      append(shard.buf, &rec, sizeof rec);
      append(shard.buf, page_data, psize);
    }
  }
  {
    obs::ScopedTimer crc_timer(metrics.crc_ns);
    shard.crc = crc32(shard.buf);
  }
  metrics.shards.inc();
}

/// Shard granularity: enough shards to balance `threads` workers,
/// large enough to amortize dispatch, bounded so one shard's buffer
/// stays a few MB.
std::uint32_t pick_shard_pages(std::uint64_t total_pages, int threads) {
  const std::uint64_t target =
      total_pages / (static_cast<std::uint64_t>(threads) * 8) + 1;
  return static_cast<std::uint32_t>(std::clamp<std::uint64_t>(
      target, 16, 1024));
}

}  // namespace

Result<CheckpointMeta> Checkpointer::checkpoint_full(double virtual_time) {
  auto meta = write_checkpoint(Kind::kFull, nullptr, virtual_time);
  if (meta.is_ok()) since_full_ = 0;
  return meta;
}

Result<CheckpointMeta> Checkpointer::checkpoint_incremental(
    const memtrack::DirtySnapshot& snapshot, double virtual_time) {
  const bool need_full =
      chain_.empty() ||
      (options_.full_every > 0 && since_full_ >= options_.full_every);
  if (need_full) return checkpoint_full(virtual_time);
  auto meta = write_checkpoint(Kind::kIncremental, &snapshot, virtual_time);
  if (meta.is_ok()) ++since_full_;
  return meta;
}

Result<CheckpointMeta> Checkpointer::write_checkpoint(
    Kind kind, const memtrack::DirtySnapshot* snapshot,
    double virtual_time) {
  const std::uint64_t seq = next_seq_++;
  const std::string key = checkpoint_key(options_.rank, seq);
  auto meta = write_object(kind, snapshot, virtual_time, seq, key);
  if (!meta.is_ok()) {
    // A mid-write failure must not leak a partially-written object or
    // burn the sequence number: remove whatever the backend kept (a
    // no-op for backends whose writers abort cleanly) and roll the
    // sequence back so the next attempt reuses it.
    (void)storage_.remove(key);
    next_seq_ = seq;
    return meta;
  }
  chain_.push_back(*meta);
  total_pages_ += meta->payload_pages;
  return meta;
}

Result<CheckpointMeta> Checkpointer::write_object(
    Kind kind, const memtrack::DirtySnapshot* snapshot, double virtual_time,
    std::uint64_t seq, const std::string& key) {
  auto& metrics = CkptMetrics::get();
  obs::ScopedTimer plan_timer(metrics.plan_ns);
  obs::TraceSpan plan_span(metrics.t_plan, seq);
  const auto blocks = space_.blocks();
  const std::size_t psize = page_size();

  // Index dirty regions by tracker region id.
  std::map<memtrack::RegionId, const memtrack::RegionDirty*> dirty;
  if (snapshot != nullptr) {
    for (const auto& r : snapshot->regions) dirty[r.id] = &r;
  }

  // ---- Plan: per-block runs, validated extents, and the shard list
  // in file order.  All bounds are checked before any worker starts.
  struct BlockPlan {
    std::vector<RunHeader> runs;
    const std::byte* data = nullptr;
  };
  std::vector<BlockPlan> plans;
  plans.reserve(blocks.size());
  std::uint64_t total_pages = 0;
  for (const auto& block : blocks) {
    BlockPlan plan;
    if (kind == Kind::kFull) {
      auto npages = static_cast<std::uint32_t>(pages_for(block.bytes));
      if (npages > 0) plan.runs.push_back(RunHeader{0, npages});
    } else if (auto it = dirty.find(block.region); it != dirty.end()) {
      plan.runs = make_runs(it->second->dirty_pages);
    }
    auto span = space_.block_span(block.id);
    if (!span.is_ok()) return span.status();
    plan.data = span->data();
    const std::size_t block_pages = pages_for(block.bytes);
    for (const auto& run : plan.runs) {
      if (std::size_t{run.first_page} + run.page_count > block_pages) {
        return internal_error("dirty run exceeds block extent");
      }
      total_pages += run.page_count;
    }
    plans.push_back(std::move(plan));
  }

  const int threads = std::max(1, options_.encode_threads);
  const std::uint32_t shard_pages = pick_shard_pages(total_pages, threads);

  // Chunk every run into shards.  The same deterministic chunking is
  // replayed by the stitch loop below, so no index bookkeeping needed.
  std::vector<EncodeShard> shards;
  shards.reserve(static_cast<std::size_t>(total_pages / shard_pages) +
                 plans.size());
  for (const auto& plan : plans) {
    for (const auto& run : plan.runs) {
      for (std::uint32_t off = 0; off < run.page_count; off += shard_pages) {
        EncodeShard s;
        s.base = plan.data + (std::size_t{run.first_page} + off) * psize;
        s.page_count = std::min(shard_pages, run.page_count - off);
        shards.push_back(std::move(s));
      }
    }
  }

  plan_timer.stop();
  plan_span.end(total_pages, shards.size());
  obs::ScopedTimer write_timer(metrics.write_ns);
  obs::TraceSpan write_span(metrics.t_write, seq, total_pages);

  // Workers encode shards out of order; the stitcher consumes them in
  // file order as each completes, so writing overlaps encoding.  The
  // drain guard keeps `shards` alive past any early (error) return
  // until every in-flight worker task has finished.
  std::vector<std::future<void>> encoded;
  struct PoolDrain {
    ThreadPool* pool;
    ~PoolDrain() {
      if (pool != nullptr) pool->wait_idle();
    }
  } drain{nullptr};
  if (pool_ != nullptr && threads > 1 && shards.size() > 1) {
    drain.pool = pool_.get();
    encoded.reserve(shards.size());
    const bool compress = options_.compress;
    for (auto& s : shards) {
      auto promise = std::make_shared<std::promise<void>>();
      encoded.push_back(promise->get_future());
      pool_->submit([&s, psize, compress, promise] {
        encode_shard(s, psize, compress);
        promise->set_value();
      });
    }
  }

  // ---- Sink: the backend directly (sync), or an in-memory buffer
  // that is submitted to the background writer once complete (async).
  std::unique_ptr<storage::Writer> sink;
  VectorWriter* vec = nullptr;
  if (async_ != nullptr) {
    auto v = std::make_unique<VectorWriter>();
    vec = v.get();
    sink = std::move(v);
  } else {
    auto writer = storage_.create(key);
    if (!writer.is_ok()) return writer.status();
    sink = std::move(*writer);
  }
  CrcWriter w{*sink, {}};

  FileHeader header;
  header.kind = static_cast<std::uint16_t>(kind);
  header.rank = options_.rank;
  header.page_size = static_cast<std::uint32_t>(psize);
  header.sequence = seq;
  header.parent_sequence = chain_.empty() ? seq : chain_.back().sequence;
  header.block_count = static_cast<std::uint32_t>(blocks.size());
  header.virtual_time = virtual_time;
  ICKPT_RETURN_IF_ERROR(w.write(&header, sizeof header));

  // ---- Stitch: headers from this thread, page payloads from the
  // shard buffers, byte-identical to the serial writer's output.
  std::uint64_t payload_pages = 0;
  std::uint64_t zero_pages = 0;
  std::uint64_t rle_pages = 0;
  std::size_t shard_idx = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const auto& block = blocks[b];
    const auto& plan = plans[b];

    BlockHeader bh;
    bh.block_id = block.id;
    bh.kind = static_cast<std::uint32_t>(block.kind);
    bh.bytes = block.bytes;
    bh.name_len = static_cast<std::uint32_t>(block.name.size());
    bh.run_count = static_cast<std::uint32_t>(plan.runs.size());
    ICKPT_RETURN_IF_ERROR(w.write(&bh, sizeof bh));
    ICKPT_RETURN_IF_ERROR(w.write(block.name.data(), block.name.size()));

    for (const auto& run : plan.runs) {
      ICKPT_RETURN_IF_ERROR(w.write(&run, sizeof run));
      for (std::uint32_t off = 0; off < run.page_count; off += shard_pages) {
        EncodeShard& s = shards[shard_idx];
        if (shard_idx < encoded.size()) {
          auto& done = encoded[shard_idx];
          if (done.wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready) {
            // The stitcher outran the workers: record the bubble.
            obs::StallClock stall;
            done.wait();
            if (obs::enabled()) {
              metrics.encode_stall_ns.record(stall.elapsed_ns());
            }
          }
        } else {
          encode_shard(s, psize, options_.compress);
        }
        ++shard_idx;
        ICKPT_RETURN_IF_ERROR(w.write_hashed(s.buf, s.crc));
        zero_pages += s.zero_pages;
        rle_pages += s.rle_pages;
        std::vector<std::byte>().swap(s.buf);  // bound peak memory
      }
      payload_pages += run.page_count;
    }
  }

  FileTrailer trailer;
  trailer.crc32 = w.crc.value();
  ICKPT_RETURN_IF_ERROR(
      sink->write({reinterpret_cast<const std::byte*>(&trailer),
                   sizeof trailer}));
  ICKPT_RETURN_IF_ERROR(sink->close());

  CheckpointMeta meta;
  meta.sequence = seq;
  meta.kind = kind;
  meta.key = key;
  meta.payload_pages = payload_pages;
  meta.file_bytes = sink->bytes_written();
  meta.zero_pages = zero_pages;
  meta.rle_pages = rle_pages;
  meta.virtual_time = virtual_time;

  if (vec != nullptr) {
    ICKPT_RETURN_IF_ERROR(async_->submit(key, vec->take()));
  }

  metrics.objects.inc();
  (kind == Kind::kFull ? metrics.full : metrics.incremental).inc();
  metrics.pages.inc(payload_pages);
  metrics.file_bytes.inc(meta.file_bytes);
  metrics.zero_pages.inc(zero_pages);
  metrics.rle_pages.inc(rle_pages);
  return meta;
}

Status Checkpointer::flush() {
  if (async_ == nullptr) return Status::ok();
  auto& metrics = CkptMetrics::get();
  obs::ScopedTimer timer(metrics.flush_ns);
  obs::TraceSpan span(metrics.t_flush);
  return async_->flush();
}

Status Checkpointer::truncate_before_last_full() {
  // Find the newest full checkpoint.
  auto it = std::find_if(chain_.rbegin(), chain_.rend(),
                         [](const CheckpointMeta& m) {
                           return m.kind == Kind::kFull;
                         });
  if (it == chain_.rend()) return Status::ok();
  // Removal races with queued writes in async mode; drain first.
  ICKPT_RETURN_IF_ERROR(flush());
  std::size_t keep_from = chain_.size() - 1 -
                          static_cast<std::size_t>(it - chain_.rbegin());
  for (std::size_t i = 0; i < keep_from; ++i) {
    ICKPT_RETURN_IF_ERROR(storage_.remove(chain_[i].key));
  }
  chain_.erase(chain_.begin(),
               chain_.begin() + static_cast<std::ptrdiff_t>(keep_from));
  return Status::ok();
}

}  // namespace ickpt::checkpoint
