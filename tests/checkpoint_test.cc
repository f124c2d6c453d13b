// Checkpoint format, chain writing, restore, memory exclusion,
// corruption detection, and GC.
#include <gtest/gtest.h>

#include <cstring>

#include "checkpoint/checkpointer.h"
#include "checkpoint/restore.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "memtrack/explicit_engine.h"
#include "region/address_space.h"
#include "storage/backend.h"
#include "tests/counting_backend_fake.h"
#include "tests/support/faulty_backend.h"

namespace ickpt::checkpoint {
namespace {

using memtrack::ExplicitEngine;
using region::AddressSpace;
using region::AreaKind;

/// Fill a span with a deterministic pattern derived from `seed`.
void fill_pattern(std::span<std::byte> mem, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = 0; i < mem.size(); i += 8) {
    std::uint64_t v = rng.next_u64();
    std::memcpy(mem.data() + i, &v, std::min<std::size_t>(8, mem.size() - i));
  }
}

/// Compare restored block contents against the live space.
void expect_blocks_equal(const RestoredState& state, AddressSpace& space) {
  auto blocks = space.blocks();
  ASSERT_EQ(state.blocks.size(), blocks.size());
  for (const auto& info : blocks) {
    auto it = state.blocks.find(info.id);
    ASSERT_NE(it, state.blocks.end()) << "missing block " << info.id;
    auto span = space.block_span(info.id);
    ASSERT_TRUE(span.is_ok());
    ASSERT_EQ(it->second.data.size(), span->size());
    EXPECT_EQ(std::memcmp(it->second.data.data(), span->data(),
                          span->size()),
              0)
        << "content mismatch in block " << info.id;
    EXPECT_EQ(it->second.name, info.name);
  }
}

class CheckpointTest : public ::testing::Test {
 protected:
  CheckpointTest()
      : storage_(storage::make_memory_backend()),
        space_(engine_, "rank0"),
        ckpt_(Checkpointer::create(space_, storage_.get()).value()) {}

  ExplicitEngine engine_;
  std::unique_ptr<storage::StorageBackend> storage_;
  AddressSpace space_;
  std::unique_ptr<Checkpointer> ckpt_;
};

TEST_F(CheckpointTest, FullCheckpointRoundTrip) {
  auto a = space_.map(4 * page_size(), AreaKind::kHeap, "a");
  auto b = space_.map(2 * page_size(), AreaKind::kMmap, "b");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  fill_pattern(a->mem, 1);
  fill_pattern(b->mem, 2);

  auto meta = ckpt_->checkpoint_full(10.0);
  ASSERT_TRUE(meta.is_ok());
  EXPECT_EQ(meta->kind, Kind::kFull);
  EXPECT_EQ(meta->payload_pages, 6u);

  auto state = restore_chain(*storage_, 0);
  ASSERT_TRUE(state.is_ok());
  EXPECT_EQ(state->sequence, meta->sequence);
  EXPECT_DOUBLE_EQ(state->virtual_time, 10.0);
  expect_blocks_equal(*state, space_);
}

TEST_F(CheckpointTest, IncrementalCapturesOnlyDirtyPages) {
  auto a = space_.map(8 * page_size(), AreaKind::kHeap, "a");
  ASSERT_TRUE(a.is_ok());
  fill_pattern(a->mem, 3);
  ASSERT_TRUE(ckpt_->checkpoint_full(0.0).is_ok());

  ASSERT_TRUE(engine_.arm().is_ok());
  // Mutate pages 2 and 5.
  fill_pattern(a->mem.subspan(2 * page_size(), page_size()), 42);
  fill_pattern(a->mem.subspan(5 * page_size(), page_size()), 43);
  engine_.note_write(a->mem.data() + 2 * page_size(), page_size());
  engine_.note_write(a->mem.data() + 5 * page_size(), page_size());
  auto snap = engine_.collect(true);
  ASSERT_TRUE(snap.is_ok());

  auto meta = ckpt_->checkpoint_incremental(*snap, 1.0);
  ASSERT_TRUE(meta.is_ok());
  EXPECT_EQ(meta->kind, Kind::kIncremental);
  EXPECT_EQ(meta->payload_pages, 2u);  // exactly the dirty pages

  auto state = restore_chain(*storage_, 0);
  ASSERT_TRUE(state.is_ok());
  expect_blocks_equal(*state, space_);
}

TEST_F(CheckpointTest, FirstIncrementalPromotesToFull) {
  auto a = space_.map(page_size(), AreaKind::kHeap, "a");
  ASSERT_TRUE(a.is_ok());
  memtrack::DirtySnapshot empty;
  auto meta = ckpt_->checkpoint_incremental(empty, 0.0);
  ASSERT_TRUE(meta.is_ok());
  EXPECT_EQ(meta->kind, Kind::kFull);
}

TEST_F(CheckpointTest, ChainOfIncrementalsRestoresLatestState) {
  auto a = space_.map(16 * page_size(), AreaKind::kHeap, "data");
  ASSERT_TRUE(a.is_ok());
  fill_pattern(a->mem, 7);
  ASSERT_TRUE(ckpt_->checkpoint_full(0.0).is_ok());
  ASSERT_TRUE(engine_.arm().is_ok());

  Rng rng(99);
  for (int step = 1; step <= 10; ++step) {
    // Random writes each interval.
    int writes = 1 + static_cast<int>(rng.next_index(5));
    for (int w = 0; w < writes; ++w) {
      std::size_t pg = rng.next_index(16);
      fill_pattern(a->mem.subspan(pg * page_size(), page_size()),
                   rng.next_u64());
      engine_.note_write(a->mem.data() + pg * page_size(), page_size());
    }
    auto snap = engine_.collect(true);
    ASSERT_TRUE(snap.is_ok());
    ASSERT_TRUE(
        ckpt_->checkpoint_incremental(*snap, static_cast<double>(step))
            .is_ok());
  }

  auto state = restore_chain(*storage_, 0);
  ASSERT_TRUE(state.is_ok());
  expect_blocks_equal(*state, space_);
  EXPECT_EQ(ckpt_->chain().size(), 11u);
}

TEST_F(CheckpointTest, RestoreUptoIntermediateSequence) {
  auto a = space_.map(2 * page_size(), AreaKind::kHeap, "a");
  ASSERT_TRUE(a.is_ok());
  fill_pattern(a->mem, 1);
  std::vector<std::byte> v0(a->mem.begin(), a->mem.end());
  ASSERT_TRUE(ckpt_->checkpoint_full(0.0).is_ok());
  ASSERT_TRUE(engine_.arm().is_ok());

  fill_pattern(a->mem, 2);
  engine_.note_write(a->mem.data(), a->mem.size());
  auto snap1 = engine_.collect(true);
  ASSERT_TRUE(snap1.is_ok());
  auto m1 = ckpt_->checkpoint_incremental(*snap1, 1.0);
  ASSERT_TRUE(m1.is_ok());
  std::vector<std::byte> v1(a->mem.begin(), a->mem.end());

  fill_pattern(a->mem, 3);
  engine_.note_write(a->mem.data(), a->mem.size());
  auto snap2 = engine_.collect(true);
  ASSERT_TRUE(snap2.is_ok());
  ASSERT_TRUE(ckpt_->checkpoint_incremental(*snap2, 2.0).is_ok());

  // Roll back to the middle of the chain.
  auto state = restore_chain(*storage_, 0, m1->sequence);
  ASSERT_TRUE(state.is_ok());
  ASSERT_EQ(state->blocks.size(), 1u);
  const auto& restored = state->blocks.begin()->second.data;
  EXPECT_EQ(std::memcmp(restored.data(), v1.data(), v1.size()), 0);
  EXPECT_NE(std::memcmp(restored.data(), v0.data(), v0.size()), 0);
}

TEST_F(CheckpointTest, MemoryExclusionAcrossChain) {
  auto keep = space_.map(2 * page_size(), AreaKind::kHeap, "keep");
  auto doomed = space_.map(2 * page_size(), AreaKind::kMmap, "doomed");
  ASSERT_TRUE(keep.is_ok());
  ASSERT_TRUE(doomed.is_ok());
  fill_pattern(keep->mem, 1);
  fill_pattern(doomed->mem, 2);
  ASSERT_TRUE(ckpt_->checkpoint_full(0.0).is_ok());
  ASSERT_TRUE(engine_.arm().is_ok());

  // Unmap "doomed", map a new block, write to it.
  ASSERT_TRUE(space_.unmap(doomed->id).is_ok());
  auto fresh = space_.map(3 * page_size(), AreaKind::kHeap, "fresh");
  ASSERT_TRUE(fresh.is_ok());
  fill_pattern(fresh->mem.subspan(0, page_size()), 5);
  engine_.note_write(fresh->mem.data(), page_size());
  auto snap = engine_.collect(true);
  ASSERT_TRUE(snap.is_ok());
  ASSERT_TRUE(ckpt_->checkpoint_incremental(*snap, 1.0).is_ok());

  auto state = restore_chain(*storage_, 0);
  ASSERT_TRUE(state.is_ok());
  EXPECT_EQ(state->blocks.size(), 2u);
  EXPECT_EQ(state->blocks.count(doomed->id), 0u);  // excluded
  ASSERT_EQ(state->blocks.count(fresh->id), 1u);
  // Fresh block: written page restored, untouched pages zero.
  const auto& fb = state->blocks.at(fresh->id).data;
  EXPECT_EQ(std::memcmp(fb.data(), fresh->mem.data(), page_size()), 0);
  for (std::size_t i = page_size(); i < fb.size(); ++i) {
    ASSERT_EQ(fb[i], std::byte{0});
  }
  expect_blocks_equal(*state, space_);
}

TEST_F(CheckpointTest, FullEveryReseedsChain) {
  CheckpointerOptions opts;
  opts.full_every = 2;
  auto ckpt = Checkpointer::create(space_, storage_.get(), opts).value();
  auto a = space_.map(page_size(), AreaKind::kHeap, "a");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(engine_.arm().is_ok());

  memtrack::DirtySnapshot empty;
  std::vector<Kind> kinds;
  for (int i = 0; i < 6; ++i) {
    auto meta = ckpt->checkpoint_incremental(empty, static_cast<double>(i));
    ASSERT_TRUE(meta.is_ok());
    kinds.push_back(meta->kind);
  }
  // full, inc, inc, full, inc, inc
  EXPECT_EQ(kinds[0], Kind::kFull);
  EXPECT_EQ(kinds[1], Kind::kIncremental);
  EXPECT_EQ(kinds[2], Kind::kIncremental);
  EXPECT_EQ(kinds[3], Kind::kFull);
  EXPECT_EQ(kinds[4], Kind::kIncremental);
}

TEST_F(CheckpointTest, TruncateBeforeLastFullRemovesOldObjects) {
  CheckpointerOptions opts;
  opts.full_every = 2;
  auto ckpt = Checkpointer::create(space_, storage_.get(), opts).value();
  auto a = space_.map(page_size(), AreaKind::kHeap, "a");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(engine_.arm().is_ok());
  memtrack::DirtySnapshot empty;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        ckpt->checkpoint_incremental(empty, static_cast<double>(i)).is_ok());
  }
  // Chain: full(0) inc(1) inc(2) full(3) inc(4); truncate drops 0-2.
  ASSERT_TRUE(ckpt->truncate_before_last_full().is_ok());
  EXPECT_EQ(ckpt->chain().size(), 2u);
  EXPECT_EQ(ckpt->chain()[0].kind, Kind::kFull);
  auto keys = storage_->list();
  ASSERT_TRUE(keys.is_ok());
  EXPECT_EQ(keys->size(), 2u);
  // Restore still works from the truncated chain.
  EXPECT_TRUE(restore_chain(*storage_, 0).is_ok());
}

TEST_F(CheckpointTest, MaterializeRebuildsAddressSpace) {
  auto a = space_.map(3 * page_size(), AreaKind::kHeap, "field");
  ASSERT_TRUE(a.is_ok());
  fill_pattern(a->mem, 11);
  ASSERT_TRUE(ckpt_->checkpoint_full(0.0).is_ok());

  auto state = restore_chain(*storage_, 0);
  ASSERT_TRUE(state.is_ok());

  ExplicitEngine engine2;
  AddressSpace space2(engine2, "recovered");
  auto mapping = materialize(*state, space2);
  ASSERT_TRUE(mapping.is_ok());
  ASSERT_EQ(mapping->size(), 1u);
  auto span2 = space2.block_span(mapping->at(a->id));
  ASSERT_TRUE(span2.is_ok());
  EXPECT_EQ(std::memcmp(span2->data(), a->mem.data(), a->mem.size()), 0);
  EXPECT_EQ(space2.blocks()[0].name, "field");
}

TEST_F(CheckpointTest, RestoreMissingRankFails) {
  EXPECT_EQ(restore_chain(*storage_, 42).status().code(),
            ErrorCode::kNotFound);
}

TEST_F(CheckpointTest, StorageFaultSurfacesAsError) {
  auto a = space_.map(64 * page_size(), AreaKind::kHeap, "big");
  ASSERT_TRUE(a.is_ok());
  fill_pattern(a->mem, 77);  // incompressible: every page is payload
  storage::FaultyBackend faulty(*storage_, /*fail_after_bytes=*/page_size());
  auto ckpt = Checkpointer::create(space_, &faulty).value();
  auto meta = ckpt->checkpoint_full(0.0);
  EXPECT_FALSE(meta.is_ok());
  EXPECT_EQ(meta.status().code(), ErrorCode::kIoError);
  EXPECT_TRUE(ckpt->chain().empty());
  // The aborted object must not be visible.
  EXPECT_FALSE(storage_->exists(checkpoint_key(0, 0)));
}

namespace {

/// Fault injector without atomic abort: when armed, the Nth write
/// fails AND the partial object is committed anyway — modelling sinks
/// (object stores, raw devices) that keep partial data on error.
class LeakyFaultBackend final : public storage::StorageBackend {
 public:
  explicit LeakyFaultBackend(storage::StorageBackend& inner)
      : inner_(inner) {}

  /// Fail the write after this many successful ones; -1 = healthy.
  int fail_after_writes = -1;

  Result<std::unique_ptr<storage::Writer>> create(
      const std::string& key) override {
    auto w = inner_.create(key);
    if (!w.is_ok()) return w.status();
    return std::unique_ptr<storage::Writer>(
        new LeakyWriter(std::move(*w), this));
  }
  Result<std::unique_ptr<storage::Reader>> open(
      const std::string& key) override {
    return inner_.open(key);
  }
  Status remove(const std::string& key) override {
    return inner_.remove(key);
  }
  Result<std::vector<std::string>> list() override { return inner_.list(); }
  bool exists(const std::string& key) override { return inner_.exists(key); }
  std::uint64_t total_bytes_stored() const noexcept override {
    return inner_.total_bytes_stored();
  }

 private:
  class LeakyWriter final : public storage::Writer {
   public:
    LeakyWriter(std::unique_ptr<storage::Writer> inner,
                LeakyFaultBackend* owner)
        : inner_(std::move(inner)), owner_(owner) {}
    Status write(std::span<const std::byte> data) override {
      if (owner_->fail_after_writes == 0) {
        (void)inner_->close();  // leak the partial object
        return io_error("injected write fault");
      }
      if (owner_->fail_after_writes > 0) --owner_->fail_after_writes;
      return inner_->write(data);
    }
    Status close() override { return inner_->close(); }
    std::uint64_t bytes_written() const noexcept override {
      return inner_->bytes_written();
    }

   private:
    std::unique_ptr<storage::Writer> inner_;
    LeakyFaultBackend* owner_;
  };

  storage::StorageBackend& inner_;
};

}  // namespace

TEST_F(CheckpointTest, FailedWriteCleansOrphanAndReusesSequence) {
  // Large enough that the object takes well over three store writes
  // even when the writer combines small pieces into 256 KiB ones.
  auto a = space_.map(512 * page_size(), AreaKind::kHeap, "a");
  ASSERT_TRUE(a.is_ok());
  fill_pattern(a->mem, 5);
  LeakyFaultBackend leaky(*storage_);
  auto ckpt = Checkpointer::create(space_, &leaky).value();

  leaky.fail_after_writes = 3;  // die mid-object, after the header
  auto failed = ckpt->checkpoint_full(0.0);
  ASSERT_FALSE(failed.is_ok());
  EXPECT_EQ(failed.status().code(), ErrorCode::kIoError);
  // The committed partial object must have been removed, the sequence
  // number rolled back, and the chain left untouched.
  EXPECT_FALSE(storage_->exists(checkpoint_key(0, 0)));
  EXPECT_EQ(ckpt->next_sequence(), 0u);
  EXPECT_TRUE(ckpt->chain().empty());

  // The retry reuses sequence 0 and the store ends up healthy.
  leaky.fail_after_writes = -1;
  auto meta = ckpt->checkpoint_full(1.0);
  ASSERT_TRUE(meta.is_ok());
  EXPECT_EQ(meta->sequence, 0u);
  auto keys = storage_->list();
  ASSERT_TRUE(keys.is_ok());
  EXPECT_EQ(keys->size(), 1u);
  auto state = restore_chain(*storage_, 0);
  ASSERT_TRUE(state.is_ok());
  expect_blocks_equal(*state, space_);
}

TEST_F(CheckpointTest, StitchCombinesSmallPiecesIntoFewStoreWrites) {
  // 400 one-page runs: the stitch has a run header and a one-page shard
  // for each, but hands the store 256 KiB at a time.
  auto a = space_.map(800 * page_size(), AreaKind::kHeap, "a");
  ASSERT_TRUE(a.is_ok());
  fill_pattern(a->mem, 21);
  storage::CountingBackend counting(*storage_);
  auto ckpt = Checkpointer::create(space_, &counting).value();
  ASSERT_TRUE(ckpt->checkpoint_full(0.0).is_ok());

  ASSERT_TRUE(engine_.arm().is_ok());
  for (std::size_t pg = 0; pg < 800; pg += 2) {
    auto page = a->mem.subspan(pg * page_size(), page_size());
    fill_pattern(page, 1000 + pg);
    engine_.note_write(page.data(), page.size());
  }
  auto snap = engine_.collect(true);
  ASSERT_TRUE(snap.is_ok());
  const std::uint64_t before = counting.writes();
  auto meta = ckpt->checkpoint_incremental(*snap, 1.0);
  ASSERT_TRUE(meta.is_ok());
  EXPECT_EQ(meta->payload_pages, 400u);
  const std::uint64_t piece = 256 * 1024;
  EXPECT_LE(counting.writes() - before,
            (meta->file_bytes + piece - 1) / piece + 1);

  auto state = restore_chain(*storage_, 0);
  ASSERT_TRUE(state.is_ok());
  expect_blocks_equal(*state, space_);
}

/// Fill one page with content of a seeded kind: zero, one repeated
/// word, a few word runs, or noise.
void fill_mixed_page(std::span<std::byte> page, Rng& rng) {
  auto* words = reinterpret_cast<std::uint64_t*>(page.data());
  const std::size_t n = page.size() / 8;
  switch (rng.next_index(4)) {
    case 0:
      std::memset(page.data(), 0, page.size());
      break;
    case 1: {
      const std::uint64_t w = rng.next_u64();
      for (std::size_t i = 0; i < n; ++i) words[i] = w;
      break;
    }
    case 2: {
      const std::size_t run = 1 + rng.next_index(64);
      for (std::size_t i = 0; i < n; ++i) words[i] = i / run;
      break;
    }
    default:
      fill_pattern(page, rng.next_u64());
  }
}

TEST_F(CheckpointTest, ObjectBytesMatchGoldenRecord) {
  // The writer's output is a format contract: every object's size and
  // whole-object CRC must match the values this exact state produced
  // when they were recorded.
  if (page_size() != 4096) GTEST_SKIP() << "golden values assume 4 KiB pages";
  auto a = space_.map(96 * page_size(), AreaKind::kHeap, "mixed");
  auto b = space_.map(20 * page_size(), AreaKind::kMmap, "side");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  Rng rng(2024);
  for (auto* block : {&a->mem, &b->mem}) {
    for (std::size_t off = 0; off < block->size(); off += page_size()) {
      fill_mixed_page(block->subspan(off, page_size()), rng);
    }
  }
  ASSERT_TRUE(ckpt_->checkpoint_full(0.0).is_ok());
  ASSERT_TRUE(engine_.arm().is_ok());
  for (int step = 1; step <= 3; ++step) {
    for (int r = 0; r < 6; ++r) {
      auto* block = rng.next_bool(0.75) ? &a->mem : &b->mem;
      const std::size_t pages = block->size() / page_size();
      const std::size_t len = 1 + rng.next_index(8);
      const std::size_t first = rng.next_index(pages - len + 1);
      for (std::size_t pg = first; pg < first + len; ++pg) {
        fill_mixed_page(block->subspan(pg * page_size(), page_size()), rng);
      }
      engine_.note_write(block->data() + first * page_size(),
                         len * page_size());
    }
    auto snap = engine_.collect(true);
    ASSERT_TRUE(snap.is_ok());
    ASSERT_TRUE(ckpt_->checkpoint_incremental(*snap, step).is_ok());
  }

  struct Golden {
    std::uint64_t bytes;
    std::uint32_t crc32;
  };
  const Golden golden[] = {{166726, 2490290432u},
                           {29974, 99171496u},
                           {23838, 197287104u},
                           {38742, 3646506240u}};
  ASSERT_EQ(ckpt_->chain().size(), std::size(golden));
  for (std::size_t i = 0; i < std::size(golden); ++i) {
    auto reader = storage_->open(ckpt_->chain()[i].key);
    ASSERT_TRUE(reader.is_ok());
    const std::uint64_t size = (*reader)->size();
    ASSERT_GE(size, sizeof(FileTrailer));
    FileTrailer trailer;
    auto got = (*reader)->read_at(
        size - sizeof trailer,
        {reinterpret_cast<std::byte*>(&trailer), sizeof trailer});
    ASSERT_TRUE(got.is_ok());
    ASSERT_EQ(*got, sizeof trailer);
    EXPECT_EQ(size, golden[i].bytes) << "object " << i;
    EXPECT_EQ(trailer.crc32, golden[i].crc32) << "object " << i;
  }
}

// ------------------------------------------------------ factory validation

TEST_F(CheckpointTest, CreateRejectsNullBackend) {
  auto made = Checkpointer::create(space_, nullptr);
  ASSERT_FALSE(made.is_ok());
  EXPECT_EQ(made.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(made.status().to_string().find("null"), std::string::npos);
}

TEST_F(CheckpointTest, CreateRejectsBadEncodeThreads) {
  CheckpointerOptions opts;
  opts.encode_threads = 0;
  EXPECT_EQ(Checkpointer::create(space_, storage_.get(), opts)
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
  opts.encode_threads = -4;
  EXPECT_EQ(Checkpointer::create(space_, storage_.get(), opts)
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
  opts.encode_threads = kMaxEncodeThreads + 1;
  EXPECT_EQ(Checkpointer::create(space_, storage_.get(), opts)
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
  opts.encode_threads = kMaxEncodeThreads;
  EXPECT_TRUE(Checkpointer::create(space_, storage_.get(), opts).is_ok());
}

TEST_F(CheckpointTest, CreateRejectsOverflowedFullEvery) {
  CheckpointerOptions opts;
  // A negative int stuffed into the unsigned field — the classic
  // silent-overflow misuse the bound exists to catch.
  opts.full_every = static_cast<std::uint64_t>(-1);
  auto made = Checkpointer::create(space_, storage_.get(), opts);
  ASSERT_FALSE(made.is_ok());
  EXPECT_EQ(made.status().code(), ErrorCode::kInvalidArgument);
  opts.full_every = kMaxFullEvery;
  EXPECT_TRUE(Checkpointer::create(space_, storage_.get(), opts).is_ok());
}

TEST_F(CheckpointTest, CreatedCheckpointerWorks) {
  auto made = Checkpointer::create(space_, storage_.get());
  ASSERT_TRUE(made.is_ok());
  auto a = space_.map(2 * page_size(), AreaKind::kHeap, "a");
  ASSERT_TRUE(a.is_ok());
  fill_pattern(a->mem, 9);
  ASSERT_TRUE((*made)->checkpoint_full(0.0).is_ok());
  auto state = restore_chain(*storage_, 0);
  ASSERT_TRUE(state.is_ok());
  expect_blocks_equal(*state, space_);
}

// --------------------------------------------------- corruption detection

class CorruptionTest : public CheckpointTest {
 protected:
  /// Write a full checkpoint of one patterned block; returns its bytes.
  std::vector<std::byte> full_checkpoint_bytes() {
    auto a = space_.map(2 * page_size(), AreaKind::kHeap, "a");
    EXPECT_TRUE(a.is_ok());
    fill_pattern(a->mem, 1);
    auto meta = ckpt_->checkpoint_full(0.0);
    EXPECT_TRUE(meta.is_ok());

    auto reader = storage_->open(meta->key);
    EXPECT_TRUE(reader.is_ok());
    std::vector<std::byte> data((*reader)->size());
    std::size_t off = 0;
    while (off < data.size()) {
      auto got = (*reader)->read({data.data() + off, data.size() - off});
      EXPECT_TRUE(got.is_ok());
      if (*got == 0) break;
      off += *got;
    }
    return data;
  }

  void write_object(const std::string& key, std::span<const std::byte> data) {
    auto w = storage_->create(key);
    EXPECT_TRUE(w.is_ok());
    EXPECT_TRUE((*w)->write(data).is_ok());
    EXPECT_TRUE((*w)->close().is_ok());
  }

  /// Write a checkpoint, then return a mutated copy under a new key.
  std::string corrupt_copy(std::size_t flip_offset) {
    auto data = full_checkpoint_bytes();
    if (flip_offset < data.size()) {
      data[flip_offset] ^= std::byte{0xFF};
    }
    write_object("corrupt", data);
    return "corrupt";
  }
};

TEST_F(CorruptionTest, FlippedMagicDetected) {
  auto key = corrupt_copy(0);
  auto state = read_checkpoint_file(*storage_, key);
  EXPECT_EQ(state.status().code(), ErrorCode::kCorruption);
}

TEST_F(CorruptionTest, FlippedPayloadByteFailsCrc) {
  auto key = corrupt_copy(sizeof(FileHeader) + sizeof(BlockHeader) + 32);
  auto state = read_checkpoint_file(*storage_, key);
  EXPECT_EQ(state.status().code(), ErrorCode::kCorruption);
}

TEST_F(CorruptionTest, TruncatedFileDetected) {
  auto a = space_.map(2 * page_size(), AreaKind::kHeap, "a");
  ASSERT_TRUE(a.is_ok());
  auto meta = ckpt_->checkpoint_full(0.0);
  ASSERT_TRUE(meta.is_ok());

  auto reader = storage_->open(meta->key);
  ASSERT_TRUE(reader.is_ok());
  std::vector<std::byte> data((*reader)->size() / 2);
  auto got = (*reader)->read(data);
  ASSERT_TRUE(got.is_ok());
  auto w = storage_->create("truncated");
  ASSERT_TRUE(w.is_ok());
  ASSERT_TRUE((*w)->write({data.data(), *got}).is_ok());
  ASSERT_TRUE((*w)->close().is_ok());

  auto state = read_checkpoint_file(*storage_, "truncated");
  EXPECT_EQ(state.status().code(), ErrorCode::kCorruption);
}

TEST_F(CorruptionTest, VersionTwoObjectIsUnsupported) {
  // The same body as a v2 writer laid it out: no index, and the v2
  // trailer {crc32 over header and body, end magic}.
  auto data = full_checkpoint_bytes();
  FileTrailer trailer;
  std::memcpy(&trailer, data.data() + data.size() - sizeof trailer,
              sizeof trailer);
  data.resize(trailer.index_offset);
  FileHeader header;
  std::memcpy(&header, data.data(), sizeof header);
  header.version = 2;
  std::memcpy(data.data(), &header, sizeof header);
  const std::uint32_t v2_trailer[2] = {crc32(data), kEndMagic};
  const auto* tail = reinterpret_cast<const std::byte*>(v2_trailer);
  data.insert(data.end(), tail, tail + sizeof v2_trailer);
  write_object(checkpoint_key(0, 0), data);

  auto file = read_checkpoint_file(*storage_, checkpoint_key(0, 0));
  EXPECT_EQ(file.status().code(), ErrorCode::kUnsupported);
  EXPECT_NE(file.status().message().find("unknown checkpoint version"),
            std::string::npos);
  auto state = restore_chain(*storage_, 0);
  EXPECT_EQ(state.status().code(), ErrorCode::kUnsupported);
  EXPECT_NE(state.status().message().find("unknown checkpoint version"),
            std::string::npos);
}

TEST_F(CorruptionTest, ValidFileParsesCleanly) {
  // Control: the un-mutated path parses fine (flip beyond file size).
  auto key = corrupt_copy(SIZE_MAX);
  EXPECT_TRUE(read_checkpoint_file(*storage_, key).is_ok());
}

}  // namespace
}  // namespace ickpt::checkpoint
