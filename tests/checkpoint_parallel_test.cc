// Parallel encode pipeline: sharded encoding must produce output
// byte-identical to the serial writer for every thread count and
// compression setting, and must round-trip through restore.
#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "checkpoint/checkpointer.h"
#include "checkpoint/restore.h"
#include "common/rng.h"
#include "memtrack/explicit_engine.h"
#include "region/address_space.h"
#include "storage/backend.h"

namespace ickpt::checkpoint {
namespace {

using memtrack::ExplicitEngine;
using region::AddressSpace;
using region::AreaKind;

/// Mixed content: zero pages, constant-word (RLE) pages, random pages.
void fill_mixed(std::span<std::byte> mem, std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t psize = page_size();
  for (std::size_t off = 0; off < mem.size(); off += psize) {
    auto page = mem.subspan(off, std::min(psize, mem.size() - off));
    switch (rng.next_index(4)) {
      case 0:
        std::memset(page.data(), 0, page.size());
        break;
      case 1: {
        std::uint64_t w = rng.next_u64();
        for (std::size_t i = 0; i + 8 <= page.size(); i += 8) {
          std::memcpy(page.data() + i, &w, 8);
        }
        break;
      }
      default:
        for (std::size_t i = 0; i + 8 <= page.size(); i += 8) {
          std::uint64_t w = rng.next_u64();
          std::memcpy(page.data() + i, &w, 8);
        }
        break;
    }
  }
}

std::vector<std::byte> read_all(storage::StorageBackend& backend,
                                const std::string& key) {
  auto reader = backend.open(key);
  EXPECT_TRUE(reader.is_ok()) << key;
  std::vector<std::byte> data((*reader)->size());
  std::size_t off = 0;
  while (off < data.size()) {
    auto got = (*reader)->read({data.data() + off, data.size() - off});
    EXPECT_TRUE(got.is_ok());
    if (*got == 0) break;
    off += *got;
  }
  EXPECT_EQ(off, data.size());
  return data;
}

class ParallelEncodeTest : public ::testing::Test {
 protected:
  ParallelEncodeTest() : space_(engine_, "rank0") {
    // Several blocks with ragged sizes so shard boundaries land both
    // inside and across runs.
    auto a = space_.map(37 * page_size(), AreaKind::kHeap, "a");
    auto b = space_.map(3 * page_size(), AreaKind::kMmap, "b");
    auto c = space_.map(129 * page_size(), AreaKind::kStaticData, "c");
    fill_mixed(a->mem, 1);
    fill_mixed(b->mem, 2);
    fill_mixed(c->mem, 3);
    blocks_ = {a->mem, b->mem, c->mem};
  }

  /// One dirty snapshot with scattered runs across all blocks.
  memtrack::DirtySnapshot make_dirty_snapshot() {
    EXPECT_TRUE(engine_.arm().is_ok());
    Rng rng(99);
    for (auto mem : blocks_) {
      const std::size_t pages = mem.size() / page_size();
      for (std::size_t p = 0; p < pages; ++p) {
        if (rng.next_bool(0.4)) {
          fill_mixed(mem.subspan(p * page_size(), page_size()),
                     rng.next_u64());
          engine_.note_write(mem.data() + p * page_size(), page_size());
        }
      }
    }
    auto snap = engine_.collect(true);
    EXPECT_TRUE(snap.is_ok());
    return std::move(snap.value());
  }

  /// Write full + incremental with the given options into a fresh
  /// memory backend; returns the backend for inspection.
  std::unique_ptr<storage::StorageBackend> write_chain(
      const memtrack::DirtySnapshot& snap, CheckpointerOptions opts) {
    auto backend = storage::make_memory_backend();
    auto ckpt = Checkpointer::create(space_, backend.get(), opts).value();
    EXPECT_TRUE(ckpt->checkpoint_full(0.0).is_ok());
    EXPECT_TRUE(ckpt->checkpoint_incremental(snap, 1.0).is_ok());
    return backend;
  }

  ExplicitEngine engine_;
  AddressSpace space_;
  std::vector<std::span<std::byte>> blocks_;
};

TEST_F(ParallelEncodeTest, OutputByteIdenticalToSerial) {
  auto snap = make_dirty_snapshot();
  for (bool compress : {true, false}) {
    CheckpointerOptions serial;
    serial.compress = compress;
    serial.encode_threads = 1;
    auto reference = write_chain(snap, serial);
    auto keys = reference->list();
    ASSERT_TRUE(keys.is_ok());
    ASSERT_EQ(keys->size(), 2u);
    // fsck's sequential parse rebuilds the index from the body and
    // requires the stored one to be identical.
    for (const auto& key : *keys) {
      EXPECT_TRUE(read_checkpoint_file(*reference, key).is_ok()) << key;
    }

    for (int threads : {2, 4, 8}) {
      CheckpointerOptions parallel = serial;
      parallel.encode_threads = threads;
      auto got = write_chain(snap, parallel);
      for (const auto& key : *keys) {
        EXPECT_EQ(read_all(*got, key), read_all(*reference, key))
            << "threads=" << threads << " compress=" << compress
            << " key=" << key;
      }
    }
  }
}

TEST_F(ParallelEncodeTest, ParallelChainRoundTripsThroughRestore) {
  auto snap = make_dirty_snapshot();
  CheckpointerOptions opts;
  opts.encode_threads = 8;
  auto backend = write_chain(snap, opts);

  auto state = restore_chain(*backend, 0);
  ASSERT_TRUE(state.is_ok());
  auto live = space_.blocks();
  ASSERT_EQ(state->blocks.size(), live.size());
  for (const auto& info : live) {
    auto it = state->blocks.find(info.id);
    ASSERT_NE(it, state->blocks.end());
    auto span = space_.block_span(info.id);
    ASSERT_TRUE(span.is_ok());
    ASSERT_EQ(it->second.data.size(), span->size());
    EXPECT_EQ(std::memcmp(it->second.data.data(), span->data(),
                          span->size()),
              0)
        << "block " << info.id;
  }
}

TEST_F(ParallelEncodeTest, EmptyIncrementalParallelMatchesSerial) {
  // No dirty pages at all: headers-only object, zero shards.
  memtrack::DirtySnapshot empty;
  CheckpointerOptions serial;
  auto a = write_chain(empty, serial);
  CheckpointerOptions parallel;
  parallel.encode_threads = 8;
  auto b = write_chain(empty, parallel);
  auto keys = a->list();
  ASSERT_TRUE(keys.is_ok());
  for (const auto& key : *keys) {
    EXPECT_EQ(read_all(*b, key), read_all(*a, key)) << key;
  }
}

}  // namespace
}  // namespace ickpt::checkpoint
