// Chain/store inspection (checkpoint fsck).
#include "checkpoint/inspect.h"

#include <gtest/gtest.h>

#include <cstring>
#include <latch>
#include <thread>
#include <vector>

#include "checkpoint/checkpointer.h"
#include "checkpoint/format.h"
#include "checkpoint/restore.h"
#include "common/rng.h"
#include "memtrack/explicit_engine.h"
#include "region/address_space.h"
#include "storage/backend.h"
#include "tests/chunked_backend_fake.h"

namespace ickpt::checkpoint {
namespace {

using memtrack::ExplicitEngine;
using region::AddressSpace;
using region::AreaKind;

class InspectTest : public ::testing::Test {
 protected:
  InspectTest()
      : storage_(storage::make_memory_backend()),
        space_(engine_, "r"),
        ckpt_(Checkpointer::create(space_, storage_.get()).value()) {}

  void write_chain(int increments) {
    auto block = space_.map(4 * page_size(), AreaKind::kHeap, "s");
    ASSERT_TRUE(block.is_ok());
    block_ = block->mem;
    ASSERT_TRUE(ckpt_->checkpoint_full(0.0).is_ok());
    ASSERT_TRUE(engine_.arm().is_ok());
    Rng rng(5);
    for (int i = 0; i < increments; ++i) {
      block_[rng.next_index(block_.size())] = std::byte{0xEE};
      engine_.note_write(block_.data(), 1);
      auto snap = engine_.collect(true);
      ASSERT_TRUE(snap.is_ok());
      ASSERT_TRUE(ckpt_->checkpoint_incremental(*snap, i + 1.0).is_ok());
    }
  }

  ExplicitEngine engine_;
  std::unique_ptr<storage::StorageBackend> storage_;
  AddressSpace space_;
  std::unique_ptr<Checkpointer> ckpt_;
  std::span<std::byte> block_;
};

TEST_F(InspectTest, HealthyChainReportsClean) {
  write_chain(4);
  auto report = inspect_chain(*storage_, 0);
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(report->healthy()) << report->problems.front();
  EXPECT_EQ(report->elements.size(), 5u);
  EXPECT_TRUE(report->elements[0].full);
  EXPECT_FALSE(report->elements[1].full);
  EXPECT_TRUE(report->recoverable);
  EXPECT_EQ(report->recoverable_upto, 4u);
  EXPECT_GT(report->total_bytes, 0u);
}

// Regression: inspect_object issued a single read() for the header
// and mistook a legitimate short read for corruption.  A streaming
// backend serving 7 bytes at a time must still inspect cleanly.
TEST_F(InspectTest, ShortReadingBackendInspectsCleanly) {
  write_chain(3);
  storage::ChunkedBackend chunked(*storage_, 7);
  auto report = inspect_chain(chunked, 0);
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(report->healthy()) << report->problems.front();
  EXPECT_EQ(report->elements.size(), 4u);
  EXPECT_TRUE(report->recoverable);
}

TEST_F(InspectTest, MissingRankReportsProblem) {
  auto report = inspect_chain(*storage_, 7);
  ASSERT_TRUE(report.is_ok());
  EXPECT_FALSE(report->healthy());
  EXPECT_FALSE(report->recoverable);
}

TEST_F(InspectTest, CorruptedElementIsFlagged) {
  write_chain(3);
  // Corrupt the second incremental in place.
  std::string key = ckpt_->chain()[2].key;
  auto reader = storage_->open(key);
  ASSERT_TRUE(reader.is_ok());
  std::vector<std::byte> data((*reader)->size());
  std::size_t off = 0;
  while (off < data.size()) {
    auto got = (*reader)->read({data.data() + off, data.size() - off});
    ASSERT_TRUE(got.is_ok());
    if (*got == 0) break;
    off += *got;
  }
  data[data.size() / 2] ^= std::byte{0xFF};
  auto w = storage_->create(key);
  ASSERT_TRUE(w.is_ok());
  ASSERT_TRUE((*w)->write(data).is_ok());
  ASSERT_TRUE((*w)->close().is_ok());

  auto report = inspect_chain(*storage_, 0);
  ASSERT_TRUE(report.is_ok());
  EXPECT_FALSE(report->healthy());
  // The chain is broken at element 2: the parent link of element 3
  // dangles, and restore (which walks through it) must fail too, so
  // the report lists both findings.
  EXPECT_GE(report->problems.size(), 1u);
}

// Restore reads only the chunks holding pages it returns; fsck reads
// every byte.  Damage in a chunk every page of which a later
// incremental rewrote leaves the chain restorable, but not healthy.
TEST_F(InspectTest, DamageRestoreNeverReadsIsStillFlagged) {
  auto block = space_.map(4 * page_size(), AreaKind::kHeap, "s");
  ASSERT_TRUE(block.is_ok());
  std::memset(block->mem.data(), 0x11, block->mem.size());
  auto full = ckpt_->checkpoint_full(0.0);
  ASSERT_TRUE(full.is_ok());
  ASSERT_TRUE(engine_.arm().is_ok());
  std::memset(block->mem.data(), 0x22, block->mem.size());
  engine_.note_write(block->mem.data(), block->mem.size());
  auto snap = engine_.collect(true);
  ASSERT_TRUE(snap.is_ok());
  ASSERT_TRUE(ckpt_->checkpoint_incremental(*snap, 1.0).is_ok());

  // Flip the last byte of the full checkpoint's last page payload.
  auto reader = storage_->open(full->key);
  ASSERT_TRUE(reader.is_ok());
  std::vector<std::byte> data((*reader)->size());
  ASSERT_TRUE((*reader)->read_at(0, data).is_ok());
  FileTrailer trailer;
  std::memcpy(&trailer, data.data() + data.size() - sizeof trailer,
              sizeof trailer);
  data[trailer.index_offset - 1] ^= std::byte{0xFF};
  auto w = storage_->create(full->key);
  ASSERT_TRUE(w.is_ok());
  ASSERT_TRUE((*w)->write(data).is_ok());
  ASSERT_TRUE((*w)->close().is_ok());

  auto report = inspect_chain(*storage_, 0);
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(report->recoverable);
  EXPECT_EQ(report->recoverable_upto, 1u);
  ASSERT_FALSE(report->healthy());
  EXPECT_NE(report->problems.front().find(full->key), std::string::npos)
      << report->problems.front();
}

TEST_F(InspectTest, MissingMiddleElementBreaksParentLink) {
  write_chain(3);
  ASSERT_TRUE(storage_->remove(ckpt_->chain()[1].key).is_ok());
  auto report = inspect_chain(*storage_, 0);
  ASSERT_TRUE(report.is_ok());
  EXPECT_FALSE(report->healthy());
  bool found = false;
  for (const auto& p : report->problems) {
    if (p.find("broken parent link") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(InspectTest, IncrementalOnlyChainIsUnrecoverable) {
  write_chain(2);
  // Delete the full root.
  ASSERT_TRUE(storage_->remove(ckpt_->chain()[0].key).is_ok());
  auto report = inspect_chain(*storage_, 0);
  ASSERT_TRUE(report.is_ok());
  EXPECT_FALSE(report->recoverable);
  bool found = false;
  for (const auto& p : report->problems) {
    if (p.find("no full checkpoint") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(InspectStoreTest, ConcurrentRankChainsShareOneStore) {
  // Three ranks write their chains into one store at the same time, as
  // the ranks of one job do.
  constexpr std::uint32_t kRanks = 3;
  auto storage = storage::make_memory_backend();
  std::vector<std::vector<std::byte>> truth(kRanks);
  std::latch start(kRanks);
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      start.arrive_and_wait();
      ExplicitEngine engine;
      AddressSpace space(engine, "r" + std::to_string(r));
      auto block = space.map(4 * page_size(), AreaKind::kHeap, "b");
      ASSERT_TRUE(block.is_ok());
      Rng rng(r + 1);
      for (std::byte& b : block->mem) b = std::byte(rng.next_u64() & 0xff);
      CheckpointerOptions opts;
      opts.rank = r;
      auto ckpt = Checkpointer::create(space, storage.get(), opts).value();
      ASSERT_TRUE(ckpt->checkpoint_full(0.0).is_ok());
      ASSERT_TRUE(engine.arm().is_ok());
      for (int i = 1; i <= 2; ++i) {
        std::byte* page = block->mem.data() + rng.next_index(4) * page_size();
        std::memset(page, 0x10 * i + static_cast<int>(r), page_size());
        engine.note_write(page, page_size());
        auto snap = engine.collect(true);
        ASSERT_TRUE(snap.is_ok());
        ASSERT_TRUE(ckpt->checkpoint_incremental(*snap, i).is_ok());
      }
      truth[r].assign(block->mem.begin(), block->mem.end());
    });
  }
  for (auto& t : threads) t.join();

  for (std::uint32_t r = 0; r < kRanks; ++r) {
    auto state = restore_chain(*storage, r);
    ASSERT_TRUE(state.is_ok()) << "rank " << r;
    ASSERT_EQ(state->blocks.size(), 1u);
    const BlockBytes& got = state->blocks.begin()->second.data;
    ASSERT_EQ(got.size(), truth[r].size());
    EXPECT_EQ(std::memcmp(got.data(), truth[r].data(), got.size()), 0)
        << "rank " << r;
  }
  auto report = inspect_store(*storage);
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(report->healthy());
  ASSERT_EQ(report->chains.size(), kRanks);
  for (const auto& [rank, chain] : report->chains) {
    EXPECT_TRUE(chain.healthy()) << "rank " << rank;
    EXPECT_EQ(chain.elements.size(), 3u);
    EXPECT_EQ(chain.recoverable_upto, 2u);
  }
  auto rep = repair_store(*storage);
  ASSERT_TRUE(rep.is_ok());
  EXPECT_TRUE(rep->clean());
  EXPECT_TRUE(rep->dropped.empty());
}

TEST(InspectStoreTest, EmptyStoreIsTriviallyHealthy) {
  auto storage = storage::make_memory_backend();
  auto report = inspect_store(*storage);
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(report->healthy());
  EXPECT_TRUE(report->chains.empty());
}

}  // namespace
}  // namespace ickpt::checkpoint
