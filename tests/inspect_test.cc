// Chain/store inspection (checkpoint fsck).
#include "checkpoint/inspect.h"

#include <gtest/gtest.h>

#include <cstring>

#include "checkpoint/checkpointer.h"
#include "checkpoint/coordinated.h"
#include "common/rng.h"
#include "memtrack/explicit_engine.h"
#include "minimpi/comm.h"
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

TEST(InspectStoreTest, MultiRankStoreWithCommits) {
  auto storage = storage::make_memory_backend();
  mpi::Runtime::run(3, [&](mpi::Comm& comm) {
    ExplicitEngine engine;
    AddressSpace space(engine, "r" + std::to_string(comm.rank()));
    auto block = space.map(2 * page_size(), AreaKind::kHeap, "b");
    ASSERT_TRUE(block.is_ok());
    CheckpointerOptions opts;
    opts.rank = static_cast<std::uint32_t>(comm.rank());
    auto local = Checkpointer::create(space, storage.get(), opts).value();
    ASSERT_TRUE(engine.arm().is_ok());
    for (int round = 0; round < 2; ++round) {
      auto snap = engine.collect(true);
      ASSERT_TRUE(snap.is_ok());
      ASSERT_TRUE(CoordinatedCheckpointer::checkpoint(
                      comm, *local, *snap, round, *storage)
                      .is_ok());
    }
  });

  auto report = inspect_store(*storage);
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(report->healthy());
  EXPECT_EQ(report->chains.size(), 3u);
  ASSERT_EQ(report->commit_markers.size(), 2u);
  EXPECT_EQ(report->commit_markers.back(), 1u);
}

TEST(InspectStoreTest, CommitBeyondChainIsFlagged) {
  auto storage = storage::make_memory_backend();
  ExplicitEngine engine;
  AddressSpace space(engine, "r");
  auto block = space.map(page_size(), AreaKind::kHeap, "b");
  ASSERT_TRUE(block.is_ok());
  auto ckpt = Checkpointer::create(space, storage.get()).value();
  ASSERT_TRUE(ckpt->checkpoint_full(0.0).is_ok());

  // Forge a commit marker pointing past the chain.
  auto w = storage->create("commit/000000000009");
  ASSERT_TRUE(w.is_ok());
  std::uint64_t payload[2] = {9, 1};
  ASSERT_TRUE(
      (*w)->write({reinterpret_cast<const std::byte*>(payload), 16})
          .is_ok());
  ASSERT_TRUE((*w)->close().is_ok());

  auto report = inspect_store(*storage);
  ASSERT_TRUE(report.is_ok());
  EXPECT_FALSE(report->healthy());
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
