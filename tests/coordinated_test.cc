// Coordinated multi-rank checkpoint/restore over minimpi, including
// failure injection on one rank and full crash/recovery round trips.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "checkpoint/coordinated.h"
#include "checkpoint/restore.h"
#include "common/rng.h"
#include "memtrack/explicit_engine.h"
#include "minimpi/comm.h"
#include "region/address_space.h"
#include "storage/backend.h"
#include "tests/support/faulty_backend.h"

namespace ickpt::checkpoint {
namespace {

using memtrack::ExplicitEngine;
using region::AddressSpace;
using region::AreaKind;

void scribble(std::span<std::byte> mem, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = 0; i + 8 <= mem.size(); i += 8) {
    std::uint64_t v = rng.next_u64();
    std::memcpy(mem.data() + i, &v, 8);
  }
}

TEST(CoordinatedTest, AllRanksCommitTogether) {
  constexpr int kRanks = 4;
  auto storage = storage::make_memory_backend();

  mpi::Runtime::run(kRanks, [&](mpi::Comm& comm) {
    ExplicitEngine engine;
    AddressSpace space(engine, "r" + std::to_string(comm.rank()));
    auto block = space.map(4 * page_size(), AreaKind::kHeap, "state");
    ASSERT_TRUE(block.is_ok());
    scribble(block->mem, static_cast<std::uint64_t>(comm.rank()) + 1);

    CheckpointerOptions opts;
    opts.rank = static_cast<std::uint32_t>(comm.rank());
    auto local = Checkpointer::create(space, storage.get(), opts).value();
    ASSERT_TRUE(engine.arm().is_ok());

    // Two coordinated checkpoints with writes in between.
    for (int round = 0; round < 2; ++round) {
      scribble(block->mem.subspan(0, page_size()),
               static_cast<std::uint64_t>(100 + round));
      engine.note_write(block->mem.data(), page_size());
      auto snap = engine.collect(true);
      ASSERT_TRUE(snap.is_ok());
      auto seq = CoordinatedCheckpointer::checkpoint(
          comm, *local, *snap, static_cast<double>(round), *storage);
      ASSERT_TRUE(seq.is_ok()) << seq.status().to_string();
    }
  });

  auto committed = CoordinatedCheckpointer::last_committed(*storage);
  ASSERT_TRUE(committed.is_ok());
  EXPECT_EQ(*committed, 1u);  // sequences 0 (full) and 1 (incremental)

  // Every rank's chain restores to that sequence.
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    auto state = restore_chain(*storage, r, *committed);
    ASSERT_TRUE(state.is_ok()) << "rank " << r;
    EXPECT_EQ(state->blocks.size(), 1u);
  }
}

TEST(CoordinatedTest, LastCommittedWithoutMarkers) {
  auto storage = storage::make_memory_backend();
  EXPECT_EQ(CoordinatedCheckpointer::last_committed(*storage).status().code(),
            ErrorCode::kNotFound);
}

TEST(CoordinatedTest, FailedRankAbortsCommit) {
  constexpr int kRanks = 3;
  auto storage = storage::make_memory_backend();

  mpi::Runtime::run(kRanks, [&](mpi::Comm& comm) {
    ExplicitEngine engine;
    AddressSpace space(engine, "r" + std::to_string(comm.rank()));
    auto block = space.map(16 * page_size(), AreaKind::kHeap, "state");
    ASSERT_TRUE(block.is_ok());

    CheckpointerOptions opts;
    opts.rank = static_cast<std::uint32_t>(comm.rank());

    // Rank 1's storage dies almost immediately.
    std::unique_ptr<storage::FaultyBackend> faulty;
    storage::StorageBackend* backend = storage.get();
    if (comm.rank() == 1) {
      faulty = std::make_unique<storage::FaultyBackend>(*storage, 64);
      backend = faulty.get();
    }
    auto local = Checkpointer::create(space, backend, opts).value();
    ASSERT_TRUE(engine.arm().is_ok());
    auto snap = engine.collect(true);
    ASSERT_TRUE(snap.is_ok());

    auto seq = CoordinatedCheckpointer::checkpoint(comm, *local, *snap, 0.0,
                                                   *storage);
    EXPECT_FALSE(seq.is_ok());  // every rank observes the failure
  });

  // No commit marker was written.
  EXPECT_FALSE(CoordinatedCheckpointer::last_committed(*storage).is_ok());
}

TEST(CoordinatedTest, CrashRecoveryRoundTrip) {
  // Simulate: run, checkpoint, "crash", restore into fresh spaces, and
  // verify the recovered state matches what was checkpointed.
  constexpr int kRanks = 2;
  auto storage = storage::make_memory_backend();
  std::vector<std::vector<std::byte>> truth(kRanks);

  mpi::Runtime::run(kRanks, [&](mpi::Comm& comm) {
    ExplicitEngine engine;
    AddressSpace space(engine, "r" + std::to_string(comm.rank()));
    auto block = space.map(8 * page_size(), AreaKind::kHeap, "grid");
    ASSERT_TRUE(block.is_ok());
    scribble(block->mem, static_cast<std::uint64_t>(comm.rank()) * 17 + 3);

    CheckpointerOptions opts;
    opts.rank = static_cast<std::uint32_t>(comm.rank());
    auto local = Checkpointer::create(space, storage.get(), opts).value();
    ASSERT_TRUE(engine.arm().is_ok());
    auto snap = engine.collect(true);
    ASSERT_TRUE(snap.is_ok());
    ASSERT_TRUE(CoordinatedCheckpointer::checkpoint(comm, *local, *snap, 5.0,
                                                    *storage)
                    .is_ok());

    // Record the ground truth at checkpoint time...
    truth[static_cast<std::size_t>(comm.rank())]
        .assign(block->mem.begin(), block->mem.end());
    // ...then keep computing past the checkpoint (this state is lost).
    scribble(block->mem, 999);
  });

  // "Recovery": rebuild each rank from storage.
  auto committed = CoordinatedCheckpointer::last_committed(*storage);
  ASSERT_TRUE(committed.is_ok());
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    auto state = restore_chain(*storage, r, *committed);
    ASSERT_TRUE(state.is_ok());
    EXPECT_DOUBLE_EQ(state->virtual_time, 5.0);

    ExplicitEngine engine;
    AddressSpace space(engine, "recovered");
    auto mapping = materialize(*state, space);
    ASSERT_TRUE(mapping.is_ok());
    ASSERT_EQ(mapping->size(), 1u);
    auto span = space.block_span(mapping->begin()->second);
    ASSERT_TRUE(span.is_ok());
    EXPECT_EQ(std::memcmp(span->data(), truth[r].data(), truth[r].size()),
              0)
        << "rank " << r << " state diverged";
  }
}

}  // namespace
}  // namespace ickpt::checkpoint
