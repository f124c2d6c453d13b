// RecoverableRun: automatic checkpoint/restart of stepwise
// computations, including crash-equivalent teardown and corrupted /
// mismatched recovery layouts.
#include "core/recoverable.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>
#include <vector>

#include "storage/backend.h"
#include "tests/support/faulty_backend.h"

namespace ickpt {
namespace {

/// The "computation": each step adds step+1 to every counter cell.
void apply_step(std::span<std::byte> mem, int step) {
  auto* v = reinterpret_cast<std::uint64_t*>(mem.data());
  std::size_t n = mem.size() / sizeof(std::uint64_t);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] += static_cast<std::uint64_t>(step) + 1;
  }
}

std::uint64_t expected_after(int steps) {
  std::uint64_t total = 0;
  for (int s = 0; s < steps; ++s) total += static_cast<std::uint64_t>(s) + 1;
  return total;
}

TEST(RecoverableTest, FreshStartBeginsAtZero) {
  auto backend = storage::make_memory_backend();
  auto run = RecoverableRun::create(*backend, {});
  ASSERT_TRUE(run.is_ok());
  ASSERT_TRUE((*run)->add_block(2 * page_size(), "state").is_ok());
  auto first = (*run)->begin();
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(*first, 0);
}

TEST(RecoverableTest, CrashAndResumeProducesExactResult) {
  auto backend = storage::make_memory_backend();
  constexpr int kTotalSteps = 20;
  constexpr int kCrashAfter = 13;

  // Phase 1: run to the crash point, checkpointing every 3 steps.
  {
    RecoverableRun::Options opts;
    opts.checkpoint_every = 3;
    auto run = RecoverableRun::create(*backend, opts);
    ASSERT_TRUE(run.is_ok());
    auto mem = (*run)->add_block(4 * page_size(), "counters");
    ASSERT_TRUE(mem.is_ok());
    auto first = (*run)->begin();
    ASSERT_TRUE(first.is_ok());
    ASSERT_EQ(*first, 0);
    for (int s = 0; s < kCrashAfter; ++s) {
      apply_step(*mem, s);
      ASSERT_TRUE((*run)->did_step(s).is_ok());
    }
  }  // destructor == crash: uncheckpointed work is lost

  // Phase 2: a fresh process resumes from the chain.
  {
    RecoverableRun::Options opts;
    opts.checkpoint_every = 3;
    auto run = RecoverableRun::create(*backend, opts);
    ASSERT_TRUE(run.is_ok());
    auto mem = (*run)->add_block(4 * page_size(), "counters");
    ASSERT_TRUE(mem.is_ok());
    auto first = (*run)->begin();
    ASSERT_TRUE(first.is_ok()) << first.status().to_string();
    // Last checkpoint was after step 11 (steps 0-11, every 3) -> resume
    // at 12.
    EXPECT_EQ(*first, 12);
    for (int s = *first; s < kTotalSteps; ++s) {
      apply_step(*mem, s);
      ASSERT_TRUE((*run)->did_step(s).is_ok());
    }
    auto* v = reinterpret_cast<std::uint64_t*>(mem->data());
    EXPECT_EQ(v[0], expected_after(kTotalSteps));
    EXPECT_EQ(v[100], expected_after(kTotalSteps));
  }
}

TEST(RecoverableTest, FailedReseedKeepsTheResumePoint) {
  auto backend = storage::make_memory_backend();
  RecoverableRun::Options opts;
  opts.checkpoint_every = 3;
  // 13 steps leave a chain of 4: checkpoints after steps 2, 5, 8, 11.
  {
    auto run = RecoverableRun::create(*backend, opts);
    ASSERT_TRUE(run.is_ok());
    auto mem = (*run)->add_block(4 * page_size(), "counters");
    ASSERT_TRUE(mem.is_ok());
    ASSERT_TRUE((*run)->begin().is_ok());
    for (int s = 0; s < 13; ++s) {
      apply_step(*mem, s);
      ASSERT_TRUE((*run)->did_step(s).is_ok());
    }
  }
  ASSERT_EQ(backend->list()->size(), 4u);

  // A restart whose store fails its first write cannot re-seed the
  // chain; the chain it restored from must survive.
  {
    storage::FaultyBackend faulty(*backend, 0);
    auto run = RecoverableRun::create(faulty, opts);
    ASSERT_TRUE(run.is_ok());
    ASSERT_TRUE((*run)->add_block(4 * page_size(), "counters").is_ok());
    auto first = (*run)->begin();
    ASSERT_FALSE(first.is_ok());
    EXPECT_EQ(first.status().code(), ErrorCode::kIoError);
  }
  EXPECT_EQ(backend->list()->size(), 4u);

  // So the next restart still resumes after step 11, and once its
  // re-seed is stored the old chain is gone.
  auto run = RecoverableRun::create(*backend, opts);
  ASSERT_TRUE(run.is_ok());
  auto mem = (*run)->add_block(4 * page_size(), "counters");
  ASSERT_TRUE(mem.is_ok());
  auto first = (*run)->begin();
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  EXPECT_EQ(*first, 12);
  EXPECT_EQ(reinterpret_cast<std::uint64_t*>(mem->data())[0],
            expected_after(12));
  auto keys = backend->list();
  ASSERT_TRUE(keys.is_ok());
  EXPECT_EQ(keys->size(), 1u);
}

// A restart stores its re-seed, then dies before the old chain is
// removed, and the oldest object's header is destroyed.  The next
// restart passes over the damage below the re-seed and resumes where
// the run left off, with exact counters.
TEST(RecoverableTest, DamagedOldChainBelowTheReseedIsPassedOver) {
  auto backend = storage::make_memory_backend();
  RecoverableRun::Options opts;
  opts.checkpoint_every = 3;
  // 9 steps leave a chain of 3: checkpoints after steps 2, 5 and 8.
  {
    auto run = RecoverableRun::create(*backend, opts);
    ASSERT_TRUE(run.is_ok());
    auto mem = (*run)->add_block(4 * page_size(), "counters");
    ASSERT_TRUE(mem.is_ok());
    ASSERT_TRUE((*run)->begin().is_ok());
    for (int s = 0; s < 9; ++s) {
      apply_step(*mem, s);
      ASSERT_TRUE((*run)->did_step(s).is_ok());
    }
  }
  std::map<std::string, std::vector<std::byte>> old_chain;
  {
    auto keys = backend->list();
    ASSERT_TRUE(keys.is_ok());
    for (const auto& key : *keys) {
      auto reader = backend->open(key);
      ASSERT_TRUE(reader.is_ok());
      std::vector<std::byte> bytes((*reader)->size());
      auto got = (*reader)->read_at(0, bytes);
      ASSERT_TRUE(got.is_ok());
      ASSERT_EQ(*got, bytes.size());
      old_chain[key] = std::move(bytes);
    }
  }
  ASSERT_EQ(old_chain.size(), 3u);

  // A restart re-seeds at sequence 3, removes the old chain, checkpoints
  // after step 11 (sequence 4) and dies.
  {
    auto run = RecoverableRun::create(*backend, opts);
    ASSERT_TRUE(run.is_ok());
    auto mem = (*run)->add_block(4 * page_size(), "counters");
    ASSERT_TRUE(mem.is_ok());
    auto first = (*run)->begin();
    ASSERT_TRUE(first.is_ok()) << first.status().to_string();
    ASSERT_EQ(*first, 9);
    for (int s = 9; s < 12; ++s) {
      apply_step(*mem, s);
      ASSERT_TRUE((*run)->did_step(s).is_ok());
    }
  }
  ASSERT_EQ(backend->list()->size(), 2u);

  // The old chain back, as a crash before its removal leaves it, with
  // 64 bytes of 0xEE over the oldest object's header.
  for (auto& [key, bytes] : old_chain) {
    if (key == old_chain.begin()->first) {
      std::fill_n(bytes.begin(), std::min<std::size_t>(64, bytes.size()),
                  std::byte{0xEE});
    }
    auto w = backend->create(key);
    ASSERT_TRUE(w.is_ok());
    ASSERT_TRUE((*w)->write(bytes).is_ok());
    ASSERT_TRUE((*w)->close().is_ok());
  }
  ASSERT_EQ(backend->list()->size(), 5u);

  auto run = RecoverableRun::create(*backend, opts);
  ASSERT_TRUE(run.is_ok());
  auto mem = (*run)->add_block(4 * page_size(), "counters");
  ASSERT_TRUE(mem.is_ok());
  auto first = (*run)->begin();
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  EXPECT_EQ(*first, 12);
  auto* v = reinterpret_cast<std::uint64_t*>(mem->data());
  EXPECT_EQ(v[0], expected_after(12));
  EXPECT_EQ(v[100], expected_after(12));
  // Once the new re-seed is stored, every older key is gone.
  EXPECT_EQ(backend->list()->size(), 1u);
}

TEST(RecoverableTest, MultipleBlocksRestoreIndependently) {
  auto backend = storage::make_memory_backend();
  {
    auto run = RecoverableRun::create(*backend, {});
    ASSERT_TRUE(run.is_ok());
    auto a = (*run)->add_block(page_size(), "a");
    auto b = (*run)->add_block(2 * page_size(), "b");
    ASSERT_TRUE(a.is_ok());
    ASSERT_TRUE(b.is_ok());
    ASSERT_TRUE((*run)->begin().is_ok());
    std::memset(a->data(), 0xAA, a->size());
    std::memset(b->data(), 0xBB, b->size());
    ASSERT_TRUE((*run)->did_step(0).is_ok());
  }
  {
    auto run = RecoverableRun::create(*backend, {});
    ASSERT_TRUE(run.is_ok());
    auto a = (*run)->add_block(page_size(), "a");
    auto b = (*run)->add_block(2 * page_size(), "b");
    ASSERT_TRUE(a.is_ok());
    ASSERT_TRUE(b.is_ok());
    auto first = (*run)->begin();
    ASSERT_TRUE(first.is_ok());
    EXPECT_EQ(*first, 1);
    EXPECT_EQ((*a)[0], std::byte{0xAA});
    EXPECT_EQ((*b)[b->size() - 1], std::byte{0xBB});
  }
}

TEST(RecoverableTest, LayoutMismatchIsRejected) {
  auto backend = storage::make_memory_backend();
  {
    auto run = RecoverableRun::create(*backend, {});
    ASSERT_TRUE(run.is_ok());
    ASSERT_TRUE((*run)->add_block(page_size(), "a").is_ok());
    ASSERT_TRUE((*run)->begin().is_ok());
    ASSERT_TRUE((*run)->did_step(0).is_ok());
  }
  {
    // Restart declares a different layout: two blocks instead of one.
    auto run = RecoverableRun::create(*backend, {});
    ASSERT_TRUE(run.is_ok());
    ASSERT_TRUE((*run)->add_block(page_size(), "a").is_ok());
    ASSERT_TRUE((*run)->add_block(page_size(), "b").is_ok());
    auto first = (*run)->begin();
    ASSERT_FALSE(first.is_ok());
    EXPECT_EQ(first.status().code(), ErrorCode::kCorruption);
  }
  {
    // Or the same block count but a different size.
    auto run = RecoverableRun::create(*backend, {});
    ASSERT_TRUE(run.is_ok());
    ASSERT_TRUE((*run)->add_block(3 * page_size(), "a").is_ok());
    auto first = (*run)->begin();
    ASSERT_FALSE(first.is_ok());
    EXPECT_EQ(first.status().code(), ErrorCode::kCorruption);
  }
}

TEST(RecoverableTest, ApiMisuseIsCaught) {
  auto backend = storage::make_memory_backend();
  auto run = RecoverableRun::create(*backend, {});
  ASSERT_TRUE(run.is_ok());
  EXPECT_EQ((*run)->did_step(0).code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ((*run)->checkpoint_now().code(),
            ErrorCode::kFailedPrecondition);
  ASSERT_TRUE((*run)->add_block(page_size(), "a").is_ok());
  ASSERT_TRUE((*run)->begin().is_ok());
  EXPECT_EQ((*run)->begin().status().code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ((*run)->add_block(page_size(), "late").status().code(),
            ErrorCode::kFailedPrecondition);

  RecoverableRun::Options bad;
  bad.checkpoint_every = 0;
  EXPECT_FALSE(RecoverableRun::create(*backend, bad).is_ok());
}

TEST(RecoverableTest, ChainIsGarbageCollected) {
  auto backend = storage::make_memory_backend();
  RecoverableRun::Options opts;
  opts.checkpoint_every = 1;
  opts.full_every = 4;
  auto run = RecoverableRun::create(*backend, opts);
  ASSERT_TRUE(run.is_ok());
  auto mem = (*run)->add_block(page_size(), "x");
  ASSERT_TRUE(mem.is_ok());
  ASSERT_TRUE((*run)->begin().is_ok());
  for (int s = 0; s < 20; ++s) {
    apply_step(*mem, s);
    ASSERT_TRUE((*run)->did_step(s).is_ok());
  }
  // Old chain prefixes are removed after every re-seed: the chain in
  // storage stays bounded (<= full_every + 1 objects).
  auto keys = backend->list();
  ASSERT_TRUE(keys.is_ok());
  EXPECT_LE(keys->size(), 6u);
}

TEST(RecoverableTest, CheckpointNowIsImmediate) {
  auto backend = storage::make_memory_backend();
  RecoverableRun::Options opts;
  opts.checkpoint_every = 1000;  // periodic policy effectively off
  auto run = RecoverableRun::create(*backend, opts);
  ASSERT_TRUE(run.is_ok());
  auto mem = (*run)->add_block(page_size(), "x");
  ASSERT_TRUE(mem.is_ok());
  ASSERT_TRUE((*run)->begin().is_ok());
  apply_step(*mem, 0);
  ASSERT_TRUE((*run)->did_step(0).is_ok());  // no checkpoint (policy)
  EXPECT_TRUE((*run)->checkpointer().chain().empty());
  ASSERT_TRUE((*run)->checkpoint_now().is_ok());
  EXPECT_FALSE((*run)->checkpointer().chain().empty());
}

}  // namespace
}  // namespace ickpt
