// Stress the process-wide fault table: many regions, concurrent
// faulting across engines, publish/unpublish churn while other
// regions keep faulting.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "memtrack/mprotect_engine.h"

namespace ickpt::memtrack {
namespace {

TEST(FaultTableStressTest, ManyRegionsManyIntervals) {
  constexpr int kRegions = 64;
  constexpr std::size_t kPagesPerRegion = 16;
  MProtectEngine engine;
  std::vector<PageArena> arenas;
  arenas.reserve(kRegions);
  std::vector<RegionId> ids;
  for (int r = 0; r < kRegions; ++r) {
    arenas.emplace_back(kPagesPerRegion * page_size());
    arenas.back().prefault();
    auto id = engine.attach(arenas.back().span(),
                            "r" + std::to_string(r));
    ASSERT_TRUE(id.is_ok());
    ids.push_back(*id);
  }
  ASSERT_TRUE(engine.arm().is_ok());
  for (int interval = 0; interval < 10; ++interval) {
    for (int r = interval % 2; r < kRegions; r += 2) {
      auto pg = static_cast<std::size_t>(interval) % kPagesPerRegion;
      arenas[static_cast<std::size_t>(r)]
          .data()[pg * page_size()] = std::byte{1};
    }
    auto snap = engine.collect(true);
    ASSERT_TRUE(snap.is_ok());
    EXPECT_EQ(snap->dirty_pages(), kRegions / 2u) << "interval " << interval;
  }
}

TEST(FaultTableStressTest, ChurnWhileOthersFault) {
  // One stable region takes faults from a writer thread while the main
  // thread attaches/detaches scratch regions — exercising the seqlock
  // publish path against the lock-free handler reads.
  MProtectEngine engine;
  PageArena stable(256 * page_size());
  stable.prefault();
  auto stable_id = engine.attach(stable.span(), "stable");
  ASSERT_TRUE(stable_id.is_ok());
  ASSERT_TRUE(engine.arm().is_ok());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> writes{0};
  std::thread writer([&] {
    std::size_t p = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      stable.data()[p * page_size()] = std::byte{1};
      p = (p + 1) % 256;
      writes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Churn only once the writer runs: on a loaded host the loop below
  // can otherwise finish before the writer is first scheduled.
  while (writes.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }

  for (int i = 0; i < 200; ++i) {
    PageArena scratch(4 * page_size());
    scratch.prefault();
    auto id = engine.attach(scratch.span(), "scratch");
    ASSERT_TRUE(id.is_ok());
    scratch.data()[0] = std::byte{2};
    ASSERT_TRUE(engine.detach(*id).is_ok());
  }
  stop.store(true);
  writer.join();
  EXPECT_GT(writes.load(), 0u);

  auto snap = engine.collect(false);
  ASSERT_TRUE(snap.is_ok());
  // The stable region's dirty pages survived the churn.
  EXPECT_GT(snap->dirty_pages(), 0u);
}

TEST(FaultTableStressTest, ConcurrentEnginesDoNotInterfere) {
  constexpr int kEngines = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int e = 0; e < kEngines; ++e) {
    threads.emplace_back([&failures] {
      MProtectEngine engine;
      PageArena arena(32 * page_size());
      arena.prefault();
      auto id = engine.attach(arena.span(), "own");
      if (!id.is_ok()) {
        ++failures;
        return;
      }
      for (int interval = 0; interval < 20; ++interval) {
        if (!engine.arm().is_ok()) {
          ++failures;
          return;
        }
        for (std::size_t p = 0; p < 32; p += 2) {
          arena.data()[p * page_size()] = std::byte{3};
        }
        auto snap = engine.collect(false);
        if (!snap.is_ok() || snap->dirty_pages() != 16) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace ickpt::memtrack
