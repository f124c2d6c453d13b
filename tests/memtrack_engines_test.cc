// Per-engine behavioural tests: attach/detach lifecycle, arm/collect
// semantics, fault absorption (mprotect) and explicit notification.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "common/arena.h"
#include "memtrack/explicit_engine.h"
#include "memtrack/fault_table.h"
#include "memtrack/mprotect_engine.h"
#include "memtrack/tracker.h"

namespace ickpt::memtrack {
namespace {

std::vector<std::uint32_t> dirty_pages_of(const DirtySnapshot& snap,
                                          RegionId id) {
  for (const auto& r : snap.regions) {
    if (r.id == id) return r.dirty_pages;
  }
  return {};
}

// ---------------------------------------------------------------- mprotect

TEST(MProtectEngineTest, TracksSingleWrite) {
  PageArena arena(8 * page_size());
  arena.prefault();
  MProtectEngine engine;
  auto id = engine.attach(arena.span(), "data");
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(engine.arm().is_ok());

  arena.data()[3 * page_size()] = std::byte{1};

  auto snap = engine.collect(/*rearm=*/false);
  ASSERT_TRUE(snap.is_ok());
  auto pages = dirty_pages_of(*snap, *id);
  ASSERT_EQ(pages.size(), 1u);
  EXPECT_EQ(pages[0], 3u);
  EXPECT_EQ(engine.counters().faults_handled, 1u);
}

TEST(MProtectEngineTest, NoWritesMeansEmptySnapshot) {
  PageArena arena(4 * page_size());
  MProtectEngine engine;
  auto id = engine.attach(arena.span(), "quiet");
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(engine.arm().is_ok());
  // Reads must not fault or dirty anything.
  volatile std::byte x = arena.data()[0];
  (void)x;
  auto snap = engine.collect(false);
  ASSERT_TRUE(snap.is_ok());
  EXPECT_EQ(snap->dirty_pages(), 0u);
}

TEST(MProtectEngineTest, RepeatedWritesSamePageCountOnce) {
  PageArena arena(2 * page_size());
  MProtectEngine engine;
  auto id = engine.attach(arena.span(), "r");
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(engine.arm().is_ok());
  for (int i = 0; i < 100; ++i) arena.data()[i] = std::byte{7};
  auto snap = engine.collect(false);
  ASSERT_TRUE(snap.is_ok());
  EXPECT_EQ(snap->dirty_pages(), 1u);
  // Only the first write faults; the other 99 run at full speed.
  EXPECT_EQ(engine.counters().faults_handled, 1u);
}

TEST(MProtectEngineTest, RearmStartsFreshInterval) {
  PageArena arena(4 * page_size());
  MProtectEngine engine;
  auto id = engine.attach(arena.span(), "r");
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(engine.arm().is_ok());
  arena.data()[0] = std::byte{1};
  auto s1 = engine.collect(/*rearm=*/true);
  ASSERT_TRUE(s1.is_ok());
  EXPECT_EQ(s1->dirty_pages(), 1u);

  arena.data()[2 * page_size()] = std::byte{2};
  auto s2 = engine.collect(false);
  ASSERT_TRUE(s2.is_ok());
  auto pages = dirty_pages_of(*s2, *id);
  ASSERT_EQ(pages.size(), 1u);
  EXPECT_EQ(pages[0], 2u);
}

TEST(MProtectEngineTest, CollectWithoutRearmLeavesMemoryWritable) {
  PageArena arena(2 * page_size());
  MProtectEngine engine;
  ASSERT_TRUE(engine.attach(arena.span(), "w").is_ok());
  ASSERT_TRUE(engine.arm().is_ok());
  arena.data()[0] = std::byte{1};
  ASSERT_TRUE(engine.collect(false).is_ok());
  std::uint64_t faults_before = engine.counters().faults_handled;
  arena.data()[page_size()] = std::byte{2};  // must not fault
  EXPECT_EQ(engine.counters().faults_handled, faults_before);
  auto snap = engine.collect(false);
  ASSERT_TRUE(snap.is_ok());
  EXPECT_EQ(snap->dirty_pages(), 0u);  // untracked while unarmed
}

TEST(MProtectEngineTest, MultipleRegions) {
  PageArena a(4 * page_size()), b(4 * page_size());
  MProtectEngine engine;
  auto ia = engine.attach(a.span(), "a");
  auto ib = engine.attach(b.span(), "b");
  ASSERT_TRUE(ia.is_ok());
  ASSERT_TRUE(ib.is_ok());
  EXPECT_EQ(engine.region_count(), 2u);
  EXPECT_EQ(engine.tracked_bytes(), 8 * page_size());
  ASSERT_TRUE(engine.arm().is_ok());
  a.data()[0] = std::byte{1};
  b.data()[page_size()] = std::byte{1};
  b.data()[3 * page_size()] = std::byte{1};
  auto snap = engine.collect(false);
  ASSERT_TRUE(snap.is_ok());
  EXPECT_EQ(dirty_pages_of(*snap, *ia).size(), 1u);
  EXPECT_EQ(dirty_pages_of(*snap, *ib).size(), 2u);
}

TEST(MProtectEngineTest, DetachRestoresAccess) {
  PageArena arena(2 * page_size());
  MProtectEngine engine;
  auto id = engine.attach(arena.span(), "d");
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(engine.arm().is_ok());
  ASSERT_TRUE(engine.detach(*id).is_ok());
  arena.data()[0] = std::byte{9};  // must not crash or fault
  EXPECT_EQ(engine.region_count(), 0u);
  EXPECT_EQ(engine.counters().faults_handled, 0u);
}

TEST(MProtectEngineTest, DetachUnknownIdFails) {
  MProtectEngine engine;
  EXPECT_EQ(engine.detach(12345).code(), ErrorCode::kNotFound);
}

TEST(MProtectEngineTest, AttachRejectsUnalignedRange) {
  PageArena arena(2 * page_size());
  MProtectEngine engine;
  auto bad = engine.attach(arena.span().subspan(1), "unaligned");
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), ErrorCode::kInvalidArgument);
  auto empty = engine.attach({}, "empty");
  EXPECT_FALSE(empty.is_ok());
}

TEST(MProtectEngineTest, AttachWhileArmedProtectsNewRegion) {
  MProtectEngine engine;
  PageArena a(2 * page_size());
  ASSERT_TRUE(engine.attach(a.span(), "a").is_ok());
  ASSERT_TRUE(engine.arm().is_ok());
  PageArena b(2 * page_size());
  auto ib = engine.attach(b.span(), "b");
  ASSERT_TRUE(ib.is_ok());
  b.data()[0] = std::byte{1};
  auto snap = engine.collect(false);
  ASSERT_TRUE(snap.is_ok());
  EXPECT_EQ(dirty_pages_of(*snap, *ib).size(), 1u);
}

TEST(MProtectEngineTest, FaultBatchingOverapproximates) {
  PageArena arena(16 * page_size());
  MProtectEngine::Options opts;
  opts.fault_batch_pages = 4;
  MProtectEngine engine(opts);
  auto id = engine.attach(arena.span(), "batched");
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(engine.arm().is_ok());
  arena.data()[0] = std::byte{1};  // one write...
  auto snap = engine.collect(false);
  ASSERT_TRUE(snap.is_ok());
  // ...but a whole batch marked dirty, with a single fault.
  EXPECT_EQ(dirty_pages_of(*snap, *id).size(), 4u);
  EXPECT_EQ(engine.counters().faults_handled, 1u);
}

TEST(MProtectEngineTest, FaultBatchClampsAtRegionEnd) {
  PageArena arena(4 * page_size());
  MProtectEngine::Options opts;
  opts.fault_batch_pages = 16;
  MProtectEngine engine(opts);
  auto id = engine.attach(arena.span(), "clamp");
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(engine.arm().is_ok());
  arena.data()[3 * page_size()] = std::byte{1};
  auto snap = engine.collect(false);
  ASSERT_TRUE(snap.is_ok());
  EXPECT_EQ(dirty_pages_of(*snap, *id).size(), 1u);
}

TEST(MProtectEngineTest, WritesFromMultipleThreads) {
  constexpr std::size_t kPages = 64;
  PageArena arena(kPages * page_size());
  MProtectEngine engine;
  auto id = engine.attach(arena.span(), "mt");
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(engine.arm().is_ok());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&arena, t] {
      for (std::size_t p = static_cast<std::size_t>(t); p < kPages; p += 4) {
        arena.data()[p * page_size()] = std::byte{1};
      }
    });
  }
  for (auto& th : threads) th.join();
  auto snap = engine.collect(false);
  ASSERT_TRUE(snap.is_ok());
  EXPECT_EQ(snap->dirty_pages(), kPages);
}

// A store racing arm() or collect(false) on another thread must retry
// (the retry rule in fault_table.h), not be forwarded as a crash.
TEST(MProtectEngineTest, StoresRacingArmAndCollectSurvive) {
  constexpr std::size_t kPages = 4;
  constexpr int kCycles = 20000;
  PageArena arena(kPages * page_size());
  arena.prefault();
  MProtectEngine engine;
  ASSERT_TRUE(engine.attach(arena.span(), "race").is_ok());

  std::atomic<bool> stop{false};
  std::atomic<bool> started{false};
  std::thread writer([&] {
    auto* mem = reinterpret_cast<volatile unsigned char*>(arena.data());
    for (std::size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      mem[(i % kPages) * page_size()] = static_cast<unsigned char>(i);
      started.store(true, std::memory_order_relaxed);
    }
  });
  while (!started.load(std::memory_order_relaxed)) std::this_thread::yield();

  bool ok = true;
  for (int c = 0; c < kCycles && ok; ++c) {
    ok = engine.arm().is_ok() && engine.collect(/*rearm=*/false).is_ok();
  }
  stop.store(true);
  writer.join();
  EXPECT_TRUE(ok);
}

// attach() on an armed engine publishes the region's fault-table slot
// before protecting it; when mprotect fails the slot must be released,
// not left pointing at the destroyed region's bitmap.
TEST(MProtectEngineTest, FailedAttachWhileArmedReleasesItsSlot) {
  const std::size_t bytes = 2 * page_size();
  void* gone = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(gone, MAP_FAILED);
  ASSERT_EQ(::munmap(gone, bytes), 0);

  MProtectEngine engine;
  ASSERT_TRUE(engine.arm().is_ok());
  auto& table = detail::FaultTable::instance();
  const int before = table.published_count();
  auto id = engine.attach({static_cast<std::byte*>(gone), bytes}, "gone");
  EXPECT_EQ(id.status().code(), ErrorCode::kIoError);
  EXPECT_EQ(engine.region_count(), 0u);
  EXPECT_EQ(table.published_count(), before);
}

TEST(MProtectEngineTest, TwoEnginesCoexist) {
  MProtectEngine e1, e2;
  PageArena a(2 * page_size()), b(2 * page_size());
  auto ia = e1.attach(a.span(), "e1");
  auto ib = e2.attach(b.span(), "e2");
  ASSERT_TRUE(ia.is_ok());
  ASSERT_TRUE(ib.is_ok());
  ASSERT_TRUE(e1.arm().is_ok());
  ASSERT_TRUE(e2.arm().is_ok());
  a.data()[0] = std::byte{1};
  b.data()[page_size()] = std::byte{1};
  auto s1 = e1.collect(false);
  auto s2 = e2.collect(false);
  ASSERT_TRUE(s1.is_ok());
  ASSERT_TRUE(s2.is_ok());
  EXPECT_EQ(s1->dirty_pages(), 1u);
  EXPECT_EQ(s2->dirty_pages(), 1u);
}

TEST(MProtectEngineTest, SnapshotReportsBytes) {
  PageArena arena(4 * page_size());
  MProtectEngine engine;
  ASSERT_TRUE(engine.attach(arena.span(), "bytes").is_ok());
  ASSERT_TRUE(engine.arm().is_ok());
  arena.data()[0] = std::byte{1};
  arena.data()[page_size()] = std::byte{1};
  auto snap = engine.collect(false);
  ASSERT_TRUE(snap.is_ok());
  EXPECT_EQ(snap->dirty_bytes(), 2 * page_size());
  EXPECT_EQ(snap->tracked_bytes(), 4 * page_size());
}

// ---------------------------------------------------------------- explicit

TEST(ExplicitEngineTest, NotedWritesAppear) {
  PageArena arena(8 * page_size());
  ExplicitEngine engine;
  auto id = engine.attach(arena.span(), "x");
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(engine.arm().is_ok());
  engine.note_write(arena.data() + 2 * page_size(), 1);
  engine.note_write(arena.data() + 4 * page_size() + 100, 2 * page_size());
  auto snap = engine.collect(false);
  ASSERT_TRUE(snap.is_ok());
  auto pages = dirty_pages_of(*snap, *id);
  // Page 2 plus pages 4,5,6 (write of 2 pages starting mid-page 4).
  ASSERT_EQ(pages.size(), 4u);
  EXPECT_EQ(pages[0], 2u);
  EXPECT_EQ(pages[1], 4u);
  EXPECT_EQ(pages[3], 6u);
}

TEST(ExplicitEngineTest, CountsNotedWritesNotFaults) {
  PageArena arena(4 * page_size());
  ExplicitEngine engine;
  ASSERT_TRUE(engine.attach(arena.span(), "x").is_ok());
  ASSERT_TRUE(engine.arm().is_ok());
  constexpr std::uint64_t kNotes = 5;
  for (std::uint64_t i = 0; i < kNotes; ++i) {
    engine.note_write(arena.data() + (i % 4) * page_size(), 1);
  }
  EXPECT_EQ(engine.counters().faults_handled, 0u);
  EXPECT_EQ(engine.counters().writes_noted, kNotes);
}

TEST(ExplicitEngineTest, NotesIgnoredWhenUnarmed) {
  PageArena arena(2 * page_size());
  ExplicitEngine engine;
  ASSERT_TRUE(engine.attach(arena.span(), "x").is_ok());
  engine.note_write(arena.data(), 1);  // before arm: dropped
  ASSERT_TRUE(engine.arm().is_ok());
  auto snap = engine.collect(false);
  ASSERT_TRUE(snap.is_ok());
  EXPECT_EQ(snap->dirty_pages(), 0u);
}

TEST(ExplicitEngineTest, NotesOutsideRegionsIgnored) {
  PageArena arena(2 * page_size());
  PageArena other(2 * page_size());
  ExplicitEngine engine;
  ASSERT_TRUE(engine.attach(arena.span(), "x").is_ok());
  ASSERT_TRUE(engine.arm().is_ok());
  engine.note_write(other.data(), other.size());
  auto snap = engine.collect(false);
  ASSERT_TRUE(snap.is_ok());
  EXPECT_EQ(snap->dirty_pages(), 0u);
}

TEST(ExplicitEngineTest, ZeroLengthNoteIsNoop) {
  PageArena arena(page_size());
  ExplicitEngine engine;
  ASSERT_TRUE(engine.attach(arena.span(), "x").is_ok());
  ASSERT_TRUE(engine.arm().is_ok());
  engine.note_write(arena.data(), 0);
  auto snap = engine.collect(false);
  ASSERT_TRUE(snap.is_ok());
  EXPECT_EQ(snap->dirty_pages(), 0u);
}

// ----------------------------------------------------------------- factory

TEST(FactoryTest, MakesEachKind) {
  auto mp = make_tracker(EngineKind::kMProtect);
  ASSERT_TRUE(mp.is_ok());
  EXPECT_EQ((*mp)->kind(), EngineKind::kMProtect);

  auto ex = make_tracker(EngineKind::kExplicit);
  ASSERT_TRUE(ex.is_ok());
  EXPECT_EQ((*ex)->kind(), EngineKind::kExplicit);
}

TEST(FactoryTest, KindNames) {
  EXPECT_EQ(to_string(EngineKind::kMProtect), "mprotect");
  EXPECT_EQ(to_string(EngineKind::kExplicit), "explicit");
}

// -------------------------------------------------------------- faulttable

TEST(FaultTableTest, PublishUnpublishCycle) {
  auto& table = detail::FaultTable::instance();
  int before = table.published_count();
  AtomicBitmap bm(4);
  std::atomic<std::uint64_t> ctr{0};
  int slot = table.publish(0x1000, 0x5000, &bm, &ctr, 1);
  ASSERT_NE(slot, detail::FaultTable::kNoSlot);
  EXPECT_EQ(table.published_count(), before + 1);
  table.unpublish(slot);
  EXPECT_EQ(table.published_count(), before);
}

TEST(FaultTableTest, SlotsAreReused) {
  auto& table = detail::FaultTable::instance();
  AtomicBitmap bm(4);
  std::atomic<std::uint64_t> ctr{0};
  int s1 = table.publish(0x10000, 0x14000, &bm, &ctr, 1);
  table.unpublish(s1);
  int s2 = table.publish(0x20000, 0x24000, &bm, &ctr, 1);
  EXPECT_EQ(s2, s1);
  table.unpublish(s2);
}

}  // namespace
}  // namespace ickpt::memtrack
