// Property-based, parameterized tests over the dirty-tracking engines.
//
// Core invariant: for any write pattern, every engine must report
// exactly the set of pages covered by the writes (the mprotect engine
// at page precision, the explicit engine by construction).  The
// engines must agree with each other.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <set>

#include "common/arena.h"
#include "common/rng.h"
#include "memtrack/tracker.h"

namespace ickpt::memtrack {
namespace {

struct Params {
  EngineKind kind;
  std::size_t pages;
  std::uint64_t seed;
};

// gtest prints the parameter into each discovered ctest name; without
// this it prints the struct's raw bytes, padding included.
void PrintTo(const Params& p, std::ostream* os) {
  *os << to_string(p.kind) << ", " << p.pages << " pages, seed " << p.seed;
}

std::string param_name(const ::testing::TestParamInfo<Params>& info) {
  return std::string(to_string(info.param.kind)) + "_" +
         std::to_string(info.param.pages) + "p_s" +
         std::to_string(info.param.seed);
}

class EnginePropertyTest : public ::testing::TestWithParam<Params> {
 protected:
  void SetUp() override {
    auto t = make_tracker(GetParam().kind);
    ASSERT_TRUE(t.is_ok()) << t.status().to_string();
    tracker_ = std::move(t.value());
  }

  /// Writes one byte in each page of `pages` and notifies the explicit
  /// engine; the mprotect engine ignores the notification.
  void write_pages(PageArena& arena, const std::set<std::size_t>& pages,
                   Rng& rng) {
    for (std::size_t p : pages) {
      std::size_t off = p * page_size() + rng.next_index(page_size());
      arena.data()[off] = std::byte{0xCD};
      tracker_->note_write(arena.data() + off, 1);
    }
  }

  std::unique_ptr<DirtyTracker> tracker_;
};

TEST_P(EnginePropertyTest, ReportsExactlyTheWrittenPages) {
  const auto& p = GetParam();
  PageArena arena(p.pages * page_size());
  arena.prefault();
  Rng rng(p.seed);

  auto id = tracker_->attach(arena.span(), "prop");
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(tracker_->arm().is_ok());

  std::set<std::size_t> expected;
  std::size_t writes = 1 + rng.next_index(p.pages);
  for (std::size_t i = 0; i < writes; ++i) {
    expected.insert(rng.next_index(p.pages));
  }
  write_pages(arena, expected, rng);

  auto snap = tracker_->collect(false);
  ASSERT_TRUE(snap.is_ok());
  ASSERT_EQ(snap->regions.size(), 1u);
  const auto& dirty = snap->regions[0].dirty_pages;
  std::set<std::size_t> got(dirty.begin(), dirty.end());
  EXPECT_EQ(got, expected);
}

TEST_P(EnginePropertyTest, ConsecutiveIntervalsAreIndependent) {
  const auto& p = GetParam();
  PageArena arena(p.pages * page_size());
  arena.prefault();
  Rng rng(p.seed ^ 0xabcdef);

  ASSERT_TRUE(tracker_->attach(arena.span(), "iv").is_ok());
  ASSERT_TRUE(tracker_->arm().is_ok());

  for (int interval = 0; interval < 5; ++interval) {
    std::set<std::size_t> expected;
    std::size_t writes = 1 + rng.next_index(p.pages / 2 + 1);
    for (std::size_t i = 0; i < writes; ++i) {
      expected.insert(rng.next_index(p.pages));
    }
    write_pages(arena, expected, rng);
    auto snap = tracker_->collect(/*rearm=*/true);
    ASSERT_TRUE(snap.is_ok());
    const auto& dirty = snap->regions[0].dirty_pages;
    std::set<std::size_t> got(dirty.begin(), dirty.end());
    EXPECT_EQ(got, expected) << "interval " << interval;
  }
}

TEST_P(EnginePropertyTest, DirtyPagesSortedAndUnique) {
  const auto& p = GetParam();
  PageArena arena(p.pages * page_size());
  arena.prefault();
  Rng rng(p.seed + 17);
  ASSERT_TRUE(tracker_->attach(arena.span(), "sorted").is_ok());
  ASSERT_TRUE(tracker_->arm().is_ok());
  std::set<std::size_t> pages;
  for (std::size_t i = 0; i < p.pages; ++i) {
    if (rng.next_bool(0.5)) pages.insert(i);
  }
  write_pages(arena, pages, rng);
  auto snap = tracker_->collect(false);
  ASSERT_TRUE(snap.is_ok());
  const auto& dirty = snap->regions[0].dirty_pages;
  EXPECT_TRUE(std::is_sorted(dirty.begin(), dirty.end()));
  EXPECT_EQ(std::adjacent_find(dirty.begin(), dirty.end()), dirty.end());
}

TEST_P(EnginePropertyTest, FullSweepDirtiesEverything) {
  const auto& p = GetParam();
  PageArena arena(p.pages * page_size());
  arena.prefault();
  ASSERT_TRUE(tracker_->attach(arena.span(), "sweep").is_ok());
  ASSERT_TRUE(tracker_->arm().is_ok());
  for (std::size_t i = 0; i < arena.size(); i += 64) {
    arena.data()[i] = std::byte{1};
  }
  tracker_->note_write(arena.data(), arena.size());
  auto snap = tracker_->collect(false);
  ASSERT_TRUE(snap.is_ok());
  EXPECT_EQ(snap->dirty_pages(), p.pages);
  EXPECT_EQ(snap->dirty_bytes(), arena.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, EnginePropertyTest,
    ::testing::Values(
        Params{EngineKind::kMProtect, 16, 1}, Params{EngineKind::kMProtect, 64, 2},
        Params{EngineKind::kMProtect, 257, 3},
        Params{EngineKind::kExplicit, 16, 1}, Params{EngineKind::kExplicit, 64, 2},
        Params{EngineKind::kExplicit, 257, 3}),
    param_name);

// Cross-engine agreement: run the same pattern through mprotect and the
// explicit oracle and require identical sets.
TEST(EngineEquivalenceTest, EnginesAgreeOnRandomPatterns) {
  constexpr std::size_t kPages = 128;
  for (std::uint64_t seed = 100; seed < 106; ++seed) {
    std::vector<std::unique_ptr<DirtyTracker>> trackers;
    auto mp = make_tracker(EngineKind::kMProtect);
    ASSERT_TRUE(mp.is_ok());
    trackers.push_back(std::move(mp.value()));
    auto ex = make_tracker(EngineKind::kExplicit);
    ASSERT_TRUE(ex.is_ok());
    trackers.push_back(std::move(ex.value()));

    std::vector<std::set<std::size_t>> results;
    for (auto& tr : trackers) {
      PageArena arena(kPages * page_size());
      arena.prefault();
      ASSERT_TRUE(tr->attach(arena.span(), "eq").is_ok());
      ASSERT_TRUE(tr->arm().is_ok());
      Rng rng(seed);  // same seed -> same pattern for each engine
      std::size_t writes = 1 + rng.next_index(kPages * 2);
      for (std::size_t i = 0; i < writes; ++i) {
        std::size_t page = rng.next_index(kPages);
        std::size_t off = page * page_size() + rng.next_index(page_size());
        arena.data()[off] = std::byte{0x5A};
        tr->note_write(arena.data() + off, 1);
      }
      auto snap = tr->collect(false);
      ASSERT_TRUE(snap.is_ok());
      const auto& dirty = snap->regions[0].dirty_pages;
      results.emplace_back(dirty.begin(), dirty.end());
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[0], results[i])
          << "engine " << i << " disagrees at seed " << seed;
    }
  }
}

}  // namespace
}  // namespace ickpt::memtrack
