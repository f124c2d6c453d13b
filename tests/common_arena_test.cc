#include "common/arena.h"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/resource.h>

#include <cstring>
#include <utility>
#include <vector>

namespace ickpt {
namespace {

TEST(ArenaTest, DefaultIsEmpty) {
  PageArena a;
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.data(), nullptr);
}

TEST(ArenaTest, AllocatesPageAligned) {
  PageArena a(1000);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a.size(), page_size());
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) % page_size(), 0u);
}

TEST(ArenaTest, ZeroFilled) {
  PageArena a(3 * page_size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], std::byte{0}) << "at offset " << i;
  }
}

TEST(ArenaTest, WritableAndReadable) {
  PageArena a(2 * page_size());
  std::memset(a.data(), 0xAB, a.size());
  EXPECT_EQ(a.data()[0], std::byte{0xAB});
  EXPECT_EQ(a.data()[a.size() - 1], std::byte{0xAB});
}

TEST(ArenaTest, MoveTransfersOwnership) {
  PageArena a(page_size());
  std::byte* p = a.data();
  PageArena b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)

  PageArena c;
  c = std::move(b);
  EXPECT_EQ(c.data(), p);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(ArenaTest, RangeMatchesSpan) {
  PageArena a(4 * page_size());
  PageRange r = a.range();
  EXPECT_EQ(r.begin, reinterpret_cast<std::uintptr_t>(a.data()));
  EXPECT_EQ(r.bytes(), a.size());
  EXPECT_EQ(r.pages(), 4u);
}

TEST(ArenaTest, ResetReleases) {
  PageArena a(page_size());
  a.reset();
  EXPECT_TRUE(a.empty());
  a.reset();  // idempotent
  EXPECT_TRUE(a.empty());
}

/// Minor faults this thread has taken so far.
long minor_faults() {
  rusage ru{};
  EXPECT_EQ(::getrusage(RUSAGE_THREAD, &ru), 0);
  return ru.ru_minflt;
}

TEST(ArenaTest, PrefaultMakesEveryPageResident) {
  PageArena a(64 * page_size());
  a.prefault();
  std::vector<unsigned char> vec(a.size() / page_size());
  ASSERT_EQ(::mincore(a.data(), a.size(), vec.data()), 0);
  for (std::size_t p = 0; p < vec.size(); ++p) {
    EXPECT_NE(vec[p] & 1u, 0u) << "page " << p << " is not resident";
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], std::byte{0}) << "at offset " << i;
  }
  // Resident and writable: a populate that only read would have mapped
  // the shared zero page, and each store would fault to copy it.
  const long before = minor_faults();
  for (std::size_t off = 0; off < a.size(); off += page_size()) {
    a.data()[off] = std::byte{1};
  }
  EXPECT_EQ(minor_faults() - before, 0);
}

TEST(ArenaTest, ZeroBytesYieldsEmpty) {
  PageArena a(0);
  EXPECT_TRUE(a.empty());
}

}  // namespace
}  // namespace ickpt
