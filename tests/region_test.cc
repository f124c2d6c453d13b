#include "region/address_space.h"

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <cstring>
#include <utility>
#include <vector>

#include "memtrack/explicit_engine.h"
#include "memtrack/mprotect_engine.h"

namespace ickpt::region {
namespace {

using memtrack::ExplicitEngine;
using memtrack::MProtectEngine;

TEST(AddressSpaceTest, MapCreatesTrackedBlock) {
  ExplicitEngine engine;
  AddressSpace space(engine, "rank0");
  auto ref = space.map(10 * page_size(), AreaKind::kHeap, "field");
  ASSERT_TRUE(ref.is_ok());
  EXPECT_EQ(ref->mem.size(), 10 * page_size());
  EXPECT_EQ(space.footprint_bytes(), 10 * page_size());
  EXPECT_EQ(space.block_count(), 1u);
  EXPECT_EQ(engine.region_count(), 1u);
}

TEST(AddressSpaceTest, MapRoundsToPages) {
  ExplicitEngine engine;
  AddressSpace space(engine, "r");
  auto ref = space.map(100, AreaKind::kHeap, "tiny");
  ASSERT_TRUE(ref.is_ok());
  EXPECT_EQ(ref->mem.size(), page_size());
}

TEST(AddressSpaceTest, MapZeroFails) {
  ExplicitEngine engine;
  AddressSpace space(engine, "r");
  EXPECT_FALSE(space.map(0, AreaKind::kHeap, "nil").is_ok());
}

TEST(AddressSpaceTest, UnmapDetachesAndShrinksFootprint) {
  ExplicitEngine engine;
  AddressSpace space(engine, "r");
  auto a = space.map(4 * page_size(), AreaKind::kHeap, "a");
  auto b = space.map(2 * page_size(), AreaKind::kMmap, "b");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  ASSERT_TRUE(space.unmap(a->id).is_ok());
  EXPECT_EQ(space.footprint_bytes(), 2 * page_size());
  EXPECT_EQ(engine.region_count(), 1u);
  EXPECT_EQ(space.unmap(a->id).code(), ErrorCode::kNotFound);
}

TEST(AddressSpaceTest, PeakFootprintIsSticky) {
  ExplicitEngine engine;
  AddressSpace space(engine, "r");
  auto a = space.map(8 * page_size(), AreaKind::kHeap, "a");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(space.unmap(a->id).is_ok());
  auto b = space.map(page_size(), AreaKind::kHeap, "b");
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(space.footprint_bytes(), page_size());
  EXPECT_EQ(space.peak_footprint_bytes(), 8 * page_size());
}

TEST(AddressSpaceTest, BlockInfoAndEnumeration) {
  ExplicitEngine engine;
  AddressSpace space(engine, "rk");
  auto a = space.map(page_size(), AreaKind::kStaticData, "data");
  auto b = space.map(page_size(), AreaKind::kMmap, "buf");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());

  auto info = space.block_info(a->id);
  ASSERT_TRUE(info.is_ok());
  EXPECT_EQ(info->name, "data");
  EXPECT_EQ(info->kind, AreaKind::kStaticData);
  EXPECT_EQ(info->bytes, page_size());

  auto all = space.blocks();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].id, a->id);
  EXPECT_EQ(all[1].id, b->id);
  EXPECT_FALSE(space.block_info(999).is_ok());
}

TEST(AddressSpaceTest, MemoryExclusionDropsDirtyPages) {
  // Paper §4.2: pages of unmapped areas leave the checkpoint set.
  ExplicitEngine engine;
  AddressSpace space(engine, "r");
  auto a = space.map(4 * page_size(), AreaKind::kMmap, "doomed");
  auto b = space.map(4 * page_size(), AreaKind::kHeap, "kept");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  ASSERT_TRUE(engine.arm().is_ok());

  engine.note_write(a->mem.data(), a->mem.size());
  engine.note_write(b->mem.data(), page_size());
  ASSERT_TRUE(space.unmap(a->id).is_ok());

  auto snap = engine.collect(false);
  ASSERT_TRUE(snap.is_ok());
  EXPECT_EQ(snap->dirty_pages(), 1u);  // only "kept"'s page remains
}

TEST(AddressSpaceTest, DestructorDetachesEverything) {
  ExplicitEngine engine;
  {
    AddressSpace space(engine, "r");
    ASSERT_TRUE(space.map(page_size(), AreaKind::kHeap, "a").is_ok());
    ASSERT_TRUE(space.map(page_size(), AreaKind::kHeap, "b").is_ok());
    EXPECT_EQ(engine.region_count(), 2u);
  }
  EXPECT_EQ(engine.region_count(), 0u);
}

TEST(AddressSpaceTest, WorksWithMProtectEngine) {
  MProtectEngine engine;
  AddressSpace space(engine, "r");
  auto ref = space.map(4 * page_size(), AreaKind::kHeap, "live");
  ASSERT_TRUE(ref.is_ok());
  ASSERT_TRUE(engine.arm().is_ok());
  ref->mem[2 * page_size()] = std::byte{1};
  auto snap = engine.collect(false);
  ASSERT_TRUE(snap.is_ok());
  EXPECT_EQ(snap->dirty_pages(), 1u);
}

TEST(AddressSpaceTest, AdoptedBlockIsTrackedInPlace) {
  MProtectEngine engine;
  AddressSpace space(engine, "r");
  PageArena arena(4 * page_size());
  arena.data()[page_size()] = std::byte{7};
  std::byte* const base = arena.data();
  auto ref = space.adopt(std::move(arena), AreaKind::kMmap, "adopted");
  ASSERT_TRUE(ref.is_ok());
  EXPECT_EQ(ref->mem.data(), base);
  EXPECT_EQ(ref->mem.size(), 4 * page_size());
  EXPECT_EQ(ref->mem[page_size()], std::byte{7});
  EXPECT_EQ(space.footprint_bytes(), 4 * page_size());
  EXPECT_EQ(engine.region_count(), 1u);

  ASSERT_TRUE(engine.arm().is_ok());
  ref->mem[2 * page_size()] = std::byte{1};
  auto snap = engine.collect(false);
  ASSERT_TRUE(snap.is_ok());
  auto info = space.block_info(ref->id);
  ASSERT_TRUE(info.is_ok());
  ASSERT_EQ(snap->regions.size(), 1u);
  EXPECT_EQ(snap->regions[0].id, info->region);
  EXPECT_EQ(snap->regions[0].dirty_pages, std::vector<std::uint32_t>{2});
}

TEST(AddressSpaceTest, AdoptEmptyArenaFails) {
  ExplicitEngine engine;
  AddressSpace space(engine, "r");
  auto ref = space.adopt(PageArena{}, AreaKind::kHeap, "nil");
  ASSERT_FALSE(ref.is_ok());
  EXPECT_EQ(ref.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(space.block_count(), 0u);
  EXPECT_EQ(engine.region_count(), 0u);
}

TEST(AddressSpaceTest, MappedMemoryIsZeroFilled) {
  ExplicitEngine engine;
  AddressSpace space(engine, "r");
  auto ref = space.map(2 * page_size(), AreaKind::kHeap, "z");
  ASSERT_TRUE(ref.is_ok());
  for (std::size_t i = 0; i < ref->mem.size(); i += 64) {
    ASSERT_EQ(ref->mem[i], std::byte{0});
  }
}

TEST(AddressSpaceTest, MappedMemoryIsResident) {
  // Tracked blocks start resident, so tracking measures steady-state
  // writes, not first-touch allocation.
  ExplicitEngine engine;
  AddressSpace space(engine, "r");
  auto ref = space.map(16 * page_size(), AreaKind::kHeap, "resident");
  ASSERT_TRUE(ref.is_ok());
  std::vector<unsigned char> vec(ref->mem.size() / page_size());
  ASSERT_EQ(::mincore(ref->mem.data(), ref->mem.size(), vec.data()), 0);
  for (std::size_t p = 0; p < vec.size(); ++p) {
    EXPECT_NE(vec[p] & 1u, 0u) << "page " << p << " is not resident";
  }
}

TEST(AddressSpaceTest, FootprintByKind) {
  ExplicitEngine engine;
  AddressSpace space(engine, "r");
  ASSERT_TRUE(space.map(page_size(), AreaKind::kStaticData, "d").is_ok());
  ASSERT_TRUE(space.map(2 * page_size(), AreaKind::kHeap, "h1").is_ok());
  auto h2 = space.map(3 * page_size(), AreaKind::kHeap, "h2");
  ASSERT_TRUE(h2.is_ok());
  ASSERT_TRUE(space.map(4 * page_size(), AreaKind::kMmap, "m").is_ok());

  auto kinds = space.footprint_by_kind();
  EXPECT_EQ(kinds.static_data, page_size());
  EXPECT_EQ(kinds.heap, 5 * page_size());
  EXPECT_EQ(kinds.mmap, 4 * page_size());
  EXPECT_EQ(kinds.static_data + kinds.heap + kinds.mmap,
            space.footprint_bytes());

  ASSERT_TRUE(space.unmap(h2->id).is_ok());
  EXPECT_EQ(space.footprint_by_kind().heap, 2 * page_size());
}

TEST(AreaKindTest, Names) {
  EXPECT_EQ(to_string(AreaKind::kStaticData), "static");
  EXPECT_EQ(to_string(AreaKind::kHeap), "heap");
  EXPECT_EQ(to_string(AreaKind::kMmap), "mmap");
}

}  // namespace
}  // namespace ickpt::region
