// SegmentBackend-specific behavior: reopen persistence (footer fast
// path and unsealed-scan path), torn-tail truncation, tombstone
// durability, compaction correctness, and byte-equivalence of a full
// checkpoint/restore chain against FileBackend (the oracle).
#include "storage/segment_backend.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "checkpoint/checkpointer.h"
#include "checkpoint/inspect.h"
#include "checkpoint/restore.h"
#include "common/page.h"
#include "common/rng.h"
#include "memtrack/explicit_engine.h"
#include "region/address_space.h"
#include "storage/backend.h"

namespace ickpt::storage {
namespace {

namespace fs = std::filesystem;

std::span<const std::byte> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

std::string read_all(StorageBackend& backend, const std::string& key) {
  auto reader = backend.open(key);
  if (!reader.is_ok()) return "<open failed>";
  std::string out;
  std::byte buf[256];
  for (;;) {
    auto got = (*reader)->read(buf);
    if (!got.is_ok() || *got == 0) break;
    out.append(reinterpret_cast<const char*>(buf), *got);
  }
  return out;
}

void put(StorageBackend& backend, const std::string& key,
         const std::string& value) {
  auto w = backend.create(key);
  ASSERT_TRUE(w.is_ok()) << w.status().message();
  ASSERT_TRUE((*w)->write(as_bytes(value)).is_ok());
  ASSERT_TRUE((*w)->close().is_ok());
}

class SegmentBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/ickpt_segment_test_" +
           std::to_string(::getpid()) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  Result<std::unique_ptr<SegmentBackend>> open(
      SegmentBackendOptions options = {}) {
    return SegmentBackend::open_store(dir_, options);
  }

  std::vector<fs::path> segment_files() const {
    std::vector<fs::path> out;
    for (const auto& e : fs::directory_iterator(dir_)) {
      if (e.path().extension() == ".seg") out.push_back(e.path());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  std::string dir_;
};

TEST_F(SegmentBackendTest, SurvivesReopenViaFooter) {
  {
    auto b = open();
    ASSERT_TRUE(b.is_ok()) << b.status().message();
    put(**b, "alpha", "first object");
    put(**b, "beta", "second object");
    put(**b, "alpha", "first object, rewritten");
    // Destructor seals the active segment with a footer.
  }
  auto b = open();
  ASSERT_TRUE(b.is_ok()) << b.status().message();
  EXPECT_EQ(read_all(**b, "alpha"), "first object, rewritten");
  EXPECT_EQ(read_all(**b, "beta"), "second object");
  EXPECT_EQ((*b)->stats().live_objects, 2u);
  EXPECT_EQ((*b)->stats().torn_records, 0u);
}

TEST_F(SegmentBackendTest, SurvivesReopenWithoutFooter) {
  {
    auto b = open();
    ASSERT_TRUE(b.is_ok());
    put(**b, "k1", "payload one");
    put(**b, "k2", "payload two");
  }
  // Chop the footer off so the reopen has to take the scan path —
  // exactly the state a crash before seal leaves behind.
  auto segs = segment_files();
  ASSERT_EQ(segs.size(), 1u);
  const auto size = fs::file_size(segs[0]);
  // Footer = entries block + 24-byte trailer; records for two short
  // objects are well under size-100, so removing 100 bytes is enough
  // to destroy the trailer without touching the records... compute
  // exactly instead: both records fit in the front; drop the last
  // trailer-sized chunk plus entries (2 entries ~ 25+2 and 25+2).
  ASSERT_GT(size, 78u);
  fs::resize_file(segs[0], size - 78);
  auto b = open();
  ASSERT_TRUE(b.is_ok()) << b.status().message();
  EXPECT_EQ(read_all(**b, "k1"), "payload one");
  EXPECT_EQ(read_all(**b, "k2"), "payload two");
}

TEST_F(SegmentBackendTest, TornTailIsDroppedNotFatal) {
  {
    auto b = open();
    ASSERT_TRUE(b.is_ok());
    put(**b, "good", "committed before the crash");
  }
  // Simulate a torn append: garbage bytes after the sealed content.
  auto segs = segment_files();
  ASSERT_EQ(segs.size(), 1u);
  // First remove the footer so the scan path runs, then add garbage.
  {
    std::ofstream f(segs[0], std::ios::binary | std::ios::app);
    f.write("ISEG garbage that is not a valid record header at all", 53);
  }
  auto b = open();
  ASSERT_TRUE(b.is_ok()) << b.status().message();
  EXPECT_EQ(read_all(**b, "good"), "committed before the crash");
  EXPECT_EQ((*b)->stats().live_objects, 1u);
}

TEST_F(SegmentBackendTest, HalfWrittenRecordIsInvisible) {
  {
    auto b = open();
    ASSERT_TRUE(b.is_ok());
    put(**b, "whole", std::string(1000, 'w'));
  }
  auto segs = segment_files();
  ASSERT_EQ(segs.size(), 1u);
  {
    // Append the first half of what a real record would look like:
    // a valid-magic header claiming a large payload that never lands.
    std::ofstream f(segs[0], std::ios::binary | std::ios::app);
    const char header[28] = {'I', 'S', 'E', 'G', 1, 0, 0, 0, 4, 0, 0, 0};
    f.write(header, sizeof header);
    f.write("torn", 4);
  }
  auto b = open();
  ASSERT_TRUE(b.is_ok()) << b.status().message();
  EXPECT_EQ((*b)->stats().live_objects, 1u);
  EXPECT_EQ(read_all(**b, "whole"), std::string(1000, 'w'));
  EXPECT_FALSE((*b)->exists("torn"));
}

TEST_F(SegmentBackendTest, TombstoneSurvivesReopen) {
  {
    auto b = open();
    ASSERT_TRUE(b.is_ok());
    put(**b, "doomed", "to be deleted");
    put(**b, "kept", "stays");
    ASSERT_TRUE((*b)->remove("doomed").is_ok());
  }
  auto b = open();
  ASSERT_TRUE(b.is_ok());
  EXPECT_FALSE((*b)->exists("doomed"));
  EXPECT_EQ(read_all(**b, "kept"), "stays");
}

TEST_F(SegmentBackendTest, RollsSegmentsAtConfiguredSize) {
  SegmentBackendOptions opt;
  opt.segment_bytes = 4 << 10;
  auto b = open(opt);
  ASSERT_TRUE(b.is_ok());
  const std::string blob(1 << 10, 'x');
  for (int i = 0; i < 20; ++i) {
    put(**b, "obj-" + std::to_string(i), blob);
  }
  EXPECT_GT((*b)->stats().segments, 2u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(read_all(**b, "obj-" + std::to_string(i)), blob);
  }
  // Everything still there after a reopen across many segments.
  b->reset();
  auto b2 = open(opt);
  ASSERT_TRUE(b2.is_ok());
  EXPECT_EQ((*b2)->stats().live_objects, 20u);
  EXPECT_EQ(read_all(**b2, "obj-7"), blob);
}

TEST_F(SegmentBackendTest, CompactReclaimsDeadSegments) {
  SegmentBackendOptions opt;
  opt.segment_bytes = 4 << 10;
  auto b = open(opt);
  ASSERT_TRUE(b.is_ok());
  const std::string blob(1 << 10, 'y');
  // Fill several segments, then overwrite every key so the early
  // segments become fully dead.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 12; ++i) {
      put(**b, "obj-" + std::to_string(i), blob);
    }
  }
  const auto before = (*b)->stats();
  ASSERT_TRUE((*b)->compact().is_ok());
  const auto after = (*b)->stats();
  EXPECT_LT(after.disk_bytes, before.disk_bytes);
  EXPECT_EQ(after.live_objects, 12u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(read_all(**b, "obj-" + std::to_string(i)), blob);
  }
  // Idempotent: a second pass is a no-op that changes nothing.
  ASSERT_TRUE((*b)->compact().is_ok());
  EXPECT_EQ((*b)->stats().live_objects, 12u);
  // And the compacted store reopens intact.
  b->reset();
  auto b2 = open(opt);
  ASSERT_TRUE(b2.is_ok());
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(read_all(**b2, "obj-" + std::to_string(i)), blob);
  }
}

TEST_F(SegmentBackendTest, CompactDoesNotResurrectDeletedKeys) {
  SegmentBackendOptions opt;
  opt.segment_bytes = 2 << 10;
  {
    auto b = open(opt);
    ASSERT_TRUE(b.is_ok());
    // Object lands in segment 0; pad until it rolls; the tombstone
    // then lands in a later segment.
    put(**b, "zombie", std::string(512, 'z'));
    put(**b, "pad-a", std::string(1600, 'p'));
    put(**b, "pad-b", std::string(1600, 'p'));
    ASSERT_TRUE((*b)->remove("zombie").is_ok());
    // Overwrite the pads so their old segments go mostly-dead and the
    // tombstone's segment is a compaction candidate.
    put(**b, "pad-a", std::string(1600, 'q'));
    put(**b, "pad-b", std::string(1600, 'q'));
    ASSERT_TRUE((*b)->compact().is_ok());
    EXPECT_FALSE((*b)->exists("zombie"));
  }
  // The dangerous moment: rebuild from what compaction left behind.
  auto b = open(opt);
  ASSERT_TRUE(b.is_ok());
  EXPECT_FALSE((*b)->exists("zombie"));
  EXPECT_EQ(read_all(**b, "pad-a"), std::string(1600, 'q'));
}

TEST_F(SegmentBackendTest, ReadAtServesRanges) {
  auto b = open();
  ASSERT_TRUE(b.is_ok());
  std::string blob(100000, '\0');
  std::mt19937 rng(42);
  for (auto& c : blob) c = static_cast<char>(rng());
  put(**b, "blob", blob);

  auto r = (*b)->open("blob");
  ASSERT_TRUE(r.is_ok());
  ASSERT_TRUE((*r)->supports_read_at());
  EXPECT_EQ((*r)->size(), blob.size());

  std::byte buf[1000];
  auto got = (*r)->read_at(40000, buf);
  ASSERT_TRUE(got.is_ok());
  ASSERT_EQ(*got, sizeof buf);
  EXPECT_EQ(std::memcmp(buf, blob.data() + 40000, sizeof buf), 0);
}

TEST_F(SegmentBackendTest, ReadersSurviveCompactionOfTheirSegment) {
  SegmentBackendOptions opt;
  opt.segment_bytes = 1 << 10;
  auto b = open(opt);
  ASSERT_TRUE(b.is_ok());
  put(**b, "pinned", std::string(700, 'p'));
  auto r = (*b)->open("pinned");
  ASSERT_TRUE(r.is_ok());
  // Make the pinned object's segment mostly dead, then compact: the
  // file is unlinked but the open reader holds the inode via its fd.
  put(**b, "pinned", std::string(700, 'P'));
  put(**b, "filler", std::string(700, 'f'));
  ASSERT_TRUE((*b)->compact().is_ok());
  std::byte buf[700];
  auto got = (*r)->read_at(0, buf);
  ASSERT_TRUE(got.is_ok());
  ASSERT_EQ(*got, sizeof buf);
  EXPECT_EQ(std::memcmp(buf, std::string(700, 'p').data(), sizeof buf), 0);
  // The fresh copy reads the new content.
  EXPECT_EQ(read_all(**b, "pinned"), std::string(700, 'P'));
}

TEST_F(SegmentBackendTest, SegmentStorePresentDetects) {
  EXPECT_FALSE(segment_store_present(dir_));
  {
    auto b = open();
    ASSERT_TRUE(b.is_ok());
    put(**b, "k", "v");
  }
  EXPECT_TRUE(segment_store_present(dir_));
}

/// One rank's synthetic workload (same shape as net_remote_test's
/// harness): driven with fixed seeds, two instances produce
/// byte-identical chains, which makes FileBackend a byte-identity
/// oracle for SegmentBackend.
class ChainHarness {
 public:
  explicit ChainHarness(StorageBackend* store)
      : space_(engine_, "rank0"),
        ckpt_(checkpoint::Checkpointer::create(space_, store).value()) {}

  void build_chain() {
    auto a = space_.map(8 * page_size(), region::AreaKind::kHeap, "a");
    auto b = space_.map(4 * page_size(), region::AreaKind::kHeap, "b");
    ASSERT_TRUE(a.is_ok() && b.is_ok());
    fill_pattern(a->mem, 101);
    fill_pattern(b->mem, 202);
    ASSERT_TRUE(ckpt_->checkpoint_full(1.0).is_ok());
    for (int step = 0; step < 4; ++step) {
      Rng rng(1000 + static_cast<std::uint64_t>(step));
      for (int t = 0; t < 3; ++t) {
        auto mem = (t % 2 == 0) ? a->mem : b->mem;
        const std::size_t pages = mem.size() / page_size();
        auto page =
            mem.subspan(rng.next_index(pages) * page_size(), page_size());
        fill_pattern(page, 5000 + static_cast<std::uint64_t>(step * 3 + t));
        engine_.note_write(page.data(), page.size());
      }
      auto snap = engine_.collect(true);
      ASSERT_TRUE(snap.is_ok());
      ASSERT_TRUE(ckpt_->checkpoint_incremental(*snap, 2.0 + step).is_ok());
    }
  }

 private:
  static void fill_pattern(std::span<std::byte> mem, std::uint64_t seed) {
    Rng rng(seed);
    for (std::size_t i = 0; i < mem.size(); i += 8) {
      std::uint64_t v = rng.next_u64();
      std::memcpy(mem.data() + i, &v,
                  std::min<std::size_t>(8, mem.size() - i));
    }
  }

  memtrack::ExplicitEngine engine_;
  region::AddressSpace space_;
  std::unique_ptr<checkpoint::Checkpointer> ckpt_;
};

// The acceptance bar: a full incremental checkpoint chain written
// through Checkpointer restores byte-identically from SegmentBackend
// and FileBackend, and inspect_store (fsck's engine) sees a healthy
// segment store.
TEST_F(SegmentBackendTest, CheckpointChainMatchesFileBackendByteForByte) {
  const std::string file_dir = dir_ + "_file";
  fs::remove_all(file_dir);
  auto file_backend = make_file_backend(file_dir);
  ASSERT_TRUE(file_backend.is_ok());
  auto seg_backend = make_segment_backend(dir_);
  ASSERT_TRUE(seg_backend.is_ok());

  {
    ChainHarness file_rank(file_backend->get());
    file_rank.build_chain();
  }
  {
    ChainHarness seg_rank(seg_backend->get());
    seg_rank.build_chain();
  }

  // Same keys, and every object byte-identical across backends.
  auto file_keys = (*file_backend)->list();
  auto seg_keys = (*seg_backend)->list();
  ASSERT_TRUE(file_keys.is_ok());
  ASSERT_TRUE(seg_keys.is_ok());
  std::sort(file_keys->begin(), file_keys->end());
  std::sort(seg_keys->begin(), seg_keys->end());
  ASSERT_EQ(*file_keys, *seg_keys);
  ASSERT_EQ(seg_keys->size(), 5u);  // 1 full + 4 incrementals
  for (const auto& key : *file_keys) {
    EXPECT_EQ(read_all(**file_backend, key), read_all(**seg_backend, key))
        << "object " << key << " differs between backends";
  }

  // Restore from the segment store equals restore from the file
  // store, block for block.
  auto via_seg = checkpoint::restore_chain(**seg_backend, 0);
  auto via_file = checkpoint::restore_chain(**file_backend, 0);
  ASSERT_TRUE(via_seg.is_ok()) << via_seg.status().message();
  ASSERT_TRUE(via_file.is_ok());
  EXPECT_EQ(via_seg->sequence, via_file->sequence);
  ASSERT_EQ(via_seg->blocks.size(), via_file->blocks.size());
  auto ia = via_seg->blocks.begin();
  auto ib = via_file->blocks.begin();
  for (; ia != via_seg->blocks.end(); ++ia, ++ib) {
    ASSERT_EQ(ia->second.data.size(), ib->second.data.size());
    EXPECT_EQ(0, std::memcmp(ia->second.data.data(), ib->second.data.data(),
                             ia->second.data.size()))
        << "restored block " << ia->first;
  }

  // fsck's engine runs unchanged over the segment store — and still
  // does after a reopen (footer-rebuilt index) and a compaction.
  auto report = checkpoint::inspect_store(**seg_backend);
  ASSERT_TRUE(report.is_ok()) << report.status().message();
  EXPECT_TRUE(report->healthy());

  seg_backend->reset();
  auto reopened = SegmentBackend::open_store(dir_, {});
  ASSERT_TRUE(reopened.is_ok());
  ASSERT_TRUE((*reopened)->compact().is_ok());
  auto report2 = checkpoint::inspect_store(**reopened);
  ASSERT_TRUE(report2.is_ok());
  EXPECT_TRUE(report2->healthy());

  fs::remove_all(file_dir);
}

// Reopen with durable=false still round-trips (sync() forces the tail).
TEST_F(SegmentBackendTest, NonDurableModeSyncsOnDemand) {
  SegmentBackendOptions opt;
  opt.durable = false;
  auto b = open(opt);
  ASSERT_TRUE(b.is_ok());
  put(**b, "lazy", "written without per-commit fsync");
  ASSERT_TRUE((*b)->sync().is_ok());
  EXPECT_EQ(read_all(**b, "lazy"), "written without per-commit fsync");
}

}  // namespace
}  // namespace ickpt::storage
