// Page encodings: zero elision, word RLE, plain fallback, and the
// end-to-end effect on checkpoint size.
#include "checkpoint/compress.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "checkpoint/checkpointer.h"
#include "checkpoint/restore.h"
#include "common/page.h"
#include "common/rng.h"
#include "memtrack/explicit_engine.h"
#include "region/address_space.h"
#include "storage/backend.h"

namespace ickpt::checkpoint {
namespace {

std::vector<std::byte> make_page(std::byte fill) {
  return std::vector<std::byte>(page_size(), fill);
}

/// The encoder as it was before it counted runs first: it emitted RLE
/// pairs until they stopped paying, then fell back to a copy.  Kept as
/// the oracle for the encoder's output bytes.
PageEncoding encode_page_reference(std::span<const std::byte> page,
                                   std::vector<std::byte>& out) {
  out.clear();
  if (is_zero_page(page)) return PageEncoding::kZero;
  const auto* words = reinterpret_cast<const std::uint64_t*>(page.data());
  const std::size_t nwords = page.size() / 8;
  if (nwords * 8 == page.size() && nwords > 0) {
    std::size_t i = 0;
    bool profitable = true;
    while (i < nwords) {
      std::size_t j = i + 1;
      while (j < nwords && words[j] == words[i]) ++j;
      const std::uint64_t pair[2] = {j - i, words[i]};
      const std::size_t old = out.size();
      out.resize(old + sizeof pair);
      std::memcpy(out.data() + old, pair, sizeof pair);
      i = j;
      if (out.size() >= page.size()) {
        profitable = false;
        break;
      }
    }
    if (profitable && out.size() < page.size() / 2) return PageEncoding::kRle;
  }
  out.assign(page.begin(), page.end());
  return PageEncoding::kPlain;
}

/// A page of `runs` word runs of near-equal length.
std::vector<std::byte> page_with_runs(std::size_t runs) {
  std::vector<std::byte> page(page_size());
  const std::size_t n = page.size() / 8;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t w = 1 + i * runs / n;
    std::memcpy(page.data() + i * 8, &w, 8);
  }
  return page;
}

/// encode_page must append exactly what the reference produces, after
/// whatever `out` already held.
void expect_matches_reference(const std::vector<std::byte>& page,
                              PageEncoding want) {
  std::vector<std::byte> ref;
  EXPECT_EQ(encode_page_reference(page, ref), want);
  const std::vector<std::byte> prefix(5, std::byte{0xab});
  std::vector<std::byte> out = prefix;
  EXPECT_EQ(encode_page(page, out), want);
  ASSERT_EQ(out.size(), prefix.size() + ref.size());
  const auto appended =
      out.begin() + static_cast<std::ptrdiff_t>(prefix.size());
  EXPECT_TRUE(std::equal(out.begin(), appended, prefix.begin()));
  EXPECT_TRUE(std::equal(ref.begin(), ref.end(), appended));
}

TEST(CompressTest, ZeroPageDetection) {
  auto page = make_page(std::byte{0});
  EXPECT_TRUE(is_zero_page(page));
  page[page.size() - 1] = std::byte{1};
  EXPECT_FALSE(is_zero_page(page));
  page[page.size() - 1] = std::byte{0};
  page[0] = std::byte{1};
  EXPECT_FALSE(is_zero_page(page));
}

TEST(CompressTest, ZeroPageEncodesToNothing) {
  auto page = make_page(std::byte{0});
  std::vector<std::byte> out;
  EXPECT_EQ(encode_page(page, out), PageEncoding::kZero);
  EXPECT_TRUE(out.empty());

  std::vector<std::byte> decoded(page_size(), std::byte{0x55});
  ASSERT_TRUE(decode_page(PageEncoding::kZero, out, decoded).is_ok());
  EXPECT_TRUE(is_zero_page(decoded));
}

TEST(CompressTest, ConstantPageUsesRle) {
  auto page = make_page(std::byte{0x42});
  std::vector<std::byte> out;
  EXPECT_EQ(encode_page(page, out), PageEncoding::kRle);
  EXPECT_EQ(out.size(), 16u);  // one (count, word) pair

  std::vector<std::byte> decoded(page_size());
  ASSERT_TRUE(decode_page(PageEncoding::kRle, out, decoded).is_ok());
  EXPECT_EQ(std::memcmp(decoded.data(), page.data(), page.size()), 0);
}

TEST(CompressTest, StructuredPageRoundTrips) {
  // A few constant runs: typical of initialized coordinate arrays.
  std::vector<std::byte> page(page_size());
  auto* words = reinterpret_cast<std::uint64_t*>(page.data());
  std::size_t n = page.size() / 8;
  for (std::size_t i = 0; i < n; ++i) words[i] = i / 64;

  std::vector<std::byte> out;
  auto enc = encode_page(page, out);
  EXPECT_EQ(enc, PageEncoding::kRle);
  EXPECT_LT(out.size(), page.size() / 2);

  std::vector<std::byte> decoded(page_size());
  ASSERT_TRUE(decode_page(enc, out, decoded).is_ok());
  EXPECT_EQ(std::memcmp(decoded.data(), page.data(), page.size()), 0);
}

TEST(CompressTest, RandomPageFallsBackToPlain) {
  std::vector<std::byte> page(page_size());
  Rng rng(7);
  for (auto& b : page) b = static_cast<std::byte>(rng.next_u64());
  std::vector<std::byte> out;
  EXPECT_EQ(encode_page(page, out), PageEncoding::kPlain);
  EXPECT_EQ(out.size(), page.size());

  std::vector<std::byte> decoded(page_size());
  ASSERT_TRUE(decode_page(PageEncoding::kPlain, out, decoded).is_ok());
  EXPECT_EQ(std::memcmp(decoded.data(), page.data(), page.size()), 0);
}

TEST(CompressTest, DecodeRejectsMalformedPayloads) {
  std::vector<std::byte> page(page_size());
  // Zero encoding with spurious payload.
  std::vector<std::byte> junk(8, std::byte{1});
  EXPECT_EQ(decode_page(PageEncoding::kZero, junk, page).code(),
            ErrorCode::kCorruption);
  // Plain with wrong size.
  EXPECT_EQ(decode_page(PageEncoding::kPlain, junk, page).code(),
            ErrorCode::kCorruption);
  // RLE with non-multiple size.
  std::vector<std::byte> odd(13, std::byte{1});
  EXPECT_EQ(decode_page(PageEncoding::kRle, odd, page).code(),
            ErrorCode::kCorruption);
  // RLE overrunning the page.
  struct {
    std::uint64_t count;
    std::uint64_t word;
  } pair = {page_size(), 7};  // count in words > page words
  std::vector<std::byte> overrun(16);
  std::memcpy(overrun.data(), &pair, 16);
  EXPECT_EQ(decode_page(PageEncoding::kRle, overrun, page).code(),
            ErrorCode::kCorruption);
  // RLE underfilling the page.
  pair.count = 1;
  std::memcpy(overrun.data(), &pair, 16);
  EXPECT_EQ(decode_page(PageEncoding::kRle, overrun, page).code(),
            ErrorCode::kCorruption);
  // Unknown encoding id.
  EXPECT_EQ(decode_page(static_cast<PageEncoding>(99), {}, page).code(),
            ErrorCode::kCorruption);
}

TEST(CompressTest, EncoderMatchesReference) {
  expect_matches_reference(make_page(std::byte{0}), PageEncoding::kZero);
  expect_matches_reference(make_page(std::byte{0x42}), PageEncoding::kRle);
  std::vector<std::byte> random(page_size());
  Rng rng(11);
  for (auto& b : random) b = static_cast<std::byte>(rng.next_u64());
  expect_matches_reference(random, PageEncoding::kPlain);
}

TEST(CompressTest, EncoderMatchesReferenceAtRunCountEdges) {
  if (page_size() != 4096) GTEST_SKIP() << "run edges assume 4 KiB pages";
  // RLE pays below 128 runs (128 pairs fill half the page).
  for (std::size_t runs : {1u, 126u, 127u}) {
    SCOPED_TRACE(runs);
    expect_matches_reference(page_with_runs(runs), PageEncoding::kRle);
  }
  for (std::size_t runs : {128u, 129u, 512u}) {
    SCOPED_TRACE(runs);
    expect_matches_reference(page_with_runs(runs), PageEncoding::kPlain);
  }
}

TEST(CompressTest, ZeroScanSeesEveryByte) {
  auto page = make_page(std::byte{0});
  for (std::size_t i = 0; i < page.size(); ++i) {
    page[i] = std::byte{0x80};
    ASSERT_FALSE(is_zero_page(page)) << "byte " << i;
    page[i] = std::byte{0};
  }
  EXPECT_TRUE(is_zero_page(page));
}

TEST(CompressTest, ZeroScanHandlesSpansOffTheBlockSize) {
  std::vector<std::byte> buf(200, std::byte{0});
  for (std::size_t len : {0u, 1u, 7u, 8u, 63u, 65u, 71u, 72u, 130u, 199u}) {
    SCOPED_TRACE(len);
    const std::span<const std::byte> span(buf.data(), len);
    EXPECT_TRUE(is_zero_page(span));
    for (std::size_t i = 0; i < len; ++i) {
      buf[i] = std::byte{1};
      EXPECT_FALSE(is_zero_page(span)) << "byte " << i;
      buf[i] = std::byte{0};
    }
    // A nonzero byte just past the span is not part of it.
    buf[len] = std::byte{1};
    EXPECT_TRUE(is_zero_page(span));
    buf[len] = std::byte{0};
  }
}

TEST(CompressTest, CheckpointOfSparseBlockShrinks) {
  memtrack::ExplicitEngine engine;
  region::AddressSpace space(engine, "r");
  auto block = space.map(64 * page_size(), region::AreaKind::kHeap, "b");
  ASSERT_TRUE(block.is_ok());
  // Touch 4 pages with noise; the rest stay zero.
  Rng rng(3);
  for (std::size_t p : {0u, 10u, 20u, 30u}) {
    auto* words = reinterpret_cast<std::uint64_t*>(
        block->mem.data() + p * page_size());
    for (std::size_t i = 0; i < page_size() / 8; ++i) {
      words[i] = rng.next_u64();
    }
  }
  auto storage = storage::make_memory_backend();

  CheckpointerOptions with;
  auto compressed = Checkpointer::create(space, storage.get(), with).value();
  auto m1 = compressed->checkpoint_full(0.0);
  ASSERT_TRUE(m1.is_ok());
  EXPECT_EQ(m1->zero_pages, 60u);
  EXPECT_LT(m1->file_bytes, 6 * page_size());

  CheckpointerOptions without;
  without.rank = 1;
  without.compress = false;
  auto plain = Checkpointer::create(space, storage.get(), without).value();
  auto m2 = plain->checkpoint_full(0.0);
  ASSERT_TRUE(m2.is_ok());
  EXPECT_GT(m2->file_bytes, 64 * page_size());
  EXPECT_GT(m2->file_bytes, 10 * m1->file_bytes);

  // Both restore to identical content.
  auto s1 = restore_chain(*storage, 0);
  auto s2 = restore_chain(*storage, 1);
  ASSERT_TRUE(s1.is_ok());
  ASSERT_TRUE(s2.is_ok());
  const auto& d1 = s1->blocks.begin()->second.data;
  const auto& d2 = s2->blocks.begin()->second.data;
  ASSERT_EQ(d1.size(), d2.size());
  EXPECT_EQ(std::memcmp(d1.data(), d2.data(), d1.size()), 0);
  EXPECT_EQ(std::memcmp(d1.data(), block->mem.data(), d1.size()), 0);
}

}  // namespace
}  // namespace ickpt::checkpoint
