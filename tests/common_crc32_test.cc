#include "common/crc32.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.h"

namespace ickpt {
namespace {

/// Bit-at-a-time reference implementation (no tables).
std::uint32_t crc32_reference(std::span<const std::byte> data) {
  std::uint32_t c = 0xffffffffu;
  for (std::byte b : data) {
    c ^= static_cast<std::uint32_t>(b);
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
  }
  return ~c;
}

std::span<const std::byte> as_bytes(const char* s) {
  return {reinterpret_cast<const std::byte*>(s), std::strlen(s)};
}

TEST(Crc32Test, KnownVectors) {
  // Standard IEEE CRC-32 check values.
  EXPECT_EQ(crc32(as_bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(as_bytes("")), 0x00000000u);
  EXPECT_EQ(crc32(as_bytes("a")), 0xE8B7BE43u);
  EXPECT_EQ(crc32(as_bytes("The quick brown fox jumps over the lazy dog")),
            0x414FA339u);
}

TEST(Crc32Test, IncrementalEqualsOneShot) {
  Crc32 inc;
  inc.update(as_bytes("1234"));
  inc.update(as_bytes("56789"));
  EXPECT_EQ(inc.value(), crc32(as_bytes("123456789")));
}

TEST(Crc32Test, ValueIsIdempotent) {
  Crc32 c;
  c.update(as_bytes("data"));
  auto v1 = c.value();
  auto v2 = c.value();
  EXPECT_EQ(v1, v2);
  c.update(as_bytes("more"));
  EXPECT_NE(c.value(), v1);
}

TEST(Crc32Test, ResetStartsOver) {
  Crc32 c;
  c.update(as_bytes("junk"));
  c.reset();
  c.update(as_bytes("123456789"));
  EXPECT_EQ(c.value(), 0xCBF43926u);
}

TEST(Crc32Test, SliceBy8MatchesBitwiseReference) {
  // Random lengths and starting alignments exercise the 8-byte fast
  // path, the bytewise tail, and unaligned loads.
  Rng rng(1);
  std::vector<std::byte> data(4096 + 64);
  for (auto& b : data) {
    b = static_cast<std::byte>(rng.next_u64() & 0xff);
  }
  for (std::size_t len : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u, 1000u, 4096u}) {
    for (std::size_t align : {0u, 1u, 3u, 7u}) {
      std::span<const std::byte> view{data.data() + align, len};
      EXPECT_EQ(crc32(view), crc32_reference(view))
          << "len=" << len << " align=" << align;
    }
  }
}

TEST(Crc32Test, ChunkedUpdatesMatchOneShot) {
  Rng rng(2);
  std::vector<std::byte> data(10000);
  for (auto& b : data) {
    b = static_cast<std::byte>(rng.next_u64() & 0xff);
  }
  Crc32 inc;
  std::size_t off = 0;
  while (off < data.size()) {
    std::size_t n = std::min<std::size_t>(1 + rng.next_index(977),
                                          data.size() - off);
    inc.update({data.data() + off, n});
    off += n;
  }
  EXPECT_EQ(inc.value(), crc32(data));
}

TEST(Crc32CombineTest, MatchesDirectHashOfConcatenation) {
  Rng rng(3);
  std::vector<std::byte> data(8192);
  for (auto& b : data) {
    b = static_cast<std::byte>(rng.next_u64() & 0xff);
  }
  for (std::size_t split : {0u, 1u, 9u, 4096u, 8191u, 8192u}) {
    auto a = crc32({data.data(), split});
    auto b = crc32({data.data() + split, data.size() - split});
    EXPECT_EQ(crc32_combine(a, b, data.size() - split), crc32(data))
        << "split=" << split;
  }
}

TEST(Crc32CombineTest, ZeroLengthIsIdentity) {
  auto c = crc32(std::span<const std::byte>{});
  auto d = crc32_reference(std::span<const std::byte>{});
  EXPECT_EQ(c, d);
  EXPECT_EQ(crc32_combine(0x12345678u, c, 0), 0x12345678u);
}

TEST(Crc32CombineTest, Associativity) {
  // combine(combine(A,B),C) == combine(A,combine(B,C)) over random
  // splits — the property the shard stitcher relies on.
  Rng rng(4);
  std::vector<std::byte> data(6000);
  for (auto& b : data) {
    b = static_cast<std::byte>(rng.next_u64() & 0xff);
  }
  for (int trial = 0; trial < 16; ++trial) {
    std::size_t i = rng.next_index(data.size());
    std::size_t j = i + rng.next_index(data.size() - i);
    const std::uint64_t len_b = j - i;
    const std::uint64_t len_c = data.size() - j;
    auto a = crc32({data.data(), i});
    auto b = crc32({data.data() + i, len_b});
    auto c = crc32({data.data() + j, len_c});
    auto left = crc32_combine(crc32_combine(a, b, len_b), c, len_c);
    auto right =
        crc32_combine(a, crc32_combine(b, c, len_c), len_b + len_c);
    EXPECT_EQ(left, right) << "i=" << i << " j=" << j;
    EXPECT_EQ(left, crc32(data));
  }
}

TEST(Crc32CombineTest, StreamingCombineMatchesUpdate) {
  Rng rng(5);
  std::vector<std::byte> head(100), tail(3000);
  for (auto& b : head) b = static_cast<std::byte>(rng.next_u64() & 0xff);
  for (auto& b : tail) b = static_cast<std::byte>(rng.next_u64() & 0xff);

  Crc32 via_update;
  via_update.update(head);
  via_update.update(tail);

  Crc32 via_combine;
  via_combine.update(head);
  via_combine.combine(crc32(tail), tail.size());
  EXPECT_EQ(via_combine.value(), via_update.value());
}

// ---- Oracle for crc32_combine: zlib 1.2.11's GF(2) matrix method,
// which crc32_combine used before its table-driven rewrite.  A 32x32
// bit-matrix is 32 column vectors; mat*vec is an xor-fold.  It squares
// matrices on every call (tens to hundreds of microseconds), but shares
// no code or tables with the implementation under test.

std::uint32_t gf2_matrix_times(const std::uint32_t* mat, std::uint32_t vec) {
  std::uint32_t sum = 0;
  while (vec != 0) {
    if (vec & 1u) sum ^= *mat;
    vec >>= 1;
    ++mat;
  }
  return sum;
}

void gf2_matrix_square(std::uint32_t* square, const std::uint32_t* mat) {
  for (int n = 0; n < 32; ++n) square[n] = gf2_matrix_times(mat, mat[n]);
}

std::uint32_t combine_reference(std::uint32_t crc_a, std::uint32_t crc_b,
                                std::uint64_t len_b) {
  if (len_b == 0) return crc_a;
  // odd = the operator advancing a CRC by one zero bit; in the loop,
  // even and odd alternate as the shift by 2^(k+3) zero bits for bit k
  // of len_b.
  std::uint32_t even[32];
  std::uint32_t odd[32];
  odd[0] = 0xedb88320u;
  std::uint32_t row = 1;
  for (int n = 1; n < 32; ++n) {
    odd[n] = row;
    row <<= 1;
  }
  gf2_matrix_square(even, odd);  // two zero bits
  gf2_matrix_square(odd, even);  // four zero bits
  do {
    gf2_matrix_square(even, odd);
    if (len_b & 1u) crc_a = gf2_matrix_times(even, crc_a);
    len_b >>= 1;
    if (len_b == 0) break;
    gf2_matrix_square(odd, even);
    if (len_b & 1u) crc_a = gf2_matrix_times(odd, crc_a);
    len_b >>= 1;
  } while (len_b != 0);
  return crc_a ^ crc_b;
}

std::uint32_t random_crc(Rng& rng) {
  return static_cast<std::uint32_t>(rng.next_u64());
}

TEST(Crc32CombineOracleTest, ZeroLengthMatchesOracle) {
  Rng rng(9);
  for (int trial = 0; trial < 64; ++trial) {
    const std::uint32_t a = random_crc(rng);
    const std::uint32_t b = random_crc(rng);
    EXPECT_EQ(crc32_combine(a, b, 0), combine_reference(a, b, 0));
  }
}

TEST(Crc32CombineOracleTest, EverySingleBitLengthMatchesOracle) {
  Rng rng(10);
  for (int bit = 0; bit < 64; ++bit) {
    const std::uint64_t len = std::uint64_t{1} << bit;
    const std::uint32_t a = random_crc(rng);
    const std::uint32_t b = random_crc(rng);
    EXPECT_EQ(crc32_combine(a, b, len), combine_reference(a, b, len))
        << "len=2^" << bit;
  }
}

TEST(Crc32CombineOracleTest, LengthsThatWrapThePowerTableMatchOracle) {
  // Bit j of len_b multiplies by x^(2^(j+3)), so every set bit from
  // 2^29 up reads a wrapped table entry (k & 31).  These lengths (all
  // but two at least 2^32) use wrapped entries only, or mix them with
  // low ones.
  Rng rng(11);
  const std::uint64_t lens[] = {
      std::uint64_t{1} << 29,
      (std::uint64_t{1} << 32) - 1,
      std::uint64_t{1} << 32,
      (std::uint64_t{1} << 32) + 1,
      (std::uint64_t{1} << 33) + 4096,
      (std::uint64_t{3} << 32) + 65536,
      (std::uint64_t{1} << 40) + 123,
      0x0123456789abcdefull,
      0x8000000000000001ull,
      0xfffffffff0000000ull,
      ~std::uint64_t{0},
  };
  for (std::uint64_t len : lens) {
    const std::uint32_t a = random_crc(rng);
    const std::uint32_t b = random_crc(rng);
    EXPECT_EQ(crc32_combine(a, b, len), combine_reference(a, b, len))
        << "len=" << len;
  }
}

TEST(Crc32CombineOracleTest, RandomLengthsAndCrcsMatchOracle) {
  // Random 64-bit lengths shifted right by a random amount, so every
  // bit width from 1 to 64 is sampled, with random CRC pairs.
  Rng rng(12);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::uint64_t len = rng.next_u64() >> rng.next_index(64);
    const std::uint32_t a = random_crc(rng);
    const std::uint32_t b = random_crc(rng);
    ASSERT_EQ(crc32_combine(a, b, len), combine_reference(a, b, len))
        << "len=" << len << " a=" << a << " b=" << b;
  }
}

/// Swap the process-wide CRC kernel for one test, restoring on exit.
class ScopedKernel {
 public:
  explicit ScopedKernel(CrcKernel k) : prev_(crc32_active_kernel()) {
    ok_ = crc32_set_kernel(k);
  }
  ~ScopedKernel() { crc32_set_kernel(prev_); }
  bool ok() const { return ok_; }

 private:
  CrcKernel prev_;
  bool ok_ = false;
};

std::vector<CrcKernel> available_hw_kernels() {
  std::vector<CrcKernel> out;
  for (CrcKernel k : {CrcKernel::kPclmul, CrcKernel::kArmCrc}) {
    if (crc32_kernel_available(k)) out.push_back(k);
  }
  return out;
}

TEST(Crc32KernelTest, Slice8AlwaysAvailable) {
  EXPECT_TRUE(crc32_kernel_available(CrcKernel::kSlice8));
  EXPECT_STREQ(crc32_kernel_name(CrcKernel::kSlice8), "slice8");
}

TEST(Crc32KernelTest, SetUnavailableKernelIsRefused) {
  const CrcKernel before = crc32_active_kernel();
  for (CrcKernel k : {CrcKernel::kPclmul, CrcKernel::kArmCrc}) {
    if (crc32_kernel_available(k)) continue;
    EXPECT_FALSE(crc32_set_kernel(k)) << crc32_kernel_name(k);
    EXPECT_EQ(crc32_active_kernel(), before)
        << "refused set must leave the active kernel alone";
  }
}

TEST(Crc32KernelTest, DefaultSelectionFallsBackWithoutHardware) {
  // On hosts with no usable CRC hardware, auto selection must land on
  // the portable kernel (the ISSUE's soft-only acceptance check).
  if (!available_hw_kernels().empty()) {
    GTEST_SKIP() << "host has hardware CRC; fallback path not reachable";
  }
  EXPECT_EQ(crc32_select_default_kernel(), CrcKernel::kSlice8);
}

TEST(Crc32KernelTest, HardwareMatchesSoftRandomized) {
  // Every available hardware kernel must produce bit-identical CRCs to
  // slice-by-8 over randomized lengths (0..4 KiB) and unaligned
  // starting offsets — covering the <64 B delegation path, the 16-byte
  // fold granularity, and odd tails.
  const auto hw = available_hw_kernels();
  if (hw.empty()) GTEST_SKIP() << "no hardware CRC kernel on this host";

  Rng rng(6);
  std::vector<std::byte> data(4096 + 64);
  for (auto& b : data) b = static_cast<std::byte>(rng.next_u64() & 0xff);

  std::vector<std::pair<std::size_t, std::size_t>> cases;
  for (std::size_t len :
       {0u, 1u, 15u, 16u, 63u, 64u, 65u, 127u, 128u, 1000u, 4096u}) {
    for (std::size_t align : {0u, 1u, 3u, 7u, 13u}) cases.push_back({len, align});
  }
  for (int trial = 0; trial < 64; ++trial) {
    cases.push_back({rng.next_index(4097), rng.next_index(64)});
  }

  for (CrcKernel k : hw) {
    for (auto [len, align] : cases) {
      std::span<const std::byte> view{data.data() + align, len};
      std::uint32_t soft, fast;
      {
        ScopedKernel s(CrcKernel::kSlice8);
        ASSERT_TRUE(s.ok());
        soft = crc32(view);
      }
      {
        ScopedKernel s(k);
        ASSERT_TRUE(s.ok());
        fast = crc32(view);
      }
      EXPECT_EQ(fast, soft) << crc32_kernel_name(k) << " len=" << len
                            << " align=" << align;
    }
  }
}

TEST(Crc32KernelTest, CombineStitchesAcrossKernelBoundaries) {
  // The shard stitcher may fold CRCs computed by different kernels
  // (e.g. a process that flips ICKPT_CRC_IMPL between runs, or mixed
  // fleets).  combine() must be oblivious to which kernel hashed each
  // piece.
  const auto hw = available_hw_kernels();
  if (hw.empty()) GTEST_SKIP() << "no hardware CRC kernel on this host";

  Rng rng(7);
  std::vector<std::byte> data(8192);
  for (auto& b : data) b = static_cast<std::byte>(rng.next_u64() & 0xff);

  std::uint32_t whole_soft;
  {
    ScopedKernel s(CrcKernel::kSlice8);
    whole_soft = crc32(data);
  }
  for (CrcKernel k : hw) {
    for (std::size_t split : {0u, 1u, 100u, 4096u, 8191u, 8192u}) {
      std::uint32_t a, b;
      {
        ScopedKernel s(CrcKernel::kSlice8);
        a = crc32({data.data(), split});
      }
      {
        ScopedKernel s(k);
        b = crc32({data.data() + split, data.size() - split});
        EXPECT_EQ(crc32(data), whole_soft) << crc32_kernel_name(k);
      }
      EXPECT_EQ(crc32_combine(a, b, data.size() - split), whole_soft)
          << crc32_kernel_name(k) << " split=" << split;
    }
  }
}

TEST(Crc32KernelTest, IncrementalUpdatesSpanKernelSwitch) {
  // A Crc32 accumulator whose update() calls straddle a kernel switch
  // must still match the one-shot value: kernel state is plain CRC
  // state, never kernel-private.
  const auto hw = available_hw_kernels();
  if (hw.empty()) GTEST_SKIP() << "no hardware CRC kernel on this host";

  Rng rng(8);
  std::vector<std::byte> data(5000);
  for (auto& b : data) b = static_cast<std::byte>(rng.next_u64() & 0xff);

  for (CrcKernel k : hw) {
    Crc32 inc;
    {
      ScopedKernel s(CrcKernel::kSlice8);
      inc.update({data.data(), 1234});
    }
    {
      ScopedKernel s(k);
      inc.update({data.data() + 1234, data.size() - 1234});
    }
    EXPECT_EQ(inc.value(), crc32(data)) << crc32_kernel_name(k);
  }
}

TEST(Crc32Test, SingleBitFlipChangesValue) {
  std::vector<std::byte> data(4096, std::byte{0x7f});
  auto base = crc32(data);
  for (std::size_t pos : {0u, 2048u, 4095u}) {
    data[pos] ^= std::byte{0x01};
    EXPECT_NE(crc32(data), base) << "flip at " << pos;
    data[pos] ^= std::byte{0x01};
  }
}

}  // namespace
}  // namespace ickpt
