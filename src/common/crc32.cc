#include "common/crc32.h"

#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/crc32_kernels.h"

namespace ickpt {

namespace {

constexpr std::uint32_t kPoly = 0xedb88320u;

using Table = std::array<std::uint32_t, 256>;

// kTables[0] is the classic bytewise table; kTables[k] maps a byte that
// is k positions deeper in an 8-byte window, so eight lookups advance
// the CRC by eight bytes at once (slice-by-8).
constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? kPoly ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      tables[k][i] =
          tables[0][tables[k - 1][i] & 0xffu] ^ (tables[k - 1][i] >> 8);
    }
  }
  return tables;
}
constexpr auto kTables = make_tables();

// ---- Polynomial arithmetic mod P for crc32_combine (zlib 1.2.12's
// method).  Polynomials are held reflected, like the CRC itself: bit 31
// is the x^0 coefficient, so x^0 == 1u << 31 and x^1 == 1u << 30.

/// a(x) * b(x) mod P in at most 32 steps: walk a's coefficients from
/// x^0 up while b steps through b * x^i, stopping after a's last set
/// bit.  Invariant: the loop terminates only for a nonzero `a`.  Every
/// first operand here is a power of x, and x is a unit mod P (P's
/// constant term is 1), so no power of x is ever zero mod P.
constexpr std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) noexcept {
  std::uint32_t m = 1u << 31;
  std::uint32_t p = 0;
  for (;;) {
    if (a & m) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1u) ? kPoly ^ (b >> 1) : b >> 1;
  }
  return p;
}

/// kX2n[k] = x^(2^k) mod P.  x^(2^32) == x mod P, so callers index it
/// with k & 31 for any k.
constexpr std::array<std::uint32_t, 32> make_x2n_table() {
  std::array<std::uint32_t, 32> t{};
  std::uint32_t p = 1u << 30;  // x^1
  t[0] = p;
  for (std::size_t k = 1; k < t.size(); ++k) t[k] = p = multmodp(p, p);
  return t;
}
constexpr auto kX2n = make_x2n_table();
static_assert(multmodp(kX2n[31], kX2n[31]) == kX2n[0],
              "x^(2^32) == x mod P: kX2n indices wrap mod 32");

// ---- Kernel dispatch.
//
// One relaxed atomic function pointer, resolved at namespace-scope
// init (and re-resolvable via crc32_select_default_kernel()).  Code
// that runs before this TU's initializers still computes correct CRCs:
// the pointer statically defaults to slice8.

std::atomic<crc_detail::KernelFn> g_kernel{&crc_detail::slice8};
std::atomic<CrcKernel> g_kernel_id{CrcKernel::kSlice8};

crc_detail::KernelFn kernel_fn(CrcKernel k) noexcept {
  switch (k) {
    case CrcKernel::kPclmul:
      return &crc_detail::pclmul;
    case CrcKernel::kArmCrc:
      return &crc_detail::armcrc;
    case CrcKernel::kSlice8:
      break;
  }
  return &crc_detail::slice8;
}

CrcKernel best_hw_kernel() noexcept {
  if (crc_detail::pclmul_supported()) return CrcKernel::kPclmul;
  if (crc_detail::armcrc_supported()) return CrcKernel::kArmCrc;
  return CrcKernel::kSlice8;
}

const bool g_selected = (crc32_select_default_kernel(), true);

}  // namespace

namespace crc_detail {

std::uint32_t slice8(const unsigned char* p, std::size_t len,
                     std::uint32_t state) noexcept {
  std::uint32_t c = state;
  // Eight bytes per iteration; the two-word loads are memcpy so
  // alignment never matters.  Byte order: the format (and this table
  // layout) is little-endian, like every platform the repo targets.
  while (len >= 8) {
    std::uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
        kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
        kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  while (len-- > 0) {
    c = kTables[0][(c ^ *p++) & 0xffu] ^ (c >> 8);
  }
  return c;
}

}  // namespace crc_detail

void Crc32::update(std::span<const std::byte> data) noexcept {
  update(data.data(), data.size());
}

void Crc32::update(const void* data, std::size_t len) noexcept {
  state_ = g_kernel.load(std::memory_order_relaxed)(
      static_cast<const unsigned char*>(data), len, state_);
}

void Crc32::combine(std::uint32_t crc_b, std::uint64_t len_b) noexcept {
  state_ = ~crc32_combine(~state_, crc_b, len_b);
}

std::uint32_t crc32(std::span<const std::byte> data) noexcept {
  Crc32 c;
  c.update(data);
  return c.value();
}

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b) noexcept {
  if (len_b == 0) return crc_a;

  // Appending len_b bytes multiplies A's CRC by x^(8 * len_b) mod P.
  // That power is the product of x^(2^k) over the set bits of 8 * len_b,
  // i.e. over bit k - 3 of len_b for k = 3, 4, ...: one table multiply
  // per set bit.
  std::uint32_t shift = 1u << 31;  // x^0
  for (unsigned k = 3; len_b != 0; len_b >>= 1, ++k) {
    if (len_b & 1u) shift = multmodp(kX2n[k & 31], shift);
  }
  return multmodp(shift, crc_a) ^ crc_b;
}

CrcKernel crc32_active_kernel() noexcept {
  return g_kernel_id.load(std::memory_order_relaxed);
}

const char* crc32_kernel_name(CrcKernel k) noexcept {
  switch (k) {
    case CrcKernel::kSlice8:
      return "slice8";
    case CrcKernel::kPclmul:
      return "pclmul";
    case CrcKernel::kArmCrc:
      return "armv8-crc";
  }
  return "unknown";
}

bool crc32_kernel_available(CrcKernel k) noexcept {
  switch (k) {
    case CrcKernel::kSlice8:
      return true;
    case CrcKernel::kPclmul:
      return crc_detail::pclmul_supported();
    case CrcKernel::kArmCrc:
      return crc_detail::armcrc_supported();
  }
  return false;
}

bool crc32_set_kernel(CrcKernel k) noexcept {
  if (!crc32_kernel_available(k)) return false;
  g_kernel.store(kernel_fn(k), std::memory_order_relaxed);
  g_kernel_id.store(k, std::memory_order_relaxed);
  return true;
}

CrcKernel crc32_select_default_kernel() noexcept {
  CrcKernel pick = best_hw_kernel();
  if (const char* env = std::getenv("ICKPT_CRC_IMPL")) {
    if (std::strcmp(env, "soft") == 0) {
      pick = CrcKernel::kSlice8;
    } else if (std::strcmp(env, "hw") == 0) {
      // Prefer hardware; soft-only hosts keep the fallback (the
      // override exists for testing, not for making CRCs impossible).
      pick = best_hw_kernel();
    }
    // "auto", empty or unknown values keep the detected default.
  }
  crc32_set_kernel(pick);
  return pick;
}

}  // namespace ickpt
