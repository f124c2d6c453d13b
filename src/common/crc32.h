// CRC-32 (IEEE 802.3 polynomial) with runtime-dispatched kernels.
//
// The polynomial is fixed — crc32_combine() and the on-disk format
// depend on it — but the bulk update is served by the fastest kernel
// the host offers, selected once at startup:
//   kSlice8  table-driven slice-by-8, the universal fallback;
//   kPclmul  PCLMULQDQ carry-less-multiply folding (x86-64);
//   kArmCrc  the ARMv8 CRC32 instructions (__crc32d et al.).
// All kernels produce bit-identical CRCs; the randomized cross-check
// in common_crc32_test proves it on every hw-capable host.  The
// environment variable ICKPT_CRC_IMPL=soft|hw|auto (default auto)
// overrides the choice for testing, and crc32_set_kernel() switches it
// programmatically (benches ablate soft vs hw with it).
//
// Besides the streaming update, crc32_combine() merges the CRCs of two
// concatenated byte ranges without touching the bytes — this is what
// lets the parallel encode pipeline hash shards on worker threads and
// stitch one file CRC on the main thread, and restore verify each
// object from its decode shards.  Combine is polynomial arithmetic mod
// the CRC polynomial: one multiply by a precomputed x^(2^k) per set bit
// of the appended length, plus one final multiply (well under a
// microsecond at any length).  It is one portable routine, independent
// of the kernel: shard CRCs from different kernels stitch
// interchangeably.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace ickpt {

/// Incrementally updatable CRC-32.
class Crc32 {
 public:
  void update(std::span<const std::byte> data) noexcept;
  void update(const void* data, std::size_t len) noexcept;

  /// Append a range whose finalized CRC is `crc_b` and length is
  /// `len_b` bytes, without re-reading the bytes (one table multiply
  /// per set bit of len_b).
  void combine(std::uint32_t crc_b, std::uint64_t len_b) noexcept;

  /// Finalized value (can be called repeatedly; update may continue).
  std::uint32_t value() const noexcept { return ~state_; }

  void reset() noexcept { state_ = 0xffffffffu; }

 private:
  std::uint32_t state_ = 0xffffffffu;
};

/// One-shot convenience.
std::uint32_t crc32(std::span<const std::byte> data) noexcept;

/// CRC of A||B from the finalized CRCs of A and B and the length of B.
/// Associative: combining (A,B) then C equals A then (B,C).
std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b) noexcept;

// ---- Kernel dispatch ----------------------------------------------

enum class CrcKernel {
  kSlice8 = 0,  ///< table-driven software fallback (always available)
  kPclmul = 1,  ///< x86-64 PCLMULQDQ folding
  kArmCrc = 2,  ///< ARMv8 CRC32 instructions
};

/// Kernel currently serving Crc32::update / crc32().
CrcKernel crc32_active_kernel() noexcept;

/// "slice8" / "pclmul" / "armv8-crc".
const char* crc32_kernel_name(CrcKernel k) noexcept;

/// True when the host can execute `k` (kSlice8 always can).
bool crc32_kernel_available(CrcKernel k) noexcept;

/// Force a kernel (tests/bench ablation).  Returns false — leaving the
/// active kernel unchanged — when the host lacks support for `k`.
/// Affects all threads; switch only around single-threaded sections.
bool crc32_set_kernel(CrcKernel k) noexcept;

/// Re-run startup selection: ICKPT_CRC_IMPL=soft|hw|auto, then feature
/// detection.  Returns the kernel selected.
CrcKernel crc32_select_default_kernel() noexcept;

}  // namespace ickpt
