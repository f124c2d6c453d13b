// Ablation X10: hardware-primitive fast paths.
//
// Measures the page-granular primitives that sit on every checkpoint
// byte: CRC-32 (slice-by-8 vs the dispatched hardware kernel) and the
// zero-page filter.  Buffers are ~64 KiB — the shard/segment
// granularity the encode and restore pipelines actually hash at — so
// the reported MB/s is what those pipelines see, not a cold-cache or
// whole-file number.
//
// The bench prints the kernels detected on this host and asserts the
// dispatch contract from docs/PERF.md: every available kernel produces
// bit-identical CRCs (including crc32_combine stitching across kernel
// boundaries), the hardware kernel is at least 3x slice-by-8 when
// present, and on soft-only hosts auto selection lands on slice-by-8.
//
// The crc_combine arm times crc32_combine at the lengths the encode
// and restore stitchers fold (4 KiB, 64 KiB, 32 MiB) and asserts that
// stitching a 64 KiB shard's CRC costs less than hashing those 64 KiB
// with the active kernel.
#include "bench/bench_util.h"

#include <chrono>
#include <cstring>

#include "checkpoint/compress.h"
#include "common/crc32.h"
#include "common/page.h"
#include "common/rng.h"

using namespace ickpt;
using namespace ickpt::bench;

namespace {

constexpr std::size_t kBufSize = 64 * 1024;

/// Hash `total` bytes through `buf` in one-buffer updates and return
/// MB/s; the CRC is accumulated into a sink so the loop can't be
/// dead-code eliminated.
double crc_throughput(std::span<const std::byte> buf, std::uint64_t total,
                      std::uint32_t* sink) {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t done = 0;
  while (done < total) {
    *sink ^= crc32(buf);
    done += buf.size();
  }
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return static_cast<double>(done) / kMB / s;
}

/// Fold `calls` combines of a `len_b`-byte range into one running CRC
/// (the serial chain a stitch makes) and return ns per call.
double combine_ns(std::uint64_t len_b, std::uint64_t calls,
                  std::uint32_t* sink) {
  std::uint32_t c = *sink;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < calls; ++i) {
    c = crc32_combine(c, static_cast<std::uint32_t>(i), len_b);
  }
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  *sink = c;
  return s * 1e9 / static_cast<double>(calls);
}

double zero_scan_throughput(std::span<const std::byte> pages,
                            std::uint64_t total, std::uint64_t* hits) {
  const std::size_t psize = page_size();
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t done = 0;
  while (done < total) {
    for (std::size_t off = 0; off + psize <= pages.size(); off += psize) {
      *hits += checkpoint::is_zero_page(pages.subspan(off, psize)) ? 1 : 0;
    }
    done += pages.size();
  }
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return static_cast<double>(done) / kMB / s;
}

void die(const std::string& msg) {
  std::cerr << "X10 FAILED: " << msg << "\n";
  std::exit(1);
}

/// The acceptance identity check: every available kernel agrees with
/// slice-by-8 over awkward lengths/alignments, and combine() stitches
/// pieces hashed by different kernels.
void check_kernel_identity(std::span<const std::byte> data) {
  const CrcKernel active = crc32_active_kernel();
  std::vector<std::uint32_t> soft;
  crc32_set_kernel(CrcKernel::kSlice8);
  for (std::size_t len : {0u, 1u, 63u, 64u, 65u, 4096u, 65521u}) {
    for (std::size_t align : {0u, 1u, 7u, 13u}) {
      soft.push_back(crc32({data.data() + align, len}));
    }
  }
  const std::uint32_t head_soft = crc32({data.data(), 1000});
  const std::uint32_t whole_soft = crc32({data.data(), 65536});

  for (CrcKernel k : {CrcKernel::kPclmul, CrcKernel::kArmCrc}) {
    if (!crc32_kernel_available(k)) continue;
    crc32_set_kernel(k);
    std::size_t i = 0;
    for (std::size_t len : {0u, 1u, 63u, 64u, 65u, 4096u, 65521u}) {
      for (std::size_t align : {0u, 1u, 7u, 13u}) {
        if (crc32({data.data() + align, len}) != soft[i++]) {
          die(std::string(crc32_kernel_name(k)) + " disagrees with slice8");
        }
      }
    }
    // Stitch a soft head onto a hardware tail.
    const std::uint32_t tail_hw = crc32({data.data() + 1000, 65536 - 1000});
    if (crc32_combine(head_soft, tail_hw, 65536 - 1000) != whole_soft) {
      die(std::string(crc32_kernel_name(k)) +
          " combine stitching across kernels broke");
    }
  }
  crc32_set_kernel(active);
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args;
  FlagSet flags("ablation_hw_primitives");
  args.register_flags(flags);
  parse_or_exit(flags, argc, argv);

  std::cout << "crc kernels: slice8=yes pclmul="
            << (crc32_kernel_available(CrcKernel::kPclmul) ? "yes" : "no")
            << " armv8-crc="
            << (crc32_kernel_available(CrcKernel::kArmCrc) ? "yes" : "no")
            << " active=" << crc32_kernel_name(crc32_active_kernel()) << "\n";

  Rng rng(2026);
  std::vector<std::byte> data(kBufSize + 64);
  for (auto& b : data) b = static_cast<std::byte>(rng.next_u64() & 0xff);
  check_kernel_identity(data);

  const bool have_hw = crc32_kernel_available(CrcKernel::kPclmul) ||
                       crc32_kernel_available(CrcKernel::kArmCrc);
  if (!have_hw && crc32_select_default_kernel() != CrcKernel::kSlice8) {
    die("soft-only host must auto-select slice8");
  }

  // Enough repetitions for a stable rate; ~64 KiB buffers stay in L2,
  // which is the hot-loop shape of shard hashing.
  const std::uint64_t crc_total =
      (args.quick ? 64ull : 4096ull) * kMB;
  std::span<const std::byte> buf{data.data(), kBufSize};

  TextTable table("Ablation X10 - hardware primitives (64 KiB buffers)");
  table.set_header({"Primitive", "Kernel", "MB/s", "Speedup vs soft"});
  BenchJson bench_json("crc", args);

  std::uint32_t sink = 0;
  double rate_of[3] = {};  // MB/s, indexed by CrcKernel
  double soft_rate = 0;
  crc32_set_kernel(CrcKernel::kSlice8);
  bench_json.run_arm("crc_soft_64k", crc_total, [&] {
    soft_rate = crc_throughput(buf, crc_total, &sink);
  });
  rate_of[static_cast<int>(CrcKernel::kSlice8)] = soft_rate;
  table.add_row({"crc32", "slice8", TextTable::num(soft_rate, 0),
                 TextTable::num(1.0, 2)});

  for (CrcKernel k : {CrcKernel::kPclmul, CrcKernel::kArmCrc}) {
    if (!crc32_kernel_available(k)) continue;
    crc32_set_kernel(k);
    double hw_rate = 0;
    bench_json.run_arm(std::string("crc_hw_") + crc32_kernel_name(k) + "_64k",
                       crc_total,
                       [&] { hw_rate = crc_throughput(buf, crc_total, &sink); });
    rate_of[static_cast<int>(k)] = hw_rate;
    const double speedup = hw_rate / soft_rate;
    table.add_row({"crc32", crc32_kernel_name(k), TextTable::num(hw_rate, 0),
                   TextTable::num(speedup, 2)});
    if (speedup < 3.0) {
      die(std::string(crc32_kernel_name(k)) + " only " +
          TextTable::num(speedup, 2) + "x slice8 (want >= 3x)");
    }
  }
  const CrcKernel active = crc32_select_default_kernel();

  // crc32_combine touches no payload (bytes = 0): wall_s over the
  // 3 x kCombineCalls calls is the mean cost of one stitch.
  struct CombineCase {
    const char* label;
    std::uint64_t len_b;
    double ns = 0;
  };
  CombineCase combines[] = {
      {"4 KiB", 4 * 1024}, {"64 KiB", kBufSize}, {"32 MiB", 32 * kMB}};
  constexpr std::uint64_t kCombineCalls = 100000;
  bench_json.run_arm("crc_combine", 0, [&] {
    for (auto& c : combines) c.ns = combine_ns(c.len_b, kCombineCalls, &sink);
  });
  TextTable combine_table(std::string("Ablation X10 - crc32_combine vs "
                                      "hashing with the active kernel (") +
                          crc32_kernel_name(active) + ")");
  combine_table.set_header(
      {"len_b", "ns/combine", "ns to hash", "hash/combine"});
  const double active_rate = rate_of[static_cast<int>(active)];
  double hash_64k_ns = 0;
  for (const auto& c : combines) {
    const double hash_ns = static_cast<double>(c.len_b) /
                           (active_rate * static_cast<double>(kMB)) * 1e9;
    if (c.len_b == kBufSize) hash_64k_ns = hash_ns;
    combine_table.add_row({c.label, TextTable::num(c.ns, 3),
                           TextTable::num(hash_ns, 0),
                           TextTable::num(hash_ns / c.ns, 0)});
  }
  // Stitching exists to avoid re-reading bytes; it must never cost
  // more than hashing the range it stands for.
  if (combines[1].ns >= hash_64k_ns) {
    die("64 KiB crc32_combine (" + TextTable::num(combines[1].ns, 0) +
        " ns) not cheaper than hashing 64 KiB (" +
        TextTable::num(hash_64k_ns, 0) + " ns)");
  }

  // Zero-page filter: the all-zero scan is the worst case (every byte
  // inspected); the dirty scan must be far faster via the per-block
  // early-out.
  const std::uint64_t zero_total = (args.quick ? 64ull : 2048ull) * kMB;
  std::vector<std::byte> zeros(kBufSize, std::byte{0});
  std::vector<std::byte> dirty(kBufSize, std::byte{0});
  for (std::size_t off = 0; off < dirty.size(); off += page_size()) {
    dirty[off] = std::byte{1};
  }
  std::uint64_t hits = 0;
  double zero_rate = 0;
  double dirty_rate = 0;
  bench_json.run_arm("zero_page_scan_allzero", zero_total, [&] {
    zero_rate = zero_scan_throughput(zeros, zero_total, &hits);
  });
  bench_json.run_arm("zero_page_scan_dirty", zero_total, [&] {
    dirty_rate = zero_scan_throughput(dirty, zero_total, &hits);
  });
  table.add_row({"is_zero_page", "all-zero", TextTable::num(zero_rate, 0),
                 TextTable::num(1.0, 2)});
  table.add_row({"is_zero_page", "dirty (early-out)",
                 TextTable::num(dirty_rate, 0),
                 TextTable::num(dirty_rate / zero_rate, 2)});
  // Floors: full scans must at least keep pace with a fast disk, and
  // the early-out must make dirty pages markedly cheaper.  Both are
  // far below what any 2020s core does; they catch regressions to
  // byte-at-a-time scanning, not host variance.
  if (zero_rate < 1024) die("is_zero_page below 1 GB/s on zero pages");
  if (dirty_rate < 2 * zero_rate) {
    die("is_zero_page early-out missing (dirty scan not faster)");
  }
  if (hits == 0) die("zero scan found no zero pages (broken filter)");

  finish(table, "ablation_hw_primitives.csv");
  finish(combine_table, "ablation_hw_primitives_combine.csv");
  bench_json.write(args);
  std::cout << "crc arms hash 64 KiB resident buffers (shard-hash shape); "
               "dispatch: ICKPT_CRC_IMPL=soft|hw|auto, see docs/PERF.md\n";
  return 0;
}
