// Micro-benchmarks (google-benchmark) of the primitives underneath
// the measurements: write-fault absorption, interval arming, bitmap
// operations, CRC, and checkpoint serialization throughput.
#include <benchmark/benchmark.h>

#include <cstring>

#include "checkpoint/checkpointer.h"
#include "common/arena.h"
#include "common/crc32.h"
#include "common/units.h"
#include "memtrack/bitmap.h"
#include "memtrack/mprotect_engine.h"
#include "region/address_space.h"
#include "storage/backend.h"

namespace {

using namespace ickpt;

void BM_BitmapSet(benchmark::State& state) {
  memtrack::AtomicBitmap bitmap(1 << 20);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bitmap.set(i));
    i = (i + 4099) & ((1 << 20) - 1);
  }
}
BENCHMARK(BM_BitmapSet);

void BM_BitmapDrain(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  memtrack::AtomicBitmap bitmap(bits);
  std::vector<std::uint32_t> out;
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t i = 0; i < bits; i += 3) bitmap.set(i);
    out.clear();
    state.ResumeTiming();
    bitmap.drain_set_bits(out, bits);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(bits / 3));
}
BENCHMARK(BM_BitmapDrain)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

/// Cost of one absorbed write fault (the paper's per-page overhead).
void BM_WriteFault(benchmark::State& state) {
  const std::size_t pages = 4096;
  PageArena arena(pages * page_size());
  arena.prefault();
  memtrack::MProtectEngine engine;
  auto id = engine.attach(arena.span(), "bm");
  if (!id.is_ok()) state.SkipWithError("attach failed");
  std::size_t page = 0;
  bool armed = false;
  for (auto _ : state) {
    if (page == 0) {
      state.PauseTiming();
      if (!engine.arm().is_ok()) state.SkipWithError("arm failed");
      armed = true;
      state.ResumeTiming();
    }
    arena.data()[page * page_size()] = std::byte{1};  // one fault
    page = (page + 1) % pages;
  }
  if (armed) (void)engine.collect(false);
}
BENCHMARK(BM_WriteFault);

/// Unprotected write to the same memory: the no-tracking baseline.
void BM_WriteNoTracking(benchmark::State& state) {
  const std::size_t pages = 4096;
  PageArena arena(pages * page_size());
  arena.prefault();
  std::size_t page = 0;
  for (auto _ : state) {
    arena.data()[page * page_size()] = std::byte{1};
    page = (page + 1) % pages;
  }
}
BENCHMARK(BM_WriteNoTracking);

/// Arm cost (mprotect + bitmap clear) as a function of region size.
void BM_ArmInterval(benchmark::State& state) {
  const auto pages = static_cast<std::size_t>(state.range(0));
  PageArena arena(pages * page_size());
  arena.prefault();
  memtrack::MProtectEngine engine;
  auto id = engine.attach(arena.span(), "bm");
  if (!id.is_ok()) state.SkipWithError("attach failed");
  for (auto _ : state) {
    if (!engine.arm().is_ok()) state.SkipWithError("arm failed");
  }
  (void)engine.collect(false);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(pages * page_size()));
}
BENCHMARK(BM_ArmInterval)->Arg(256)->Arg(4096)->Arg(65536);

void BM_Crc32(benchmark::State& state) {
  std::vector<std::byte> data(static_cast<std::size_t>(state.range(0)),
                              std::byte{0x5a});
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4096)->Arg(1 << 20);

/// Full-checkpoint serialization throughput into the null backend.
void BM_CheckpointSerialize(benchmark::State& state) {
  memtrack::MProtectEngine engine;
  region::AddressSpace space(engine, "bm");
  const auto mb = static_cast<std::size_t>(state.range(0));
  auto block = space.map(mb * ickpt::kMB, region::AreaKind::kHeap, "data");
  if (!block.is_ok()) state.SkipWithError("map failed");
  std::memset(block->mem.data(), 0x42, block->mem.size());
  auto storage = storage::make_null_backend();
  auto ckpt =
      checkpoint::Checkpointer::create(space, storage.get()).value();
  for (auto _ : state) {
    auto meta = ckpt->checkpoint_full(0.0);
    if (!meta.is_ok()) state.SkipWithError("checkpoint failed");
    benchmark::DoNotOptimize(meta);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(mb * kMB));
}
BENCHMARK(BM_CheckpointSerialize)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
