// Ablation X8: the parallel checkpoint encode pipeline.
//
// Sweeps encode threads x {compress on/off} over a fixed dirty set and
// reports encode+CRC+write throughput as seen by the application
// thread — the quantity that bounds checkpoint intrusiveness (§6.5).
// The dirty set mixes zero, RLE-able and random pages so compression
// does real work without dominating.
#include "bench/bench_util.h"

#include <chrono>
#include <cstring>
#include <filesystem>

#include "checkpoint/checkpointer.h"
#include "common/page.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "memtrack/explicit_engine.h"
#include "region/address_space.h"
#include "storage/backend.h"
#include "storage/segment_backend.h"

using namespace ickpt;
using namespace ickpt::bench;

namespace {

void fill_mixed(std::span<std::byte> mem, Rng& rng) {
  const std::size_t psize = page_size();
  for (std::size_t off = 0; off + psize <= mem.size(); off += psize) {
    auto page = mem.subspan(off, psize);
    switch (rng.next_index(8)) {
      case 0:  // zero page
        std::memset(page.data(), 0, page.size());
        break;
      case 1: {  // constant-word page (RLE-able)
        std::uint64_t w = rng.next_u64();
        for (std::size_t i = 0; i + 8 <= page.size(); i += 8) {
          std::memcpy(page.data() + i, &w, 8);
        }
        break;
      }
      default:  // incompressible noise
        for (std::size_t i = 0; i + 8 <= page.size(); i += 8) {
          std::uint64_t w = rng.next_u64();
          std::memcpy(page.data() + i, &w, 8);
        }
        break;
    }
  }
}

/// Seconds the application thread spends producing `reps` full
/// checkpoints into `storage`; each is published when its call returns.
double time_config_into(region::AddressSpace& space,
                        storage::StorageBackend& storage, int threads,
                        bool compress, int reps) {
  checkpoint::CheckpointerOptions opts;
  opts.compress = compress;
  opts.encode_threads = threads;
  auto ckpt =
      checkpoint::Checkpointer::create(space, &storage, opts).value();

  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    auto meta = ckpt->checkpoint_full(static_cast<double>(r));
    if (!meta.is_ok()) {
      std::cerr << "checkpoint failed: " << meta.status().to_string()
                << "\n";
      std::exit(1);
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double time_config(region::AddressSpace& space, int threads, bool compress,
                   int reps) {
  auto storage = storage::make_null_backend();
  return time_config_into(space, *storage, threads, compress, reps);
}

/// Seconds to publish `count` small objects (one incremental-sized
/// record each) into `backend` — the many-small-objects cliff: every
/// FileBackend object costs open + rename + two durable syncs + a
/// directory entry, while the segment store pays one append + one
/// fdatasync on an already-open fd.
double time_small_objects(storage::StorageBackend& backend, int count,
                          std::span<const std::byte> payload) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < count; ++i) {
    auto writer = backend.create("small/" + std::to_string(i));
    if (!writer.is_ok() || !(*writer)->write(payload).is_ok() ||
        !(*writer)->close().is_ok()) {
      std::cerr << "small-object write " << i << " failed\n";
      std::exit(1);
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args;
  int mb_flag = 0;
  int reps_flag = 0;
  FlagSet flags("ablation_parallel_encode");
  args.register_flags(flags);
  flags.add_int("mb", &mb_flag, "dirty-set size in MB (0 = default)");
  flags.add_int("reps", &reps_flag, "full checkpoints per config (0 = default)");
  parse_or_exit(flags, argc, argv);

  const std::size_t mb =
      mb_flag > 0 ? static_cast<std::size_t>(mb_flag) : (args.quick ? 16 : 64);
  const int reps = reps_flag > 0 ? reps_flag : (args.quick ? 1 : 3);
  const std::vector<int> thread_sweep =
      args.quick ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};

  memtrack::ExplicitEngine engine;
  region::AddressSpace space(engine, "bench");
  auto block = space.map(mb * kMB, region::AreaKind::kHeap, "dirty-set");
  if (!block.is_ok()) return 1;
  Rng rng(2026);
  fill_mixed(block->mem, rng);
  const double set_mb = static_cast<double>(block->mem.size()) /
                        static_cast<double>(kMB);

  const double hw = static_cast<double>(ThreadPool::hardware_threads());
  TextTable table("Ablation X8 - parallel encode pipeline (" +
                  TextTable::num(set_mb, 0) + " MB dirty set, full "
                  "checkpoints x" + TextTable::num(reps, 0) + ", " +
                  TextTable::num(hw, 0) + " hardware threads)");
  table.set_header({"Threads", "Compress", "Sink", "Seconds", "MB/s",
                    "Speedup vs 1T"});

  BenchJson bench_json("encode", args);
  const std::uint64_t arm_bytes =
      block->mem.size() * static_cast<std::uint64_t>(reps);
  for (bool compress : {true, false}) {
    double base_rate = 0;
    for (int threads : thread_sweep) {
      // The "_sync" suffix keeps arm names comparable with older records.
      const std::string arm_name = "t" + std::to_string(threads) +
                                   (compress ? "_compress" : "_raw") + "_sync";
      double secs = 0;
      bench_json.run_arm(arm_name, arm_bytes, [&] {
        secs = time_config(space, threads, compress, reps);
      });
      const double rate = set_mb * reps / secs;
      if (threads == 1) base_rate = rate;
      table.add_row({TextTable::num(threads, 0), compress ? "on" : "off",
                     "null", TextTable::num(secs, 3), TextTable::num(rate, 0),
                     TextTable::num(base_rate > 0 ? rate / base_rate : 1, 2)});
    }
  }
  // File-sink arm: the same encode against a real filesystem.
  const int file_threads = thread_sweep.back();
  {
    const std::string dir = "ablation_parallel_encode_sink";
    std::filesystem::remove_all(dir);
    auto file_backend = storage::make_file_backend(dir);
    if (!file_backend.is_ok()) {
      std::cerr << "file backend: " << file_backend.status().to_string()
                << "\n";
      return 1;
    }
    double secs = 0;
    bench_json.run_arm("file_buffered_write", arm_bytes, [&] {
      secs = time_config_into(space, **file_backend, file_threads,
                              /*compress=*/false, reps);
    });
    table.add_row({TextTable::num(file_threads, 0), "off", "file",
                   TextTable::num(secs, 3),
                   TextTable::num(set_mb * reps / secs, 0),
                   TextTable::num(1.0, 2)});
    std::filesystem::remove_all(dir);
  }

  // Segment-sink arm: the same encode into the log-structured store.
  {
    const std::string dir = "ablation_parallel_encode_segsink";
    std::filesystem::remove_all(dir);
    auto seg_backend = storage::make_segment_backend(dir);
    if (!seg_backend.is_ok()) {
      std::cerr << "segment backend: " << seg_backend.status().to_string()
                << "\n";
      return 1;
    }
    double secs = 0;
    bench_json.run_arm("segment_write", arm_bytes, [&] {
      secs = time_config_into(space, **seg_backend, file_threads,
                              /*compress=*/false, reps);
    });
    table.add_row({TextTable::num(file_threads, 0), "off", "segment",
                   TextTable::num(secs, 3),
                   TextTable::num(set_mb * reps / secs, 0),
                   TextTable::num(1.0, 2)});
    seg_backend->reset();
    std::filesystem::remove_all(dir);
  }

  // Many-small-objects arms: publish `small_count` tiny objects with
  // default (durable) options through each backend.  This is the
  // workload shape of frequent small incrementals, where FileBackend's
  // per-object metadata cost dominates.
  {
    const int small_count = args.quick ? 2000 : 12000;
    const std::size_t small_size = 2 * 1024;
    std::vector<std::byte> payload(small_size);
    Rng prng(7);
    for (auto& b : payload) b = static_cast<std::byte>(prng.next_u64());
    const std::uint64_t small_bytes =
        static_cast<std::uint64_t>(small_count) * small_size;
    for (bool segment : {false, true}) {
      const std::string dir = "ablation_parallel_encode_smallobj";
      std::filesystem::remove_all(dir);
      Result<std::unique_ptr<storage::StorageBackend>> backend =
          segment ? storage::make_segment_backend(dir)
                  : storage::make_file_backend(dir);
      if (!backend.is_ok()) {
        std::cerr << "smallobj backend: " << backend.status().to_string()
                  << "\n";
        return 1;
      }
      double secs = 0;
      bench_json.run_arm(segment ? "smallobj_segment" : "smallobj_file",
                         small_bytes, [&] {
                           secs = time_small_objects(**backend, small_count,
                                                     payload);
                         });
      table.add_row({TextTable::num(1, 0), "off",
                     segment ? "smallobj segment" : "smallobj file",
                     TextTable::num(secs, 3),
                     TextTable::num(static_cast<double>(small_bytes) /
                                        static_cast<double>(kMB) / secs,
                                    1),
                     TextTable::num(1.0, 2)});
      backend->reset();
      std::filesystem::remove_all(dir);
    }
  }

  finish(table, "ablation_parallel_encode.csv");
  bench_json.write(args);
  std::cout << "sharded encode + CRC combine lifts the single-core "
               "ceiling on checkpoint intrusiveness\n";
  if (hw < 2) {
    std::cout << "note: only " << hw << " hardware thread available -- "
                 "speedup columns reflect scheduling overhead, not "
                 "scaling; run on a multi-core host to observe it\n";
  }
  return 0;
}
