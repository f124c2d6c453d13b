// Ablation X9: the plan-then-decode restore pipeline.
//
// Builds full+incremental chains of increasing length over a mixed
// dirty set, then restores each chain three ways — the serial
// reference (parse everything, overlay in memory), the planned
// pipeline with one decode thread, and the planned pipeline with a
// worker pool — and reports wall time, restored throughput and how
// many pages the plan decoded vs skipped as superseded.  Store-backed
// arms restore from a file store, a segment store, and a segment store
// served by an in-process ickptd core through RemoteBackend, where
// every probe and decode read is a loopback round trip.  Byte identity
// against the serial restorer is asserted on every configuration.
#include "bench/bench_util.h"

#include <chrono>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <thread>

#include "checkpoint/checkpointer.h"
#include "checkpoint/restore.h"
#include "common/page.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "memtrack/explicit_engine.h"
#include "net/remote_backend.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "region/address_space.h"
#include "storage/backend.h"
#include "storage/segment_backend.h"
#include "tests/support/serial_restore.h"

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

/// Write a full checkpoint plus `incrementals` deltas, each dirtying a
/// random eighth of the pages, into `storage`.
void build_chain(storage::StorageBackend& storage, std::size_t mb,
                 int incrementals, Rng& rng) {
  memtrack::ExplicitEngine engine;
  region::AddressSpace space(engine, "bench");
  auto block = space.map(mb * kMB, region::AreaKind::kHeap, "state");
  if (!block.is_ok()) std::exit(1);
  fill_mixed(block->mem, rng);

  auto ckpt = checkpoint::Checkpointer::create(space, &storage).value();
  if (!ckpt->checkpoint_full(0.0).is_ok()) std::exit(1);
  if (!engine.arm().is_ok()) std::exit(1);

  const std::size_t psize = page_size();
  const std::size_t pages = block->mem.size() / psize;
  for (int i = 0; i < incrementals; ++i) {
    for (std::size_t k = 0; k < pages / 8; ++k) {
      const std::size_t p = rng.next_index(pages);
      auto page = block->mem.subspan(p * psize, psize);
      fill_mixed(page, rng);
      engine.note_write(page.data(), page.size());
    }
    auto snap = engine.collect(true);
    if (!snap.is_ok()) std::exit(1);
    if (!ckpt->checkpoint_incremental(*snap, 1.0 + i).is_ok()) std::exit(1);
  }
}

bool states_identical(const checkpoint::RestoredState& a,
                      const checkpoint::RestoredState& b) {
  if (a.sequence != b.sequence || a.blocks.size() != b.blocks.size()) {
    return false;
  }
  for (const auto& [id, block] : a.blocks) {
    auto it = b.blocks.find(id);
    if (it == b.blocks.end()) return false;
    if (block.data.size() != it->second.data.size()) return false;
    if (std::memcmp(block.data.data(), it->second.data.data(),
                    block.data.size()) != 0) {
      return false;
    }
  }
  return true;
}

struct Timed {
  double seconds = 0;
  std::uint64_t decoded = 0;
  std::uint64_t skipped = 0;
};

template <typename F>
Timed time_restore(F&& restore, int reps) {
  auto& reg = obs::registry();
  auto& decoded = reg.counter("restore.pages_decoded");
  auto& skipped = reg.counter("restore.pages_skipped");
  const std::uint64_t d0 = decoded.value();
  const std::uint64_t s0 = skipped.value();
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) restore();
  Timed out;
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count() /
      reps;
  out.decoded = (decoded.value() - d0) / reps;
  out.skipped = (skipped.value() - s0) / reps;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args;
  int mb_flag = 0;
  int reps_flag = 0;
  FlagSet flags("ablation_restore");
  args.register_flags(flags);
  flags.add_int("mb", &mb_flag, "state size in MB (0 = default)");
  flags.add_int("reps", &reps_flag, "restores per config (0 = default)");
  parse_or_exit(flags, argc, argv);

  const std::size_t mb =
      mb_flag > 0 ? static_cast<std::size_t>(mb_flag) : (args.quick ? 8 : 32);
  const int reps = reps_flag > 0 ? reps_flag : (args.quick ? 1 : 9);
  const std::vector<int> chain_sweep =
      args.quick ? std::vector<int>{3, 7} : std::vector<int>{0, 3, 7, 15, 31};
  const int pool_threads =
      std::max(2, static_cast<int>(ThreadPool::hardware_threads()));

  const double hw = static_cast<double>(ThreadPool::hardware_threads());
  TextTable table("Ablation X9 - plan-then-decode restore (" +
                  TextTable::num(static_cast<double>(mb), 0) +
                  " MB state, restores x" + TextTable::num(reps, 0) + ", " +
                  TextTable::num(hw, 0) + " hardware threads)");
  table.set_header({"Chain", "Variant", "Seconds", "MB/s", "Decoded",
                    "Skipped", "Speedup vs serial"});

  // The largest arm (the remote 1+31 chain, 9 restores) emits about
  // 130,000 trace events; the ring must hold a whole arm, or its phase
  // rollup silently loses spans.
  obs::start_tracing(std::size_t{1} << 18);
  BenchJson bench_json("restore", args);
  const std::uint64_t arm_bytes =
      static_cast<std::uint64_t>(mb) * kMB * static_cast<std::uint64_t>(reps);
  Rng rng(2026);
  for (int incrementals : chain_sweep) {
    auto storage = storage::make_memory_backend();
    build_chain(*storage, mb, incrementals, rng);
    const std::string chain_label = "1+" + std::to_string(incrementals);

    // Serial reference first: its output is the identity oracle.
    checkpoint::RestoredState reference;
    Timed serial;
    bench_json.run_arm("chain" + chain_label + "_serial", arm_bytes, [&] {
      serial = time_restore(
          [&] {
            auto s = checkpoint::restore_chain_serial(*storage, 0);
            if (!s.is_ok()) std::exit(1);
            reference = std::move(s.value());
          },
          reps);
    });

    struct Variant {
      const char* name;
      int threads;
    };
    const Variant variants[] = {{"serial", 0},
                                {"planned 1T", 1},
                                {"planned pool", pool_threads}};
    for (const Variant& v : variants) {
      Timed t;
      if (v.threads == 0) {
        t = serial;
      } else {
        checkpoint::RestoreOptions opts;
        opts.decode_threads = v.threads;
        const std::string arm_name =
            "chain" + chain_label +
            (v.threads == 1 ? "_planned_1t" : "_planned_pool");
        bench_json.run_arm(arm_name, arm_bytes, [&] {
          t = time_restore(
              [&] {
                auto s = checkpoint::restore_chain(*storage, 0, opts);
                if (!s.is_ok()) std::exit(1);
                if (!states_identical(reference, *s)) {
                  std::cerr << "BYTE IDENTITY FAILED: " << v.name
                            << " differs from serial restore (chain "
                            << chain_label << ")\n";
                  std::exit(1);
                }
              },
              reps);
        });
      }
      const double set_mb = static_cast<double>(mb);
      table.add_row(
          {chain_label, v.name, TextTable::num(t.seconds, 4),
           TextTable::num(set_mb / t.seconds, 0),
           TextTable::num(static_cast<double>(t.decoded), 0),
           TextTable::num(static_cast<double>(t.skipped), 0),
           TextTable::num(serial.seconds > 0 ? serial.seconds / t.seconds : 1,
                          2)});
    }
  }
  // Store-backed arms: the same shape of chain on a real filesystem, in
  // the log-structured segment store, and in a segment store behind an
  // in-process ickptd core, decoded through read_at.  Byte identity
  // against the serial restorer is asserted as above.
  struct StoreVariant {
    const char* suffix;  ///< of the arm name
    const char* label;   ///< table row
    int threads;
  };
  auto store_arms = [&](const std::string& kind,
                        storage::StorageBackend& store, int incrementals,
                        std::initializer_list<StoreVariant> store_variants) {
    const std::string label = "1+" + std::to_string(incrementals);
    build_chain(store, mb, incrementals, rng);
    auto reference = checkpoint::restore_chain_serial(store, 0);
    if (!reference.is_ok()) std::exit(1);
    for (const StoreVariant& v : store_variants) {
      checkpoint::RestoreOptions opts;
      opts.decode_threads = v.threads;
      Timed t;
      bench_json.run_arm(kind + "_chain" + label + v.suffix, arm_bytes, [&] {
        t = time_restore(
            [&] {
              auto s = checkpoint::restore_chain(store, 0, opts);
              if (!s.is_ok()) std::exit(1);
              if (!states_identical(*reference, *s)) {
                std::cerr << "BYTE IDENTITY FAILED: " << kind << "-backed "
                          << v.label << "\n";
                std::exit(1);
              }
            },
            reps);
      });
      table.add_row({label + " (" + kind + ")", v.label,
                     TextTable::num(t.seconds, 4),
                     TextTable::num(static_cast<double>(mb) / t.seconds, 0),
                     TextTable::num(static_cast<double>(t.decoded), 0),
                     TextTable::num(static_cast<double>(t.skipped), 0), "-"});
    }
  };
  const int store_incrementals = args.quick ? 3 : 7;
  {
    const std::string dir = "ablation_restore_chain";
    std::filesystem::remove_all(dir);
    auto file_backend = storage::make_file_backend(dir);
    if (!file_backend.is_ok()) {
      std::cerr << "file backend: " << file_backend.status().to_string()
                << "\n";
      return 1;
    }
    store_arms("file", **file_backend, store_incrementals,
               {{"_read", "read decode", pool_threads},
                {"_planned_1t", "planned 1T", 1}});
    std::filesystem::remove_all(dir);
  }
  {
    const std::string dir = "ablation_restore_segchain";
    std::filesystem::remove_all(dir);
    auto seg_backend = storage::make_segment_backend(dir);
    if (!seg_backend.is_ok()) {
      std::cerr << "segment backend: " << seg_backend.status().to_string()
                << "\n";
      return 1;
    }
    store_arms("segment", **seg_backend, store_incrementals,
               {{"_read", "read decode", pool_threads}});
    seg_backend->reset();
    std::filesystem::remove_all(dir);
  }
  {
    const std::string dir = "ablation_restore_remote";
    std::filesystem::remove_all(dir);
    auto seg_backend = storage::make_segment_backend(dir);
    if (!seg_backend.is_ok()) {
      std::cerr << "segment backend: " << seg_backend.status().to_string()
                << "\n";
      return 1;
    }
    auto server = net::Server::create(**seg_backend);
    if (!server.is_ok()) {
      std::cerr << "server: " << server.status().to_string() << "\n";
      return 1;
    }
    std::thread serve([&] { (void)(*server)->serve(); });
    storage::RemoteBackendOptions options;
    options.port = (*server)->port();
    auto remote = storage::make_remote_backend(options);
    if (!remote.is_ok()) {
      std::cerr << "connect: " << remote.status().to_string() << "\n";
      return 1;
    }
    store_arms("remote", **remote, args.quick ? 7 : 31,
               {{"_planned_1t", "planned 1T", 1},
                {"_planned_pool", "planned pool", pool_threads}});
    remote->reset();
    (*server)->stop();
    serve.join();
    seg_backend->reset();
    std::filesystem::remove_all(dir);
  }

  finish(table, "ablation_restore.csv");
  bench_json.write(args);
  std::cout << "the plan reads and decodes only the chunks holding a "
               "surviving page (Skipped = superseded writes the serial path "
               "decoded for nothing); the pool spreads those reads\n";
  if (hw < 2) {
    std::cout << "note: only " << hw << " hardware thread available -- "
                 "pool speedup reflects scheduling overhead, not scaling; "
                 "run on a multi-core host to observe it\n";
  }
  return 0;
}
