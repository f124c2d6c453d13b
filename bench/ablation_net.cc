// Ablation X11: the network checkpoint store under concurrent load.
//
// Starts an in-process ickptd core (net::Server over a memory backend,
// loopback TCP) and drives it with N client threads, each streaming M
// chain-style objects through its own RemoteBackend connection — the
// exact PUT_BEGIN/PUT_DATA/PUT_END and ranged-GET paths the
// Checkpointer and restore pipeline use.  Arms sweep the stream count
// (1, 8, 64) for puts and gets separately; every GET is verified
// byte-for-byte against the generator, and the run fails hard if the
// server counted a single protocol error or dropped a byte.
//
// Each arm repeats its pass (9 times, once with --quick), as X9
// repeats its restores, so that one slow pass does not set the arm:
// every put pass writes fresh keys, and every get pass reads the last
// put pass's objects back.
#include "bench/bench_util.h"

#include <atomic>
#include <cstring>
#include <filesystem>
#include <thread>

#include "common/rng.h"
#include "net/remote_backend.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "storage/backend.h"
#include "storage/segment_backend.h"

using namespace ickpt;
using namespace ickpt::bench;

namespace {

std::vector<std::byte> object_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i + 8 <= n; i += 8) {
    const std::uint64_t w = rng.next_u64();
    std::memcpy(out.data() + i, &w, 8);
  }
  return out;
}

std::string object_key(std::size_t pass, std::size_t thread,
                       std::size_t index) {
  return "pass" + std::to_string(pass) + "/rank" + std::to_string(thread) +
         "/ckpt-" + std::to_string(index);
}

std::uint64_t object_seed(std::size_t pass, std::size_t thread,
                          std::size_t index) {
  return (pass * 1000 + thread) * 1000 + index;
}

struct Workload {
  std::size_t streams = 1;
  std::size_t objects_per_stream = 4;   ///< M chain elements per client
  std::size_t object_size = 1u << 20;

  std::uint64_t pass_bytes() const {
    return static_cast<std::uint64_t>(streams) * objects_per_stream *
           object_size;
  }
};

/// Run `fn(thread_index)` on `streams` threads and propagate failure.
template <typename F>
bool fan_out(std::size_t streams, F&& fn) {
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  threads.reserve(streams);
  for (std::size_t t = 0; t < streams; ++t) {
    threads.emplace_back([&, t] {
      if (!fn(t)) ok.store(false, std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();
  return ok.load();
}

bool put_all(storage::StorageBackend& store, const Workload& w,
             std::size_t pass, std::size_t thread) {
  for (std::size_t i = 0; i < w.objects_per_stream; ++i) {
    const auto bytes =
        object_bytes(w.object_size, object_seed(pass, thread, i));
    auto writer = store.create(object_key(pass, thread, i));
    if (!writer.is_ok()) return false;
    // Chain-style streaming: several write() calls per object, the
    // shape the encode pipeline produces.
    std::span<const std::byte> rest(bytes);
    while (!rest.empty()) {
      const std::size_t n = std::min<std::size_t>(rest.size(), 192 * 1024);
      if (!(*writer)->write(rest.first(n)).is_ok()) return false;
      rest = rest.subspan(n);
    }
    if (!(*writer)->close().is_ok()) return false;
  }
  return true;
}

bool get_all(storage::StorageBackend& store, const Workload& w,
             std::size_t pass, std::size_t thread) {
  std::vector<std::byte> got(w.object_size);
  for (std::size_t i = 0; i < w.objects_per_stream; ++i) {
    auto reader = store.open(object_key(pass, thread, i));
    if (!reader.is_ok()) return false;
    if ((*reader)->size() != w.object_size) return false;
    std::size_t off = 0;
    while (off < got.size()) {
      auto n = (*reader)->read({got.data() + off, got.size() - off});
      if (!n.is_ok() || *n == 0) break;
      off += *n;
    }
    const auto expect =
        object_bytes(w.object_size, object_seed(pass, thread, i));
    if (off != expect.size() ||
        std::memcmp(got.data(), expect.data(), off) != 0) {
      return false;
    }
  }
  return true;
}

/// The put and get arms of one store: `passes` put passes, each under
/// fresh keys, then `passes` get passes of the last put pass's objects.
/// `between_puts` runs off the clock before every put pass but the
/// first.
template <typename F>
bool run_arms(BenchJson& json, TextTable& table, const std::string& prefix,
              storage::StorageBackend& remote, const Workload& w,
              std::size_t passes, F&& between_puts) {
  bool all_ok = true;
  for (const bool put : {true, false}) {
    const std::string arm =
        prefix + (put ? "put_s" : "get_s") + std::to_string(w.streams);
    bool ok = true;
    const double wall = json.run_arm(arm, w.pass_bytes() * passes, [&] {
      for (std::size_t pass = 0; pass < passes && ok; ++pass) {
        if (put && pass > 0) json.untimed(between_puts);
        ok = fan_out(w.streams, [&](std::size_t t) {
          return put ? put_all(remote, w, pass, t)
                     : get_all(remote, w, passes - 1, t);
        });
      }
    });
    const double mb = static_cast<double>(w.pass_bytes() * passes) /
                      (1024.0 * 1024.0);
    table.add_row({arm, std::to_string(w.streams), TextTable::num(mb, 1),
                   TextTable::num(wall, 3), TextTable::num(mb / wall, 1)});
    if (!ok) {
      std::cerr << arm << ": FAILED (error or byte mismatch)\n";
      all_ok = false;
    }
  }
  return all_ok;
}

Result<std::unique_ptr<storage::StorageBackend>> connect(
    std::uint16_t port, std::size_t streams) {
  storage::RemoteBackendOptions options;
  options.host = "127.0.0.1";
  options.port = port;
  options.pool_size = streams;  // one pooled socket per stream
  options.io_timeout_s = 120.0;
  return storage::make_remote_backend(options);
}

/// Remove every object from `store`.
void clear(storage::StorageBackend& store) {
  auto keys = store.list();
  if (keys.is_ok()) {
    for (const auto& key : *keys) (void)store.remove(key);
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args;
  FlagSet flags("ablation_net");
  args.register_flags(flags);
  parse_or_exit(flags, argc, argv);

  const std::size_t passes = args.quick ? 1 : 9;
  Workload w;
  w.objects_per_stream = args.quick ? 2 : 4;
  w.object_size = args.quick ? 256u * 1024 : 1u << 20;

  auto backend = storage::make_memory_backend();
  auto server = net::Server::create(*backend);
  if (!server.is_ok()) {
    std::cerr << "server: " << server.status().to_string() << "\n";
    return 1;
  }
  std::thread serve_thread([&] { (void)(*server)->serve(); });

  auto& protocol_errors = obs::registry().counter("net.protocol_errors");
  const std::uint64_t errors_before = protocol_errors.value();

  BenchJson json("net", args);
  TextTable table("Ablation X11 - network store under concurrent load (" +
                  std::to_string(passes) + " passes per arm)");
  table.set_header({"arm", "streams", "MB", "wall_s", "MB/s"});

  bool all_ok = true;
  for (std::size_t streams : {std::size_t{1}, std::size_t{8},
                              std::size_t{64}}) {
    w.streams = streams;
    auto remote = connect((*server)->port(), streams);
    if (!remote.is_ok()) {
      std::cerr << "connect: " << remote.status().to_string() << "\n";
      return 1;
    }
    // The memory store holds one pass at a time: each put pass drops
    // the previous pass's objects first, off the clock.
    all_ok &= run_arms(json, table, "", **remote, w, passes,
                       [&] { clear(*backend); });
    // Fresh store per stream count so get arms read what their own
    // put arm wrote and memory stays bounded.
    clear(*backend);
  }

  (*server)->stop();
  serve_thread.join();

  // Segment-served arms: the same wire traffic against a daemon whose
  // store is the on-disk log-structured backend — the deployment shape
  // of `ickptd --backend segment`.  Eight streams share the store's
  // one stream lease; the daemon drains one connection's frames before
  // the next, so few of their objects are buffered or demoted (the
  // demotion count is printed at the end).
  {
    const std::string dir = "ablation_net_segstore";
    std::filesystem::remove_all(dir);
    auto seg_backend = storage::make_segment_backend(dir);
    if (!seg_backend.is_ok()) {
      std::cerr << "segment backend: " << seg_backend.status().to_string()
                << "\n";
      return 1;
    }
    auto seg_server = net::Server::create(**seg_backend);
    if (!seg_server.is_ok()) {
      std::cerr << "segment server: " << seg_server.status().to_string()
                << "\n";
      return 1;
    }
    std::thread seg_serve([&] { (void)(*seg_server)->serve(); });

    w.streams = 8;
    auto remote = connect((*seg_server)->port(), w.streams);
    if (!remote.is_ok()) {
      std::cerr << "connect: " << remote.status().to_string() << "\n";
      return 1;
    }
    // Every pass stays on disk: nothing to drop between put passes.
    all_ok &= run_arms(json, table, "segment_", **remote, w, passes, [] {});

    remote->reset();
    (*seg_server)->stop();
    seg_serve.join();
    seg_backend->reset();
    std::filesystem::remove_all(dir);
  }

  const std::uint64_t errors = protocol_errors.value() - errors_before;
  std::cout << "concurrent streams peak: "
            << obs::registry().gauge("net.conns_open").max()
            << ", protocol errors: " << errors << "\n";
  std::cout << "segment store demotions: "
            << obs::registry().counter("storage.segment_demotions").value()
            << "\n";
  if (errors != 0) {
    std::cerr << "ablation_net: protocol errors under load\n";
    all_ok = false;
  }

  finish(table, "ablation_net.csv");
  json.write(args);
  return all_ok ? 0 : 1;
}
