#include "workloads.h"

#include <pthread.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "apps/jacobi_app.h"
#include "apps/scripted_kernel.h"
#include "checkpoint/checkpointer.h"
#include "checkpoint/restore.h"
#include "common/page.h"
#include "common/rng.h"
#include "memtrack/mprotect_engine.h"
#include "net/remote_backend.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "region/address_space.h"
#include "sim/virtual_clock.h"
#include "spans.h"
#include "storage/backend.h"
#include "storage/segment_backend.h"
#include "timed_backend.h"

namespace perfbench {
namespace {

namespace ck = ickpt::checkpoint;
using ickpt::Status;
using ickpt::memtrack::DirtyTracker;
using ickpt::memtrack::MProtectEngine;
using ickpt::region::AddressSpace;
using ickpt::storage::StorageBackend;

// Work per round.  Sized so one round takes a few seconds on a 4-vCPU
// host and a run of 20 s holds several rounds (several set-up samples).
constexpr int kJacobiSteps = 25;
constexpr int kJacobiRestores = 8;
constexpr double kSageScale = 0.25;  ///< ~14 MB footprint, ~2.5 MB per checkpoint
constexpr int kSageIterations = 4;   ///< 20 virtual s each, 1 checkpoint/s
constexpr int kSageRestores = 4;
constexpr std::size_t kChainStateBytes = 32u << 20;
constexpr int kChainIncrementals = 31;
constexpr int kChainRestores = 10;
/// The pause reference: 16 MiB of memcpy as kRefPasses passes between two
/// pre-touched kRefChunk buffers.  They stay in the core's private L2, so
/// the reference follows the core's speed and not whether a neighbour on
/// the host has evicted the shared L3 (which moves a single 16 MiB copy
/// between ~1.2 and ~3.3 ms on the same host).
constexpr std::size_t kRefChunk = 512u << 10;
constexpr int kRefPasses = 32;

double to_s(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

// ---------------------------------------------------------------- stats

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest sample (the maximum when there are fewer than 11).
struct Tail {
  double value = 0;
  double percentile = 0;
  std::size_t n = 0;
};

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t idx = v.size() > 10 ? v.size() - 11 : v.size() - 1;
  t.value = v[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) /
                 static_cast<double>(v.size());
  return t;
}

/// Each sample over the median of the references around it: the one run
/// next to it and up to kRefWindow on either side, from the same round.
/// Drift over seconds still divides out, but a single reference copy that
/// met an idle or a saturated memory bus does not set a sample's ratio.
constexpr std::size_t kRefWindow = 4;

std::vector<double> ratios(const std::vector<double>& num,
                           const std::vector<double>& den) {
  std::vector<double> out;
  const std::size_t n = std::min(num.size(), den.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i >= kRefWindow ? i - kRefWindow : 0;
    const std::size_t hi = std::min(n, i + kRefWindow + 1);
    const double ref = median(std::vector<double>(
        den.begin() + static_cast<std::ptrdiff_t>(lo),
        den.begin() + static_cast<std::ptrdiff_t>(hi)));
    if (ref > 0) out.push_back(num[i] / ref);
  }
  return out;
}

// -------------------------------------------------------------- samples

/// Everything measured in one round.
struct Round {
  bool traced = false;
  double setup_s = 0;
  double tracked_s = 0;    ///< tracked steps incl. checkpoint pauses
  double untracked_s = 0;  ///< the same steps on the untracked twin
  std::vector<double> tracked_step_s;  ///< pauses excluded
  std::vector<double> untracked_step_s;
  std::vector<double> collect_s, ckpt_call_s, pause_s, pause_ref_s;
  std::vector<double> restore_chain_s, materialize_s, restore_s,
      restore_ref_s;
  // Exact counts (incremental checkpoints only).
  std::uint64_t dirty_pages = 0;
  std::uint64_t dirty_bytes = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t payload_pages = 0;
  std::uint64_t zero_pages = 0;
  std::uint64_t rle_pages = 0;
  std::map<std::string, std::uint64_t> counters;  ///< registry deltas
  std::uint64_t store_objects = 0;  ///< decorated writers closed (traced)
  std::uint64_t store_bytes = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;
};

void note(Round& r, const Status& st, const std::string& what) {
  ++r.attempted;
  if (st.is_ok()) return;
  ++r.failed;
  if (r.error.empty()) r.error = what + ": " + st.to_string();
}

const char* const kCounters[] = {
    "memtrack.faults",      "storage.fsync_calls",   "storage.segment_appends",
    "restore.bytes_read",   "restore.bytes_mapped",  "restore.pages_decoded",
    "restore.pages_skipped", "restore.objects",      "net.bytes_in",
    "net.bytes_out",        "net.req_put",           "net.req_get",
    "net.protocol_errors",  "ckpt.objects"};

std::map<std::string, std::uint64_t> read_counters() {
  std::map<std::string, std::uint64_t> out;
  for (const char* name : kCounters) {
    out[name] = ickpt::obs::registry().counter(name).value();
  }
  return out;
}

// ------------------------------------------------------------ placement

struct Placement {
  long nproc = 0;
  std::vector<int> allowed;
  std::vector<int> app_cpus;     ///< main thread and everything it spawns
  std::vector<int> daemon_cpus;  ///< the in-process daemon's event loop
  bool pinned = false;
};

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) out.push_back(c);
  }
  return out;
}

Placement make_placement(bool split_daemon) {
  Placement p;
  p.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  p.allowed = allowed_cpus();
  p.app_cpus = p.allowed;
  p.daemon_cpus = p.allowed;
  if (split_daemon && p.allowed.size() >= 2) {
    p.daemon_cpus = {p.allowed.back()};
    p.app_cpus.pop_back();
    p.pinned = true;
  }
  return p;
}

void pin_current_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

std::string cpu_list(const std::vector<int>& cpus) {
  std::string out;
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    std::size_t j = i;
    while (j + 1 < cpus.size() && cpus[j + 1] == cpus[j] + 1) ++j;
    if (!out.empty()) out += ",";
    out += std::to_string(cpus[i]);
    if (j > i) out += "-" + std::to_string(cpus[j]);
    i = j;
  }
  return out;
}

std::string fs_type(const std::string& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x794c7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(st.f_type));
  return buf;
}

// ----------------------------------------------------------- references

/// The pause reference; it never touches app pages.
class RefCopy {
 public:
  RefCopy() : src_(kRefChunk, std::byte{0x5a}), dst_(kRefChunk, std::byte{0}) {}

  double run(Op op) {
    Scope span("host.ref_copy", Layer::kBench, op);
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < kRefPasses; ++i) {
      std::memcpy(dst_.data(), src_.data(), kRefChunk);
      asm volatile("" : : "r"(dst_.data()) : "memory");
    }
    return to_s(now_ns() - t0);
  }

 private:
  std::vector<std::byte> src_;
  std::vector<std::byte> dst_;
};

/// Expected contents of every block, by checkpointed block id.
struct Image {
  std::vector<std::pair<std::uint32_t, std::vector<std::byte>>> blocks;
  std::size_t bytes = 0;
};

Image capture(AddressSpace& space) {
  Scope span("bench.capture_image", Layer::kBench);
  Image img;
  for (const auto& info : space.blocks()) {
    auto mem = space.block_span(info.id);
    if (!mem.is_ok()) continue;
    img.blocks.emplace_back(info.id,
                            std::vector<std::byte>(mem->begin(), mem->end()));
    img.bytes += mem->size();
  }
  return img;
}

/// The restore reference: allocate fresh state-sized memory and copy the
/// expected image into it.
double restore_reference(const Image& img, Op op) {
  Scope span("host.restore_ref", Layer::kBench, op);
  const std::uint64_t t0 = now_ns();
  void* mem = mmap(nullptr, img.bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return 0;
  auto* out = static_cast<std::byte*>(mem);
  for (const auto& [id, bytes] : img.blocks) {
    std::memcpy(out, bytes.data(), bytes.size());
    out += bytes.size();
  }
  asm volatile("" : : "r"(mem) : "memory");
  const double seconds = to_s(now_ns() - t0);
  munmap(mem, img.bytes);
  return seconds;
}

Status compare(const Image& img,
               const std::map<std::uint32_t, ickpt::region::BlockId>& ids,
               AddressSpace& space) {
  Scope span("bench.verify", Layer::kBench);
  if (ids.size() != img.blocks.size()) {
    return ickpt::corruption("restored " + std::to_string(ids.size()) +
                             " blocks, expected " +
                             std::to_string(img.blocks.size()));
  }
  for (const auto& [id, bytes] : img.blocks) {
    auto it = ids.find(id);
    if (it == ids.end()) {
      return ickpt::corruption("block " + std::to_string(id) + " missing");
    }
    auto mem = space.block_span(it->second);
    if (!mem.is_ok()) return mem.status();
    if (mem->size() != bytes.size() ||
        std::memcmp(mem->data(), bytes.data(), bytes.size()) != 0) {
      return ickpt::corruption("restored bytes differ in block " +
                               std::to_string(id));
    }
  }
  return Status::ok();
}

// -------------------------------------------------------- shared phases

template <typename F>
auto timed(double& seconds, const char* name, Layer layer, Op op, F&& f) {
  Scope span(name, layer, op);
  const std::uint64_t t0 = now_ns();
  auto result = f();
  seconds = to_s(now_ns() - t0);
  return result;
}

struct Ctx {
  Config config;
  Placement placement;
  RefCopy ref;
  MProtectEngine restore_engine;  ///< backs materialized states; never armed
  std::string store_root;
};

/// One checkpoint pause — collect(rearm) + checkpoint_incremental — then
/// the reference copy.  Adds the pause to *pause_total and the copy to
/// *ref_total.
Status checkpoint_pause(Ctx& ctx, DirtyTracker& engine,
                        ck::Checkpointer& ckpt, double virtual_time,
                        Round& r, double* pause_total, double* ref_total) {
  const Op op{OpKind::kCkpt, static_cast<std::uint32_t>(ckpt.next_sequence())};
  double collect_s = 0;
  double call_s = 0;
  const std::uint64_t t0 = now_ns();
  auto snap = timed(collect_s, "memtrack.collect", Layer::kMemtrack, op,
                    [&] { return engine.collect(/*rearm=*/true); });
  if (!snap.is_ok()) return snap.status();
  auto meta = timed(call_s, "ckpt.incremental", Layer::kCkpt, op, [&] {
    return ckpt.checkpoint_incremental(*snap, virtual_time);
  });
  const double pause = to_s(now_ns() - t0);
  if (!meta.is_ok()) return meta.status();
  const double ref = ctx.ref.run(op);
  r.collect_s.push_back(collect_s);
  r.ckpt_call_s.push_back(call_s);
  r.pause_s.push_back(pause);
  r.pause_ref_s.push_back(ref);
  r.dirty_pages += snap->dirty_pages();
  r.dirty_bytes += snap->dirty_bytes();
  r.file_bytes += meta->file_bytes;
  r.payload_pages += meta->payload_pages;
  r.zero_pages += meta->zero_pages;
  r.rle_pages += meta->rle_pages;
  *pause_total += pause;
  *ref_total += ref;
  return Status::ok();
}

/// One timed restore, checked byte for byte against `img`: the
/// reference first, then restore_chain (default options) + materialize.
Status restore_once(Ctx& ctx, StorageBackend& store, const Image& img,
                    std::uint32_t index, Round& r) {
  const Op op{OpKind::kRestore, index};
  r.restore_ref_s.push_back(restore_reference(img, op));
  double chain_s = 0;
  double materialize_s = 0;
  auto state = timed(chain_s, "restore.chain", Layer::kRestore, op, [&] {
    return ck::restore_chain(store, 0, ck::RestoreOptions{});
  });
  if (!state.is_ok()) return state.status();
  auto space = std::make_unique<AddressSpace>(ctx.restore_engine, "restored");
  auto ids = timed(materialize_s, "restore.materialize", Layer::kRestore, op,
                   [&] { return ck::materialize(*state, *space); });
  if (!ids.is_ok()) return ids.status();
  r.restore_chain_s.push_back(chain_s);
  r.materialize_s.push_back(materialize_s);
  r.restore_s.push_back(chain_s + materialize_s);
  Status verdict = compare(img, *ids, *space);
  Scope release("bench.release", Layer::kBench, op);
  space.reset();
  *state = ck::RestoredState{};
  return verdict;
}

/// Record one interleaved pair of steps: tracked and twin, the order
/// alternating so neither always runs on a cache the other warmed.
template <typename Tracked, typename Twin>
Status step_pair(int i, Round& r, Tracked&& tracked, Twin&& twin,
                 double* tracked_s, double* twin_s) {
  const Op op{OpKind::kStep, static_cast<std::uint32_t>(i)};
  Status a;
  Status b;
  auto run_tracked = [&] {
    a = timed(*tracked_s, "app.step", Layer::kApps, op, tracked);
  };
  auto run_twin = [&] {
    b = timed(*twin_s, "app.twin_step", Layer::kApps, op, twin);
  };
  if (i % 2 == 0) {
    run_twin();
    run_tracked();
  } else {
    run_tracked();
    run_twin();
  }
  note(r, a, "tracked step");
  note(r, b, "twin step");
  return a.is_ok() ? b : a;
}

/// Each round writes a fresh store; all of them are deleted when the run
/// ends, so freeing their blocks never lands inside a measured round.
std::string round_dir(Ctx& ctx, std::uint32_t round) {
  return ctx.store_root + "/round-" + std::to_string(round);
}

/// A round's local FileBackend, wrapped in the storage decorator when the
/// round is traced.
struct FileStore {
  std::unique_ptr<StorageBackend> file;
  std::unique_ptr<TimedBackend> decorated;
  StorageBackend& get() { return decorated ? *decorated : *file; }
};

Status open_file_store(const std::string& dir, bool traced, FileStore& out) {
  Scope span("storage.open_store", Layer::kStorage);
  auto made = ickpt::storage::make_file_backend(dir);
  if (!made.is_ok()) return made.status();
  out.file = std::move(*made);
  if (traced) {
    out.decorated = std::make_unique<TimedBackend>(*out.file, Layer::kStorage,
                                                   kStorageCalls);
  }
  return Status::ok();
}

/// The last steps of every set-up: create the Checkpointer on `store`,
/// write the seed full checkpoint and arm tracking.
Status seed_and_arm(AddressSpace& space, StorageBackend& store,
                    DirtyTracker& engine, double virtual_time,
                    std::unique_ptr<ck::Checkpointer>& ckpt) {
  {
    Scope span("ckpt.full", Layer::kCkpt, Op{OpKind::kCkpt, 0});
    auto made = ck::Checkpointer::create(space, &store);
    if (!made.is_ok()) return made.status();
    ckpt = std::move(*made);
    auto full = ckpt->checkpoint_full(virtual_time);
    if (!full.is_ok()) return full.status();
  }
  Scope span("memtrack.arm", Layer::kMemtrack);
  return engine.arm();
}

/// `n` restores, each checked against `img`; stops at the first failure.
Status restore_n(Ctx& ctx, StorageBackend& store, const Image& img, int n,
                 Round& r) {
  for (int k = 0; k < n; ++k) {
    Status st = restore_once(ctx, store, img, static_cast<std::uint32_t>(k), r);
    note(r, st, "restore");
    if (!st.is_ok()) return st;
  }
  return Status::ok();
}

/// Objects and bytes the storage decorator saw (traced rounds only).
void take_tally(const TimedBackend* decorated, Round& r) {
  if (decorated == nullptr) return;
  r.store_objects = decorated->tally().objects.load();
  r.store_bytes = decorated->tally().bytes.load();
}

// ---------------------------------------------------------- jacobi-file

/// Jacobi3DApp at footprint scale 1 (two 32 MiB grids, zero field with a
/// hot boundary plane — no randomness, so the seed does not change it),
/// an incremental checkpoint into a local FileBackend after every step.
Status jacobi_round(Ctx& ctx, std::uint32_t round, Round& r) {
  using ickpt::apps::Jacobi3DApp;
  MProtectEngine engine;
  MProtectEngine twin_engine;
  ickpt::sim::VirtualClock clock;
  ickpt::sim::VirtualClock twin_clock;
  std::unique_ptr<Jacobi3DApp> app;
  std::unique_ptr<Jacobi3DApp> twin;
  FileStore store;
  std::unique_ptr<ck::Checkpointer> ckpt;

  Status st;
  const std::uint64_t t0 = now_ns();
  {
    Scope setup("setup", Layer::kNone, Op{OpKind::kSetup, round});
    {
      Scope span("app.init", Layer::kApps);
      const ickpt::apps::AppConfig cfg;  // footprint scale 1
      app = std::make_unique<Jacobi3DApp>(cfg, engine, clock);
      twin = std::make_unique<Jacobi3DApp>(cfg, twin_engine, twin_clock);
      st = app->init();
      if (st.is_ok()) st = twin->init();
    }
    if (st.is_ok()) st = open_file_store(round_dir(ctx, round), r.traced, store);
    if (st.is_ok()) {
      st = seed_and_arm(app->space(), store.get(), engine, clock.now(), ckpt);
    }
  }
  r.setup_s = to_s(now_ns() - t0);
  note(r, st, "setup");
  if (!st.is_ok()) return st;

  for (int i = 0; i < kJacobiSteps; ++i) {
    double tracked_s = 0;
    double twin_s = 0;
    st = step_pair(
        i, r, [&] { return app->iterate(); }, [&] { return twin->iterate(); },
        &tracked_s, &twin_s);
    if (!st.is_ok()) return st;
    double pause = 0;
    double ref = 0;
    st = checkpoint_pause(ctx, engine, *ckpt, clock.now(), r, &pause, &ref);
    note(r, st, "checkpoint");
    if (!st.is_ok()) return st;
    r.tracked_s += tracked_s + pause;
    r.untracked_s += twin_s;
    r.tracked_step_s.push_back(tracked_s);
    r.untracked_step_s.push_back(twin_s);
  }

  st = restore_n(ctx, store.get(), capture(app->space()), kJacobiRestores, r);
  take_tally(store.decorated.get(), r);
  ckpt.reset();
  Scope span("app.release", Layer::kApps);
  app.reset();
  twin.reset();
  return st;
}

// ---------------------------------------------------------- sage-ickptd

/// The in-process ickptd core serving a SegmentBackend on its own
/// thread (and, when the host has two or more CPUs, its own CPU).
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { (void)stop(); }

  Status start(StorageBackend& served, const std::vector<int>& cpus) {
    auto made = ickpt::net::Server::create(served);
    if (!made.is_ok()) return made.status();
    server_ = std::move(*made);
    thread_ = std::thread([this, cpus] {
      pin_current_thread(cpus);
      serve_status_ = server_->serve();
    });
    return Status::ok();
  }

  std::uint16_t port() const { return server_->port(); }

  Status stop() {
    if (server_) server_->stop();
    if (thread_.joinable()) thread_.join();
    server_.reset();
    return serve_status_;
  }

 private:
  std::unique_ptr<ickpt::net::Server> server_;
  Status serve_status_;
  std::thread thread_;
};

/// The sage-50 proxy at footprint scale kSageScale, checkpointing every virtual
/// second through RemoteBackend to the in-process daemon.  The seed sets
/// the phase of the checkpoint boundary within an iteration (the proxy
/// itself is deterministic).
Status sage_round(Ctx& ctx, std::uint32_t round, double phase, Round& r) {
  MProtectEngine engine;
  MProtectEngine twin_engine;
  ickpt::sim::VirtualClock clock;
  ickpt::sim::VirtualClock twin_clock;
  std::unique_ptr<ickpt::apps::AppKernel> app;
  std::unique_ptr<ickpt::apps::AppKernel> twin;
  std::unique_ptr<StorageBackend> segment;
  std::unique_ptr<TimedBackend> served;
  Daemon daemon;
  std::unique_ptr<StorageBackend> remote;
  std::unique_ptr<TimedBackend> client;
  std::unique_ptr<ck::Checkpointer> ckpt;
  const std::string dir = round_dir(ctx, round);

  Status st;
  const std::uint64_t t0 = now_ns();
  {
    Scope setup("setup", Layer::kNone, Op{OpKind::kSetup, round});
    {
      Scope span("app.init", Layer::kApps);
      ickpt::apps::AppConfig cfg;
      cfg.footprint_scale = kSageScale;
      cfg.seed = ctx.config.seed;
      auto a = ickpt::apps::make_app("sage-50", cfg, engine, clock);
      auto b = ickpt::apps::make_app("sage-50", cfg, twin_engine, twin_clock);
      st = a.is_ok() ? b.status() : a.status();
      if (st.is_ok()) {
        app = std::move(*a);
        twin = std::move(*b);
        st = app->init();
      }
      if (st.is_ok()) st = twin->init();
    }
    if (st.is_ok()) {
      Scope span("storage.open_store", Layer::kStorage);
      auto made = ickpt::storage::make_segment_backend(dir);
      if (made.is_ok()) segment = std::move(*made);
      st = made.status();
    }
    if (st.is_ok()) {
      Scope span("net.start_daemon", Layer::kNet);
      StorageBackend* backing = segment.get();
      if (r.traced) {
        served = std::make_unique<TimedBackend>(*segment, Layer::kStorage,
                                                kStorageCalls);
        backing = served.get();
      }
      st = daemon.start(*backing, ctx.placement.daemon_cpus);
      if (st.is_ok()) {
        ickpt::storage::RemoteBackendOptions options;
        options.port = daemon.port();
        auto made = ickpt::storage::make_remote_backend(options);
        if (made.is_ok()) remote = std::move(*made);
        st = made.status();
      }
    }
    if (st.is_ok() && r.traced) {
      client = std::make_unique<TimedBackend>(*remote, Layer::kNet, kNetCalls);
    }
    if (st.is_ok()) {
      st = seed_and_arm(app->space(), client ? *client : *remote, engine,
                        clock.now(), ckpt);
    }
  }
  r.setup_s = to_s(now_ns() - t0);
  note(r, st, "setup");
  if (!st.is_ok()) return st;
  StorageBackend& store = client ? *client : *remote;

  Status ckpt_status;
  double pauses = 0;
  double refs = 0;
  const int sub = clock.subscribe_periodic(
      1.0,
      [&](double t) {
        if (!ckpt_status.is_ok()) return;
        ckpt_status = checkpoint_pause(ctx, engine, *ckpt, t, r, &pauses, &refs);
        note(r, ckpt_status, "checkpoint");
      },
      phase);
  for (int i = 0; i < kSageIterations && st.is_ok(); ++i) {
    double iter_s = 0;
    double twin_s = 0;
    pauses = 0;
    refs = 0;
    st = step_pair(
        i, r, [&] { return app->iterate(); }, [&] { return twin->iterate(); },
        &iter_s, &twin_s);
    if (st.is_ok()) st = ckpt_status;
    // Pauses ran inside the tracked iteration; the reference copies after
    // them are the benchmark's, not the app's.
    r.tracked_s += iter_s - refs;
    r.untracked_s += twin_s;
    r.tracked_step_s.push_back(iter_s - refs - pauses);
    r.untracked_step_s.push_back(twin_s);
  }
  clock.unsubscribe(sub);
  if (!st.is_ok()) return st;

  // A final checkpoint at the iteration boundary fixes the image that
  // the restores must reproduce.
  double pause = 0;
  double ref = 0;
  st = checkpoint_pause(ctx, engine, *ckpt, clock.now(), r, &pause, &ref);
  note(r, st, "checkpoint");
  if (!st.is_ok()) return st;
  r.tracked_s += pause;

  st = restore_n(ctx, store, capture(app->space()), kSageRestores, r);
  take_tally(served.get(), r);
  ckpt.reset();
  client.reset();
  {
    Scope span("net.stop_daemon", Layer::kNet);
    remote.reset();
    Status stopped = daemon.stop();
    if (st.is_ok()) st = stopped;
  }
  served.reset();
  segment.reset();
  Scope span("app.release", Layer::kApps);
  app.reset();
  twin.reset();
  return st;
}

// -------------------------------------------------------- chain-restore

/// The seeded chain: a 32 MiB state (⅛ zero pages, ⅛ single-byte fill,
/// ¾ random) and 31 increments, each rewriting ~5% of the pages in runs
/// of 1-8 pages.  Generated once per run, outside every timer.
struct ChainInputs {
  struct Increment {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> runs;  ///< first, count
    std::vector<std::byte> content;  ///< the runs' new pages, back to back
  };
  std::vector<std::byte> initial;
  std::vector<Increment> increments;
  std::vector<std::byte> expected;  ///< state after every increment
};

void fill_page(std::byte* page, std::size_t psize, ickpt::Rng& rng) {
  const std::uint64_t kind = rng.next_below(8);
  if (kind == 0) {
    std::memset(page, 0, psize);
  } else if (kind == 1) {
    std::memset(page, static_cast<int>(1 + rng.next_below(255)), psize);
  } else {
    for (std::size_t off = 0; off < psize; off += 8) {
      const std::uint64_t w = rng.next_u64();
      std::memcpy(page + off, &w, 8);
    }
  }
}

ChainInputs make_chain_inputs(std::uint64_t seed) {
  const std::size_t psize = ickpt::page_size();
  const std::size_t pages = kChainStateBytes / psize;
  ickpt::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x632be59bd9b4e019ull);
  ChainInputs in;
  in.initial.resize(kChainStateBytes);
  for (std::size_t p = 0; p < pages; ++p) {
    fill_page(in.initial.data() + p * psize, psize, rng);
  }
  in.expected = in.initial;
  const std::size_t target = pages / 20;
  for (int k = 0; k < kChainIncrementals; ++k) {
    ChainInputs::Increment inc;
    std::vector<bool> taken(pages, false);
    std::size_t dirty = 0;
    while (dirty < target) {
      const std::size_t first = rng.next_index(pages);
      const std::size_t count =
          std::min<std::size_t>(1 + rng.next_below(8), pages - first);
      if (std::any_of(taken.begin() + static_cast<std::ptrdiff_t>(first),
                      taken.begin() + static_cast<std::ptrdiff_t>(first + count),
                      [](bool t) { return t; })) {
        continue;
      }
      std::fill_n(taken.begin() + static_cast<std::ptrdiff_t>(first), count, true);
      inc.runs.emplace_back(static_cast<std::uint32_t>(first),
                            static_cast<std::uint32_t>(count));
      dirty += count;
    }
    std::sort(inc.runs.begin(), inc.runs.end());
    inc.content.resize(dirty * psize);
    std::size_t off = 0;
    for (const auto& [first, count] : inc.runs) {
      for (std::uint32_t p = 0; p < count; ++p, off += psize) {
        fill_page(inc.content.data() + off, psize, rng);
      }
      std::memcpy(in.expected.data() + std::size_t{first} * psize,
                  inc.content.data() + off - std::size_t{count} * psize,
                  std::size_t{count} * psize);
    }
    in.increments.push_back(std::move(inc));
  }
  return in;
}

void apply_increment(const ChainInputs::Increment& inc, std::byte* state) {
  const std::size_t psize = ickpt::page_size();
  std::size_t off = 0;
  for (const auto& [first, count] : inc.runs) {
    const std::size_t len = std::size_t{count} * psize;
    std::memcpy(state + std::size_t{first} * psize, inc.content.data() + off,
                len);
    off += len;
  }
}

/// Set-up writes the chain (1 full + 31 incrementals through the
/// Checkpointer into a local FileBackend, each increment applied to the
/// tracked state and to an untracked twin); the rest of the round
/// restores the chain and compares the bytes every time.
Status chain_round(Ctx& ctx, std::uint32_t round, const ChainInputs& in,
                   Round& r) {
  MProtectEngine engine;
  MProtectEngine twin_engine;
  std::unique_ptr<AddressSpace> space;
  std::unique_ptr<AddressSpace> twin_space;
  std::byte* state = nullptr;
  std::byte* twin_state = nullptr;
  std::uint32_t block_id = 0;
  FileStore store;
  std::unique_ptr<ck::Checkpointer> ckpt;

  Status st;
  double refs = 0;
  const std::uint64_t t0 = now_ns();
  {
    Scope setup("setup", Layer::kNone, Op{OpKind::kSetup, round});
    {
      Scope span("app.init", Layer::kApps);
      space = std::make_unique<AddressSpace>(engine, "chain");
      twin_space = std::make_unique<AddressSpace>(twin_engine, "twin");
      auto a = space->map(kChainStateBytes, ickpt::region::AreaKind::kHeap,
                          "state");
      auto b = twin_space->map(kChainStateBytes,
                               ickpt::region::AreaKind::kHeap, "state");
      st = a.is_ok() ? b.status() : a.status();
      if (st.is_ok()) {
        block_id = a->id;
        state = a->mem.data();
        twin_state = b->mem.data();
        std::memcpy(state, in.initial.data(), kChainStateBytes);
        std::memcpy(twin_state, in.initial.data(), kChainStateBytes);
      }
    }
    if (st.is_ok()) st = open_file_store(round_dir(ctx, round), r.traced, store);
    if (st.is_ok()) st = seed_and_arm(*space, store.get(), engine, 0, ckpt);
    for (int k = 0; k < kChainIncrementals && st.is_ok(); ++k) {
      const auto& inc = in.increments[static_cast<std::size_t>(k)];
      double tracked_s = 0;
      double twin_s = 0;
      st = step_pair(
          k, r,
          [&] {
            apply_increment(inc, state);
            return Status::ok();
          },
          [&] {
            apply_increment(inc, twin_state);
            return Status::ok();
          },
          &tracked_s, &twin_s);
      if (!st.is_ok()) break;
      double pause = 0;
      st = checkpoint_pause(ctx, engine, *ckpt, static_cast<double>(k + 1), r,
                            &pause, &refs);
      note(r, st, "checkpoint");
      r.tracked_s += tracked_s + pause;
      r.untracked_s += twin_s;
      r.tracked_step_s.push_back(tracked_s);
      r.untracked_step_s.push_back(twin_s);
    }
  }
  // The reference copies are the benchmark's, not set-up work.
  r.setup_s = to_s(now_ns() - t0) - refs;
  note(r, st, "setup");
  if (!st.is_ok()) return st;

  Image img;
  img.blocks.emplace_back(block_id, in.expected);
  img.bytes = in.expected.size();
  st = restore_n(ctx, store.get(), img, kChainRestores, r);
  take_tally(store.decorated.get(), r);
  ckpt.reset();
  Scope span("app.release", Layer::kApps);
  space.reset();
  twin_space.reset();
  return st;
}

// -------------------------------------------------------------- metrics

struct Json {
  std::ostringstream out;
  bool first = true;
  void key(const std::string& k) {
    out << (first ? "" : ",") << '"' << k << "\":";
    first = false;
  }
  void num(const std::string& k, double v) {
    key(k);
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    out << buf;
  }
  void str(const std::string& k, const std::string& v) {
    key(k);
    out << '"';
    for (char c : v) {
      if (c == '"' || c == '\\') out << '\\';
      out << (static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
    }
    out << '"';
  }
  void raw(const std::string& k, const std::string& json) {
    key(k);
    out << json;
  }
  std::string obj() const { return "{" + out.str() + "}"; }
};

template <typename F>
std::vector<double> gather(const std::vector<const Round*>& rounds, F&& f) {
  std::vector<double> out;
  for (const Round* r : rounds) {
    const std::vector<double>& v = f(*r);
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// The round's headline ratio, for the tracing-overhead comparison.
double primary_ratio(const std::string& workload, const Round& r) {
  if (workload == "chain-restore") {
    return median(ratios(r.restore_s, r.restore_ref_s));
  }
  return r.untracked_s > 0 ? r.tracked_s / r.untracked_s : 0;
}

void end_to_end(const std::vector<const Round*>& rounds, Report& rep,
                Json& detail) {
  double tracked = 0;
  double untracked = 0;
  double file_bytes = 0;
  double dirty_bytes = 0;
  std::vector<double> setup;
  for (const Round* r : rounds) {
    tracked += r->tracked_s;
    untracked += r->untracked_s;
    file_bytes += static_cast<double>(r->file_bytes);
    dirty_bytes += static_cast<double>(r->dirty_bytes);
    setup.push_back(r->setup_s);
  }
  std::vector<double> pause_x;
  std::vector<double> restore_x;
  for (const Round* r : rounds) {
    const auto p = ratios(r->pause_s, r->pause_ref_s);
    const auto q = ratios(r->restore_s, r->restore_ref_s);
    pause_x.insert(pause_x.end(), p.begin(), p.end());
    restore_x.insert(restore_x.end(), q.begin(), q.end());
  }
  const Tail pause_tail = tail_of(pause_x);
  const Tail restore_tail = tail_of(restore_x);
  rep.metrics = {
      {"setup_s", median(setup), "s"},
      {"slowdown", untracked > 0 ? tracked / untracked : 0, "ratio"},
      {"ckpt_pause_p50_x", median(pause_x), "ratio"},
      {"restore_p50_x", median(restore_x), "ratio"},
      {"restore_tail_x", restore_tail.value, "ratio"},
      {"stored_bytes_per_dirty_byte",
       dirty_bytes > 0 ? file_bytes / dirty_bytes : 0, "ratio"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
  };
  Json tails;
  tails.num("ckpt_pause_tail_x", pause_tail.value);
  tails.num("ckpt_pause_tail_percentile", pause_tail.percentile);
  tails.num("ckpt_pause_samples", static_cast<double>(pause_tail.n));
  tails.num("restore_tail_percentile", restore_tail.percentile);
  tails.num("restore_samples", static_cast<double>(restore_tail.n));
  detail.raw("tails", tails.obj());
  Json raw;
  auto list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%s%.5g", i == 0 ? "" : ",", v[i]);
      out += buf;
    }
    return out + "]";
  };
  std::vector<double> slow_per_round;
  std::vector<double> pause_per_round;
  std::vector<double> restore_per_round;
  for (const Round* r : rounds) {
    slow_per_round.push_back(r->untracked_s > 0 ? r->tracked_s / r->untracked_s : 0);
    pause_per_round.push_back(median(ratios(r->pause_s, r->pause_ref_s)));
    restore_per_round.push_back(median(ratios(r->restore_s, r->restore_ref_s)));
  }
  raw.raw("setup_s_per_round", list(setup));
  raw.raw("slowdown_per_round", list(slow_per_round));
  raw.raw("ckpt_pause_p50_x_per_round", list(pause_per_round));
  raw.raw("restore_p50_x_per_round", list(restore_per_round));
  raw.num("pause_p50_s", median(gather(
      rounds, [](const Round& r) -> const auto& { return r.pause_s; })));
  raw.num("restore_p50_s", median(gather(
      rounds, [](const Round& r) -> const auto& { return r.restore_s; })));
  raw.num("tracked_s", tracked);
  raw.num("untracked_s", untracked);
  detail.raw("raw", raw.obj());
}

void per_layer(const std::string& workload, const std::vector<Span>& spans,
               const std::vector<const Round*>& traced,
               const std::vector<const Round*>& untraced,
               const std::vector<std::uint32_t>& traced_ids, Report& rep,
               Json& detail) {
  const double n = static_cast<double>(std::max<std::size_t>(traced.size(), 1));
  auto per_round = [&](auto&& f) {
    double sum = 0;
    for (std::size_t i = 0; i < traced.size(); ++i) sum += f(*traced[i], traced_ids[i]);
    return sum / n;
  };
  auto counter = [&](const char* name) {
    return per_round([&](const Round& r, std::uint32_t) {
      auto it = r.counters.find(name);
      return it == r.counters.end() ? 0.0 : static_cast<double>(it->second);
    });
  };
  auto span_s = [&](auto filter, bool covered) {
    return per_round([&](const Round&, std::uint32_t id) {
      return to_s(covered ? covered_ns(spans, id, filter)
                          : busy_ns(spans, id, filter));
    });
  };
  auto named = [](std::initializer_list<const char*> names) {
    std::vector<std::string> v(names.begin(), names.end());
    return [v](const Span& s) {
      return std::find(v.begin(), v.end(), s.name) != v.end();
    };
  };
  auto p50 = [&](auto&& field) { return median(gather(traced, field)); };

  double layer_s[kLayerCount] = {};
  double unattributed_s = 0;
  double wall_s = 0;
  double fault_overhead_s = 0;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const Attribution a = attribute_round(spans, traced_ids[i]);
    double tracked = 0;
    double untracked = 0;
    for (double v : traced[i]->tracked_step_s) tracked += v;
    for (double v : traced[i]->untracked_step_s) untracked += v;
    // Fault handling happens inside tracked app steps; move its share
    // (tracked minus twin step time) from apps to memtrack.
    const double faults = tracked - untracked;
    fault_overhead_s += faults / n;
    for (int l = 0; l < kLayerCount; ++l) {
      layer_s[l] += to_s(static_cast<std::uint64_t>(std::max<std::int64_t>(a.layer_ns[l], 0))) / n;
    }
    layer_s[static_cast<int>(Layer::kApps)] -= faults / n;
    layer_s[static_cast<int>(Layer::kMemtrack)] += faults / n;
    unattributed_s += to_s(static_cast<std::uint64_t>(a.unattributed_ns)) / n;
    wall_s += to_s(a.wall_ns) / n;
  }
  auto layer = [&](Layer l) { return layer_s[static_cast<int>(l)]; };
  const bool remote = workload == "sage-ickptd";
  const double net_client =
      span_s([](const Span& s) { return s.layer == Layer::kNet; }, true);
  const double server_store =
      remote ? span_s([](const Span& s) { return s.layer == Layer::kStorage &&
                                                 s.tid != 1; },
                      true)
             : 0.0;

  // The pause tail is reported here, not gated: on a shared disk it is set
  // by how many durable publishes meet a slow journal commit, which moves
  // from run to run by more than a 25% bound.
  std::vector<double> pause_x;
  for (const Round* r : traced) {
    const auto x = ratios(r->pause_s, r->pause_ref_s);
    pause_x.insert(pause_x.end(), x.begin(), x.end());
  }
  const Tail pause_tail = tail_of(pause_x);
  Json tails;
  tails.num("ckpt_pause_tail_percentile", pause_tail.percentile);
  tails.num("ckpt_pause_samples", static_cast<double>(pause_tail.n));
  detail.raw("tails", tails.obj());

  std::vector<double> overhead_t;
  std::vector<double> overhead_u;
  for (const Round* r : traced) overhead_t.push_back(primary_ratio(workload, *r));
  for (const Round* r : untraced) overhead_u.push_back(primary_ratio(workload, *r));
  const double base = median(overhead_u);
  const double trace_overhead_pct =
      base > 0 ? 100.0 * (median(overhead_t) / base - 1.0) : 0.0;

  auto count = [](std::uint64_t Round::*field) {
    return [field](const Round& r, std::uint32_t) {
      return static_cast<double>(r.*field);
    };
  };
  rep.metrics = {
      {"apps.untracked_step_p50_s", p50([](const Round& r) -> const auto& { return r.untracked_step_s; }), "s"},
      {"apps.tracked_step_p50_s", p50([](const Round& r) -> const auto& { return r.tracked_step_s; }), "s"},
      {"memtrack.faults", counter("memtrack.faults"), "count"},
      {"memtrack.fault_overhead_s", fault_overhead_s, "s"},
      {"memtrack.collect_p50_s", p50([](const Round& r) -> const auto& { return r.collect_s; }), "s"},
      {"memtrack.dirty_pages", per_round(count(&Round::dirty_pages)), "count"},
      {"ckpt.call_p50_s", p50([](const Round& r) -> const auto& { return r.ckpt_call_s; }), "s"},
      {"ckpt.encode_self_s", layer(Layer::kCkpt), "s"},
      {"ckpt.payload_pages", per_round(count(&Round::payload_pages)), "count"},
      {"ckpt.zero_pages", per_round(count(&Round::zero_pages)), "count"},
      {"ckpt.rle_pages", per_round(count(&Round::rle_pages)), "count"},
      {"ckpt.file_bytes", per_round(count(&Round::file_bytes)), "bytes"},
      {"ckpt.pause_p50_s", p50([](const Round& r) -> const auto& { return r.pause_s; }), "s"},
      {"ckpt_pause_tail_x", pause_tail.value, "ratio"},
      {"storage.create_s", span_s(named({"storage.create"}), false), "s"},
      {"storage.write_s", span_s(named({"storage.write"}), false), "s"},
      {"storage.publish_s", span_s(named({"storage.close"}), false), "s"},
      {"storage.objects", per_round(count(&Round::store_objects)), "count"},
      {"storage.bytes_written", per_round(count(&Round::store_bytes)), "bytes"},
      {"storage.fsync_calls", counter("storage.fsync_calls"), "count"},
      {"storage.segment_appends", counter("storage.segment_appends"), "count"},
      {"storage.open_s", span_s(named({"storage.open"}), false), "s"},
      {"storage.read_s", span_s(named({"storage.read", "storage.read_at", "storage.map_at"}), false), "s"},
      {"restore.bytes_read", counter("restore.bytes_read"), "bytes"},
      {"restore.bytes_mapped", counter("restore.bytes_mapped"), "bytes"},
      {"net.client_s", net_client, "s"},
      {"net.server_store_s", server_store, "s"},
      {"net.self_s", layer(Layer::kNet), "s"},
      {"net.bytes_in", counter("net.bytes_in"), "bytes"},
      {"net.req_put", counter("net.req_put"), "count"},
      {"net.protocol_errors", counter("net.protocol_errors"), "count"},
      {"restore.chain_p50_s", p50([](const Round& r) -> const auto& { return r.restore_chain_s; }), "s"},
      {"restore.materialize_p50_s", p50([](const Round& r) -> const auto& { return r.materialize_s; }), "s"},
      {"restore.total_p50_s", p50([](const Round& r) -> const auto& { return r.restore_s; }), "s"},
      {"restore.decode_self_s",
       per_round([&](const Round&, std::uint32_t id) {
         return to_s(self_ns(spans, id, "restore.chain",
                             {Layer::kStorage, Layer::kNet}));
       }),
       "s"},
      {"restore.pages_decoded", counter("restore.pages_decoded"), "count"},
      {"restore.pages_skipped", counter("restore.pages_skipped"), "count"},
      {"restore.objects", counter("restore.objects"), "count"},
      {"obs.trace_overhead_pct", trace_overhead_pct, "%"},
      {"host.ref_p50_s", p50([](const Round& r) -> const auto& { return r.pause_ref_s; }), "s"},
      {"host.restore_ref_p50_s", p50([](const Round& r) -> const auto& { return r.restore_ref_s; }), "s"},
      {"self.apps_s", layer(Layer::kApps), "s"},
      {"self.memtrack_s", layer(Layer::kMemtrack), "s"},
      {"self.storage_s", layer(Layer::kStorage), "s"},
      {"self.restore_s", layer(Layer::kRestore), "s"},
      {"self.bench_s", layer(Layer::kBench), "s"},
      {"self.unattributed_s", unattributed_s, "s"},
      {"trace.wall_s", wall_s, "s"},
  };
  Json sum;
  sum.str("identity",
          "trace.wall_s = self.apps_s + self.memtrack_s + ckpt.encode_self_s"
          " + self.storage_s + net.self_s + self.restore_s + self.bench_s"
          " + self.unattributed_s (seconds per traced round)");
  double parts = unattributed_s;
  for (int l = 1; l < kLayerCount; ++l) parts += layer_s[l];
  sum.num("parts_s", parts);
  sum.num("wall_s", wall_s);
  sum.num("traced_rounds", static_cast<double>(traced.size()));
  sum.num("spans", static_cast<double>(spans.size()));
  detail.raw("attribution", sum.obj());
}

/// Exact per-round counts; all rounds of a run must agree.
std::string exact_counts(const Round& r) {
  Json j;
  j.num("dirty_pages", static_cast<double>(r.dirty_pages));
  j.num("file_bytes", static_cast<double>(r.file_bytes));
  j.num("payload_pages", static_cast<double>(r.payload_pages));
  j.num("zero_pages", static_cast<double>(r.zero_pages));
  j.num("rle_pages", static_cast<double>(r.rle_pages));
  j.num("checkpoints", static_cast<double>(r.pause_s.size()));
  j.num("restores", static_cast<double>(r.restore_s.size()));
  for (const auto& [name, delta] : r.counters) {
    j.num(name, static_cast<double>(delta));
  }
  return j.obj();
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"jacobi-file", "sage-ickptd", "chain-restore"};
}

Report run_workload(const Config& config) {
  Report rep;
  Recorder::get().set_main_thread();
  const bool sage = config.workload == "sage-ickptd";
  auto ctx = std::make_unique<Ctx>();
  ctx->config = config;
  ctx->placement = make_placement(sage);
  ctx->store_root = config.work_dir + "/stores-" + config.workload + "-" +
                    std::to_string(getpid());
  if (sage && ctx->placement.pinned) {
    pin_current_thread(ctx->placement.app_cpus);
  }
  std::error_code ec;
  std::filesystem::create_directories(ctx->store_root, ec);
  const std::string fs = fs_type(ctx->store_root);

  // Seeded inputs, generated before any timer starts.
  ChainInputs chain;
  if (config.workload == "chain-restore") chain = make_chain_inputs(config.seed);
  ickpt::Rng phase_rng(config.seed ^ 0x5a6e5eedull);
  const double sage_phase =
      static_cast<double>(phase_rng.next_below(1000)) / 1000.0;

  std::vector<Round> rounds;
  const std::uint64_t run_t0 = now_ns();
  for (std::uint32_t id = 1;; ++id) {
    Round r;
    r.traced = config.trace && id % 2 == 0;
    Recorder::get().set_round(id);
    Recorder::get().set_enabled(r.traced);
    const auto before = read_counters();
    Status st;
    {
      Scope root("round", Layer::kNone);
      if (config.workload == "jacobi-file") {
        st = jacobi_round(*ctx, id, r);
      } else if (sage) {
        st = sage_round(*ctx, id, sage_phase, r);
      } else {
        st = chain_round(*ctx, id, chain, r);
      }
    }
    Recorder::get().set_enabled(false);
    const auto after = read_counters();
    for (const auto& [name, v] : after) r.counters[name] = v - before.at(name);
    if (r.counters["net.protocol_errors"] > 0) {
      r.failed += r.counters["net.protocol_errors"];
      if (r.error.empty()) r.error = "net.protocol_errors increased";
    }
    if (!st.is_ok() && r.failed == 0) {
      ++r.failed;
      r.error = st.to_string();
    }
    rounds.push_back(std::move(r));
    if (rounds.back().failed > 0) break;
    const double elapsed = to_s(now_ns() - run_t0);
    const double mean_round = elapsed / static_cast<double>(rounds.size());
    if (rounds.size() >= 2 && elapsed + mean_round > config.seconds) break;
  }
  std::filesystem::remove_all(ctx->store_root, ec);

  Json detail;
  detail.str("workload", config.workload);
  detail.num("seed", static_cast<double>(config.seed));
  detail.num("trace", config.trace ? 1 : 0);
  detail.num("rounds", static_cast<double>(rounds.size()));
  detail.num("measured_s", to_s(now_ns() - run_t0));
  Json place;
  place.num("nproc", static_cast<double>(ctx->placement.nproc));
  place.str("allowed_cpus", cpu_list(ctx->placement.allowed));
  place.str("app_cpus", cpu_list(ctx->placement.app_cpus));
  place.str("daemon_cpus", sage ? cpu_list(ctx->placement.daemon_cpus) : "");
  place.num("pinned", ctx->placement.pinned ? 1 : 0);
  detail.raw("placement", place.obj());
  Json store;
  store.str("fs", fs);
  store.num("on_tmpfs", fs == "tmpfs" ? 1 : 0);
  store.str("kind", sage ? "segment via RemoteBackend + in-process ickptd"
                         : "file");
  store.num("durable_publish", ickpt::storage::FileBackendOptions{}.durable_publish ? 1 : 0);
  store.num("segment_durable", ickpt::storage::SegmentBackendOptions{}.durable ? 1 : 0);
  detail.raw("store", store.obj());
  if (config.workload == "jacobi-file") {
    detail.str("seed_use", "none: Jacobi3DApp has no randomness");
  } else if (sage) {
    detail.num("checkpoint_phase_vs", sage_phase);
  } else {
    detail.str("seed_use", "chain contents and dirty runs");
  }

  std::vector<const Round*> traced;
  std::vector<const Round*> untraced;
  std::vector<std::uint32_t> traced_ids;
  std::string first_counts;
  bool counts_repeat = true;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    rep.attempted += r.attempted;
    rep.failed += r.failed;
    if (!r.error.empty() && rep.failed == r.failed) detail.str("error", r.error);
    (r.traced ? traced : untraced).push_back(&r);
    if (r.traced) traced_ids.push_back(static_cast<std::uint32_t>(i + 1));
    const std::string counts = exact_counts(r);
    if (first_counts.empty()) first_counts = counts;
    counts_repeat = counts_repeat && counts == first_counts;
  }
  detail.raw("counts_per_round", first_counts.empty() ? "{}" : first_counts);
  detail.num("counts_repeat", counts_repeat ? 1 : 0);
  detail.num("host.ref_p50_s",
             median(gather(untraced.empty() ? traced : untraced,
                           [](const Round& r) -> const auto& {
                             return r.pause_ref_s;
                           })));

  if (config.trace) {
    const std::vector<Span> spans = Recorder::get().spans();
    per_layer(config.workload, spans, traced, untraced, traced_ids, rep, detail);
    const std::string path = config.work_dir + "/trace-" + config.workload +
                             "-seed" + std::to_string(config.seed) + ".json";
    if (write_chrome_trace(spans, path)) detail.str("chrome_trace", path);
  } else {
    end_to_end(untraced, rep, detail);
  }
  rep.correct = rep.failed == 0 && !rounds.empty();
  rep.detail_json = detail.obj();
  return rep;
}

}  // namespace perfbench
