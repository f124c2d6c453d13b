// Ablation X1: dirty-tracking engine comparison.
//
// The paper's mechanism (mprotect + SIGSEGV) pays one fault per first
// write to a page per timeslice.  Fault batching (unprotecting N pages
// per fault) trades IWS over-approximation for fewer faults; the
// explicit engine is the fault-free oracle.  This bench measures all
// of it on one deterministic workload.
#include "bench/bench_util.h"

#include <chrono>

#include "common/arena.h"
#include "common/rng.h"
#include "memtrack/mprotect_engine.h"
#include "memtrack/tracker.h"

using namespace ickpt;
using namespace ickpt::bench;
using namespace ickpt::memtrack;

namespace {

struct WorkloadResult {
  double wall_seconds = 0;
  std::size_t iws_pages_total = 0;
  EngineCounters counters;
};

/// Fixed workload: `intervals` timeslices, each writing `writes_per`
/// random positions in a `pages`-page arena (with page reuse).
WorkloadResult run_workload(DirtyTracker& tracker, std::size_t pages,
                            int intervals, int writes_per) {
  PageArena arena(pages * page_size());
  arena.prefault();
  auto id = tracker.attach(arena.span(), "bench");
  if (!id.is_ok()) std::exit(1);

  auto t0 = std::chrono::steady_clock::now();
  if (!tracker.arm().is_ok()) std::exit(1);
  WorkloadResult out;
  Rng rng(42);  // same seed for every engine
  for (int i = 0; i < intervals; ++i) {
    for (int w = 0; w < writes_per; ++w) {
      std::size_t off = rng.next_index(pages * page_size());
      arena.data()[off] = std::byte{1};
      tracker.note_write(arena.data() + off, 1);
    }
    auto snap = tracker.collect(/*rearm=*/true);
    if (!snap.is_ok()) std::exit(1);
    out.iws_pages_total += snap->dirty_pages();
  }
  out.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  out.counters = tracker.counters();
  (void)tracker.detach(*id);
  return out;
}

}  // namespace

int main() {
  const std::size_t pages = quick_mode() ? 4096 : 16384;  // 16/64 MB
  const int intervals = quick_mode() ? 20 : 50;
  const int writes_per = static_cast<int>(pages);  // ~63% pages/interval

  TextTable table("Ablation X1 - engine cost on identical workload (" +
                  std::to_string(pages) + " pages x " +
                  std::to_string(intervals) + " intervals)");
  table.set_header(
      {"Engine", "Wall (s)", "IWS pages (sum)", "Faults", "Noted writes"});

  auto row = [&](const std::string& label, DirtyTracker& tracker) {
    auto r = run_workload(tracker, pages, intervals, writes_per);
    table.add_row({label, TextTable::num(r.wall_seconds, 3),
                   std::to_string(r.iws_pages_total),
                   std::to_string(r.counters.faults_handled),
                   std::to_string(r.counters.writes_noted)});
  };

  {
    MProtectEngine engine;  // the paper's mechanism
    row("mprotect (batch=1, paper)", engine);
  }
  for (std::uint32_t batch : {4u, 16u}) {
    MProtectEngine::Options opts;
    opts.fault_batch_pages = batch;
    MProtectEngine engine(opts);
    row("mprotect (batch=" + std::to_string(batch) + ")", engine);
  }
  {
    auto engine = make_tracker(EngineKind::kExplicit);
    row("explicit (oracle)", **engine);
  }

  finish(table, "ablation_engines.csv");
  std::cout << "note: batched mprotect trades IWS over-approximation "
               "(larger IWS sum) for fewer faults\n";
  return 0;
}
