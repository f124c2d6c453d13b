#include "core/study.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>

#include "apps/catalog.h"
#include "apps/scripted_kernel.h"
#include "checkpoint/checkpointer.h"
#include "minimpi/comm.h"
#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/sampler.h"
#include "sim/virtual_clock.h"
#include "storage/backend.h"
#include "storage/segment_backend.h"

namespace ickpt {

double auto_run_length(double period_s, double timeslice) {
  double len = std::max(4.0 * period_s, 40.0 * timeslice);
  return std::min(len, 1200.0);
}

namespace {

struct RankOutcome {
  trace::TimeSeries series;
  trace::WriteTrace write_trace;
  std::uint64_t iterations = 0;
  Status status;
  std::uint64_t ckpt_objects = 0;
  std::uint64_t ckpt_bytes = 0;
  std::uint64_t ckpt_pages = 0;
  double ckpt_encode_seconds = 0;
};

/// Body executed by each rank (and by the serial path with comm ==
/// nullptr).
RankOutcome run_rank(const StudyConfig& config, double run_vs,
                     mpi::Comm* comm, int rank, bool tracked) {
  RankOutcome out;
  auto tracker = memtrack::make_tracker(config.engine);
  if (!tracker.is_ok()) {
    out.status = tracker.status();
    return out;
  }
  sim::VirtualClock clock;

  apps::AppConfig app_config;
  app_config.footprint_scale = config.footprint_scale;
  app_config.nprocs = config.nprocs;
  app_config.comm = comm;
  app_config.seed = config.seed + static_cast<std::uint64_t>(rank) * 7919;

  auto app = apps::make_app(config.app, app_config, **tracker, clock);
  if (!app.is_ok()) {
    out.status = app.status();
    return out;
  }

  sim::SamplerOptions sopts;
  sopts.timeslice = config.timeslice;
  sopts.phase = config.sample_phase;
  if (comm != nullptr) {
    sopts.recv_probe = [comm] { return comm->bytes_received(); };
    sopts.sent_probe = [comm] { return comm->bytes_sent(); };
  }
  // Optional real checkpoint chain for rank 0: every slice's snapshot
  // feeds an incremental checkpointer so the study measures actual
  // encode/write cost alongside the IWS series.
  std::unique_ptr<storage::StorageBackend> ckpt_backend;
  std::unique_ptr<checkpoint::Checkpointer> ckpt;
  if (!config.checkpoint_dir.empty() && rank == 0) {
    auto backend = config.segment_store
                       ? storage::make_segment_backend(config.checkpoint_dir)
                       : storage::make_file_backend(config.checkpoint_dir);
    if (!backend.is_ok()) {
      out.status = backend.status();
      return out;
    }
    ckpt_backend = std::move(backend.value());
    checkpoint::CheckpointerOptions copts;
    copts.compress = config.compress;
    copts.encode_threads = config.encode_threads;
    auto made = checkpoint::Checkpointer::create((*app)->space(),
                                                 ckpt_backend.get(), copts);
    if (!made.is_ok()) {
      out.status = made.status();
      return out;
    }
    ckpt = std::move(made.value());
  }

  out.write_trace = trace::WriteTrace(0, config.timeslice);
  if (config.capture_trace && rank == 0) {
    // Record each slice's dirty pages in a concatenated logical page
    // space (regions in snapshot order).  Replay reproduces the IWS
    // series; page identity across dynamic remaps is positional.
    sopts.on_sample = [&out](const trace::Sample& s,
                             const memtrack::DirtySnapshot& snap) {
      std::size_t base = 0;
      for (const auto& region : snap.regions) {
        std::size_t i = 0;
        const auto& dirty = region.dirty_pages;
        while (i < dirty.size()) {
          std::size_t j = i + 1;
          while (j < dirty.size() && dirty[j] == dirty[j - 1] + 1) ++j;
          out.write_trace.record(
              s.index,
              static_cast<std::uint32_t>(base + dirty[i]),
              static_cast<std::uint32_t>(j - i));
          i = j;
        }
        base += region.range.pages();
      }
      out.write_trace.set_region_pages(base);
    };
  }
  Status ckpt_status;
  if (ckpt != nullptr) {
    // Chain behind any trace-capture hook already installed.
    auto prev = std::move(sopts.on_sample);
    auto* ckpt_ptr = ckpt.get();
    sopts.on_sample = [&out, &ckpt_status, ckpt_ptr, prev = std::move(prev)](
                          const trace::Sample& s,
                          const memtrack::DirtySnapshot& snap) {
      if (prev) prev(s, snap);
      if (!ckpt_status.is_ok()) return;
      static const std::uint16_t t_slice =
          obs::trace_name("study.slice", obs::TraceCat::kStudy);
      obs::TraceSpan slice_span(t_slice, s.index);
      const auto t0 = std::chrono::steady_clock::now();
      auto meta = ckpt_ptr->checkpoint_incremental(snap, s.t_end);
      out.ckpt_encode_seconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      if (!meta.is_ok()) {
        ckpt_status = meta.status();
        return;
      }
      ++out.ckpt_objects;
      out.ckpt_pages += meta->payload_pages;
    };
  }

  sim::TimesliceSampler sampler(**tracker, clock, sopts);

  auto run = [&]() -> Status {
    if (config.include_init) {
      ICKPT_RETURN_IF_ERROR(sampler.start());
      ICKPT_RETURN_IF_ERROR((*app)->init());
    } else {
      // The paper excludes the initialization write burst (§6.3):
      // initialize first, then begin sampling.
      ICKPT_RETURN_IF_ERROR((*app)->init());
      if (tracked) ICKPT_RETURN_IF_ERROR(sampler.start());
    }
    double until = clock.now() + run_vs;
    return (*app)->run_until(clock, until);
  };
  out.status = run();
  if (tracked && sampler.running()) sampler.stop();
  if (ckpt != nullptr) out.ckpt_bytes = ckpt_backend->total_bytes_stored();
  if (out.status.is_ok() && !ckpt_status.is_ok()) out.status = ckpt_status;
  out.series = sampler.take_series();
  out.iterations = (*app)->iterations();
  return out;
}

}  // namespace

Result<StudyResult> run_study(const StudyConfig& config) {
  auto period = apps::app_period(config.app);
  if (!period.is_ok()) return period.status();
  if (config.nprocs < 1) return invalid_argument("nprocs must be >= 1");
  if (config.timeslice <= 0) return invalid_argument("timeslice must be > 0");

  const double run_vs = config.run_vs > 0
                            ? config.run_vs
                            : auto_run_length(*period, config.timeslice);
  // Studies that write a real chain arm the flight recorder: a crash
  // or restore failure then leaves a post-mortem next to the objects.
  if (!config.checkpoint_dir.empty()) {
    obs::flightrec::configure(config.checkpoint_dir);
  }
  const int tracked =
      config.tracked_ranks < 0 ? config.nprocs
                               : std::min(config.tracked_ranks, config.nprocs);

  std::vector<RankOutcome> outcomes(
      static_cast<std::size_t>(config.nprocs));

  if (config.nprocs == 1) {
    outcomes[0] = run_rank(config, run_vs, nullptr, 0, true);
  } else {
    mpi::Runtime::run(config.nprocs, [&](mpi::Comm& comm) {
      int r = comm.rank();
      outcomes[static_cast<std::size_t>(r)] =
          run_rank(config, run_vs, &comm, r, r < tracked);
    });
  }
  for (const auto& o : outcomes) {
    if (!o.status.is_ok()) return o.status;
  }

  StudyResult result;
  result.period_s = *period;
  result.iterations = outcomes[0].iterations;
  result.per_rank.reserve(outcomes.size());
  for (auto& o : outcomes) result.per_rank.push_back(std::move(o.series));

  result.write_trace = std::move(outcomes[0].write_trace);
  result.ckpt_objects = outcomes[0].ckpt_objects;
  result.ckpt_bytes = outcomes[0].ckpt_bytes;
  result.ckpt_pages = outcomes[0].ckpt_pages;
  result.ckpt_encode_seconds = outcomes[0].ckpt_encode_seconds;
  result.ib = analysis::compute_ib_stats(result.per_rank[0]);
  result.footprint = analysis::compute_footprint_stats(result.per_rank[0]);
  result.metrics = obs::registry().snapshot();

  double acc = 0;
  int n = 0;
  for (int r = 0; r < tracked; ++r) {
    const auto& series = result.per_rank[static_cast<std::size_t>(r)];
    if (series.empty()) continue;
    acc += analysis::compute_ib_stats(series).avg_ib;
    ++n;
  }
  result.mean_rank_avg_ib = n > 0 ? acc / n : 0;
  return result;
}

}  // namespace ickpt
