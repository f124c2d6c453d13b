// FeasibilityStudy: run one calibrated proxy application under
// timeslice sampling and return the measured series and statistics —
// the workhorse behind every table/figure reproduction.
//
// Single-rank studies run the kernel serially; multi-rank studies
// launch one thread per rank over minimpi with per-rank trackers,
// clocks and samplers (weak scaling: per-rank footprint is constant).
#pragma once

#include <string>
#include <vector>

#include "analysis/metrics.h"
#include "common/status.h"
#include "memtrack/tracker.h"
#include "obs/metrics.h"
#include "trace/time_series.h"
#include "trace/write_trace.h"

namespace ickpt {

struct StudyConfig {
  std::string app = "sage-1000";
  memtrack::EngineKind engine = memtrack::EngineKind::kMProtect;
  double timeslice = 1.0;       ///< virtual seconds
  double sample_phase = 0.0;    ///< offset of the first slice boundary
  double run_vs = 0.0;          ///< virtual run length; 0 = auto
  double footprint_scale = 1.0 / 16.0;
  int nprocs = 1;               ///< ranks (threads); 1 = serial
  int tracked_ranks = -1;       ///< ranks that carry a sampler; -1 = all
  std::uint64_t seed = 42;
  bool include_init = false;    ///< sample the initialization burst too
  bool capture_trace = false;   ///< record rank 0's dirty pages per slice

  /// When non-empty, rank 0 additionally writes a real incremental
  /// checkpoint chain to this directory (file backend) at every
  /// timeslice — the study then measures checkpointing itself, not
  /// just the dirty-page series it would consume.
  std::string checkpoint_dir;
  /// Store the chain in a log-structured segment store instead of
  /// one-file-per-object (make_segment_backend vs make_file_backend).
  bool segment_store = false;
  int encode_threads = 1;       ///< page-encode workers (see Checkpointer)
  bool compress = true;         ///< per-page compression for the chain
};

struct StudyResult {
  /// Per-rank sample series (index = rank; serial runs have one).
  std::vector<trace::TimeSeries> per_rank;
  /// IB stats of rank 0 (the paper plots a single representative
  /// process; bulk-synchrony makes ranks near-identical, Section 6.1).
  analysis::IBStats ib;
  analysis::FootprintStats footprint;
  /// Mean over tracked ranks of each rank's average IB (bytes/s).
  double mean_rank_avg_ib = 0;
  double period_s = 0;          ///< the kernel's nominal period
  std::uint64_t iterations = 0; ///< completed by rank 0

  /// Rank 0's per-slice write trace (populated when
  /// StudyConfig::capture_trace is set) — replayable via
  /// trace::WriteTrace::replay or `ickpt replay`.
  trace::WriteTrace write_trace;

  /// Checkpoint-chain stats (populated when checkpoint_dir is set).
  std::uint64_t ckpt_objects = 0;   ///< checkpoints written
  std::uint64_t ckpt_bytes = 0;     ///< bytes stored (compressed)
  std::uint64_t ckpt_pages = 0;     ///< payload pages covered
  double ckpt_encode_seconds = 0;   ///< wall time inside the writer

  /// Process-wide observability snapshot taken when the study ended:
  /// fault-handler cost, per-stage checkpoint timing and storage
  /// metrics (see obs/metrics.h).  `ickpt study --stats`
  /// prints it; obs::Snapshot::to_json() serializes it.
  obs::Snapshot metrics;
};

/// Auto run length: enough iterations and enough slices for stable
/// statistics (min 4 periods, min 40 slices, capped at 1200 vs).
double auto_run_length(double period_s, double timeslice);

Result<StudyResult> run_study(const StudyConfig& config);

}  // namespace ickpt
