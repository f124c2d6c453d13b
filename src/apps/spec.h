// KernelSpec: the declarative description a ScriptedKernel executes.
//
// An application iteration is a sequence of phases over a logical data
// array of `footprint_mb` megabytes:
//
//   kSweep    — write a segment sequentially, `passes` times, at a
//               uniform virtual rate over `duration`.  Models solver
//               passes (SSOR, ADI, FFT stages, transport sweeps).
//   kHotCold  — Sage-style processing burst: a hot region of
//               `hot_mb` is rewritten once per virtual second while a
//               cold cursor advances through `cold_range` at
//               `cold_rate_mb_s`, wrapping.  Reproduces the sublinear
//               IWS(timeslice) growth of Figures 2a/3.
//   kComm     — communication burst: ghost exchange with ring
//               neighbours plus an allreduce; received data is copied
//               into the landing segment (dirtying those pages, like
//               the paper's NIC-receive workaround in Section 4.2).
//   kIdle     — advance time without writing (I/O waits etc.).
//
// All byte quantities are expressed in *unscaled* MB; AppConfig's
// footprint_scale is applied at execution time.
#pragma once

#include <string>
#include <vector>

namespace ickpt::apps {

/// A byte range in the logical data array, in unscaled MB.
struct Segment {
  double offset_mb = 0;
  double len_mb = 0;
};

struct Phase {
  enum class Kind { kSweep, kHotCold, kComm, kIdle };

  Kind kind = Kind::kIdle;
  double duration = 0;  ///< virtual seconds

  /// Iteration parity gate: -1 = every iteration, 0 = even iterations
  /// only, 1 = odd only.  Models double-buffered arrays (FFT ping-pong
  /// buffers, alternating flux arrays): consecutive iterations then
  /// write different pages, which is what lets the per-timeslice IWS
  /// exceed the per-iteration union, as the paper measures for FT and
  /// Sweep3D (Table 4 vs Table 3).  A skipped phase consumes no time;
  /// list both parities to keep the period constant.
  int parity = -1;

  // kSweep
  Segment segment{};
  int passes = 1;

  // kHotCold
  double hot_mb = 0;          ///< hot region [0, hot_mb), one rewrite per vs
  double cold_rate_mb_s = 0;  ///< cold cursor advance rate
  Segment cold_range{};       ///< cursor wraps within this segment

  // kComm
  double comm_mb = 0;  ///< payload received per neighbour this phase
  int comm_messages = 4;
};

struct KernelSpec {
  std::string name;
  double footprint_mb = 0;  ///< nominal maximum footprint (Table 2 max)
  double period_s = 0;      ///< main-iteration duration (Table 3)

  /// Initialization burst: fraction of the footprint written, over
  /// this many virtual seconds.
  double init_coverage = 1.0;
  double init_duration_s = 2.0;

  std::vector<Phase> phases;  ///< executed in order each iteration

  // Dynamic memory behaviour (Sage): every iteration the AMR regrid
  // reallocates the data blocks so the total footprint follows
  //   footprint = M * (fill_mean + fill_amp * sin(2*pi*iter/amr_period))
  // reproducing Table 2's max > average for Sage and exercising the
  // memory-exclusion path continuously.
  bool dynamic = false;
  int block_count = 1;
  double fill_mean = 1.0;
  double fill_amp = 0.0;
  double amr_period_iters = 6.0;

  /// Comm-phase duration multiplier: 1 + growth * log2(nprocs / 8),
  /// clamped at >= 1 (Section 6.4.2's slight per-rank IB decrease).
  double comm_growth_per_log2p = 0.0;
};

}  // namespace ickpt::apps
