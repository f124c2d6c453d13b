// BurstAwareScheduler: online detection of the cheap moments to
// checkpoint.
//
// The paper (§1, §6.2): scientific codes "alternate between processing
// and communication bursts that can automatically be identified at run
// time, for example using global operators such as the STORM
// mechanisms. This behavior can be exploited to implement efficient
// coordinated checkpoints", and "it may not be convenient to
// checkpoint during a processing burst".
//
// The scheduler watches the per-slice IWS stream and fires when the
// write activity falls well below its recent level (the gap between
// processing bursts), subject to a minimum and maximum checkpoint
// interval.  It is deliberately simple and fully online: one EWMA and
// two thresholds — the kind of decision logic a STORM-like global
// operator could evaluate across a whole machine.
#pragma once

#include <cstdint>

#include "trace/sample.h"

namespace ickpt::checkpoint {

class BurstAwareScheduler {
 public:
  struct Options {
    /// Fire when slice IWS < quiet_fraction * EWMA(IWS).
    double quiet_fraction = 0.35;
    /// EWMA smoothing factor per slice.
    double ewma_alpha = 0.2;
    /// Never fire more often than this (seconds).
    double min_interval = 2.0;
    /// Always fire at least this often, burst or not (bounds the
    /// rollback window even for codes with no quiet gaps).
    double max_interval = 60.0;
    /// Slices to observe before the EWMA is trusted.
    std::uint64_t warmup_slices = 3;
  };

  BurstAwareScheduler() : BurstAwareScheduler(default_options()) {}
  explicit BurstAwareScheduler(Options options);

  static Options default_options() { return Options{}; }

  /// Feed one timeslice sample; returns true if a checkpoint should be
  /// taken at this boundary.
  bool observe(const trace::Sample& sample);

  double ewma_iws() const noexcept { return ewma_; }
  std::uint64_t decisions() const noexcept { return decisions_; }
  std::uint64_t forced() const noexcept { return forced_; }

 private:
  Options options_;
  double ewma_ = 0;
  std::uint64_t seen_ = 0;
  double anchor_ = 0;  ///< t_end of the first observed sample
  double last_fire_ = 0;
  std::uint64_t decisions_ = 0;
  std::uint64_t forced_ = 0;
  bool has_fired_ = false;
};

}  // namespace ickpt::checkpoint
