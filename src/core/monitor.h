// ickpt::Monitor — the library-level equivalent of the paper's
// LD_PRELOAD instrumentation: attach your data arrays, start a
// wall-clock timeslice, run your computation unmodified, and read back
// the IWS/IB series.
//
//   ickpt::Monitor monitor({.engine = EngineKind::kMProtect,
//                           .timeslice = 1.0});
//   monitor.attach(my_field, "pressure");
//   monitor.start();
//   ... run solver ...
//   monitor.stop();
//   auto stats = monitor.ib_stats();
#pragma once

#include <memory>
#include <span>
#include <string>

#include "analysis/feasibility.h"
#include "analysis/metrics.h"
#include "common/status.h"
#include "memtrack/tracker.h"
#include "sim/sampler.h"

namespace ickpt {

struct MonitorOptions {
  memtrack::EngineKind engine = memtrack::EngineKind::kMProtect;
  double timeslice = 1.0;  ///< wall seconds between samples
};

class Monitor {
 public:
  /// Fails if the timeslice is not positive.
  static Result<std::unique_ptr<Monitor>> create(MonitorOptions options);

  ~Monitor();
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Attach a page-aligned range of application memory.
  Result<memtrack::RegionId> attach(std::span<std::byte> mem,
                                    std::string name);
  Status detach(memtrack::RegionId id);

  Status start();
  void stop();

  /// Samples recorded so far (thread-safe snapshot).
  trace::TimeSeries series() const;

  analysis::IBStats ib_stats(std::size_t skip_first = 0) const;
  analysis::FeasibilityVerdict feasibility(std::size_t skip_first = 0) const;

  memtrack::DirtyTracker& tracker() noexcept { return *tracker_; }

 private:
  Monitor(MonitorOptions options,
          std::unique_ptr<memtrack::DirtyTracker> tracker);

  MonitorOptions options_;
  std::unique_ptr<memtrack::DirtyTracker> tracker_;
  std::unique_ptr<sim::WallClockSampler> sampler_;
};

}  // namespace ickpt
