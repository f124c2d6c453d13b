// The benchmark's three workloads and the metrics computed from them.
//
// A run repeats *rounds* until its time is used up.  Every round starts
// from scratch — set-up, a fixed amount of tracked work with
// checkpoints, then restores that are checked byte for byte — so the
// counts of one round (faults, pages, bytes) repeat exactly for one
// seed, and each round gives one set-up sample.
//
// Gated timings are ratios to a reference timed next to them in the
// same process, so drift of the host divides out:
//   slowdown       tracked steps (checkpoint pauses included) over the
//                  same steps of an untracked twin, interleaved step by
//                  step;
//   ckpt_pause_p50_x collect + checkpoint_incremental over 16 MiB of
//                  memcpy between two small L2-resident buffers, run
//                  right after it;
//   restore_*_x    restore_chain + materialize over allocating fresh
//                  state-sized memory and copying the expected image
//                  into it, run right before.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Config {
  std::string workload;   ///< jacobi-file | sage-ickptd | chain-restore
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;   ///< stores and the trace file go here
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  ///< end-to-end, or per-layer when traced
  std::string detail_json;      ///< placement, samples, counts
};

std::vector<std::string> workload_names();

/// Runs the workload; the report says whether every output checked out.
Report run_workload(const Config& config);

}  // namespace perfbench
