// Shared plumbing for the table/figure reproduction harnesses.
//
// Every bench prints the paper's rows (plus paper-reference values
// where the paper states them), writes a CSV next to the binary, and
// honours two environment variables:
//
//   ICKPT_BENCH_SCALE   footprint scale (default 1/16)
//   ICKPT_BENCH_QUICK   if set non-empty, shorter runs / fewer points
//
// Benches that take command-line flags declare them through
// common/flags (BenchArgs binds --scale/--quick with the env values as
// defaults); unknown flags are hard errors.
//
// Machine-readable telemetry: a harness that wraps its arms in
// BenchJson::run_arm writes BENCH_<name>.json next to the CSV — one
// record per arm with wall/cpu seconds, bytes processed and per-phase
// span rollups from the trace ring (docs/OBSERVABILITY.md documents
// the schema; CI validates it).  --trace FILE additionally saves the
// whole run as a Chrome/Perfetto trace.
#pragma once

#include <ctime>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "core/study.h"
#include "obs/trace.h"

namespace ickpt::bench {

inline double bench_scale() {
  if (const char* env = std::getenv("ICKPT_BENCH_SCALE")) {
    double v = std::atof(env);
    if (v > 0) return v;
  }
  return 1.0 / 16.0;
}

inline bool quick_mode() {
  const char* env = std::getenv("ICKPT_BENCH_QUICK");
  return env != nullptr && env[0] != '\0';
}

/// The standard bench knobs as typed flags; the environment variables
/// remain the defaults so existing invocations keep working.
struct BenchArgs {
  double scale = bench_scale();
  bool quick = quick_mode();
  std::string trace;  ///< --trace FILE: Chrome span trace of the run

  void register_flags(FlagSet& flags) {
    flags.add_double("scale", &scale,
                     "footprint scale (default: env ICKPT_BENCH_SCALE)");
    flags.add_bool("quick", &quick,
                   "shorter runs (default: env ICKPT_BENCH_QUICK)");
    flags.add_string("trace", &trace,
                     "write a Chrome/Perfetto span trace to FILE");
  }
};

/// Parse or die: benches have no error path worth recovering.
inline void parse_or_exit(FlagSet& flags, int argc, char* const* argv) {
  auto st = flags.parse(argc, argv, 1);
  if (!st.is_ok()) {
    std::cerr << st.to_string() << "\n" << flags.help();
    std::exit(2);
  }
}

/// Unscale a measured byte quantity back to paper-equivalent MB.
inline double paper_mb(double bytes, double scale) {
  return bytes / static_cast<double>(kMB) / scale;
}

inline StudyResult must_run(StudyConfig cfg) {
  auto r = run_study(cfg);
  if (!r.is_ok()) {
    std::cerr << "study failed for " << cfg.app << ": "
              << r.status().to_string() << "\n";
    std::exit(1);
  }
  return std::move(r.value());
}

inline void finish(TextTable& table, const std::string& csv_name) {
  table.print(std::cout);
  if (table.write_csv(csv_name)) {
    std::cout << "csv: " << csv_name << "\n";
  }
}

/// CPU time consumed by the whole process (all threads) so far.
inline double process_cpu_seconds() {
  std::timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Machine-readable bench results: one record per measured arm,
/// written as BENCH_<bench>.json (schema version 1):
///
///   {"bench":"encode","schema":1,"scale":0.0625,"quick":false,
///    "hw_threads":4,"timestamp_unix":1754650000,
///    "arms":[{"name":"t4_compress_sync","wall_s":1.2,"cpu_s":4.1,
///             "bytes":201326592,
///             "phases":[{"name":"ckpt.encode_shard","count":96,
///                        "total_ns":812345678}]}]}
///
/// Construction turns span tracing on; each run_arm attributes the
/// events emitted while its body ran (by ring sequence number) and
/// rolls completed spans up into per-phase totals.  wall_s/cpu_s cover
/// the whole arm body — repetitions included — so rates derived from
/// them divide by the total bytes the arm actually pushed.
class BenchJson {
 public:
  BenchJson(std::string bench, const BenchArgs& args)
      : bench_(std::move(bench)), scale_(args.scale), quick_(args.quick) {
    obs::start_tracing();
  }

  /// Measure `fn` as one arm processing `bytes` bytes; returns the
  /// arm's wall_s.
  template <typename F>
  double run_arm(const std::string& name, std::uint64_t bytes, F&& fn) {
    const obs::TraceRing* ring = obs::trace_ring();
    const std::uint64_t seq0 = ring != nullptr ? ring->emitted() : 0;
    untimed_wall_s_ = 0;
    untimed_cpu_s_ = 0;
    const double cpu0 = process_cpu_seconds();
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    Arm arm;
    arm.name = name;
    arm.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count() -
        untimed_wall_s_;
    arm.cpu_s = process_cpu_seconds() - cpu0 - untimed_cpu_s_;
    arm.bytes = bytes;
    if (ring != nullptr) {
      auto events = ring->snapshot();
      std::erase_if(events,
                    [seq0](const obs::TraceEvent& e) { return e.seq < seq0; });
      arm.phases = obs::rollup_spans(events);
    }
    arms_.push_back(std::move(arm));
    return arms_.back().wall_s;
  }

  /// Inside a run_arm body: run `fn` off the arm's wall and CPU clocks,
  /// for clean-up between the arm's repetitions.  Spans it emits still
  /// roll up into the arm's phases.
  template <typename F>
  void untimed(F&& fn) {
    const double cpu0 = process_cpu_seconds();
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    untimed_wall_s_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    untimed_cpu_s_ += process_cpu_seconds() - cpu0;
  }

  /// Write BENCH_<bench>.json next to the binary (like the CSVs) and,
  /// when --trace was given, the Chrome trace of the whole run.
  void write(const BenchArgs& args) const {
    const std::string path = "BENCH_" + bench_ + ".json";
    std::ofstream out(path, std::ios::trunc);
    if (out) {
      out << to_json() << "\n";
      std::cout << "bench json: " << path << "\n";
    } else {
      std::cerr << "bench json: cannot write " << path << "\n";
    }
    if (!args.trace.empty()) {
      auto st = obs::write_chrome_trace(args.trace);
      if (st.is_ok()) {
        std::cout << "span trace: " << args.trace
                  << " (open in ui.perfetto.dev)\n";
      } else {
        std::cerr << "span trace: " << st.to_string() << "\n";
      }
    }
  }

  std::string to_json() const {
    std::string j = "{\"bench\":\"" + escape(bench_) + "\",\"schema\":1";
    j += ",\"scale\":" + num(scale_);
    j += std::string(",\"quick\":") + (quick_ ? "true" : "false");
    j += ",\"hw_threads\":" +
         std::to_string(ThreadPool::hardware_threads());
    j += ",\"timestamp_unix\":" +
         std::to_string(static_cast<long long>(std::time(nullptr)));
    j += ",\"arms\":[";
    for (std::size_t i = 0; i < arms_.size(); ++i) {
      const Arm& a = arms_[i];
      if (i > 0) j += ",";
      j += "{\"name\":\"" + escape(a.name) + "\"";
      j += ",\"wall_s\":" + num(a.wall_s);
      j += ",\"cpu_s\":" + num(a.cpu_s);
      j += ",\"bytes\":" + std::to_string(a.bytes);
      j += ",\"phases\":[";
      for (std::size_t p = 0; p < a.phases.size(); ++p) {
        if (p > 0) j += ",";
        j += "{\"name\":\"" + escape(a.phases[p].name) + "\"";
        j += ",\"count\":" + std::to_string(a.phases[p].count);
        j += ",\"total_ns\":" + std::to_string(a.phases[p].total_ns) + "}";
      }
      j += "]}";
    }
    j += "]}";
    return j;
  }

 private:
  struct Arm {
    std::string name;
    double wall_s = 0;
    double cpu_s = 0;
    std::uint64_t bytes = 0;
    std::vector<obs::SpanRollup> phases;
  };

  static std::string num(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }

  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out;
  }

  std::string bench_;
  double scale_;
  bool quick_;
  std::vector<Arm> arms_;
  double untimed_wall_s_ = 0;  ///< of the arm running now
  double untimed_cpu_s_ = 0;
};

/// Timeslices used by the figure sweeps (paper: 1 s .. 20 s).
inline std::vector<double> timeslice_sweep() {
  if (quick_mode()) return {1, 5, 20};
  return {1, 2, 5, 10, 15, 20};
}

}  // namespace ickpt::bench
