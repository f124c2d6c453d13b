// perfbench: the end-to-end benchmark of incremental checkpointing.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR
//
// Prints one line of detail (placement, store, samples, exact counts)
// and, as the last line, the result:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ones (and writes a Chrome trace into DIR).  Exits 1 when any output
// failed its check, 2 on bad arguments.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "jacobi-file|sage-ickptd|chain-restore --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, &config.seed)) return usage("bad --seed");
    } else if (flag == "--seconds") {
      if (!parse_u64(value, &n) || n == 0 || n > 3600) {
        return usage("bad --seconds");
      }
      config.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (!parse_u64(value, &n) || n > 1) return usage("bad --trace");
      config.trace = n == 1;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const auto& name : perfbench::workload_names()) {
    known = known || name == config.workload;
  }
  if (!have_workload || !known) return usage("unknown --workload");
  if (config.work_dir.empty()) return usage("missing --work-dir");

  perfbench::Report rep = perfbench::run_workload(config);
  for (const auto& m : rep.metrics) {
    if (!std::isfinite(m.value)) rep.correct = false;
  }
  std::printf("{\"detail\":%s}\n", rep.detail_json.c_str());
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{",
              rep.correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const auto& m = rep.metrics[i];
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i == 0 ? "" : ",",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return rep.correct ? 0 : 1;
}
