// ickpt — command-line front end to the library.
//
//   ickpt apps
//       List the calibrated applications and their paper targets.
//
//   ickpt study --app NAME [--timeslice S] [--ranks N] [--engine E]
//               [--scale F] [--run-vs S] [--csv FILE] [--phase S]
//               [--ckpt-dir DIR] [--encode-threads N]
//               [--no-compress] [--stats] [--trace FILE]
//       Run a feasibility study and print the measured
//       characterization, bandwidth requirement and verdict.
//       With --ckpt-dir it also writes a real full+incremental
//       checkpoint chain (optionally with parallel encode).
//       With --stats it appends the observability snapshot: fault
//       cost, per-stage checkpoint timing, storage metrics — as a
//       table and as JSON.  With --trace it records span tracing
//       (fault instants, encode shards, backend writes) and writes
//       Chrome/Perfetto trace-event JSON.  --write-trace saves the
//       dirty-page write trace for 'ickpt replay'.
//
//   ickpt stats [--iters N] [--json]
//       Self-benchmark the metrics layer (cost per counter increment,
//       histogram record, enabled and idle scoped timer, trace emit)
//       and print the resulting registry snapshot.
//
//   ickpt fsck DIR [--repair] [--backend B] [--trace FILE]
//       Verify every checkpoint chain in a local store directory
//       (file or segment layout; auto-detected by default).
//       With --repair, quarantine corrupt tails and orphans (moved
//       under DIR/quarantine/, never deleted) so every rank keeps its
//       newest restorable prefix, then re-verify.  An unhealthy store
//       leaves a flight-recorder dump under DIR.
//
//   ickpt replay TRACE.wt
//       Replay a saved write trace through the explicit engine and
//       print the IWS per slice.
//
//   ickpt put KEY FILE / get KEY [FILE] / ls / del KEY
//       Object-store operations against either a local store
//       (--dir DIR, file or segment layout via --backend) or a
//       running ickptd (--addr HOST:PORT, optional --tenant).
//       `get` without FILE streams to stdout.  The same
//       code path the Checkpointer uses, so a put/get round trip is
//       byte-exact.
//
// All flags go through common/flags: unknown flags, malformed values
// and unknown app/engine names are hard errors with exit code 2.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>

#include "analysis/distribution.h"
#include "analysis/feasibility.h"
#include "analysis/period.h"
#include "apps/catalog.h"
#include "checkpoint/inspect.h"
#include "common/arena.h"
#include "common/flags.h"
#include "common/table.h"
#include "common/units.h"
#include "core/study.h"
#include "net/remote_backend.h"
#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "storage/backend.h"
#include "storage/segment_backend.h"
#include "trace/write_trace.h"

namespace {

using namespace ickpt;

int usage() {
  std::fprintf(stderr,
               "usage: ickpt apps\n"
               "       ickpt study --app NAME [--timeslice S] [--ranks N]\n"
               "                   [--engine mprotect|explicit]\n"
               "                   [--scale F] [--run-vs S] [--phase S]\n"
               "                   [--csv FILE] [--trace FILE]\n"
               "                   [--write-trace FILE]\n"
               "                   [--ckpt-dir DIR] [--segment-store]\n"
               "                   [--encode-threads N]\n"
               "                   [--no-compress] [--stats]\n"
               "       ickpt stats [--iters N] [--json]\n"
               "       ickpt fsck DIR [--repair] [--backend B] "
               "[--trace FILE]\n"
               "       ickpt replay TRACE.wt\n"
               "       ickpt put KEY FILE (--dir DIR | --addr HOST:PORT)\n"
               "                   [--tenant T] [--trace FILE]\n"
               "       ickpt get KEY [FILE] (--dir DIR | --addr "
               "HOST:PORT)\n"
               "                   [--tenant T] [--trace FILE]\n"
               "       ickpt ls  (--dir DIR | --addr HOST:PORT) "
               "[--tenant T]\n"
               "       ickpt del KEY (--dir DIR | --addr HOST:PORT) "
               "[--tenant T]\n"
               "('ickpt <command> --help' lists every flag.)\n");
  return 2;
}

/// Shared exit path for flag errors: message, then the per-command
/// flag reference.
int flag_error(const Status& st, const FlagSet& flags) {
  std::fprintf(stderr, "%s\n%s", st.to_string().c_str(),
               flags.help().c_str());
  return 2;
}

Result<memtrack::EngineKind> parse_engine(const std::string& name) {
  if (name == "mprotect") return memtrack::EngineKind::kMProtect;
  if (name == "explicit") return memtrack::EngineKind::kExplicit;
  return invalid_argument("ickpt: unknown engine '" + name +
                          "' (expected mprotect|explicit)");
}

void print_metrics(const obs::Snapshot& snap, const std::string& title) {
  snap.table(title).print(std::cout);
  std::printf("%s\n", snap.to_json().c_str());
}

/// Snapshot the span-trace ring into Chrome trace-event JSON at
/// `path`.  Returns the process exit code contribution (0 or 1).
int finish_span_trace(const std::string& path) {
  if (path.empty()) return 0;
  obs::stop_tracing();
  auto st = obs::write_chrome_trace(path);
  if (!st.is_ok()) {
    std::fprintf(stderr, "span trace: %s\n", st.to_string().c_str());
    return 1;
  }
  const obs::TraceRing* ring = obs::trace_ring();
  std::printf("span trace  : %s (%llu events%s; open in ui.perfetto.dev "
              "or chrome://tracing)\n",
              path.c_str(),
              static_cast<unsigned long long>(
                  ring != nullptr ? ring->emitted() : 0),
              ring != nullptr && ring->dropped() > 0 ? ", ring wrapped"
                                                     : "");
  return 0;
}

int cmd_apps(int argc, char** argv) {
  FlagSet flags("ickpt apps");
  auto st = flags.parse(argc, argv, 2);
  if (!st.is_ok()) return flag_error(st, flags);

  TextTable table("Calibrated applications");
  table.set_header({"Name", "Footprint max (MB)", "Period (s)",
                    "Overwrite %", "Avg IB@1s (MB/s)"});
  for (const auto& name : apps::catalog_names()) {
    auto t = apps::paper_targets(name).value();
    table.add_row({name, TextTable::num(t.footprint_max_mb),
                   TextTable::num(t.period_s, 2),
                   TextTable::num(t.overwrite_frac * 100, 0),
                   TextTable::num(t.avg_ib1_mb_s)});
  }
  for (const auto& name : apps::extra_app_names()) {
    auto period = apps::app_period(name);
    table.add_row({name + " (extra)", "-",
                   period.is_ok() ? TextTable::num(*period, 2) : "?", "-",
                   "-"});
  }
  table.print(std::cout);
  return 0;
}

int cmd_study(int argc, char** argv) {
  StudyConfig cfg;
  cfg.footprint_scale = 1.0 / 16.0;
  std::string engine_name = "mprotect";
  std::string csv_path;
  std::string write_trace_path;
  std::string span_trace_path;
  bool no_compress = false;
  bool want_stats = false;
  bool help = false;

  FlagSet flags("ickpt study");
  flags.add_string("app", &cfg.app, "application to study (see 'ickpt apps')");
  flags.add_double("timeslice", &cfg.timeslice, "sampling timeslice (s)");
  flags.add_int("ranks", &cfg.nprocs, "ranks to run (threads over minimpi)");
  flags.add_string("engine", &engine_name,
                   "dirty-page engine: mprotect|explicit");
  flags.add_double("scale", &cfg.footprint_scale,
                   "footprint scale vs the paper's machines");
  flags.add_double("run-vs", &cfg.run_vs,
                   "virtual run length (s); 0 = auto");
  flags.add_double("phase", &cfg.sample_phase,
                   "offset of the first slice boundary (s)");
  flags.add_string("csv", &csv_path, "write rank 0's series to this CSV");
  flags.add_string("trace", &span_trace_path,
                   "record span tracing and write Chrome/Perfetto "
                   "trace-event JSON here");
  flags.add_string("write-trace", &write_trace_path,
                   "save rank 0's write trace ('ickpt replay' reads it)");
  flags.add_string("ckpt-dir", &cfg.checkpoint_dir,
                   "write a real checkpoint chain to this directory");
  flags.add_bool("segment-store", &cfg.segment_store,
                 "store the chain in a log-structured segment store "
                 "instead of one file per object");
  flags.add_int("encode-threads", &cfg.encode_threads,
                "page-encode worker threads");
  flags.add_bool("no-compress", &no_compress,
                 "disable per-page payload compression");
  flags.add_bool("stats", &want_stats,
                 "print the observability snapshot (table + JSON)");
  flags.add_bool("help", &help, "show this help");

  auto parsed = flags.parse(argc, argv, 2);
  if (!parsed.is_ok()) return flag_error(parsed, flags);
  if (help) {
    std::printf("%s", flags.help().c_str());
    return 0;
  }
  cfg.compress = !no_compress;
  cfg.capture_trace = !write_trace_path.empty();
  if (!span_trace_path.empty()) obs::start_tracing();

  auto engine = parse_engine(engine_name);
  if (!engine.is_ok()) {
    std::fprintf(stderr, "%s\n", engine.status().to_string().c_str());
    return 2;
  }
  cfg.engine = *engine;
  // Validate the app name up front so a typo is a usage error (exit 2
  // like any other bad flag value), not a late study failure.
  if (auto period = apps::app_period(cfg.app); !period.is_ok()) {
    std::fprintf(stderr, "ickpt study: %s\n",
                 period.status().to_string().c_str());
    return 2;
  }

  auto r = run_study(cfg);
  if (!r.is_ok()) {
    std::fprintf(stderr, "study failed: %s\n",
                 r.status().to_string().c_str());
    return 1;
  }

  const double scale = cfg.footprint_scale;
  auto mb = [scale](double bytes) {
    return bytes / static_cast<double>(kMB) / scale;
  };
  std::printf("app         : %s (%s engine, timeslice %.2fs, %d rank%s)\n",
              cfg.app.c_str(),
              std::string(memtrack::to_string(cfg.engine)).c_str(),
              cfg.timeslice, cfg.nprocs, cfg.nprocs == 1 ? "" : "s");
  std::printf("iterations  : %llu (period %.2fs)\n",
              static_cast<unsigned long long>(r->iterations), r->period_s);
  std::printf("footprint   : max %.1f MB, avg %.1f MB (paper-equivalent)\n",
              mb(r->footprint.max_bytes), mb(r->footprint.avg_bytes));
  std::printf("IB          : avg %.1f MB/s, max %.1f MB/s\n",
              mb(r->ib.avg_ib), mb(r->ib.max_ib));
  auto q = analysis::ib_quantiles(r->per_rank[0]);
  std::printf("IB quantiles: p50 %.1f, p90 %.1f, p99 %.1f MB/s\n",
              mb(q.p50), mb(q.p90), mb(q.p99));
  std::printf("IWS ratio   : %.0f%% of footprint per slice\n",
              r->ib.avg_ratio * 100);

  auto est = analysis::detect_period(r->per_rank[0].iws_bytes_series(),
                                     cfg.timeslice);
  if (est.found) {
    std::printf("period det. : %.2fs (confidence %.2f)\n", est.period,
                est.confidence);
  }

  analysis::IBStats paper_eq;
  paper_eq.avg_ib = r->ib.avg_ib / scale;
  paper_eq.max_ib = r->ib.max_ib / scale;
  std::printf("feasibility : %s\n",
              analysis::describe(
                  analysis::assess_feasibility(paper_eq)).c_str());

  if (!cfg.checkpoint_dir.empty()) {
    const double written_mb =
        static_cast<double>(r->ckpt_bytes) / static_cast<double>(kMB);
    const double rate = r->ckpt_encode_seconds > 0
                            ? written_mb / r->ckpt_encode_seconds
                            : 0;
    std::printf(
        "checkpoints : %llu objects, %s, %.2fs in writer (%.0f MB/s, "
        "%d encode thread%s)\n",
        static_cast<unsigned long long>(r->ckpt_objects),
        format_bytes(r->ckpt_bytes).c_str(), r->ckpt_encode_seconds, rate,
        cfg.encode_threads, cfg.encode_threads == 1 ? "" : "s");
  }

  if (!csv_path.empty()) {
    auto st = r->per_rank[0].write_csv(csv_path);
    if (!st.is_ok()) {
      std::fprintf(stderr, "csv: %s\n", st.to_string().c_str());
      return 1;
    }
    std::printf("series csv  : %s\n", csv_path.c_str());
  }
  if (!write_trace_path.empty()) {
    auto st = r->write_trace.save(write_trace_path);
    if (!st.is_ok()) {
      std::fprintf(stderr, "trace: %s\n", st.to_string().c_str());
      return 1;
    }
    std::printf("write trace : %s (%zu events; 'ickpt replay' reads it)\n",
                write_trace_path.c_str(), r->write_trace.events().size());
  }
  if (finish_span_trace(span_trace_path) != 0) return 1;
  if (want_stats) print_metrics(r->metrics, "study metrics");
  return 0;
}

int cmd_stats(int argc, char** argv) {
  int iters = 1000000;
  bool json_only = false;
  bool help = false;
  FlagSet flags("ickpt stats");
  flags.add_int("iters", &iters, "iterations per micro-benchmark loop");
  flags.add_bool("json", &json_only, "print only the JSON snapshot");
  flags.add_bool("help", &help, "show this help");
  auto parsed = flags.parse(argc, argv, 2);
  if (!parsed.is_ok()) return flag_error(parsed, flags);
  if (help) {
    std::printf("%s", flags.help().c_str());
    return 0;
  }
  if (iters < 1) {
    std::fprintf(stderr, "ickpt stats: --iters must be >= 1\n");
    return 2;
  }
  const auto n = static_cast<std::uint64_t>(iters);

  // Self-benchmark: the per-operation cost of each primitive the rest
  // of the system sprinkles on its hot paths (Section 6.5's
  // intrusiveness question, asked of the instrumentation itself).
  auto& reg = obs::registry();
  auto& counter = reg.counter("obs.bench.count");
  auto& hist = reg.histogram("obs.bench.value_ns", obs::Unit::kNanoseconds);
  auto& timed = reg.histogram("obs.bench.timed_ns", obs::Unit::kNanoseconds);

  auto per_op = [n](std::uint64_t t0, std::uint64_t t1) {
    return static_cast<double>(t1 - t0) / static_cast<double>(n);
  };

  std::uint64_t t0 = obs::now_ns();
  for (std::uint64_t i = 0; i < n; ++i) counter.inc();
  const double counter_ns = per_op(t0, obs::now_ns());

  t0 = obs::now_ns();
  for (std::uint64_t i = 0; i < n; ++i) hist.record(i & 0xFFFF);
  const double record_ns = per_op(t0, obs::now_ns());

  t0 = obs::now_ns();
  for (std::uint64_t i = 0; i < n; ++i) {
    obs::ScopedTimer t(timed);
  }
  const double timer_ns = per_op(t0, obs::now_ns());

  obs::set_enabled(false);
  t0 = obs::now_ns();
  for (std::uint64_t i = 0; i < n; ++i) {
    obs::ScopedTimer t(timed);
  }
  const double idle_ns = per_op(t0, obs::now_ns());
  obs::set_enabled(true);

  // Trace-emit cost: with tracing off (the always-on branch every
  // instrumented site pays) and on (ring emit).
  const std::uint16_t t_bench =
      obs::trace_name("obs.bench.emit", obs::TraceCat::kBench);
  t0 = obs::now_ns();
  for (std::uint64_t i = 0; i < n; ++i) obs::trace_instant(t_bench, i);
  const double trace_off_ns = per_op(t0, obs::now_ns());

  obs::start_tracing();
  t0 = obs::now_ns();
  for (std::uint64_t i = 0; i < n; ++i) obs::trace_instant(t_bench, i);
  const double trace_on_ns = per_op(t0, obs::now_ns());
  obs::stop_tracing();

  if (!json_only) {
    TextTable table("metrics layer self-benchmark (" +
                    std::to_string(n) + " ops each)");
    table.set_header({"Primitive", "ns/op"});
    table.add_row({"counter inc", TextTable::num(counter_ns, 1)});
    table.add_row({"histogram record", TextTable::num(record_ns, 1)});
    table.add_row({"scoped timer (enabled)", TextTable::num(timer_ns, 1)});
    table.add_row({"scoped timer (idle)", TextTable::num(idle_ns, 1)});
    table.add_row({"trace emit (tracing off)",
                   TextTable::num(trace_off_ns, 1)});
    table.add_row({"trace emit (tracing on)",
                   TextTable::num(trace_on_ns, 1)});
    table.print(std::cout);
  }

  auto snap = reg.snapshot();
  if (json_only) {
    std::printf("%s\n", snap.to_json().c_str());
  } else {
    print_metrics(snap, "registry snapshot");
  }
  return 0;
}

/// Local-store backend selection shared by fsck and the store ops:
/// "auto" sniffs the directory for segment files, "file"/"segment"
/// force the choice.
Result<std::unique_ptr<storage::StorageBackend>> open_local_store(
    const std::string& dir, const std::string& backend) {
  if (backend == "segment" ||
      (backend == "auto" && storage::segment_store_present(dir))) {
    return storage::make_segment_backend(dir);
  }
  if (backend != "auto" && backend != "file") {
    return invalid_argument("unknown --backend '" + backend +
                            "' (want file, segment or auto)");
  }
  return storage::make_file_backend(dir);
}

int cmd_fsck(int argc, char** argv) {
  if (argc < 3 || argv[2][0] == '-') return usage();
  const char* dir = argv[2];

  bool repair = false;
  bool help = false;
  std::string span_trace_path;
  std::string backend_name = "auto";
  FlagSet flags("ickpt fsck DIR");
  flags.add_bool("repair", &repair,
                 "quarantine corrupt tails/orphans so every rank keeps "
                 "its newest restorable prefix");
  flags.add_string("backend", &backend_name,
                   "store layout: file|segment|auto (sniff the directory)");
  flags.add_string("trace", &span_trace_path,
                   "record span tracing and write Chrome/Perfetto "
                   "trace-event JSON here");
  flags.add_bool("help", &help, "show this help");
  auto parsed = flags.parse(argc, argv, 3);
  if (!parsed.is_ok()) return flag_error(parsed, flags);
  if (help) {
    std::printf("%s", flags.help().c_str());
    return 0;
  }
  if (!span_trace_path.empty()) obs::start_tracing();
  // Arm the flight recorder: restore failures inside fsck leave a
  // post-mortem dump next to the objects being checked.
  obs::flightrec::configure(dir);

  auto backend = open_local_store(dir, backend_name);
  if (!backend.is_ok()) {
    std::fprintf(stderr, "fsck: %s\n",
                 backend.status().to_string().c_str());
    return 1;
  }

  if (repair) {
    auto rep = checkpoint::repair_store(**backend);
    if (!rep.is_ok()) {
      std::fprintf(stderr, "fsck --repair: %s\n",
                   rep.status().to_string().c_str());
      return 1;
    }
    for (const auto& d : rep->dropped) {
      std::printf("quarantined %s -> %s (%s)\n", d.key.c_str(),
                  d.quarantine_key.c_str(), d.reason.c_str());
    }
    for (const auto& [rank, upto] : rep->recovered_upto) {
      std::printf("rank %u: repaired, recoverable to seq %llu\n", rank,
                  static_cast<unsigned long long>(upto));
    }
    for (const auto& p : rep->problems) {
      std::printf("! %s\n", p.c_str());
    }
  }

  auto report = checkpoint::inspect_store(**backend);
  if (!report.is_ok()) {
    std::fprintf(stderr, "fsck: %s\n", report.status().to_string().c_str());
    return 1;
  }
  for (const auto& [rank, chain] : report->chains) {
    std::printf("rank %u: %zu checkpoint(s), %s, %s", rank,
                chain.elements.size(),
                format_bytes(chain.total_bytes).c_str(),
                chain.recoverable
                    ? ("recoverable to seq " +
                       std::to_string(chain.recoverable_upto))
                          .c_str()
                    : "NOT RECOVERABLE");
    std::printf("%s\n", chain.healthy() ? "" : "  [problems]");
    for (const auto& p : chain.problems) {
      std::printf("  ! %s\n", p.c_str());
    }
  }
  std::printf("store: %s\n", report->healthy() ? "HEALTHY" : "UNHEALTHY");
  if (!report->healthy()) {
    auto path = obs::flightrec::dump("fsck found the store unhealthy");
    if (!path.empty()) std::printf("flight recorder: %s\n", path.c_str());
  }
  if (finish_span_trace(span_trace_path) != 0) return 1;
  return report->healthy() ? 0 : 1;
}

// ------------------------------------------------------------- store ops

/// Shared target selection for put/get/ls/del: exactly one of a local
/// file-backend directory or a remote ickptd address.
struct StoreTarget {
  std::string dir;
  std::string addr;
  std::string backend = "auto";
  std::string tenant = "default";
  std::string span_trace_path;
  bool help = false;
};

void add_store_flags(FlagSet& flags, StoreTarget* target) {
  flags.add_string("dir", &target->dir, "local store directory");
  flags.add_string("backend", &target->backend,
                   "local store layout: file|segment|auto (sniff)");
  flags.add_string("addr", &target->addr, "remote ickptd HOST:PORT");
  flags.add_string("tenant", &target->tenant,
                   "tenant namespace on the daemon");
  flags.add_string("trace", &target->span_trace_path,
                   "record span tracing and write Chrome/Perfetto "
                   "trace-event JSON here");
  flags.add_bool("help", &target->help, "show this help");
}

Result<std::unique_ptr<storage::StorageBackend>> open_target(
    const StoreTarget& target) {
  if (target.dir.empty() == target.addr.empty()) {
    return invalid_argument(
        "ickpt: exactly one of --dir and --addr is required");
  }
  if (!target.dir.empty()) {
    return open_local_store(target.dir, target.backend);
  }
  ICKPT_ASSIGN_OR_RETURN(host_port, net::parse_host_port(target.addr));
  storage::RemoteBackendOptions options;
  options.host = host_port.first;
  options.port = host_port.second;
  options.tenant = target.tenant;
  return storage::make_remote_backend(options);
}

int store_error(const char* op, const Status& st) {
  std::fprintf(stderr, "%s: %s\n", op, st.to_string().c_str());
  return 1;
}

int cmd_store_put(int argc, char** argv) {
  StoreTarget target;
  FlagSet flags("ickpt put KEY FILE");
  add_store_flags(flags, &target);
  flags.allow_positional(true);
  auto parsed = flags.parse(argc, argv, 2);
  if (!parsed.is_ok()) return flag_error(parsed, flags);
  if (target.help) {
    std::printf("%s", flags.help().c_str());
    return 0;
  }
  if (flags.positional().size() != 2) return usage();
  const std::string& key = flags.positional()[0];
  const std::string& file = flags.positional()[1];
  if (!target.span_trace_path.empty()) obs::start_tracing();

  auto store = open_target(target);
  if (!store.is_ok()) return store_error("put", store.status());
  std::FILE* in = std::fopen(file.c_str(), "rb");
  if (in == nullptr) {
    std::fprintf(stderr, "put: cannot open %s\n", file.c_str());
    return 1;
  }
  int rc = [&] {
    obs::TraceSpan span(obs::trace_name("cli.put", obs::TraceCat::kNet));
    auto writer = (*store)->create(key);
    if (!writer.is_ok()) return store_error("put", writer.status());
    std::vector<std::byte> buf(1u << 20);
    for (;;) {
      const std::size_t got = std::fread(buf.data(), 1, buf.size(), in);
      if (got == 0) break;
      auto st = (*writer)->write({buf.data(), got});
      if (!st.is_ok()) return store_error("put", st);
    }
    if (std::ferror(in) != 0) {
      std::fprintf(stderr, "put: read error on %s\n", file.c_str());
      return 1;
    }
    const auto bytes = (*writer)->bytes_written();
    auto st = (*writer)->close();
    if (!st.is_ok()) return store_error("put", st);
    std::printf("put %s (%llu bytes)\n", key.c_str(),
                static_cast<unsigned long long>(bytes));
    return 0;
  }();
  std::fclose(in);
  if (rc == 0 && finish_span_trace(target.span_trace_path) != 0) rc = 1;
  return rc;
}

int cmd_store_get(int argc, char** argv) {
  StoreTarget target;
  FlagSet flags("ickpt get KEY [FILE]");
  add_store_flags(flags, &target);
  flags.allow_positional(true);
  auto parsed = flags.parse(argc, argv, 2);
  if (!parsed.is_ok()) return flag_error(parsed, flags);
  if (target.help) {
    std::printf("%s", flags.help().c_str());
    return 0;
  }
  if (flags.positional().empty() || flags.positional().size() > 2) {
    return usage();
  }
  const std::string& key = flags.positional()[0];
  const bool to_stdout = flags.positional().size() < 2;
  if (!target.span_trace_path.empty()) obs::start_tracing();

  auto store = open_target(target);
  if (!store.is_ok()) return store_error("get", store.status());
  std::FILE* out =
      to_stdout ? stdout : std::fopen(flags.positional()[1].c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "get: cannot write %s\n",
                 flags.positional()[1].c_str());
    return 1;
  }
  int rc = [&] {
    obs::TraceSpan span(obs::trace_name("cli.get", obs::TraceCat::kNet));
    auto reader = (*store)->open(key);
    if (!reader.is_ok()) return store_error("get", reader.status());
    std::vector<std::byte> buf(1u << 20);
    std::uint64_t total = 0;
    for (;;) {
      auto got = (*reader)->read_at(total, buf);
      if (!got.is_ok()) return store_error("get", got.status());
      if (*got == 0) break;
      if (std::fwrite(buf.data(), 1, *got, out) != *got) {
        std::fprintf(stderr, "get: short write\n");
        return 1;
      }
      total += *got;
    }
    if (!to_stdout) {
      std::printf("got %s (%llu bytes)\n", key.c_str(),
                  static_cast<unsigned long long>(total));
    }
    return 0;
  }();
  if (!to_stdout) std::fclose(out);
  if (rc == 0 && finish_span_trace(target.span_trace_path) != 0) rc = 1;
  return rc;
}

int cmd_store_ls(int argc, char** argv) {
  StoreTarget target;
  FlagSet flags("ickpt ls");
  add_store_flags(flags, &target);
  auto parsed = flags.parse(argc, argv, 2);
  if (!parsed.is_ok()) return flag_error(parsed, flags);
  if (target.help) {
    std::printf("%s", flags.help().c_str());
    return 0;
  }
  if (!target.span_trace_path.empty()) obs::start_tracing();

  auto store = open_target(target);
  if (!store.is_ok()) return store_error("ls", store.status());
  auto keys = [&] {
    obs::TraceSpan span(obs::trace_name("cli.ls", obs::TraceCat::kNet));
    return (*store)->list();
  }();
  if (!keys.is_ok()) return store_error("ls", keys.status());
  std::sort(keys->begin(), keys->end());
  for (const auto& key : *keys) std::printf("%s\n", key.c_str());
  if (finish_span_trace(target.span_trace_path) != 0) return 1;
  return 0;
}

int cmd_store_del(int argc, char** argv) {
  StoreTarget target;
  FlagSet flags("ickpt del KEY");
  add_store_flags(flags, &target);
  flags.allow_positional(true);
  auto parsed = flags.parse(argc, argv, 2);
  if (!parsed.is_ok()) return flag_error(parsed, flags);
  if (target.help) {
    std::printf("%s", flags.help().c_str());
    return 0;
  }
  if (flags.positional().size() != 1) return usage();
  const std::string& key = flags.positional()[0];
  if (!target.span_trace_path.empty()) obs::start_tracing();

  auto store = open_target(target);
  if (!store.is_ok()) return store_error("del", store.status());
  auto st = [&] {
    obs::TraceSpan span(obs::trace_name("cli.del", obs::TraceCat::kNet));
    return (*store)->remove(key);
  }();
  if (!st.is_ok()) return store_error("del", st);
  std::printf("deleted %s\n", key.c_str());
  if (finish_span_trace(target.span_trace_path) != 0) return 1;
  return 0;
}

int cmd_replay(const char* path) {
  auto loaded = trace::WriteTrace::load(path);
  if (!loaded.is_ok()) {
    std::fprintf(stderr, "replay: %s\n",
                 loaded.status().to_string().c_str());
    return 1;
  }
  auto tracker = memtrack::make_tracker(memtrack::EngineKind::kExplicit);
  PageArena arena(loaded->region_pages() * page_size());
  auto iws = loaded->replay(**tracker, arena.span());
  if (!iws.is_ok()) {
    std::fprintf(stderr, "replay: %s\n", iws.status().to_string().c_str());
    return 1;
  }
  std::printf("%zu slices, region %zu pages, timeslice %.2fs\n",
              iws->size(), loaded->region_pages(), loaded->timeslice());
  for (std::size_t i = 0; i < iws->size(); ++i) {
    std::printf("slice %4zu: %zu pages (%s)\n", i, (*iws)[i],
                format_bytes((*iws)[i] * page_size()).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string cmd = argv[1];
  if (cmd == "apps") return cmd_apps(argc, argv);
  if (cmd == "study") return cmd_study(argc, argv);
  if (cmd == "stats") return cmd_stats(argc, argv);
  if (cmd == "fsck") return cmd_fsck(argc, argv);
  if (cmd == "replay" && argc >= 3) return cmd_replay(argv[2]);
  if (cmd == "put") return cmd_store_put(argc, argv);
  if (cmd == "get") return cmd_store_get(argc, argv);
  if (cmd == "ls") return cmd_store_ls(argc, argv);
  if (cmd == "del") return cmd_store_del(argc, argv);
  return usage();
}
