// ickptd — the network checkpoint store daemon.
//
//   ickptd --dir DIR [--backend file|segment] [--bind ADDR] [--port N]
//          [--port-file FILE] [--max-inflight-mb N]
//          [--idle-timeout S] [--stats] [--trace FILE]
//
// Serves the wire protocol (docs/PROTOCOL.md) out of a store rooted
// at DIR — one file per object (the default) or a log-structured
// segment store (--backend segment) — on a single epoll thread.
// --port 0 (the default)
// binds an ephemeral port; the chosen port is printed on stdout and,
// with --port-file, written there too (how scripts and the bench
// harness find it).  SIGINT/SIGTERM stop the loop cleanly; --stats
// prints the net.* metrics snapshot on exit and --trace writes the
// per-request span trace as Chrome/Perfetto JSON.
#include <csignal>
#include <cstdio>
#include <iostream>

#include "common/flags.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/backend.h"
#include "storage/segment_backend.h"

namespace {

using namespace ickpt;

net::Server* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->stop();  // one eventfd write
}

int run(int argc, char** argv) {
  std::string dir;
  std::string bind = "127.0.0.1";
  int port = 0;
  std::string port_file;
  int max_inflight_mb = 4;
  double idle_timeout = 60.0;
  bool stats = false;
  std::string span_trace_path;
  bool help = false;

  std::string backend_name = "file";
  FlagSet flags("ickptd");
  flags.add_string("dir", &dir, "directory to serve (required)");
  flags.add_string("backend", &backend_name,
                   "store layout: file (one file per object) or "
                   "segment (log-structured segment store)");
  flags.add_string("bind", &bind, "address to listen on");
  flags.add_int("port", &port, "TCP port (0 = ephemeral)");
  flags.add_string("port-file", &port_file,
                   "write the bound port here (for scripts)");
  flags.add_int("max-inflight-mb", &max_inflight_mb,
                "per-connection cap on queued response bytes");
  flags.add_double("idle-timeout", &idle_timeout,
                   "close connections idle this many seconds "
                   "(<= 0 disables)");
  flags.add_bool("stats", &stats, "print the metrics snapshot on exit");
  flags.add_string("trace", &span_trace_path,
                   "record span tracing and write Chrome/Perfetto "
                   "trace-event JSON here on exit");
  flags.add_bool("help", &help, "show this help");
  auto parsed = flags.parse(argc, argv, 1);
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.to_string().c_str(),
                 flags.help().c_str());
    return 2;
  }
  if (help) {
    std::printf("%s", flags.help().c_str());
    return 0;
  }
  if (dir.empty()) {
    std::fprintf(stderr, "ickptd: --dir is required\n%s",
                 flags.help().c_str());
    return 2;
  }
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "ickptd: --port out of range\n");
    return 2;
  }
  if (max_inflight_mb <= 0) {
    std::fprintf(stderr, "ickptd: --max-inflight-mb must be > 0\n");
    return 2;
  }

  if (backend_name != "file" && backend_name != "segment") {
    std::fprintf(stderr, "ickptd: unknown --backend '%s' "
                 "(want file or segment)\n", backend_name.c_str());
    return 2;
  }

  auto backend = backend_name == "segment"
                     ? storage::make_segment_backend(dir)
                     : storage::make_file_backend(dir);
  if (!backend.is_ok()) {
    std::fprintf(stderr, "ickptd: %s\n",
                 backend.status().to_string().c_str());
    return 1;
  }

  net::ServerOptions options;
  options.bind = bind;
  options.port = static_cast<std::uint16_t>(port);
  options.max_inflight_bytes =
      static_cast<std::size_t>(max_inflight_mb) << 20;
  options.idle_timeout_s = idle_timeout;
  auto server = net::Server::create(**backend, options);
  if (!server.is_ok()) {
    std::fprintf(stderr, "ickptd: %s\n",
                 server.status().to_string().c_str());
    return 1;
  }

  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "ickptd: cannot write %s\n", port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", (*server)->port());
    std::fclose(f);
  }
  std::printf("ickptd: serving %s on %s:%u\n", dir.c_str(), bind.c_str(),
              (*server)->port());
  std::fflush(stdout);

  if (!span_trace_path.empty()) obs::start_tracing();

  g_server = server->get();
  struct sigaction sa{};
  sa.sa_handler = handle_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  auto st = (*server)->serve();
  g_server = nullptr;
  if (!st.is_ok()) {
    std::fprintf(stderr, "ickptd: %s\n", st.to_string().c_str());
    return 1;
  }

  if (stats) {
    auto snap = obs::registry().snapshot();
    snap.table("ickptd metrics").print(std::cout);
    std::printf("%s\n", snap.to_json().c_str());
  }
  if (!span_trace_path.empty()) {
    obs::stop_tracing();
    auto trace_st = obs::write_chrome_trace(span_trace_path);
    if (!trace_st.is_ok()) {
      std::fprintf(stderr, "ickptd: span trace: %s\n",
                   trace_st.to_string().c_str());
      return 1;
    }
    std::printf("span trace  : %s\n", span_trace_path.c_str());
  }
  std::printf("ickptd: stopped\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
