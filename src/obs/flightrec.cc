#include "obs/flightrec.h"

#include <fcntl.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <mutex>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ickpt::obs::flightrec {

namespace {

constexpr std::size_t kMaxDir = 3072;
constexpr std::size_t kMaxPath = 4096;

// All state the signal path touches is preallocated by configure() and
// published through g_armed; none of it is ever freed.
struct State {
  char dir[kMaxDir];
  std::size_t last_events = 0;
  TraceEvent* events = nullptr;  ///< capacity last_events
  char* buf = nullptr;           ///< JSON staging for the signal path
  std::size_t buf_cap = 0;
};

State g_state;
std::atomic<bool> g_armed{false};
std::mutex g_mu;
std::atomic<bool> g_crash_dumped{false};

std::uint64_t realtime_ns() noexcept {
  timespec ts;
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// ------------------------- async-signal-safe formatting primitives

std::size_t fmt_u64(char* out, std::uint64_t v) noexcept {
  char tmp[24];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (std::size_t i = 0; i < n; ++i) out[i] = tmp[n - 1 - i];
  return n;
}

std::size_t fmt_i64(char* out, std::int64_t v) noexcept {
  if (v >= 0) return fmt_u64(out, static_cast<std::uint64_t>(v));
  out[0] = '-';
  // Negate via u64 so INT64_MIN is handled.
  return 1 + fmt_u64(out + 1, ~static_cast<std::uint64_t>(v) + 1);
}

/// Bump-pointer JSON writer over the preallocated buffer; silently
/// truncates when full (the dump stays parse-broken rather than the
/// process crashing harder).
struct Sink {
  char* buf;
  std::size_t cap;
  std::size_t len = 0;

  void raw(const char* s, std::size_t n) noexcept {
    if (len + n > cap) n = cap - len;
    std::memcpy(buf + len, s, n);
    len += n;
  }
  void lit(const char* s) noexcept { raw(s, std::strlen(s)); }
  void u64(std::uint64_t v) noexcept {
    char tmp[24];
    raw(tmp, fmt_u64(tmp, v));
  }
  void i64(std::int64_t v) noexcept {
    char tmp[24];
    raw(tmp, fmt_i64(tmp, v));
  }
  /// Metric / trace-point names are controlled identifiers; quotes and
  /// backslashes are dropped rather than escaped to stay alloc-free.
  void name(std::string_view s) noexcept {
    for (char c : s) {
      if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
        continue;
      }
      raw(&c, 1);
    }
  }
};

void append_events_json(Sink& s, const TraceEvent* ev, std::size_t n) {
  s.lit("\"events\":[");
  for (std::size_t i = 0; i < n; ++i) {
    const TraceEvent& e = ev[i];
    if (i != 0) s.lit(",");
    s.lit("{\"seq\":");
    s.u64(e.seq);
    s.lit(",\"ts_ns\":");
    s.u64(e.ts_ns);
    s.lit(",\"tid\":");
    s.u64(e.tid);
    s.lit(",\"name\":\"");
    s.name(trace_name_string(e.name_id));
    s.lit("\",\"phase\":\"");
    switch (e.phase) {
      case TracePhase::kBegin: s.lit("B"); break;
      case TracePhase::kEnd: s.lit("E"); break;
      case TracePhase::kInstant: s.lit("i"); break;
    }
    s.lit("\",\"arg0\":");
    s.u64(e.arg0);
    s.lit(",\"arg1\":");
    s.u64(e.arg1);
    s.lit("}");
  }
  s.lit("]");
}

/// Reduced metrics JSON via the lock-free registry accessors — the
/// only metrics view safe from signal context.
void append_metrics_json_signal_safe(Sink& s) {
  const Registry& reg = Registry::instance();
  s.lit("\"metrics\":{\"counters\":{");
  const std::size_t nc = reg.counter_count();
  for (std::size_t i = 0; i < nc; ++i) {
    std::string_view nm;
    const Counter* c = reg.counter_at(i, &nm);
    if (i != 0) s.lit(",");
    s.lit("\"");
    s.name(nm);
    s.lit("\":");
    s.u64(c->value());
  }
  s.lit("},\"gauges\":{");
  const std::size_t ng = reg.gauge_count();
  for (std::size_t i = 0; i < ng; ++i) {
    std::string_view nm;
    const Gauge* g = reg.gauge_at(i, &nm);
    if (i != 0) s.lit(",");
    s.lit("\"");
    s.name(nm);
    s.lit("\":{\"value\":");
    s.i64(g->value());
    s.lit(",\"max\":");
    s.i64(g->max());
    s.lit("}");
  }
  s.lit("},\"histograms\":{");
  const std::size_t nh = reg.histogram_count();
  for (std::size_t i = 0; i < nh; ++i) {
    std::string_view nm;
    const Histogram* h = reg.histogram_at(i, &nm);
    if (i != 0) s.lit(",");
    s.lit("\"");
    s.name(nm);
    s.lit("\":{\"count\":");
    s.u64(h->count());
    s.lit(",\"sum\":");
    s.u64(h->sum());
    s.lit(",\"min\":");
    s.u64(h->min());
    s.lit(",\"max\":");
    s.u64(h->max());
    s.lit("}");
  }
  s.lit("}}");
}

/// Build "<dir>/flightrec-<ts>.json" into `path` (cap kMaxPath).
void make_path(char* path, std::uint64_t ts) noexcept {
  std::size_t n = std::strlen(g_state.dir);
  std::memcpy(path, g_state.dir, n);
  const char* stem = "/flightrec-";
  std::memcpy(path + n, stem, std::strlen(stem));
  n += std::strlen(stem);
  n += fmt_u64(path + n, ts);
  const char* ext = ".json";
  std::memcpy(path + n, ext, std::strlen(ext) + 1);
}

// ---------------------------------------------------- crash handling

void crash_handler(int signo) {
  const char* what = "signal";
  switch (signo) {
    case SIGABRT: what = "SIGABRT"; break;
    case SIGBUS: what = "SIGBUS"; break;
    case SIGILL: what = "SIGILL"; break;
    case SIGFPE: what = "SIGFPE"; break;
    default: break;
  }
  dump_from_signal(what);
  ::signal(signo, SIG_DFL);
  ::raise(signo);
}

void install_crash_handler() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = crash_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGABRT, &sa, nullptr);
  ::sigaction(SIGBUS, &sa, nullptr);
  ::sigaction(SIGILL, &sa, nullptr);
  ::sigaction(SIGFPE, &sa, nullptr);
}

}  // namespace

void configure(const std::string& dir, std::size_t last_events) {
  std::lock_guard<std::mutex> lock(g_mu);
  if (dir.size() >= kMaxDir) return;
  std::memcpy(g_state.dir, dir.c_str(), dir.size() + 1);
  if (g_state.events == nullptr) {
    if (last_events == 0) last_events = 1;
    g_state.last_events = last_events;
    g_state.events = new TraceEvent[last_events];
    // ~200 B/event + room for a full registry of reduced histograms.
    g_state.buf_cap = 64 * 1024 + last_events * 224;
    g_state.buf = new char[g_state.buf_cap];
    install_crash_handler();
  }
  g_armed.store(true, std::memory_order_release);
}

bool configured() noexcept {
  return g_armed.load(std::memory_order_acquire);
}

std::string dump(std::string_view reason) {
  if (!configured()) return "";
  std::lock_guard<std::mutex> lock(g_mu);
  const std::uint64_t ts = realtime_ns();

  std::string out;
  out.reserve(g_state.buf_cap);
  out += "{\"flightrec\":1,\"reason\":\"";
  for (char c : reason) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  out += "\",\"signal_context\":false,\"timestamp_unix_ns\":";
  {
    char tmp[24];
    out.append(tmp, fmt_u64(tmp, ts));
  }
  out += ",\"metrics\":";
  out += registry().to_json();
  out += ",\"trace\":{";
  TraceRing* ring = trace_ring();
  std::size_t n = 0;
  if (ring != nullptr) {
    n = ring->read_recent(g_state.events, g_state.last_events);
  }
  {
    char tmp[24];
    out += "\"emitted\":";
    out.append(tmp, fmt_u64(tmp, ring != nullptr ? ring->emitted() : 0));
    out += ",\"dropped\":";
    out.append(tmp, fmt_u64(tmp, ring != nullptr ? ring->dropped() : 0));
    out += ',';
  }
  {
    // Reuse the signal-path event formatter over a scratch sink.
    Sink s{g_state.buf, g_state.buf_cap};
    append_events_json(s, g_state.events, n);
    out.append(s.buf, s.len);
  }
  out += "}}";

  char path[kMaxPath];
  make_path(path, ts);
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return "";
  f.write(out.data(), static_cast<std::streamsize>(out.size()));
  f.close();
  if (!f) return "";
  return path;
}

void dump_from_signal(const char* reason) noexcept {
  if (!configured()) return;
  if (g_crash_dumped.exchange(true, std::memory_order_acq_rel)) return;

  const std::uint64_t ts = realtime_ns();
  Sink s{g_state.buf, g_state.buf_cap};
  s.lit("{\"flightrec\":1,\"reason\":\"");
  s.name(reason);
  s.lit("\",\"signal_context\":true,\"timestamp_unix_ns\":");
  s.u64(ts);
  s.lit(",");
  append_metrics_json_signal_safe(s);
  s.lit(",\"trace\":{");
  TraceRing* ring = trace_ring();
  std::size_t n = 0;
  if (ring != nullptr) {
    n = ring->read_recent(g_state.events, g_state.last_events);
  }
  s.lit("\"emitted\":");
  s.u64(ring != nullptr ? ring->emitted() : 0);
  s.lit(",\"dropped\":");
  s.u64(ring != nullptr ? ring->dropped() : 0);
  s.lit(",");
  append_events_json(s, g_state.events, n);
  s.lit("}}");

  char path[kMaxPath];
  make_path(path, ts);
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  std::size_t off = 0;
  while (off < s.len) {
    const ssize_t w = ::write(fd, s.buf + off, s.len - off);
    if (w <= 0) break;
    off += static_cast<std::size_t>(w);
  }
  ::close(fd);
}

}  // namespace ickpt::obs::flightrec
