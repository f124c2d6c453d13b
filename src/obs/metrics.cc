#include "obs/metrics.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ickpt::obs {

namespace {

std::atomic<bool> g_enabled{true};

/// Geometric midpoint of bucket i (values in [2^(i-1), 2^i)).
double bucket_mid(int i) noexcept {
  if (i == 0) return 0.0;
  double lo = std::ldexp(1.0, i - 1);
  return lo * 1.5;
}

void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  out += buf;
}

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  out += buf;
}

/// Format a histogram value for the console table, honouring the unit.
std::string fmt_value(double v, Unit unit) {
  char buf[48];
  switch (unit) {
    case Unit::kNanoseconds:
      if (v >= 1e9) {
        std::snprintf(buf, sizeof buf, "%.2f s", v / 1e9);
      } else if (v >= 1e6) {
        std::snprintf(buf, sizeof buf, "%.2f ms", v / 1e6);
      } else if (v >= 1e3) {
        std::snprintf(buf, sizeof buf, "%.2f us", v / 1e3);
      } else {
        std::snprintf(buf, sizeof buf, "%.0f ns", v);
      }
      return buf;
    case Unit::kBytes:
      if (v >= 1024.0 * 1024.0 * 1024.0) {
        std::snprintf(buf, sizeof buf, "%.2f GB", v / (1024.0 * 1024.0 * 1024.0));
      } else if (v >= 1024.0 * 1024.0) {
        std::snprintf(buf, sizeof buf, "%.2f MB", v / (1024.0 * 1024.0));
      } else if (v >= 1024.0) {
        std::snprintf(buf, sizeof buf, "%.2f KB", v / 1024.0);
      } else {
        std::snprintf(buf, sizeof buf, "%.0f B", v);
      }
      return buf;
    case Unit::kNone:
      std::snprintf(buf, sizeof buf, "%.6g", v);
      return buf;
  }
  return "?";
}

}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t now_ns() noexcept {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t Histogram::min() const noexcept {
  std::uint64_t v = min_.load(std::memory_order_relaxed);
  return v == ~0ull ? 0 : v;
}

double Histogram::mean() const noexcept {
  std::uint64_t n = count();
  return n > 0 ? static_cast<double>(sum()) / static_cast<double>(n) : 0.0;
}

double Histogram::approx_quantile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  const double lo = static_cast<double>(min());
  const double hi = static_cast<double>(max());
  if (q <= 0.0) return lo;
  if (q >= 1.0) return hi;
  const double target = q * static_cast<double>(n);
  double seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += static_cast<double>(bucket(i));
    // Clamp the bucket midpoint to the observed range: a one-sample
    // histogram answers with the sample, and the saturated top bucket
    // ([2^62, inf)) cannot report past max().
    if (seen >= target) return std::clamp(bucket_mid(i), lo, hi);
  }
  return hi;
}

void Histogram::reset() noexcept {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~0ull, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

std::string_view to_string(Unit unit) noexcept {
  switch (unit) {
    case Unit::kNone: return "";
    case Unit::kNanoseconds: return "ns";
    case Unit::kBytes: return "bytes";
  }
  return "";
}

Registry& Registry::instance() {
  // Leaked on purpose: metric handles (including the one cached by the
  // SIGSEGV fault table) must stay valid through static destruction.
  static Registry* r = new Registry();
  return *r;
}

namespace {
// Shared sinks for registrations past kMaxPerKind: recording still
// works (no crash, no UB), the values just are not reported.
Counter g_overflow_counter;
Gauge g_overflow_gauge;
Histogram g_overflow_histogram;
}  // namespace

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t n = n_counters_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; ++i) {
    if (counters_[i]->name == name) return counters_[i]->metric;
  }
  if (n >= kMaxPerKind) return g_overflow_counter;
  auto* e = new Entry<Counter>();  // immortal
  e->name = std::string(name);
  counters_[n] = e;
  n_counters_.store(n + 1, std::memory_order_release);
  return e->metric;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t n = n_gauges_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; ++i) {
    if (gauges_[i]->name == name) return gauges_[i]->metric;
  }
  if (n >= kMaxPerKind) return g_overflow_gauge;
  auto* e = new Entry<Gauge>();  // immortal
  e->name = std::string(name);
  gauges_[n] = e;
  n_gauges_.store(n + 1, std::memory_order_release);
  return e->metric;
}

Histogram& Registry::histogram(std::string_view name, Unit unit) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t n = n_histograms_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; ++i) {
    if (histograms_[i]->name == name) return histograms_[i]->metric;
  }
  if (n >= kMaxPerKind) return g_overflow_histogram;
  auto* e = new Entry<Histogram>();  // immortal
  e->name = std::string(name);
  e->unit = unit;
  histograms_[n] = e;
  n_histograms_.store(n + 1, std::memory_order_release);
  return e->metric;
}

const Counter* Registry::counter_at(std::size_t i,
                                    std::string_view* name) const noexcept {
  if (i >= counter_count()) return nullptr;
  const Entry<Counter>* e = counters_[i];
  if (name != nullptr) *name = e->name;
  return &e->metric;
}

const Gauge* Registry::gauge_at(std::size_t i,
                                std::string_view* name) const noexcept {
  if (i >= gauge_count()) return nullptr;
  const Entry<Gauge>* e = gauges_[i];
  if (name != nullptr) *name = e->name;
  return &e->metric;
}

const Histogram* Registry::histogram_at(std::size_t i, std::string_view* name,
                                        Unit* unit) const noexcept {
  if (i >= histogram_count()) return nullptr;
  const Entry<Histogram>* e = histograms_[i];
  if (name != nullptr) *name = e->name;
  if (unit != nullptr) *unit = e->unit;
  return &e->metric;
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  snap.enabled = enabled();
  const std::size_t nc = counter_count();
  snap.counters.reserve(nc);
  for (std::size_t i = 0; i < nc; ++i) {
    const Entry<Counter>* e = counters_[i];
    snap.counters.push_back({e->name, e->metric.value()});
  }
  const std::size_t ng = gauge_count();
  snap.gauges.reserve(ng);
  for (std::size_t i = 0; i < ng; ++i) {
    const Entry<Gauge>* e = gauges_[i];
    snap.gauges.push_back({e->name, e->metric.value(), e->metric.max()});
  }
  const std::size_t nh = histogram_count();
  snap.histograms.reserve(nh);
  for (std::size_t i = 0; i < nh; ++i) {
    const Entry<Histogram>* e = histograms_[i];
    const Histogram& h = e->metric;
    Snapshot::HistogramValue hv;
    hv.name = e->name;
    hv.unit = e->unit;
    hv.count = h.count();
    hv.sum = h.sum();
    hv.min = h.min();
    hv.max = h.max();
    hv.mean = h.mean();
    hv.p50 = h.approx_quantile(0.5);
    hv.p90 = h.approx_quantile(0.9);
    hv.p99 = h.approx_quantile(0.99);
    for (int i2 = 0; i2 < Histogram::kBuckets; ++i2) {
      std::uint64_t c = h.bucket(i2);
      if (c != 0) hv.buckets.emplace_back(i2, c);
    }
    snap.histograms.push_back(std::move(hv));
  }
  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

std::string Snapshot::to_json() const {
  std::string out;
  out.reserve(256 + 64 * (counters.size() + gauges.size()) +
              256 * histograms.size());
  out += "{\"enabled\":";
  out += enabled ? "true" : "false";
  out += ",\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i != 0) out += ',';
    out += '"';
    append_escaped(out, counters[i].name);
    out += "\":";
    append_u64(out, counters[i].value);
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    if (i != 0) out += ',';
    out += '"';
    append_escaped(out, gauges[i].name);
    out += "\":{\"value\":";
    append_i64(out, gauges[i].value);
    out += ",\"max\":";
    append_i64(out, gauges[i].max);
    out += '}';
  }
  out += "},\"histograms\":{";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const auto& h = histograms[i];
    if (i != 0) out += ',';
    out += '"';
    append_escaped(out, h.name);
    out += "\":{\"unit\":\"";
    append_escaped(out, to_string(h.unit));
    out += "\",\"count\":";
    append_u64(out, h.count);
    out += ",\"sum\":";
    append_u64(out, h.sum);
    out += ",\"min\":";
    append_u64(out, h.min);
    out += ",\"max\":";
    append_u64(out, h.max);
    out += ",\"mean\":";
    append_double(out, h.mean);
    out += ",\"p50\":";
    append_double(out, h.p50);
    out += ",\"p90\":";
    append_double(out, h.p90);
    out += ",\"p99\":";
    append_double(out, h.p99);
    out += ",\"buckets\":[";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b != 0) out += ',';
      out += '[';
      append_i64(out, h.buckets[b].first);
      out += ',';
      append_u64(out, h.buckets[b].second);
      out += ']';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

TextTable Snapshot::table(const std::string& title) const {
  TextTable t(title);
  t.set_header({"Metric", "Count", "Mean", "p50", "p99", "Max", "Total"});
  for (const auto& c : counters) {
    std::string v;
    append_u64(v, c.value);
    t.add_row({c.name, "-", "-", "-", "-", "-", v});
  }
  for (const auto& g : gauges) {
    std::string v;
    append_i64(v, g.value);
    std::string m;
    append_i64(m, g.max);
    t.add_row({g.name + " (gauge)", "-", "-", "-", "-", m, v});
  }
  for (const auto& h : histograms) {
    std::string n;
    append_u64(n, h.count);
    t.add_row({h.name, n, fmt_value(h.mean, h.unit),
               fmt_value(h.p50, h.unit), fmt_value(h.p99, h.unit),
               fmt_value(static_cast<double>(h.max), h.unit),
               fmt_value(static_cast<double>(h.sum), h.unit)});
  }
  return t;
}

}  // namespace ickpt::obs
