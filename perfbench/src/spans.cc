#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <utility>

namespace perfbench {

namespace {

struct ThreadState {
  std::uint32_t tid = 0;
  bool main = false;
  std::vector<std::pair<std::uint32_t, Op>> open;  ///< (id, op) stack
};

thread_local ThreadState t_state;

using Interval = std::pair<std::uint64_t, std::uint64_t>;

/// Sort and merge into disjoint intervals.
std::vector<Interval> merged(std::vector<Interval> v) {
  std::sort(v.begin(), v.end());
  std::vector<Interval> out;
  for (const auto& iv : v) {
    if (iv.second <= iv.first) continue;
    if (!out.empty() && iv.first <= out.back().second) {
      out.back().second = std::max(out.back().second, iv.second);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

std::uint64_t measure(const std::vector<Interval>& disjoint) {
  std::uint64_t n = 0;
  for (const auto& iv : disjoint) n += iv.second - iv.first;
  return n;
}

/// Length of the part of [lo, hi) covered by `disjoint` (sorted).
std::uint64_t overlap(const std::vector<Interval>& disjoint, std::uint64_t lo,
                      std::uint64_t hi) {
  auto it = std::upper_bound(
      disjoint.begin(), disjoint.end(), Interval{lo, ~0ull},
      [](const Interval& a, const Interval& b) { return a.first < b.first; });
  if (it != disjoint.begin()) --it;
  std::uint64_t n = 0;
  for (; it != disjoint.end() && it->first < hi; ++it) {
    const std::uint64_t a = std::max(lo, it->first);
    const std::uint64_t b = std::min(hi, it->second);
    if (b > a) n += b - a;
  }
  return n;
}

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kSetup: return "setup";
    case OpKind::kStep: return "step";
    case OpKind::kCkpt: return "ckpt";
    case OpKind::kRestore: return "restore";
    case OpKind::kNone: break;
  }
  return "none";
}

}  // namespace

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kApps: return "apps";
    case Layer::kMemtrack: return "memtrack";
    case Layer::kCkpt: return "ckpt";
    case Layer::kStorage: return "storage";
    case Layer::kNet: return "net";
    case Layer::kRestore: return "restore";
    case Layer::kBench: return "bench";
    case Layer::kNone: break;
  }
  return "none";
}

std::uint64_t now_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

Recorder& Recorder::get() {
  static Recorder* r = new Recorder();  // immortal: daemon threads may outlive main
  return *r;
}

void Recorder::set_main_thread() {
  t_state.tid = 1;
  t_state.main = true;
}

std::vector<Span> Recorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

Scope::Scope(const char* name, Layer layer, Op op) noexcept {
  Recorder& r = Recorder::get();
  if (!r.enabled()) return;
  active_ = true;
  ThreadState& ts = t_state;
  if (ts.tid == 0) ts.tid = r.next_tid_.fetch_add(1, std::memory_order_relaxed);
  span_.name = name;
  span_.layer = layer;
  span_.id = r.next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.tid = ts.tid;
  span_.round = r.round_.load(std::memory_order_relaxed);
  Op parent_op;
  if (!ts.open.empty()) {
    span_.parent = ts.open.back().first;
    parent_op = ts.open.back().second;
  } else if (!ts.main) {
    span_.parent = r.main_top_.load(std::memory_order_acquire);
    parent_op.kind =
        static_cast<OpKind>(r.main_op_kind_.load(std::memory_order_relaxed));
    parent_op.index = r.main_op_index_.load(std::memory_order_relaxed);
  }
  span_.op = op.kind == OpKind::kNone ? parent_op : op;
  ts.open.emplace_back(span_.id, span_.op);
  if (ts.main) {
    r.main_op_kind_.store(static_cast<std::uint8_t>(span_.op.kind),
                          std::memory_order_relaxed);
    r.main_op_index_.store(span_.op.index, std::memory_order_relaxed);
    r.main_top_.store(span_.id, std::memory_order_release);
  }
  span_.start_ns = now_ns();
}

Scope::~Scope() {
  if (!active_) return;
  span_.end_ns = now_ns();
  Recorder& r = Recorder::get();
  ThreadState& ts = t_state;
  ts.open.pop_back();
  if (ts.main) {
    const std::uint32_t top = ts.open.empty() ? 0 : ts.open.back().first;
    const Op top_op = ts.open.empty() ? Op{} : ts.open.back().second;
    r.main_op_kind_.store(static_cast<std::uint8_t>(top_op.kind),
                          std::memory_order_relaxed);
    r.main_op_index_.store(top_op.index, std::memory_order_relaxed);
    r.main_top_.store(top, std::memory_order_release);
  }
  std::lock_guard<std::mutex> lock(r.mu_);
  r.spans_.push_back(span_);
}

Attribution attribute_round(const std::vector<Span>& spans,
                            std::uint32_t round) {
  Attribution out;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  for (const auto& s : spans) {
    if (s.round == round && s.layer == Layer::kNone &&
        std::strcmp(s.name, "round") == 0) {
      lo = s.start_ns;
      hi = s.end_ns;
    }
  }
  out.wall_ns = hi - lo;
  static constexpr Layer kPriority[] = {
      Layer::kStorage, Layer::kNet,   Layer::kMemtrack, Layer::kCkpt,
      Layer::kRestore, Layer::kBench, Layer::kApps};
  std::vector<Interval> claimed;
  std::uint64_t claimed_ns = 0;
  for (Layer layer : kPriority) {
    std::vector<Interval> mine = claimed;
    for (const auto& s : spans) {
      if (s.round != round || s.layer != layer) continue;
      const std::uint64_t a = std::max(lo, s.start_ns);
      const std::uint64_t b = std::min(hi, s.end_ns);
      if (b > a) mine.emplace_back(a, b);
    }
    claimed = merged(std::move(mine));
    const std::uint64_t now_claimed = measure(claimed);
    out.layer_ns[static_cast<int>(layer)] =
        static_cast<std::int64_t>(now_claimed - claimed_ns);
    claimed_ns = now_claimed;
  }
  out.unattributed_ns = static_cast<std::int64_t>(out.wall_ns - claimed_ns);
  return out;
}

std::uint64_t busy_ns(const std::vector<Span>& spans, std::uint32_t round,
                      const SpanFilter& filter) {
  std::uint64_t n = 0;
  for (const auto& s : spans) {
    if (s.round == round && filter(s)) n += s.end_ns - s.start_ns;
  }
  return n;
}

std::uint64_t covered_ns(const std::vector<Span>& spans, std::uint32_t round,
                         const SpanFilter& filter) {
  std::vector<Interval> v;
  for (const auto& s : spans) {
    if (s.round == round && filter(s)) v.emplace_back(s.start_ns, s.end_ns);
  }
  return measure(merged(std::move(v)));
}

std::uint64_t self_ns(const std::vector<Span>& spans, std::uint32_t round,
                      const char* name, std::initializer_list<Layer> children) {
  std::vector<Interval> child;
  for (const auto& s : spans) {
    if (s.round != round) continue;
    if (std::find(children.begin(), children.end(), s.layer) !=
        children.end()) {
      child.emplace_back(s.start_ns, s.end_ns);
    }
  }
  const auto disjoint = merged(std::move(child));
  std::uint64_t n = 0;
  for (const auto& s : spans) {
    if (s.round != round || std::strcmp(s.name, name) != 0) continue;
    n += (s.end_ns - s.start_ns) - overlap(disjoint, s.start_ns, s.end_ns);
  }
  return n;
}

bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t t0 = ~0ull;
  for (const auto& s : spans) t0 = std::min(t0, s.start_ns);
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (const auto& s : spans) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"id\":%u,\"parent\":%u,\"op\":\"%s:%u\","
                 "\"round\":%u}}",
                 first ? "" : ",\n", s.name, layer_name(s.layer),
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid,
                 s.id, s.parent, op_kind_name(s.op.kind), s.op.index,
                 s.round);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
