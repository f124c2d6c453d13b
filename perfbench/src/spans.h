// Benchmark-side span recorder for the traced run.
//
// Spans are recorded from the benchmark's own code, around the calls it
// makes into each layer of the library (and, through the decorators in
// timed_backend.h, around every storage call the library makes).  Each
// span keeps its name, layer, start, end, parent and the operation it
// belongs to — a checkpoint (by sequence number), a restore (by index),
// a step or a setup — and stays in memory until the run ends.
//
// Parents: on the thread that opened it, a span's parent is the
// innermost span still open on that thread.  A thread with no open span
// of its own (restore decode workers, the daemon's event loop) takes
// the innermost open span of the main thread as parent, so storage work
// done on behalf of a checkpoint or restore hangs under it.
//
// Recording is off unless enabled; an off recorder costs one branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// The library module a span measures.  kNone marks containers (round,
/// setup) whose time is only what their children do not cover.
enum class Layer : std::uint8_t {
  kNone = 0,
  kApps,
  kMemtrack,
  kCkpt,
  kStorage,
  kNet,
  kRestore,
  kBench,  ///< the benchmark's own work: reference copies, image checks
};
inline constexpr int kLayerCount = 8;
const char* layer_name(Layer layer) noexcept;

enum class OpKind : std::uint8_t { kNone = 0, kSetup, kStep, kCkpt, kRestore };

struct Op {
  OpKind kind = OpKind::kNone;
  std::uint32_t index = 0;
};

struct Span {
  const char* name = "";
  Layer layer = Layer::kNone;
  Op op;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint32_t tid = 0;     ///< small per-thread number, main thread = 1
  std::uint32_t round = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

std::uint64_t now_ns() noexcept;

class Recorder {
 public:
  static Recorder& get();

  /// The calling thread becomes the main thread (parent of last resort).
  void set_main_thread();
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_release);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_acquire);
  }
  void set_round(std::uint32_t round) noexcept {
    round_.store(round, std::memory_order_relaxed);
  }

  /// Spans recorded so far (in end order).
  std::vector<Span> spans() const;

 private:
  friend class Scope;
  Recorder() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> round_{0};
  std::atomic<std::uint32_t> next_id_{1};
  std::atomic<std::uint32_t> next_tid_{2};
  std::atomic<std::uint32_t> main_top_{0};
  std::atomic<std::uint8_t> main_op_kind_{0};
  std::atomic<std::uint32_t> main_op_index_{0};

  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

/// RAII span.  With `op` of kind kNone the span inherits its parent's
/// operation.
class Scope {
 public:
  Scope(const char* name, Layer layer, Op op = {}) noexcept;
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Span span_;
  bool active_ = false;
};

/// Per-layer self time of one traced round, attributing each instant of
/// the round's wall time to exactly one layer: the deepest kind of span
/// covering it, in the order storage, net, memtrack, ckpt, restore,
/// bench, apps (storage and net spans run inside checkpoint and restore
/// calls, possibly on other threads).  Instants no layer covers are the
/// unattributed remainder, so the parts add up to `wall_ns` exactly.
struct Attribution {
  std::uint64_t wall_ns = 0;
  std::int64_t layer_ns[kLayerCount] = {};  ///< index by Layer; kNone unused
  std::int64_t unattributed_ns = 0;
};

/// `spans` must include the round's root span (layer kNone, name
/// "round").
Attribution attribute_round(const std::vector<Span>& spans,
                            std::uint32_t round);

using SpanFilter = std::function<bool(const Span&)>;

/// Sum of the durations of the spans of `round` that pass `filter`
/// (busy time; overlapping spans on several threads all count).
std::uint64_t busy_ns(const std::vector<Span>& spans, std::uint32_t round,
                      const SpanFilter& filter);

/// Wall time covered by at least one span of `round` passing `filter`.
std::uint64_t covered_ns(const std::vector<Span>& spans, std::uint32_t round,
                         const SpanFilter& filter);

/// Self time of the spans of `round` named `name`: each one's duration
/// minus the part of it covered by spans of the layers in `children`.
std::uint64_t self_ns(const std::vector<Span>& spans, std::uint32_t round,
                      const char* name, std::initializer_list<Layer> children);

/// Write spans as a Chrome trace-event document ("X" events; args carry
/// id, parent, op and round).  Returns false on I/O failure.
bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path);

}  // namespace perfbench
