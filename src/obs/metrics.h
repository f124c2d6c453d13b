// Process-wide observability registry: counters, gauges and
// fixed-bucket latency histograms cheap enough for the hottest paths
// in the system — including the SIGSEGV fault handler.
//
// Signal-safety contract (see DESIGN.md §9):
//   * Registration (counter()/gauge()/histogram()) takes a mutex and
//     allocates.  It must happen on a normal thread, never inside a
//     signal handler.
//   * After registration, Counter::inc, Gauge::set/add and
//     Histogram::record perform only relaxed atomic operations on
//     pre-allocated storage: no locks, no allocation, no syscalls.
//     They are safe from the fault handler and from any thread.
//   * Metric objects are never destroyed once registered; handles stay
//     valid for the life of the process.
//
// Recording can be globally disabled (set_enabled(false)); scoped
// timers then skip the clock reads entirely, so compiled-in-but-idle
// instrumentation costs one predictable branch.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/table.h"

namespace ickpt::obs {

/// True while metric recording is on (default).  Relaxed read.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Monotonic nanoseconds (CLOCK_MONOTONIC; async-signal-safe).
std::uint64_t now_ns() noexcept;

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous level (queue depth, bytes in flight).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  /// High-water mark of set()/add() results since reset.
  std::int64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    v_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

  /// set() that also maintains the high-water mark (still lock-free).
  void update(std::int64_t v) noexcept {
    set(v);
    std::int64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<std::int64_t> v_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Fixed power-of-two-bucket histogram (bucket i counts values whose
/// bit width is i, i.e. v in [2^(i-1), 2^i)).  64 buckets cover the
/// full uint64 range, so record() never branches on range.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void record(std::uint64_t v) noexcept {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    std::uint64_t cur = min_.load(std::memory_order_relaxed);
    while (v < cur &&
           !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
    cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  /// Bucket of value v: its bit width, so bucket 0 holds only 0 and an
  /// exact power of two 2^k deterministically starts bucket k+1 (the
  /// bucket covering [2^k, 2^(k+1))).  Bucket 63 saturates: it absorbs
  /// everything from 2^62 up.
  static int bucket_index(std::uint64_t v) noexcept {
    const int w = static_cast<int>(std::bit_width(v));
    return w < kBuckets ? w : kBuckets - 1;
  }

  /// Smallest value bucket i can hold.
  static std::uint64_t bucket_lo(int i) noexcept {
    return i <= 0 ? 0 : 1ull << (i - 1);
  }

  /// Largest value bucket i can hold (inclusive; bucket 63 saturates).
  static std::uint64_t bucket_hi(int i) noexcept {
    if (i <= 0) return 0;
    if (i >= kBuckets - 1) return ~0ull;
    return (1ull << i) - 1;
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  std::uint64_t min() const noexcept;  ///< 0 when empty
  std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  std::uint64_t bucket(int i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  double mean() const noexcept;

  /// Bucket-midpoint quantile estimate, clamped to the observed
  /// [min(), max()] range so a single-sample histogram answers every
  /// quantile with that sample and the saturated top bucket cannot
  /// overshoot max().  q <= 0 gives min(), q >= 1 gives max(), an
  /// empty histogram gives 0 for every q.
  double approx_quantile(double q) const noexcept;

  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~0ull};
  std::atomic<std::uint64_t> max_{0};
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
};

/// Display/formatting hint for a histogram's values.
enum class Unit { kNone, kNanoseconds, kBytes };

std::string_view to_string(Unit unit) noexcept;

/// Point-in-time copy of every registered metric, detached from the
/// live registry (safe to keep, print, serialize).
struct Snapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    std::int64_t value = 0;
    std::int64_t max = 0;
  };
  struct HistogramValue {
    std::string name;
    Unit unit = Unit::kNone;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    double mean = 0;
    double p50 = 0;
    double p90 = 0;
    double p99 = 0;
    std::vector<std::pair<int, std::uint64_t>> buckets;  ///< non-empty only
  };

  bool enabled = true;
  std::vector<CounterValue> counters;    ///< sorted by name
  std::vector<GaugeValue> gauges;        ///< sorted by name
  std::vector<HistogramValue> histograms;///< sorted by name

  /// Stable, machine-parseable JSON object.
  std::string to_json() const;

  /// Console table (counters and gauges first, then per-stage timing
  /// rows with mean/p50/p99/max and totals).
  TextTable table(const std::string& title = "metrics") const;

  bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Process-wide metric registry.  Lookup is by dotted name
/// ("ckpt.encode_ns"); the first lookup creates the metric, later
/// lookups return the same object.
///
/// Storage is a fixed-capacity pointer array per metric kind with an
/// atomically published count, so *reads* — snapshot(), the *_count()
/// / *_at() accessors — never lock and never allocate beyond snapshot
/// copies.  The *_at() accessors are async-signal-safe, which is what
/// lets the crash flight recorder (obs/flightrec.h) dump metric values
/// from a fatal-signal handler.  Registration stays mutex-guarded.
class Registry {
 public:
  /// Fixed capacity per metric kind.  Registration past this returns a
  /// shared overflow sink that is never reported in snapshots.
  static constexpr std::size_t kMaxPerKind = 1024;

  static Registry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, Unit unit = Unit::kNanoseconds);

  Snapshot snapshot() const;
  std::string to_json() const { return snapshot().to_json(); }

  // Lock-free, allocation-free, async-signal-safe reads over the
  // published prefix.  Indices < *_count() stay valid forever; *_at()
  // returns nullptr past the end.  `name` (and `unit`) receive views
  // into immortal registry storage.
  std::size_t counter_count() const noexcept {
    return n_counters_.load(std::memory_order_acquire);
  }
  std::size_t gauge_count() const noexcept {
    return n_gauges_.load(std::memory_order_acquire);
  }
  std::size_t histogram_count() const noexcept {
    return n_histograms_.load(std::memory_order_acquire);
  }
  const Counter* counter_at(std::size_t i,
                            std::string_view* name = nullptr) const noexcept;
  const Gauge* gauge_at(std::size_t i,
                        std::string_view* name = nullptr) const noexcept;
  const Histogram* histogram_at(std::size_t i,
                                std::string_view* name = nullptr,
                                Unit* unit = nullptr) const noexcept;

 private:
  Registry() = default;

  template <typename T>
  struct Entry {
    std::string name;
    Unit unit = Unit::kNone;
    T metric;
  };

  std::mutex mu_;  ///< guards registration only, never reads
  // Entries are heap-allocated once and never freed while the process
  // runs, so metric addresses are stable; slot i is written before the
  // count advances past i (release/acquire pairing).
  Entry<Counter>* counters_[kMaxPerKind] = {};
  Entry<Gauge>* gauges_[kMaxPerKind] = {};
  Entry<Histogram>* histograms_[kMaxPerKind] = {};
  std::atomic<std::size_t> n_counters_{0};
  std::atomic<std::size_t> n_gauges_{0};
  std::atomic<std::size_t> n_histograms_{0};
};

/// Shorthand for Registry::instance().
inline Registry& registry() { return Registry::instance(); }

}  // namespace ickpt::obs
