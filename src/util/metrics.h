// Copyright 2026 The QPSeeker Authors
//
// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// latency histograms. The hot paths (Increment / Set / Record) are single
// relaxed atomic operations on pre-resolved pointers — safe to leave on
// per-rollout and per-operator code paths (BM_CounterIncrement in
// bench_micro shows ~1 ns). Registration takes a mutex once; callers cache
// the returned pointer, which stays valid for the process lifetime:
//
//   static metrics::Counter* const rollouts =
//       metrics::Registry::Global().GetCounter("qps.mcts.rollouts");
//   rollouts->Increment();
//
// A counter or histogram feeds a cumulative series (since process start),
// a sliding-window series, or both, chosen at registration:
//
//   static metrics::Histogram* const latency = metrics::Registry::Global()
//       .GetHistogram("qps.serve.latency_ms", metrics::Series::kBoth);
//   latency->Record(ms);  // one call feeds both series
//
// The window is a ring of N slots of W milliseconds each (default 10 x
// 3000 ms = a 30 s sliding window); each slot is a plain Counter/Histogram
// tagged with the epoch it holds. A write reads the clock, and if its slot
// still holds an older epoch, claims the rotation with a CAS on the epoch
// and zeroes the slot. A concurrent write that lands between the claim and
// the zeroing can lose its sample — window values are approximate at slot
// boundaries by design (the cumulative series stays exact). Readers merge
// the slots whose epoch is still inside the window, so stale data ages out
// without a background thread. SetWindowedEnabled(false) turns every
// window write into one relaxed load and branch.
//
// Naming convention: `qps.<subsystem>.<name>` (DESIGN.md §8). TakeSnapshot()
// copies every series under the registration mutex; RenderText/RenderJson
// format its cumulative part for the qpsql \metrics meta-command and the
// bench harness's BENCH_*.json stage breakdowns, obs/export.h all of it.

#ifndef QPS_UTIL_METRICS_H_
#define QPS_UTIL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/clock.h"

namespace qps {
namespace metrics {

/// Which series a counter or histogram feeds; a bit set.
enum class Series { kCumulative = 1, kWindowed = 2, kBoth = 3 };

struct WindowOptions {
  /// Ring slots. The window covers `slots * slot_width_ms` milliseconds.
  int slots = 10;
  /// Clamped to >= 1 ms.
  double slot_width_ms = 3000.0;
  /// Injectable time source; nullptr = Clock::Default(). Tests substitute
  /// a ManualClock to drive rotation deterministically.
  const Clock* clock = nullptr;
};

/// Ring of T slots (defined in metrics.cc).
template <typename T>
class Window;

namespace internal {

inline std::atomic<bool> windowed_enabled{true};

/// The series one Counter/Histogram feeds. Series are only ever added
/// (registration upgrades under the registry mutex), so writers read the
/// set with plain atomic loads and no lock.
template <typename T>
class Feeds {
 public:
  Feeds() = default;
  Feeds(Series series, const WindowOptions& window);
  ~Feeds();

  /// Adds `series` to the set; a window, once created, keeps its options.
  void Add(Series series, const WindowOptions& window);

  bool cumulative() const {
    return cumulative_.load(std::memory_order_relaxed);
  }
  /// Null unless the metric is windowed.
  Window<T>* window() const { return window_.load(std::memory_order_acquire); }

 private:
  std::atomic<bool> cumulative_{true};
  std::atomic<Window<T>*> window_{nullptr};
};

}  // namespace internal

/// Enables/disables every window write at once. On by default; hot loops
/// that cannot afford the clock read flip it off. Cumulative series are
/// unaffected.
inline void SetWindowedEnabled(bool enabled) {
  internal::windowed_enabled.store(enabled, std::memory_order_relaxed);
}
inline bool WindowedEnabled() {
  return internal::windowed_enabled.load(std::memory_order_relaxed);
}

/// Monotonically increasing integer (events, rows, fallbacks).
class Counter {
 public:
  Counter() = default;  ///< cumulative only
  explicit Counter(Series series, const WindowOptions& window = {})
      : feeds_(series, window) {}

  void Increment(int64_t delta = 1) {
    if (feeds_.cumulative()) value_.fetch_add(delta, std::memory_order_relaxed);
    if (feeds_.window() != nullptr && WindowedEnabled()) {
      IncrementWindow(delta);
    }
  }
  /// The cumulative series (0 for a windowed-only counter).
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  /// Zeroes the cumulative series; the window ages out on its own.
  void Reset() { value_.store(0, std::memory_order_relaxed); }

  bool cumulative() const { return feeds_.cumulative(); }
  bool windowed() const { return feeds_.window() != nullptr; }
  /// Sum over the live window (including the current partial slot).
  int64_t window_total() const;
  /// window_total() per second of the covered span: the window span once
  /// the ring is warm, the window's lifetime before that.
  double window_rate() const;

 private:
  friend class Registry;
  void IncrementWindow(int64_t delta);

  std::atomic<int64_t> value_{0};
  internal::Feeds<Counter> feeds_;
};

/// Last-write-wins double (epoch loss, learning rate, breaker state).
class Gauge {
 public:
  void Set(double v) { bits_.store(Encode(v), std::memory_order_relaxed); }
  double value() const { return Decode(bits_.load(std::memory_order_relaxed)); }
  void Reset() { Set(0.0); }

 private:
  static uint64_t Encode(double v);
  static double Decode(uint64_t bits);
  std::atomic<uint64_t> bits_{0};
};

/// Point-in-time copy of one histogram, with percentile estimation by
/// linear interpolation inside the owning bucket.
struct HistogramSnapshot {
  std::string name;
  int64_t count = 0;
  double sum = 0.0;
  std::vector<int64_t> buckets;  ///< Histogram::kNumBuckets + 1 entries

  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
  double Percentile(double p) const;  ///< p in [0, 100]
};

/// Fixed exponential buckets tuned for latencies in milliseconds:
/// [0, 1 µs), then ×2 per bucket up to ~2 minutes, plus an overflow bucket.
/// Record() finds the bucket once, then touches one bucket counter plus
/// sum/count per series fed — all relaxed atomics, no lock, no allocation.
class Histogram {
 public:
  static constexpr int kNumBuckets = 28;  ///< finite buckets + 1 overflow

  Histogram() = default;  ///< cumulative only
  explicit Histogram(Series series, const WindowOptions& window = {})
      : feeds_(series, window) {}

  void Record(double value_ms);

  /// The cumulative series (empty for a windowed-only histogram).
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  /// Upper bound of finite bucket `i` in ms (i in [0, kNumBuckets)).
  static double BucketUpperBound(int i);
  int64_t bucket_count(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Zeroes the cumulative series; the window ages out on its own.
  void Reset();

  bool cumulative() const { return feeds_.cumulative(); }
  bool windowed() const { return feeds_.window() != nullptr; }
  /// The live window's slots merged into one snapshot (name left empty).
  HistogramSnapshot SnapshotWindow() const;
  /// Window events per second (see Counter::window_rate).
  double window_rate() const;

 private:
  friend class Registry;
  /// Adds this histogram's cumulative series into `out`.
  void MergeInto(HistogramSnapshot* out) const;
  void Add(int bucket, double value_ms);

  std::atomic<int64_t> buckets_[kNumBuckets + 1] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};  ///< double, CAS-accumulated
  internal::Feeds<Histogram> feeds_;
};

struct Snapshot {
  struct WindowCounter {
    std::string name;
    int64_t total = 0;
    double rate_per_sec = 0.0;
  };
  struct WindowHistogram {
    HistogramSnapshot hist;  ///< window-merged buckets
    double rate_per_sec = 0.0;
  };

  /// Cumulative series, in name order.
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;
  /// Window series, in name order.
  std::vector<WindowCounter> window_counters;
  std::vector<WindowHistogram> window_histograms;
};

/// The name -> metric table. Thread-safe. Metrics are never removed;
/// pointers returned by Get* stay valid for the registry's lifetime (the
/// process, for Global()).
class Registry {
 public:
  static Registry& Global();

  /// `window` configures every window this registry creates.
  explicit Registry(WindowOptions window = {}) : window_(window) {}

  /// A metric's series are the union of every registration of its name,
  /// so the order in which call sites first ask for it does not matter.
  Counter* GetCounter(const std::string& name,
                      Series series = Series::kCumulative);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name,
                          Series series = Series::kCumulative);

  Snapshot TakeSnapshot() const;

  /// Zeroes every cumulative series (bench harness runs, tests).
  void ResetAll();

 private:
  const WindowOptions window_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Human-readable cumulative snapshot (the qpsql \metrics output).
std::string RenderText(const Snapshot& snapshot);

/// Compact JSON object of the cumulative series:
/// {"counters":{...},"gauges":{...},"histograms":{"name":{"count":..,
///  "sum":..,"mean":..,"p50":..,"p90":..,"p99":..}}}
std::string RenderJson(const Snapshot& snapshot);

}  // namespace metrics
}  // namespace qps

#endif  // QPS_UTIL_METRICS_H_
