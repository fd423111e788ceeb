// Copyright 2026 The QPSeeker Authors

#include "util/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "util/json_format.h"

namespace qps {
namespace metrics {

namespace {

uint64_t DoubleBits(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// CAS-accumulates `delta` into a double stored as bits.
void AtomicAddDouble(std::atomic<uint64_t>* bits, double delta) {
  uint64_t old_bits = bits->load(std::memory_order_relaxed);
  while (!bits->compare_exchange_weak(old_bits,
                                      DoubleBits(BitsDouble(old_bits) + delta),
                                      std::memory_order_relaxed,
                                      std::memory_order_relaxed)) {
  }
}

bool Has(Series set, Series member) {
  return (static_cast<int>(set) & static_cast<int>(member)) != 0;
}

}  // namespace

// ---- Window -------------------------------------------------------------

template <typename T>
class Window {
 public:
  explicit Window(const WindowOptions& opts)
      : slots_(static_cast<size_t>(std::max(1, opts.slots))),
        width_ns_(std::max<int64_t>(
            1'000'000, static_cast<int64_t>(opts.slot_width_ms * 1e6))),
        clock_(opts.clock != nullptr ? opts.clock : Clock::Default()),
        created_ns_(clock_->NowNanos()) {}

  /// The slot for the current epoch, zeroed first if it still holds an
  /// older one. The rotation's CAS winner does the zeroing; a write racing
  /// into the gap between claim and zeroing is lost (bounded skew).
  T& Live() {
    const int64_t epoch = clock_->NowNanos() / width_ns_;
    Slot& slot = slots_[static_cast<size_t>(epoch % num_slots())];
    int64_t seen = slot.epoch.load(std::memory_order_relaxed);
    if (seen != epoch && slot.epoch.compare_exchange_strong(
                             seen, epoch, std::memory_order_relaxed)) {
      slot.series.Reset();
    }
    return slot.series;
  }

  /// Calls `fn(const T&)` for every slot whose epoch is inside the window.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    const int64_t epoch = clock_->NowNanos() / width_ns_;
    for (const Slot& slot : slots_) {
      const int64_t slot_epoch = slot.epoch.load(std::memory_order_relaxed);
      if (slot_epoch > epoch - num_slots() && slot_epoch <= epoch) {
        fn(slot.series);
      }
    }
  }

  /// `events` per second of the covered span: the window span once the
  /// ring is warm, the window's lifetime before that.
  double Rate(double events) const {
    const double lifetime_ns =
        static_cast<double>(clock_->NowNanos() - created_ns_);
    const double span_ns =
        static_cast<double>(num_slots()) * static_cast<double>(width_ns_);
    const double covered_s = std::min(span_ns, lifetime_ns) * 1e-9;
    return covered_s > 0.0 ? events / covered_s : 0.0;
  }

 private:
  struct Slot {
    std::atomic<int64_t> epoch{-1};
    T series;  ///< cumulative-only: a ring slot holds no window itself
  };

  int64_t num_slots() const { return static_cast<int64_t>(slots_.size()); }

  std::vector<Slot> slots_;
  const int64_t width_ns_;
  const Clock* const clock_;
  const int64_t created_ns_;
};

namespace internal {

template <typename T>
Feeds<T>::Feeds(Series series, const WindowOptions& window)
    : cumulative_(Has(series, Series::kCumulative)) {
  Add(series, window);
}

template <typename T>
Feeds<T>::~Feeds() {
  delete window_.load(std::memory_order_relaxed);
}

template <typename T>
void Feeds<T>::Add(Series series, const WindowOptions& window) {
  if (Has(series, Series::kCumulative)) {
    cumulative_.store(true, std::memory_order_relaxed);
  }
  if (Has(series, Series::kWindowed) &&
      window_.load(std::memory_order_relaxed) == nullptr) {
    window_.store(new Window<T>(window), std::memory_order_release);
  }
}

template class Feeds<Counter>;
template class Feeds<Histogram>;

}  // namespace internal

// ---- Counter / Gauge / Histogram ----------------------------------------

void Counter::IncrementWindow(int64_t delta) {
  feeds_.window()->Live().Increment(delta);
}

int64_t Counter::window_total() const {
  int64_t total = 0;
  if (const Window<Counter>* window = feeds_.window()) {
    window->ForEachLive([&](const Counter& slot) { total += slot.value(); });
  }
  return total;
}

double Counter::window_rate() const {
  const Window<Counter>* window = feeds_.window();
  return window != nullptr
             ? window->Rate(static_cast<double>(window_total()))
             : 0.0;
}

uint64_t Gauge::Encode(double v) { return DoubleBits(v); }
double Gauge::Decode(uint64_t bits) { return BitsDouble(bits); }

double Histogram::BucketUpperBound(int i) {
  // Bucket 0: [0, 1 µs); bucket i: [2^(i-1) µs, 2^i µs). Bounds in ms.
  return 0.001 * std::pow(2.0, i);
}

void Histogram::Record(double value_ms) {
  if (std::isnan(value_ms)) return;
  const bool cumulative = feeds_.cumulative();
  Window<Histogram>* window = WindowedEnabled() ? feeds_.window() : nullptr;
  if (!cumulative && window == nullptr) return;
  int bucket = kNumBuckets;  // overflow
  for (int i = 0; i < kNumBuckets; ++i) {
    if (value_ms < BucketUpperBound(i)) {
      bucket = i;
      break;
    }
  }
  if (cumulative) Add(bucket, value_ms);
  if (window != nullptr) window->Live().Add(bucket, value_ms);
}

void Histogram::Add(int bucket, double value_ms) {
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&sum_bits_, value_ms);
}

double Histogram::sum() const {
  return BitsDouble(sum_bits_.load(std::memory_order_relaxed));
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
}

void Histogram::MergeInto(HistogramSnapshot* out) const {
  out->buckets.resize(kNumBuckets + 1, 0);
  for (int i = 0; i <= kNumBuckets; ++i) {
    out->buckets[static_cast<size_t>(i)] += bucket_count(i);
  }
  out->count += count();
  out->sum += sum();
}

HistogramSnapshot Histogram::SnapshotWindow() const {
  HistogramSnapshot out;
  out.buckets.assign(kNumBuckets + 1, 0);
  if (const Window<Histogram>* window = feeds_.window()) {
    window->ForEachLive([&](const Histogram& slot) { slot.MergeInto(&out); });
  }
  return out;
}

double Histogram::window_rate() const {
  const Window<Histogram>* window = feeds_.window();
  return window != nullptr
             ? window->Rate(static_cast<double>(SnapshotWindow().count))
             : 0.0;
}

double HistogramSnapshot::Percentile(double p) const {
  if (count <= 0) return 0.0;
  const double target = p / 100.0 * static_cast<double>(count);
  int64_t seen = 0;
  for (int i = 0; i < static_cast<int>(buckets.size()); ++i) {
    const int64_t in_bucket = buckets[static_cast<size_t>(i)];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= target) {
      const double lo = i == 0 ? 0.0 : Histogram::BucketUpperBound(i - 1);
      if (i >= Histogram::kNumBuckets) return lo;  // overflow: lower bound
      const double hi = Histogram::BucketUpperBound(i);
      const double frac =
          (target - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      return lo + (hi - lo) * frac;
    }
    seen += in_bucket;
  }
  return Histogram::BucketUpperBound(Histogram::kNumBuckets - 1);
}

// ---- Registry -----------------------------------------------------------

Registry& Registry::Global() {
  static Registry* registry = new Registry();
  return *registry;
}

Counter* Registry::GetCounter(const std::string& name, Series series) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>(series, window_);
  } else {
    slot->feeds_.Add(series, window_);
  }
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name, Series series) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(series, window_);
  } else {
    slot->feeds_.Add(series, window_);
  }
  return slot.get();
}

Snapshot Registry::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  for (const auto& [name, counter] : counters_) {
    if (counter->cumulative()) {
      snap.counters.emplace_back(name, counter->value());
    }
    if (counter->windowed()) {
      snap.window_counters.push_back(
          {name, counter->window_total(), counter->window_rate()});
    }
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->value());
  }
  for (const auto& [name, hist] : histograms_) {
    if (hist->cumulative()) {
      HistogramSnapshot hs;
      hs.name = name;
      hist->MergeInto(&hs);
      snap.histograms.push_back(std::move(hs));
    }
    if (hist->windowed()) {
      Snapshot::WindowHistogram view;
      view.hist = hist->SnapshotWindow();
      view.hist.name = name;
      view.rate_per_sec = hist->window_rate();
      snap.window_histograms.push_back(std::move(view));
    }
  }
  return snap;
}

void Registry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
}

// ---- Rendering ----------------------------------------------------------

std::string RenderText(const Snapshot& snapshot) {
  std::string out;
  char buf[256];
  for (const auto& [name, value] : snapshot.counters) {
    std::snprintf(buf, sizeof(buf), "%-44s %lld\n", name.c_str(),
                  static_cast<long long>(value));
    out += buf;
  }
  for (const auto& [name, value] : snapshot.gauges) {
    std::snprintf(buf, sizeof(buf), "%-44s %.6g\n", name.c_str(), value);
    out += buf;
  }
  for (const auto& h : snapshot.histograms) {
    std::snprintf(buf, sizeof(buf),
                  "%-44s count=%lld mean=%.3fms p50=%.3fms p90=%.3fms p99=%.3fms\n",
                  h.name.c_str(), static_cast<long long>(h.count), h.mean(),
                  h.Percentile(50), h.Percentile(90), h.Percentile(99));
    out += buf;
  }
  if (out.empty()) out = "(no metrics recorded)\n";
  return out;
}

std::string RenderJson(const Snapshot& snapshot) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + JsonNumber(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& h : snapshot.histograms) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(h.name) + "\":{\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + JsonNumber(h.sum) +
           ",\"mean\":" + JsonNumber(h.mean()) +
           ",\"p50\":" + JsonNumber(h.Percentile(50)) +
           ",\"p90\":" + JsonNumber(h.Percentile(90)) +
           ",\"p99\":" + JsonNumber(h.Percentile(99));
    // Raw bucket counts plus their finite upper bounds (the final bucket
    // is the overflow), so scrapers and BENCH_*.json consumers re-derive
    // percentiles exactly instead of trusting the summary above.
    out += ",\"le\":[";
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      if (i > 0) out += ",";
      out += JsonNumber(Histogram::BucketUpperBound(i));
    }
    out += "],\"buckets\":[";
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(h.buckets[i]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace metrics
}  // namespace qps
