// Copyright 2026 The QPSeeker Authors
//
// Metrics registry: exactness under concurrency (relaxed increments must
// still sum exactly), histogram bucket placement against the documented
// boundaries, snapshot isolation (a snapshot is a copy, not a view), the
// sliding window (rotation, expiry, rates, the disabled fast path), and
// metrics registered for both series. This test binary is in the TSan
// stage of tier1.sh.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "util/clock.h"
#include "util/metrics.h"

namespace qps {
namespace metrics {
namespace {

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.value(), int64_t{kThreads} * kPerThread);
}

TEST(CounterTest, DeltaAndReset) {
  Counter counter;
  counter.Increment(5);
  counter.Increment(-2);
  EXPECT_EQ(counter.value(), 3);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0);
}

TEST(GaugeTest, LastWriteWinsAndRoundTripsDoubles) {
  Gauge gauge;
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.Set(3.25);
  EXPECT_EQ(gauge.value(), 3.25);
  gauge.Set(-1e-9);
  EXPECT_EQ(gauge.value(), -1e-9);
}

TEST(HistogramTest, BucketBoundariesMatchTheDocumentedGrid) {
  // Bucket 0 is [0, 1 µs); each subsequent bucket doubles the upper bound.
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(0), 0.001);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(1), 0.002);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(10), 0.001 * 1024.0);

  Histogram hist;
  hist.Record(0.0);        // bucket 0
  hist.Record(0.0009);     // bucket 0 (just below 1 µs)
  hist.Record(0.001);      // bucket 1 (at the boundary -> next bucket)
  hist.Record(0.0015);     // bucket 1
  hist.Record(1e12);       // overflow
  EXPECT_EQ(hist.bucket_count(0), 2);
  EXPECT_EQ(hist.bucket_count(1), 2);
  EXPECT_EQ(hist.bucket_count(Histogram::kNumBuckets), 1);
  EXPECT_EQ(hist.count(), 5);
}

TEST(HistogramTest, ConcurrentRecordsKeepCountAndSumExact) {
  Histogram hist;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist] {
      for (int i = 0; i < kPerThread; ++i) hist.Record(1.0);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(hist.count(), int64_t{kThreads} * kPerThread);
  EXPECT_DOUBLE_EQ(hist.sum(), static_cast<double>(kThreads) * kPerThread);
}

TEST(HistogramTest, SnapshotPercentilesAreMonotone) {
  Registry& reg = Registry::Global();
  Histogram* hist = reg.GetHistogram("qps.test.percentiles");
  hist->Reset();
  for (int i = 0; i < 1000; ++i) hist->Record(0.1 * static_cast<double>(i % 64));
  const Snapshot snap = reg.TakeSnapshot();
  const HistogramSnapshot* hs = nullptr;
  for (const auto& h : snap.histograms) {
    if (h.name == "qps.test.percentiles") hs = &h;
  }
  ASSERT_NE(hs, nullptr);
  const double p50 = hs->Percentile(50.0);
  const double p90 = hs->Percentile(90.0);
  const double p99 = hs->Percentile(99.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GT(hs->mean(), 0.0);
}

TEST(HistogramTest, PercentileOfEmptySnapshotIsZero) {
  HistogramSnapshot hs;
  hs.buckets.assign(Histogram::kNumBuckets + 1, 0);
  hs.count = 0;
  EXPECT_EQ(hs.Percentile(0.0), 0.0);
  EXPECT_EQ(hs.Percentile(50.0), 0.0);
  EXPECT_EQ(hs.Percentile(100.0), 0.0);
}

TEST(HistogramTest, PercentileSingleSampleStaysInItsBucket) {
  Histogram hist;
  hist.Record(0.5);  // bucket [0.256, 0.512) ms
  HistogramSnapshot hs;
  hs.count = hist.count();
  for (int i = 0; i <= Histogram::kNumBuckets; ++i) {
    hs.buckets.push_back(hist.bucket_count(i));
  }
  // Every percentile of a single sample interpolates within its bucket.
  for (const double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    const double v = hs.Percentile(p);
    EXPECT_GE(v, 0.256);
    EXPECT_LE(v, 0.512);
  }
}

TEST(HistogramTest, PercentileAllOverflowReturnsLastFiniteBound) {
  Histogram hist;
  for (int i = 0; i < 10; ++i) hist.Record(1e15);
  HistogramSnapshot hs;
  hs.count = hist.count();
  for (int i = 0; i <= Histogram::kNumBuckets; ++i) {
    hs.buckets.push_back(hist.bucket_count(i));
  }
  // The overflow bucket has no upper bound; its percentile clamps to the
  // bucket's lower bound (the last finite boundary) rather than inventing
  // a value.
  const double last_finite =
      Histogram::BucketUpperBound(Histogram::kNumBuckets - 1);
  EXPECT_DOUBLE_EQ(hs.Percentile(50.0), last_finite);
  EXPECT_DOUBLE_EQ(hs.Percentile(100.0), last_finite);
}

TEST(HistogramTest, PercentileExtremesBracketTheDistribution) {
  Histogram hist;
  hist.Record(0.0005);  // bucket 0
  hist.Record(10.0);    // a much higher bucket
  HistogramSnapshot hs;
  hs.count = hist.count();
  for (int i = 0; i <= Histogram::kNumBuckets; ++i) {
    hs.buckets.push_back(hist.bucket_count(i));
  }
  // p=0 resolves inside the lowest occupied bucket, p=100 inside the
  // highest; neither walks off the bucket array.
  EXPECT_LE(hs.Percentile(0.0), Histogram::BucketUpperBound(0));
  EXPECT_GT(hs.Percentile(100.0), 8.0);
  EXPECT_LE(hs.Percentile(100.0), 16.384);
  EXPECT_LE(hs.Percentile(0.0), hs.Percentile(100.0));
}

TEST(RegistryTest, SameNameReturnsSamePointer) {
  Registry& reg = Registry::Global();
  Counter* a = reg.GetCounter("qps.test.same");
  Counter* b = reg.GetCounter("qps.test.same");
  EXPECT_EQ(a, b);
  // Distinct kinds under the same name are distinct metrics.
  EXPECT_NE(static_cast<void*>(a), static_cast<void*>(reg.GetGauge("qps.test.same")));
}

TEST(RegistryTest, SnapshotIsIsolatedFromLaterUpdates) {
  Registry& reg = Registry::Global();
  Counter* counter = reg.GetCounter("qps.test.isolation");
  counter->Reset();
  counter->Increment(7);
  const Snapshot snap = reg.TakeSnapshot();
  counter->Increment(100);  // must not appear in the earlier snapshot

  int64_t seen = -1;
  for (const auto& [name, value] : snap.counters) {
    if (name == "qps.test.isolation") seen = value;
  }
  EXPECT_EQ(seen, 7);
  EXPECT_EQ(counter->value(), 107);
}

TEST(RenderTest, TextAndJsonContainEveryMetric) {
  Registry& reg = Registry::Global();
  reg.GetCounter("qps.test.render_counter")->Increment(3);
  reg.GetGauge("qps.test.render_gauge")->Set(1.5);
  reg.GetHistogram("qps.test.render_hist")->Record(2.0);
  const Snapshot snap = reg.TakeSnapshot();

  const std::string text = RenderText(snap);
  EXPECT_NE(text.find("qps.test.render_counter"), std::string::npos);
  EXPECT_NE(text.find("qps.test.render_gauge"), std::string::npos);
  EXPECT_NE(text.find("qps.test.render_hist"), std::string::npos);

  const std::string json = RenderJson(snap);
  EXPECT_NE(json.find("\"qps.test.render_counter\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(RenderTest, JsonCarriesRawBucketArrays) {
  Registry& reg = Registry::Global();
  Histogram* hist = reg.GetHistogram("qps.test.render_buckets");
  hist->Reset();
  hist->Record(0.0005);  // bucket 0
  hist->Record(0.0015);  // bucket 1
  hist->Record(1e15);    // overflow
  const std::string json = RenderJson(reg.TakeSnapshot());

  const size_t at = json.find("\"qps.test.render_buckets\"");
  ASSERT_NE(at, std::string::npos);
  const std::string obj = json.substr(at, 2048);
  // 28 finite bounds starting at 1 µs, then kNumBuckets+1 counts whose
  // first two and last entries reflect the records above.
  EXPECT_NE(obj.find("\"le\":[0.001,0.002,0.004"), std::string::npos);
  const size_t buckets_at = obj.find("\"buckets\":[1,1,0");
  ASSERT_NE(buckets_at, std::string::npos);
  const size_t close = obj.find(']', buckets_at);
  ASSERT_NE(close, std::string::npos);
  EXPECT_NE(obj.rfind(",1]", close), std::string::npos);  // overflow count
  // Exactly kNumBuckets le entries: count commas inside the le array.
  const size_t le_at = obj.find("\"le\":[");
  const size_t le_close = obj.find(']', le_at);
  const std::string le = obj.substr(le_at, le_close - le_at);
  EXPECT_EQ(std::count(le.begin(), le.end(), ','), Histogram::kNumBuckets - 1);
}

TEST(RenderTest, JsonStaysValidOnNonFiniteGauges) {
  Registry& reg = Registry::Global();
  reg.GetGauge("qps.test.diverged_gauge")->Set(std::nan(""));
  reg.GetGauge("qps.test.overflowed_gauge")->Set(1.0 / 0.0);
  const std::string json = RenderJson(reg.TakeSnapshot());
  // Bare nan/inf literals are invalid JSON; the renderer must clamp them.
  EXPECT_EQ(json.find(":nan"), std::string::npos);
  EXPECT_EQ(json.find(":inf"), std::string::npos);
  EXPECT_EQ(json.find(":-nan"), std::string::npos);
  EXPECT_EQ(json.find(":-inf"), std::string::npos);
}


// ---- Sliding window -----------------------------------------------------

/// Clock wrapper counting NowNanos calls, to prove the disabled hot path
/// never reads the clock.
class CountingClock final : public Clock {
 public:
  int64_t NowNanos() const override {
    calls.fetch_add(1, std::memory_order_relaxed);
    return inner.NowNanos();
  }
  ManualClock inner;
  mutable std::atomic<int64_t> calls{0};
};

TEST(WindowedCounterTest, AccumulatesWithinOneSlot) {
  ManualClock clock;
  WindowOptions opts;
  opts.slots = 4;
  opts.slot_width_ms = 1000.0;
  opts.clock = &clock;
  Counter counter(Series::kWindowed, opts);
  counter.Increment();
  counter.Increment(4);
  EXPECT_EQ(counter.window_total(), 5);
}

TEST(WindowedCounterTest, OldSlotsAgeOutOfTheWindow) {
  ManualClock clock;
  WindowOptions opts;
  opts.slots = 3;
  opts.slot_width_ms = 1000.0;
  opts.clock = &clock;
  Counter counter(Series::kWindowed, opts);

  counter.Increment(10);  // slot epoch 0
  clock.AdvanceMillis(1000.0);
  counter.Increment(20);  // epoch 1
  clock.AdvanceMillis(1000.0);
  counter.Increment(30);  // epoch 2
  EXPECT_EQ(counter.window_total(), 60);  // all three slots live

  clock.AdvanceMillis(1000.0);  // epoch 3: epoch-0 slot falls out
  EXPECT_EQ(counter.window_total(), 50);
  clock.AdvanceMillis(2000.0);  // epoch 5: only epoch >= 3 would survive
  EXPECT_EQ(counter.window_total(), 0);
}

TEST(WindowedCounterTest, RotationReclaimsTheRingSlot) {
  ManualClock clock;
  WindowOptions opts;
  opts.slots = 2;
  opts.slot_width_ms = 1000.0;
  opts.clock = &clock;
  Counter counter(Series::kWindowed, opts);

  counter.Increment(7);  // epoch 0 -> ring slot 0
  clock.AdvanceMillis(2000.0);
  counter.Increment(1);  // epoch 2 -> ring slot 0 again: must zero first
  EXPECT_EQ(counter.window_total(), 1);
}

TEST(WindowedCounterTest, RatePerSecUsesLifetimeUntilWarm) {
  ManualClock clock;
  WindowOptions opts;
  opts.slots = 10;
  opts.slot_width_ms = 1000.0;  // 10 s window
  opts.clock = &clock;
  Counter counter(Series::kWindowed, opts);

  counter.Increment(100);
  clock.AdvanceMillis(2000.0);
  // 100 events over 2 s of lifetime, not over the 10 s window span.
  EXPECT_NEAR(counter.window_rate(), 50.0, 1e-9);

  clock.AdvanceMillis(20000.0);  // past the window: events expired
  EXPECT_NEAR(counter.window_rate(), 0.0, 1e-9);
}

TEST(WindowedCounterTest, DisabledPathSkipsTheClockEntirely) {
  CountingClock clock;
  WindowOptions opts;
  opts.clock = &clock;
  Counter counter(Series::kWindowed, opts);  // reads the clock once
  const int64_t calls_after_ctor = clock.calls.load();

  SetWindowedEnabled(false);
  for (int i = 0; i < 1000; ++i) counter.Increment();
  SetWindowedEnabled(true);

  EXPECT_EQ(clock.calls.load(), calls_after_ctor);
  EXPECT_EQ(counter.window_total(), 0);
}

TEST(WindowedCounterTest, ConcurrentIncrementsAtFixedTimeSumExactly) {
  // With a pinned clock no rotation happens, so the relaxed adds must sum
  // exactly — this is the TSan-visible hot path.
  ManualClock clock;
  WindowOptions opts;
  opts.clock = &clock;
  Counter counter(Series::kWindowed, opts);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.window_total(), int64_t{kThreads} * kPerThread);
}

TEST(WindowedCounterTest, ConcurrentIncrementsAcrossRotationStayBounded) {
  // Threads increment while another thread advances the clock through many
  // slot boundaries. Rotation may drop a bounded number of samples (the
  // documented skew) but must never produce *extra* counts, crash, or race.
  ManualClock clock;
  WindowOptions opts;
  opts.slots = 4;
  opts.slot_width_ms = 1.0;
  opts.clock = &clock;
  Counter counter(Series::kWindowed, opts);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> attempted{0};
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        counter.Increment();
        attempted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int i = 0; i < 200; ++i) clock.AdvanceMillis(1.0);
  stop.store(true);
  for (auto& th : threads) th.join();

  EXPECT_LE(counter.window_total(), attempted.load());
  EXPECT_GE(counter.window_total(), 0);
}

TEST(WindowedHistogramTest, WindowPercentilesTrackRecentRecordsOnly) {
  ManualClock clock;
  WindowOptions opts;
  opts.slots = 3;
  opts.slot_width_ms = 1000.0;
  opts.clock = &clock;
  Histogram hist(Series::kWindowed, opts);

  for (int i = 0; i < 100; ++i) hist.Record(1.0);  // epoch 0
  EXPECT_EQ(hist.SnapshotWindow().count, 100);
  const double p50_fast = hist.SnapshotWindow().Percentile(50.0);
  EXPECT_GT(p50_fast, 0.5);
  EXPECT_LE(p50_fast, 2.0);

  // Three slots later the 1 ms population is gone; only the slow tail
  // recorded now remains.
  clock.AdvanceMillis(3000.0);
  for (int i = 0; i < 10; ++i) hist.Record(500.0);
  EXPECT_EQ(hist.SnapshotWindow().count, 10);
  EXPECT_GT(hist.SnapshotWindow().Percentile(50.0), 100.0);
}

TEST(WindowedHistogramTest, ConcurrentRecordsAtFixedTimeStayExact) {
  ManualClock clock;
  WindowOptions opts;
  opts.clock = &clock;
  Histogram hist(Series::kWindowed, opts);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist] {
      for (int i = 0; i < kPerThread; ++i) hist.Record(1.0);
    });
  }
  for (auto& th : threads) th.join();
  const HistogramSnapshot snap = hist.SnapshotWindow();
  EXPECT_EQ(snap.count, int64_t{kThreads} * kPerThread);
  EXPECT_DOUBLE_EQ(snap.sum, static_cast<double>(kThreads) * kPerThread);
}

// ---- Merged registry: one metric, cumulative and/or windowed series ----

const Snapshot::WindowCounter* FindWindowCounter(const Snapshot& snap,
                                                 const std::string& name) {
  for (const auto& c : snap.window_counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const Snapshot::WindowHistogram* FindWindowHistogram(const Snapshot& snap,
                                                     const std::string& name) {
  for (const auto& h : snap.window_histograms) {
    if (h.hist.name == name) return &h;
  }
  return nullptr;
}

TEST(RegistryTest, BothSeriesAreFedByOneCallWithEqualTotals) {
  ManualClock clock;
  WindowOptions opts;
  opts.clock = &clock;
  Registry reg(opts);
  Counter* counter = reg.GetCounter("qps.test.both", Series::kBoth);
  Histogram* hist = reg.GetHistogram("qps.test.both_ms", Series::kBoth);
  for (int i = 0; i < 7; ++i) counter->Increment();
  for (int i = 0; i < 5; ++i) hist->Record(2.0);

  const Snapshot snap = reg.TakeSnapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0], std::make_pair(std::string("qps.test.both"),
                                             int64_t{7}));
  const Snapshot::WindowCounter* wc = FindWindowCounter(snap, "qps.test.both");
  ASSERT_NE(wc, nullptr);
  EXPECT_EQ(wc->total, 7);

  ASSERT_EQ(snap.histograms.size(), 1u);
  const Snapshot::WindowHistogram* wh =
      FindWindowHistogram(snap, "qps.test.both_ms");
  ASSERT_NE(wh, nullptr);
  EXPECT_EQ(snap.histograms[0].count, 5);
  EXPECT_EQ(wh->hist.count, snap.histograms[0].count);
  EXPECT_EQ(wh->hist.buckets, snap.histograms[0].buckets);
  EXPECT_DOUBLE_EQ(wh->hist.sum, snap.histograms[0].sum);
}

TEST(RegistryTest, WindowedOnlyMetricsHaveNoCumulativeSeries) {
  ManualClock clock;
  WindowOptions opts;
  opts.clock = &clock;
  Registry reg(opts);
  reg.GetCounter("qps.test.win_only", Series::kWindowed)->Increment(3);
  reg.GetHistogram("qps.test.win_only_ms", Series::kWindowed)->Record(1.0);

  const Snapshot snap = reg.TakeSnapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.histograms.empty());
  ASSERT_NE(FindWindowCounter(snap, "qps.test.win_only"), nullptr);
  EXPECT_EQ(FindWindowCounter(snap, "qps.test.win_only")->total, 3);
  ASSERT_NE(FindWindowHistogram(snap, "qps.test.win_only_ms"), nullptr);
  EXPECT_EQ(RenderJson(snap),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
  EXPECT_EQ(RenderText(snap), "(no metrics recorded)\n");
}

TEST(RegistryTest, RegistrationsUnionTheirSeries) {
  ManualClock clock;
  WindowOptions opts;
  opts.clock = &clock;
  Registry reg(opts);
  // A reader asking for the cumulative series first must not stop a later
  // windowed registration from creating the window, and vice versa.
  Counter* a = reg.GetCounter("qps.test.union");
  Counter* b = reg.GetCounter("qps.test.union", Series::kWindowed);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a->cumulative());
  EXPECT_TRUE(a->windowed());
  Histogram* h = reg.GetHistogram("qps.test.union_ms", Series::kWindowed);
  EXPECT_FALSE(h->cumulative());
  reg.GetHistogram("qps.test.union_ms");
  EXPECT_TRUE(h->cumulative());
  EXPECT_TRUE(h->windowed());
}

TEST(RegistryTest, PrometheusListsCumulativeSeriesBeforeWindowSeries) {
  ManualClock clock;
  WindowOptions opts;
  opts.clock = &clock;
  Registry reg(opts);
  reg.GetCounter("qps.test.b_counter", Series::kBoth)->Increment();
  reg.GetCounter("qps.test.a_win_counter", Series::kWindowed)->Increment();
  reg.GetGauge("qps.test.gauge")->Set(1.0);
  reg.GetHistogram("qps.test.hist", Series::kBoth)->Record(1.0);
  reg.GetHistogram("qps.test.a_win_hist", Series::kWindowed)->Record(1.0);

  std::vector<std::string> types;
  const std::string text = obs::RenderPrometheus(reg.TakeSnapshot());
  size_t pos = 0;
  while ((pos = text.find("# TYPE ", pos)) != std::string::npos) {
    pos += 7;
    types.push_back(text.substr(pos, text.find('\n', pos) - pos));
  }
  const std::vector<std::string> expected = {
      "qps_test_b_counter counter",
      "qps_test_gauge gauge",
      "qps_test_hist histogram",
      "qps_test_a_win_counter_window_total gauge",
      "qps_test_a_win_counter_window_rate gauge",
      "qps_test_b_counter_window_total gauge",
      "qps_test_b_counter_window_rate gauge",
      "qps_test_a_win_hist_window_count gauge",
      "qps_test_a_win_hist_window_rate gauge",
      "qps_test_a_win_hist_window_p50 gauge",
      "qps_test_a_win_hist_window_p90 gauge",
      "qps_test_a_win_hist_window_p99 gauge",
      "qps_test_hist_window_count gauge",
      "qps_test_hist_window_rate gauge",
      "qps_test_hist_window_p50 gauge",
      "qps_test_hist_window_p90 gauge",
      "qps_test_hist_window_p99 gauge",
  };
  EXPECT_EQ(types, expected);
}

TEST(RegistryTest, ConcurrentBothSeriesRecordsKeepCumulativeExact) {
  // Eight writers record into one both-series histogram while the clock
  // crosses slot boundaries: the cumulative count stays exact, and window
  // rotation may drop samples but never invents them.
  ManualClock clock;
  WindowOptions opts;
  opts.slots = 4;
  opts.slot_width_ms = 1.0;
  opts.clock = &clock;
  Registry reg(opts);
  Histogram* hist = reg.GetHistogram("qps.test.concurrent_both", Series::kBoth);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::atomic<bool> stop{false};
  std::thread ticker([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      clock.AdvanceMillis(0.5);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([hist] {
      for (int i = 0; i < kPerThread; ++i) hist->Record(1.0);
    });
  }
  for (auto& th : threads) th.join();
  stop.store(true);
  ticker.join();

  EXPECT_EQ(hist->count(), int64_t{kThreads} * kPerThread);
  EXPECT_DOUBLE_EQ(hist->sum(), static_cast<double>(kThreads) * kPerThread);
  const HistogramSnapshot window = hist->SnapshotWindow();
  EXPECT_GE(window.count, 0);
  EXPECT_LE(window.count, hist->count());
}

}  // namespace
}  // namespace metrics
}  // namespace qps
