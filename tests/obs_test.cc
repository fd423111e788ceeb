// Copyright 2026 The QPSeeker Authors
//
// Observability layer: the accuracy/drift tracker (quantiles, EWMA
// baseline, drift injection), the Prometheus exposition round-trip, the obs
// JSON document + snapshot writer, the audit log schema, and the qps_top
// board rendering. This test binary is in the TSan stage of tier1.sh.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "obs/accuracy.h"
#include "obs/audit.h"
#include "obs/export.h"
#include "obs/json_reader.h"
#include "obs/top.h"
#include "util/clock.h"
#include "util/io.h"
#include "util/metrics.h"

namespace qps {
namespace obs {
namespace {

std::string TempPath(const std::string& name) {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : "/tmp") + "/" + name;
}

// ---- Accuracy / drift ---------------------------------------------------

AccuracySample MakeSample(double pred_rows, double actual_rows) {
  AccuracySample s;
  s.backend = "guarded";
  s.predicted_rows = pred_rows;
  s.actual_rows = actual_rows;
  s.predicted_ms = 1.0;
  s.actual_ms = 1.0;
  return s;
}

TEST(AccuracyTrackerTest, WindowQuantilesMatchTheSamples) {
  ManualClock clock;
  AccuracyOptions opts;
  opts.clock = &clock;
  AccuracyTracker tracker(opts);

  // q-errors: 1, 2, 4 — median 2.
  tracker.Observe(MakeSample(100, 100));
  tracker.Observe(MakeSample(200, 100));
  tracker.Observe(MakeSample(100, 400));
  const auto report = tracker.Peek("guarded");
  EXPECT_EQ(report.samples, 3);
  EXPECT_NEAR(report.qerr_p50, 2.0, 1e-9);
  EXPECT_GE(report.qerr_p95, 2.0);
}

TEST(AccuracyTrackerTest, SamplesOutsideTheWindowAreIgnored) {
  ManualClock clock;
  AccuracyOptions opts;
  opts.clock = &clock;
  opts.window_ms = 1000.0;
  AccuracyTracker tracker(opts);

  tracker.Observe(MakeSample(100, 100));
  clock.AdvanceMillis(2000.0);
  tracker.Observe(MakeSample(300, 100));
  const auto report = tracker.Peek();
  EXPECT_EQ(report.samples, 1);
  EXPECT_NEAR(report.qerr_p50, 3.0, 1e-9);
}

TEST(AccuracyTrackerTest, SamplingStrideKeepsEveryNth) {
  AccuracyOptions opts;
  opts.sample_every = 3;
  AccuracyTracker tracker(opts);
  int kept = 0;
  for (int i = 0; i < 9; ++i) {
    if (tracker.Observe(MakeSample(100, 100))) ++kept;
  }
  EXPECT_EQ(kept, 3);
}

TEST(AccuracyTrackerTest, DriftInjectionRaisesTheScoreWithinOneWindow) {
  ManualClock clock;
  AccuracyOptions opts;
  opts.clock = &clock;
  opts.window_ms = 1000.0;
  opts.drift_threshold = 2.0;
  AccuracyTracker tracker(opts);

  // Healthy phase: q-error ~1.2. First Update seeds the baseline.
  for (int i = 0; i < 50; ++i) tracker.Observe(MakeSample(120, 100));
  auto healthy = tracker.Update();
  EXPECT_NEAR(healthy.drift_score, 1.2 / 1.2, 0.3);
  EXPECT_FALSE(healthy.drifted);

  // Skew the labels mid-run: the same model now mispredicts by 10x.
  clock.AdvanceMillis(1500.0);  // healthy samples fall out of the window
  for (int i = 0; i < 50; ++i) tracker.Observe(MakeSample(100, 1000));
  auto drifted = tracker.Update();
  EXPECT_GE(drifted.drift_score, opts.drift_threshold);
  EXPECT_TRUE(drifted.drifted);
  EXPECT_NEAR(drifted.qerr_p50, 10.0, 1e-6);
}

TEST(AccuracyTrackerTest, UpdatePublishesTheDriftGauges) {
  ManualClock clock;
  AccuracyOptions opts;
  opts.clock = &clock;
  AccuracyTracker tracker(opts);
  for (int i = 0; i < 10; ++i) tracker.Observe(MakeSample(500, 100));
  tracker.Update();

  auto& reg = metrics::Registry::Global();
  EXPECT_NEAR(reg.GetGauge("qps.model.drift.qerr_p50")->value(), 5.0, 1e-6);
  EXPECT_GT(reg.GetGauge("qps.model.drift.score")->value(), 0.0);
}

TEST(AccuracyTrackerTest, BackendsAreTrackedSeparately) {
  AccuracyTracker tracker;
  AccuracySample a = MakeSample(200, 100);
  a.backend = "mcts";
  AccuracySample b = MakeSample(800, 100);
  b.backend = "greedy";
  tracker.Observe(a);
  tracker.Observe(b);

  EXPECT_NEAR(tracker.Peek("mcts").qerr_p50, 2.0, 1e-9);
  EXPECT_NEAR(tracker.Peek("greedy").qerr_p50, 8.0, 1e-9);
  EXPECT_EQ(tracker.Peek().samples, 2);  // "" merges
  EXPECT_EQ(tracker.Backends().size(), 2u);
}

TEST(AccuracyTrackerTest, ConcurrentObserversNeverLoseSamples) {
  ManualClock clock;
  AccuracyOptions opts;
  opts.clock = &clock;
  opts.capacity = 100'000;
  AccuracyTracker tracker(opts);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracker] {
      for (int i = 0; i < kPerThread; ++i) {
        tracker.Observe(MakeSample(100, 100));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(tracker.Peek().samples, int64_t{kThreads} * kPerThread);
}

// ---- Prometheus exposition ----------------------------------------------

const PromSample* FindSample(const std::vector<PromSample>& samples,
                             const std::string& key) {
  for (const auto& s : samples) {
    if (s.Key() == key) return &s;
  }
  return nullptr;
}

TEST(PrometheusTest, RoundTripPreservesValuesExactly) {
  auto& reg = metrics::Registry::Global();
  reg.GetCounter("qps.test.prom_counter")->Reset();
  reg.GetCounter("qps.test.prom_counter")->Increment(42);
  reg.GetGauge("qps.test.prom_gauge")->Set(2.718281828459045);
  metrics::Histogram* hist = reg.GetHistogram("qps.test.prom_hist");
  hist->Reset();
  hist->Record(0.0005);  // bucket 0
  hist->Record(0.003);   // bucket 2 (le 0.004)
  hist->Record(1e15);    // overflow

  const std::string text = RenderPrometheus(reg.TakeSnapshot());
  auto parsed = ParsePrometheus(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  const PromSample* counter = FindSample(*parsed, "qps_test_prom_counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value, 42.0);

  const PromSample* gauge = FindSample(*parsed, "qps_test_prom_gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->value, 2.718281828459045);  // %.17g round-trips exactly

  // Cumulative le semantics: each bucket counts everything <= its bound,
  // +Inf equals _count.
  // Bucket labels carry %.17g bounds (not all decimals are exact doubles),
  // so match them by parsed value rather than by string.
  auto bucket_at = [&](double bound) -> const PromSample* {
    for (const auto& s : *parsed) {
      if (s.name != "qps_test_prom_hist_bucket" || s.labels.size() != 1) {
        continue;
      }
      const double le = std::strtod(s.labels[0].second.c_str(), nullptr);
      if (std::abs(le - bound) < bound * 1e-9) return &s;
    }
    return nullptr;
  };
  const PromSample* le0 = bucket_at(0.001);
  ASSERT_NE(le0, nullptr);
  EXPECT_EQ(le0->value, 1.0);
  const PromSample* le2 = bucket_at(0.004);
  ASSERT_NE(le2, nullptr);
  EXPECT_EQ(le2->value, 2.0);
  const PromSample* inf =
      FindSample(*parsed, "qps_test_prom_hist_bucket{le=\"+Inf\"}");
  ASSERT_NE(inf, nullptr);
  EXPECT_EQ(inf->value, 3.0);
  const PromSample* count = FindSample(*parsed, "qps_test_prom_hist_count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->value, inf->value);

  // Buckets never decrease along le.
  double prev = -1.0;
  for (const auto& s : *parsed) {
    if (s.name == "qps_test_prom_hist_bucket") {
      EXPECT_GE(s.value, prev);
      prev = s.value;
    }
  }
}

TEST(PrometheusTest, WindowSeriesExportRatesAndPercentiles) {
  auto& reg = metrics::Registry::Global();
  reg.GetCounter("qps.test.prom_window", metrics::Series::kWindowed)
      ->Increment(5);
  reg.GetHistogram("qps.test.prom_window_hist", metrics::Series::kWindowed)
      ->Record(4.0);

  const std::string text = RenderPrometheus(reg.TakeSnapshot());
  auto parsed = ParsePrometheus(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  const PromSample* total =
      FindSample(*parsed, "qps_test_prom_window_window_total");
  ASSERT_NE(total, nullptr);
  EXPECT_GE(total->value, 5.0);
  EXPECT_NE(FindSample(*parsed, "qps_test_prom_window_hist_window_p99"),
            nullptr);
}

TEST(PrometheusTest, ParserRejectsMalformedLines) {
  EXPECT_FALSE(ParsePrometheus("metric{le=\"0.1\" 3\n").ok());
  EXPECT_FALSE(ParsePrometheus("metric_without_value\n").ok());
  EXPECT_FALSE(ParsePrometheus("metric not_a_number\n").ok());
  EXPECT_TRUE(ParsePrometheus("# just a comment\n\n").ok());
}

// ---- JSON reader --------------------------------------------------------

TEST(JsonReaderTest, ParsesTheBasicShapes) {
  auto doc = ParseJson(
      R"({"a":1.5,"b":"x\n\"y\"","c":[1,2,3],"d":{"e":true,"f":null},"g":-2e3})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->NumberOr("a", 0), 1.5);
  EXPECT_EQ(doc->StringOr("b", ""), "x\n\"y\"");
  ASSERT_NE(doc->Find("c"), nullptr);
  EXPECT_EQ(doc->Find("c")->array().size(), 3u);
  EXPECT_EQ(doc->FindPath("d.e")->boolean(), true);
  EXPECT_EQ(doc->NumberOr("g", 0), -2000.0);
}

TEST(JsonReaderTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("[1,2,]").ok());
  EXPECT_FALSE(ParseJson("{} trailing").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
}

// ---- Obs JSON document + snapshot writer --------------------------------

TEST(ObsJsonTest, DocumentParsesAndCarriesEverySection) {
  metrics::Registry::Global()
      .GetCounter("qps.test.obsjson", metrics::Series::kBoth)
      ->Increment();

  const std::string json = RenderObsJson(7);
  auto doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << "\n" << json;
  EXPECT_EQ(doc->NumberOr("seq", 0), 7.0);
  EXPECT_NE(doc->FindPath("metrics.counters"), nullptr);
  EXPECT_NE(doc->FindPath("window.counters"), nullptr);
  EXPECT_NE(doc->FindPath("drift.score"), nullptr);
  const JsonValue* counter =
      doc->FindPath("metrics.counters")->Find("qps.test.obsjson");
  ASSERT_NE(counter, nullptr);
  EXPECT_GE(counter->number(), 1.0);
}

TEST(SnapshotWriterTest, WriteOnceProducesAParseableFile) {
  const std::string path = TempPath("qps_obs_snapshot_test.json");
  SnapshotWriter writer(path, 50.0);
  ASSERT_TRUE(writer.WriteOnce().ok());
  EXPECT_EQ(writer.snapshots_written(), 1);

  auto contents = io::ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  auto doc = ParseJson(*contents);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->NumberOr("seq", 0), 1.0);
  std::remove(path.c_str());
}

TEST(SnapshotWriterTest, BackgroundThreadWritesAndStops) {
  const std::string path = TempPath("qps_obs_snapshot_bg_test.json");
  {
    SnapshotWriter writer(path, 10.0);
    writer.Start();
    while (writer.snapshots_written() < 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    writer.Stop();
    EXPECT_GE(writer.snapshots_written(), 2);
  }  // destructor must not hang
  std::remove(path.c_str());
}

// ---- Audit log ----------------------------------------------------------

TEST(AuditTest, RenderedLineMatchesTheSchema) {
  AuditRecord record;
  record.query_hash = 0x9f2c;
  record.backend = "guarded";
  record.stage = "neural";
  record.outcome = "ok";
  record.deadline_hit = true;
  record.queue_ms = 0.25;
  record.plan_ms = 12.5;
  record.plans_evaluated = 64;
  record.fallback_reason = "";

  const std::string line = RenderAuditJson(record, 1000.0);
  auto doc = ParseJson(line);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << "\n" << line;
  EXPECT_EQ(doc->StringOr("query_hash", ""), "0000000000009f2c");
  EXPECT_EQ(doc->StringOr("backend", ""), "guarded");
  EXPECT_EQ(doc->StringOr("stage", ""), "neural");
  EXPECT_EQ(doc->StringOr("outcome", ""), "ok");
  EXPECT_EQ(doc->Find("deadline_hit")->boolean(), true);
  EXPECT_EQ(doc->NumberOr("plan_ms", 0), 12.5);
  EXPECT_EQ(doc->NumberOr("plans_evaluated", 0), 64.0);
}

TEST(AuditTest, AppendWritesOneParseableLinePerRecord) {
  const std::string path = TempPath("qps_obs_audit_test.jsonl");
  std::remove(path.c_str());
  auto log = AuditLog::Open(path);
  ASSERT_TRUE(log.ok());

  AuditRecord record;
  record.backend = "guarded";
  record.outcome = "ok";
  (*log)->Append(record);
  record.outcome = "shed";
  (*log)->Append(record);
  EXPECT_EQ((*log)->records_written(), 2);

  auto contents = io::ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  int lines = 0;
  size_t pos = 0;
  while (pos < contents->size()) {
    size_t eol = contents->find('\n', pos);
    if (eol == std::string::npos) eol = contents->size();
    const std::string line = contents->substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    ++lines;
    auto doc = ParseJson(line);
    ASSERT_TRUE(doc.ok()) << line;
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST(AuditTest, OpenFailsOnAnUnwritablePath) {
  EXPECT_FALSE(AuditLog::Open("/nonexistent_dir_zz/audit.jsonl").ok());
}

// ---- qps_top board ------------------------------------------------------

TEST(TopBoardTest, RendersThroughputLatencyLadderAndDrift) {
  const std::string doc_json = R"({"ts_ms":5000,"seq":3,
    "metrics":{"counters":{"qps.serve.requests":900,
                           "qps.serve.shed":4,
                           "qps.serve.deadline_misses":2},
               "gauges":{"qps.serve.inflight":5,
                         "qps.serve.queue_depth":7,
                         "qps.guarded.circuit_open":1},
               "histograms":{}},
    "window":{"counters":{"qps.serve.requests":{"total":120,"rate":40},
                          "qps.guarded.stage.neural":{"total":80,"rate":26},
                          "qps.guarded.stage.greedy":{"total":30,"rate":10},
                          "qps.guarded.stage.traditional":{"total":10,"rate":3.3}},
              "histograms":{"qps.serve.latency_ms":{"count":120,"rate":40,
                            "p50":2.5,"p90":8,"p99":20}}},
    "drift":{"score":2.4,"qerr_p50":3.1,"qerr_p95":9.9,"samples":55,
             "drifted":true}})";
  auto cur = ParseJson(doc_json);
  ASSERT_TRUE(cur.ok()) << cur.status().ToString();

  const std::string prev_json =
      R"({"metrics":{"counters":{"qps.serve.requests":800}}})";
  auto prev = ParseJson(prev_json);
  ASSERT_TRUE(prev.ok());

  const std::string board = FormatTopBoard(*cur, &*prev, 2.0);
  // Throughput from the counter delta: (900 - 800) / 2 s.
  EXPECT_NE(board.find("50.0 req/s (delta)"), std::string::npos);
  EXPECT_NE(board.find("inflight   5"), std::string::npos);
  EXPECT_NE(board.find("p99    20.00 ms"), std::string::npos);
  EXPECT_NE(board.find("neural    80"), std::string::npos);
  EXPECT_NE(board.find("breaker OPEN"), std::string::npos);
  EXPECT_NE(board.find("** DRIFT **"), std::string::npos);

  // First poll: no previous snapshot, fall back to the window rate.
  const std::string first = FormatTopBoard(*cur, nullptr, 0.0);
  EXPECT_NE(first.find("40.0 req/s (window)"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace qps
