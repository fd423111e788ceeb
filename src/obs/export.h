// Copyright 2026 The QPSeeker Authors
//
// Export surface for the observability layer (DESIGN.md §13):
//
//  * Prometheus text exposition (version 0.0.4) of a registry snapshot —
//    counters, gauges, and histograms with correct cumulative `le` bucket
//    semantics — plus the window series as gauges. Metric
//    names translate dots to underscores (`qps.serve.latency_ms` ->
//    `qps_serve_latency_ms`); histogram series carry the standard
//    `_bucket{le=...}` / `_sum` / `_count` suffixes.
//
//  * RenderObsJson: one self-describing JSON document combining the
//    registry's cumulative and window series and the drift report — the
//    wire format qps_top polls.
//
//  * SnapshotWriter: a background thread that refreshes the drift gauges
//    (AccuracyTracker::Update) and atomically rewrites a JSON snapshot
//    file every `interval_ms` (io::AtomicWriteFile, so a reader never
//    sees a torn document).
//
// ParsePrometheus is the test-facing inverse of RenderPrometheus: it
// parses samples back into (name, labels, value) triples so the
// round-trip test can assert exact equality with the snapshot.

#ifndef QPS_OBS_EXPORT_H_
#define QPS_OBS_EXPORT_H_

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "util/metrics.h"
#include "util/status.h"

namespace qps {
namespace obs {

/// Prometheus text exposition of `snapshot`: the cumulative series first,
/// then the window series as gauges (suffixes `_window_total`,
/// `_window_count`, `_window_rate`, `_window_p50/p90/p99`).
std::string RenderPrometheus(const metrics::Snapshot& snapshot);

/// One parsed Prometheus sample: `name{label="value",...} 12.5`.
struct PromSample {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0.0;

  /// "name" or `name{le="0.004"}` — the canonical key tests compare on.
  std::string Key() const;
};

/// Parses a text-exposition document (comment lines ignored).
/// kInvalidArgument on malformed sample lines.
StatusOr<std::vector<PromSample>> ParsePrometheus(const std::string& text);

/// The combined observability document:
/// {"ts_ms":..,"seq":..,"metrics":{...},          // metrics::RenderJson
///  "window":{"counters":{name:{"total","rate"}},
///            "histograms":{name:{"count","rate","p50","p90","p99"}}},
///  "drift":{"score","qerr_p50","qerr_p95","samples","drifted"}}
std::string RenderObsJson(int64_t seq);

/// Periodically writes RenderObsJson to `path`. Start() spawns the
/// thread; Stop() (and the destructor) joins it. One writer per path.
class SnapshotWriter {
 public:
  SnapshotWriter(std::string path, double interval_ms = 1000.0);
  ~SnapshotWriter();

  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  void Start();
  void Stop();

  /// Renders and writes one snapshot immediately (also used by the
  /// writer thread each tick). Refreshes the drift gauges first.
  Status WriteOnce();

  int64_t snapshots_written() const {
    return written_.load(std::memory_order_relaxed);
  }
  const std::string& path() const { return path_; }

 private:
  void Loop();

  std::string path_;
  double interval_ms_;
  std::atomic<int64_t> written_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace obs
}  // namespace qps

#endif  // QPS_OBS_EXPORT_H_
