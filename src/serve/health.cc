// Copyright 2026 The QPSeeker Authors

#include "serve/health.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/metrics.h"

namespace qps {
namespace serve {

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kClosed:
      return "closed";
    case HealthState::kOpen:
      return "open";
    case HealthState::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

/// Per-key breaker state. Samples are (timestamp_ms, failure) pairs in a
/// deque trimmed to the rolling window; serving rates (tens of thousands
/// per window at most) keep it small, and everything is under the monitor
/// mutex.
struct HealthMonitor::Key {
  HealthState state = HealthState::kClosed;
  std::deque<std::pair<double, bool>> samples;
  int64_t window_failures = 0;  ///< failures currently inside `samples`
  double opened_at_ms = 0.0;
  int probes_inflight = 0;
  int probe_successes = 0;  ///< consecutive, while half-open

  // Lifetime counters (KeyStats).
  int64_t quarantines = 0;
  int64_t probes = 0;
  int64_t recoveries = 0;

  // Resolved once per key; the state gauge is cumulative (dashboards want
  // the current value), transitions feed windowed-only rate series.
  metrics::Gauge* state_gauge = nullptr;
  metrics::Counter* quarantine_rate = nullptr;
  metrics::Counter* probe_rate = nullptr;
  metrics::Counter* recovery_rate = nullptr;
};

HealthMonitor::HealthMonitor(HealthOptions options)
    : options_(std::move(options)) {}

HealthMonitor::~HealthMonitor() = default;

HealthMonitor::Key& HealthMonitor::GetKeyLocked(const std::string& key) {
  auto it = keys_.find(key);
  if (it == keys_.end()) {
    it = keys_.emplace(key, Key{}).first;
    Key& k = it->second;
    constexpr auto kWindowed = metrics::Series::kWindowed;
    auto& reg = metrics::Registry::Global();
    k.state_gauge = reg.GetGauge("qps.health.state." + key);
    k.quarantine_rate =
        reg.GetCounter("qps.health.quarantines." + key, kWindowed);
    k.probe_rate = reg.GetCounter("qps.health.probes." + key, kWindowed);
    k.recovery_rate =
        reg.GetCounter("qps.health.recoveries." + key, kWindowed);
  }
  return it->second;
}

void HealthMonitor::TrimLocked(Key& k, double now_ms) const {
  const double horizon = now_ms - options_.window_ms;
  while (!k.samples.empty() && k.samples.front().first < horizon) {
    if (k.samples.front().second) k.window_failures -= 1;
    k.samples.pop_front();
  }
}

void HealthMonitor::OpenLocked(const std::string& name, Key& k,
                               double now_ms) {
  k.state = HealthState::kOpen;
  k.opened_at_ms = now_ms;
  k.quarantines += 1;
  k.probes_inflight = 0;
  k.probe_successes = 0;
  // A fresh quarantine judges the next window on its own evidence.
  k.samples.clear();
  k.window_failures = 0;
  k.state_gauge->Set(static_cast<double>(HealthState::kOpen));
  k.quarantine_rate->Increment();
  QPS_VLOG(1) << "health: " << name << " quarantined (breaker OPEN)";
}

AdmitDecision HealthMonitor::Admit(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  Key& k = GetKeyLocked(key);
  const double now_ms = clock().NowMillis();
  switch (k.state) {
    case HealthState::kClosed:
      return AdmitDecision::kAdmit;
    case HealthState::kOpen:
      if (now_ms - k.opened_at_ms < options_.open_ms) {
        return AdmitDecision::kReject;
      }
      // Cool-down over: half-open, and this request is the first probe.
      k.state = HealthState::kHalfOpen;
      k.probe_successes = 0;
      k.probes_inflight = 0;
      k.state_gauge->Set(static_cast<double>(HealthState::kHalfOpen));
      QPS_VLOG(1) << "health: " << key << " half-open, probing";
      [[fallthrough]];
    case HealthState::kHalfOpen:
      if (k.probes_inflight >= options_.probe_concurrency) {
        return AdmitDecision::kReject;
      }
      k.probes_inflight += 1;
      k.probes += 1;
      k.probe_rate->Increment();
      return AdmitDecision::kProbe;
  }
  return AdmitDecision::kAdmit;
}

void HealthMonitor::Record(const std::string& key, const Status& outcome,
                           bool probe) {
  std::lock_guard<std::mutex> lock(mu_);
  Key& k = GetKeyLocked(key);
  const double now_ms = clock().NowMillis();
  const bool failure =
      !outcome.ok() && (options_.timeouts_are_failures ||
                        !outcome.IsDeadlineExceeded());
  TrimLocked(k, now_ms);
  k.samples.emplace_back(now_ms, failure);
  if (failure) k.window_failures += 1;

  if (probe && k.state == HealthState::kHalfOpen) {
    k.probes_inflight = std::max(0, k.probes_inflight - 1);
    if (failure) {
      // The tenant is still sick: re-quarantine for a fresh cool-down.
      OpenLocked(key, k, now_ms);
      return;
    }
    k.probe_successes += 1;
    if (k.probe_successes >= options_.probe_recoveries) {
      k.state = HealthState::kClosed;
      k.recoveries += 1;
      k.samples.clear();
      k.window_failures = 0;
      k.state_gauge->Set(static_cast<double>(HealthState::kClosed));
      k.recovery_rate->Increment();
      QPS_VLOG(1) << "health: " << key << " recovered (breaker closed)";
    }
    return;
  }

  if (k.state == HealthState::kClosed && failure) {
    const int64_t attempts = static_cast<int64_t>(k.samples.size());
    if (attempts >= options_.min_samples &&
        static_cast<double>(k.window_failures) >=
            options_.open_error_rate * static_cast<double>(attempts)) {
      OpenLocked(key, k, now_ms);
    }
  }
}

void HealthMonitor::RecordObserved(const std::string& key,
                                   const Status& outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  Key& k = GetKeyLocked(key);
  const double now_ms = clock().NowMillis();
  const bool failure =
      !outcome.ok() && (options_.timeouts_are_failures ||
                        !outcome.IsDeadlineExceeded());
  TrimLocked(k, now_ms);
  k.samples.emplace_back(now_ms, failure);
  if (failure) k.window_failures += 1;
}

void HealthMonitor::AbandonProbe(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = keys_.find(key);
  if (it == keys_.end()) return;
  Key& k = it->second;
  if (k.state == HealthState::kHalfOpen) {
    k.probes_inflight = std::max(0, k.probes_inflight - 1);
  }
}

HealthState HealthMonitor::state(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = keys_.find(key);
  return it == keys_.end() ? HealthState::kClosed : it->second.state;
}

HealthMonitor::KeyStats HealthMonitor::stats(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = keys_.find(key);
  if (it == keys_.end()) return KeyStats{};
  const Key& k = it->second;
  KeyStats out;
  out.state = k.state;
  out.window_attempts = static_cast<int64_t>(k.samples.size());
  out.window_failures = k.window_failures;
  out.quarantines = k.quarantines;
  out.probes = k.probes;
  out.recoveries = k.recoveries;
  return out;
}

std::vector<std::pair<std::string, HealthMonitor::KeyStats>>
HealthMonitor::AllStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, KeyStats>> out;
  out.reserve(keys_.size());
  for (const auto& [name, k] : keys_) {
    KeyStats s;
    s.state = k.state;
    s.window_attempts = static_cast<int64_t>(k.samples.size());
    s.window_failures = k.window_failures;
    s.quarantines = k.quarantines;
    s.probes = k.probes;
    s.recoveries = k.recoveries;
    out.emplace_back(name, s);
  }
  return out;
}

}  // namespace serve
}  // namespace qps
