// Copyright 2026 The QPSeeker Authors

#include "core/guarded_planner.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "util/trace.h"

namespace qps {
namespace core {

GuardedPlanner::GuardedPlanner(const QpSeeker* model,
                               const optimizer::Planner* baseline,
                               GuardedOptions options)
    : model_(model), baseline_(baseline), options_(std::move(options)) {}

namespace {

/// Pre-resolved hot-path metrics (DESIGN.md §8 naming convention).
struct GuardMetrics {
  metrics::Counter* requests;
  metrics::Counter* served[3];  ///< indexed by PlanStage
  metrics::Counter* fallbacks;
  metrics::Counter* circuit_opens;
  metrics::Counter* circuit_closes;
  metrics::Counter* circuit_short_circuits;
  metrics::Gauge* circuit_open;
  metrics::Histogram* plan_ms;  ///< cumulative and windowed
  /// Windowed-only ladder mix: which rung served recent traffic. Feeds the
  /// "ladder" panel in qps_top and the Prometheus _window_rate series.
  metrics::Counter* stage_window[3];

  static const GuardMetrics& Get() {
    static const GuardMetrics m = [] {
      constexpr auto kWindowed = metrics::Series::kWindowed;
      auto& reg = metrics::Registry::Global();
      GuardMetrics out;
      out.requests = reg.GetCounter("qps.guarded.requests");
      out.served[0] = reg.GetCounter("qps.guarded.served_neural");
      out.served[1] = reg.GetCounter("qps.guarded.served_greedy");
      out.served[2] = reg.GetCounter("qps.guarded.served_traditional");
      out.fallbacks = reg.GetCounter("qps.guarded.fallbacks");
      out.circuit_opens = reg.GetCounter("qps.guarded.circuit_opens");
      out.circuit_closes = reg.GetCounter("qps.guarded.circuit_closes");
      out.circuit_short_circuits =
          reg.GetCounter("qps.guarded.circuit_short_circuits");
      out.circuit_open = reg.GetGauge("qps.guarded.circuit_open");
      out.plan_ms =
          reg.GetHistogram("qps.guarded.plan_ms", metrics::Series::kBoth);
      out.stage_window[0] =
          reg.GetCounter("qps.guarded.stage.neural", kWindowed);
      out.stage_window[1] =
          reg.GetCounter("qps.guarded.stage.greedy", kWindowed);
      out.stage_window[2] =
          reg.GetCounter("qps.guarded.stage.traditional", kWindowed);
      return out;
    }();
    return m;
  }
};

}  // namespace

void GuardedPlanner::RecordNeuralOutcome(bool success) {
  window_.push_back(!success);
  while (static_cast<int>(window_.size()) > options_.breaker_window) {
    window_.pop_front();
  }
  const int failures =
      static_cast<int>(std::count(window_.begin(), window_.end(), true));
  if (!circuit_open_ && failures >= options_.breaker_threshold) {
    circuit_open_ = true;
    circuit_opened_at_ms_ = NowMs();
    stats_.circuit_opens += 1;
    window_.clear();
    GuardMetrics::Get().circuit_opens->Increment();
    GuardMetrics::Get().circuit_open->Set(1.0);
    QPS_VLOG(1) << "guarded: circuit OPEN after " << failures << " failures in "
                << options_.breaker_window << "-request window";
  }
}

void GuardedPlanner::MaybeCloseCircuit() {
  if (!circuit_open_) return;
  if (NowMs() - circuit_opened_at_ms_ >= options_.breaker_cooldown_ms) {
    circuit_open_ = false;
    stats_.circuit_closes += 1;
    GuardMetrics::Get().circuit_closes->Increment();
    GuardMetrics::Get().circuit_open->Set(0.0);
    QPS_VLOG(1) << "guarded: circuit closed after "
                << options_.breaker_cooldown_ms << "ms cool-down";
  }
}

StatusOr<PlanResult> GuardedPlanner::TryNeural(const query::Query& q,
                                               const PlanRequestOptions& ropts) {
  QPS_TRACE_SPAN("guarded.neural");
  stats_.neural_attempts += 1;
  MctsOptions mopts = options_.hybrid.mcts;
  if (options_.neural_deadline_ms > 0.0) {
    mopts.time_budget_ms = std::min(mopts.time_budget_ms, options_.neural_deadline_ms);
    mopts.hard_deadline_ms = options_.neural_deadline_ms * options_.deadline_slack;
  }
  auto mcts = MctsPlan(*model_, q, WithRequest(std::move(mopts), ropts));
  if (!mcts.ok()) {
    const Status& st = mcts.status();
    if (st.IsDeadlineExceeded()) {
      stats_.neural_deadline += 1;
    } else if (st.message().find("non-finite") != std::string::npos) {
      stats_.neural_nan += 1;
    } else {
      stats_.neural_error += 1;
    }
    return st;
  }
  if (!std::isfinite(mcts->predicted_runtime_ms)) {
    stats_.neural_nan += 1;
    return Status::Internal("non-finite MCTS plan score");
  }
  if (options_.validate_plans) {
    Status valid = query::ValidatePlan(q, *mcts->plan);
    if (!valid.ok()) {
      stats_.neural_invalid_plan += 1;
      return valid;
    }
  }
  stats_.neural_success += 1;
  return ToPlanResult(std::move(mcts).value(), PlanStage::kNeural);
}

StatusOr<PlanResult> GuardedPlanner::TryGreedy(const query::Query& q,
                                               const PlanRequestOptions& ropts) {
  QPS_TRACE_SPAN("guarded.greedy");
  stats_.greedy_attempts += 1;
  auto greedy = GreedyPlan(*model_, q, ropts.evaluate, ropts.cancel);
  Status st = greedy.ok() ? Status::OK() : greedy.status();
  if (st.ok() && !std::isfinite(greedy->predicted_runtime_ms)) {
    st = Status::Internal("non-finite greedy plan score");
  }
  if (st.ok() && options_.validate_plans) st = query::ValidatePlan(q, *greedy->plan);
  if (!st.ok()) {
    stats_.greedy_failures += 1;
    return st;
  }
  stats_.greedy_success += 1;
  return ToPlanResult(std::move(greedy).value(), PlanStage::kGreedy);
}

StatusOr<PlanResult> GuardedPlanner::TryTraditional(
    const query::Query& q, const PlanRequestOptions& ropts) {
  QPS_TRACE_SPAN("guarded.traditional");
  stats_.traditional_attempts += 1;
  auto plan = baseline_->Plan(q, {}, ropts.cancel);
  Status st = plan.ok() ? Status::OK() : plan.status();
  if (st.ok() && options_.validate_plans) st = query::ValidatePlan(q, **plan);
  if (!st.ok()) {
    stats_.traditional_failures += 1;
    return st;
  }
  stats_.traditional_success += 1;
  PlanResult result;
  result.node_stats = (*plan)->estimated;
  result.plan = std::move(*plan);
  return result;
}

StatusOr<PlanResult> GuardedPlanner::Plan(const query::Query& q,
                                          const PlanRequestOptions& ropts) {
  QPS_RETURN_IF_ERROR(CheckPlannable(q));
  // An already-cancelled request never enters the ladder (and never counts
  // against the breaker — cancellation is caller-driven, not model health).
  QPS_RETURN_IF_ERROR(util::CheckCancel(ropts.cancel));
  const GuardMetrics& gm = GuardMetrics::Get();
  QPS_TRACE_SPAN_VAR(span, "guarded.plan");
  stats_.requests += 1;
  gm.requests->Increment();
  Timer timer(&clock());
  std::string fallback_reason;

  auto serve = [&](PlanResult&& r) -> StatusOr<PlanResult> {
    r.plan_ms = timer.ElapsedMillis();
    r.fallback_reason = std::move(fallback_reason);
    gm.served[static_cast<int>(r.stage)]->Increment();
    gm.stage_window[static_cast<int>(r.stage)]->Increment();
    if (!r.fallback_reason.empty()) gm.fallbacks->Increment();
    gm.plan_ms->Record(r.plan_ms);
    span.AddAttr("stage", PlanStageName(r.stage));
    if (!r.fallback_reason.empty()) span.AddAttr("fallback", r.fallback_reason);
    QPS_RETURN_IF_ERROR(CheckRequestDeadline(r.deadline_hit, ropts));
    return std::move(r);
  };

  const bool neural_eligible =
      model_ != nullptr &&
      q.num_relations() >= options_.hybrid.neural_min_relations;

  if (neural_eligible) {
    MaybeCloseCircuit();
    if (circuit_open_) {
      stats_.circuit_short_circuits += 1;
      gm.circuit_short_circuits->Increment();
      fallback_reason = "circuit open";
    } else {
      auto neural = TryNeural(q, ropts);
      // A rung tripped by the cancel token ends the ladder: degrading a
      // request nobody is waiting for just burns more CPU. The tripped
      // outcome also stays out of the breaker window — it says nothing
      // about model health.
      if (!neural.ok() && util::Cancelled(ropts.cancel)) return neural;
      RecordNeuralOutcome(neural.ok());
      if (neural.ok()) return serve(std::move(neural).value());
      fallback_reason = "neural: " + neural.status().ToString();
      QPS_VLOG(1) << "guarded: neural rung failed ("
                  << neural.status().ToString() << "), degrading to greedy";
      auto greedy = TryGreedy(q, ropts);
      if (!greedy.ok() && util::Cancelled(ropts.cancel)) return greedy;
      if (greedy.ok()) return serve(std::move(greedy).value());
      fallback_reason += "; greedy: " + greedy.status().ToString();
      QPS_VLOG(1) << "guarded: greedy rung failed ("
                  << greedy.status().ToString() << "), degrading to traditional";
    }
  }

  auto traditional = TryTraditional(q, ropts);
  if (!traditional.ok()) return traditional;
  return serve(std::move(traditional).value());
}

}  // namespace core
}  // namespace qps
