// Copyright 2026 The QPSeeker Authors
//
// The hybrid optimizer — the paper's §7.3 future-work direction: "a
// possible direction towards hybrid optimizers where a neural planner kicks
// in for complex queries where traditional optimizers have trouble
// handling". Simple queries (fewer than `neural_min_relations` relations)
// go to the statistics-based DP planner, whose estimates are accurate there
// (Tables 4/5 show PostgreSQL winning on Synthetic); complex queries go to
// QPSeeker+MCTS, which wins on JOB/Stack-class queries.
//
// A learned planner is only deployable when it degrades gracefully on model
// misbehavior, so every neural plan is validated and score-checked, and
// failures walk a degradation ladder:
//
//   neural MCTS (deadline-enforced) -> GreedyPlan -> traditional DP planner
//
// A sliding-window circuit breaker watches the primary (MCTS) outcomes:
// after `breaker_threshold` failures inside the last `breaker_window`
// attempts the circuit opens and traffic routes straight to the traditional
// planner for `breaker_cooldown_ms`, then closes and neural planning is
// retried. All transitions and fallbacks are counted in GuardStats.
//
// With every fault point disarmed and no failures, a complex query gets
// exactly the plan of the "neural" backend (MctsPlanner, same MCTS options
// and seed) and a simple one exactly the plan of the "baseline" backend —
// guarded_planner_test asserts byte-identical rendered plans.

#ifndef QPS_CORE_GUARDED_PLANNER_H_
#define QPS_CORE_GUARDED_PLANNER_H_

#include <deque>

#include "core/mcts.h"
#include "optimizer/planner.h"
#include "util/clock.h"

namespace qps {
namespace core {

/// Routing between the DP planner and MCTS.
struct HybridOptions {
  /// Queries with at least this many relations are planned neurally.
  int neural_min_relations = 4;
  MctsOptions mcts;
};

struct GuardedOptions {
  /// Routing + MCTS options.
  HybridOptions hybrid;

  /// Planning deadline for the neural path (0 = rely on the MCTS time
  /// budget alone). When set, the MCTS budget is clamped to it and blowing
  /// `deadline_slack` times the deadline counts as a neural failure.
  double neural_deadline_ms = 0.0;
  double deadline_slack = 4.0;

  /// Run query::ValidatePlan on every plan before returning it.
  bool validate_plans = true;

  /// Circuit breaker: open after `breaker_threshold` MCTS failures within
  /// the last `breaker_window` attempts; stay open for
  /// `breaker_cooldown_ms`, then close and try neural planning again.
  int breaker_window = 16;
  int breaker_threshold = 4;
  double breaker_cooldown_ms = 1000.0;

  /// Injectable time source shared by the breaker cool-down and the
  /// planning-time Timer (util/clock.h), so tests substitute one
  /// ManualClock for all of them. nullptr = Clock::Default().
  const Clock* clock = nullptr;
};

/// The hybrid optimizer with guard rails. Simple queries go to the DP
/// baseline directly and are not breaker-relevant; complex queries walk the
/// degradation ladder above.
class GuardedPlanner : public Planner {
 public:
  GuardedPlanner(const QpSeeker* model, const optimizer::Planner* baseline,
                 GuardedOptions options = {});

  /// Per-request deadline, seed, batch evaluator and cancel token thread
  /// into the neural and greedy rungs.
  StatusOr<PlanResult> Plan(const query::Query& q,
                            const PlanRequestOptions& ropts) override;

  const char* name() const override { return "guarded"; }
  GuardStats guard_stats() const override { return stats_; }

  const GuardStats& stats() const { return stats_; }
  void ResetStats() { stats_ = GuardStats{}; }

  /// True while the breaker routes complex queries to the DP planner.
  bool circuit_open() const { return circuit_open_; }

  const GuardedOptions& options() const { return options_; }

 private:
  const Clock& clock() const {
    return options_.clock != nullptr ? *options_.clock : *Clock::Default();
  }
  double NowMs() const { return clock().NowMillis(); }
  /// Records one MCTS outcome in the sliding window; may open the circuit.
  void RecordNeuralOutcome(bool success);
  /// Closes the circuit when the cool-down has elapsed.
  void MaybeCloseCircuit();

  /// One rung: plan, validate, score-check. Returns the failure reason or
  /// the rung's plan; the ladder stamps plan_ms and fallback_reason.
  StatusOr<PlanResult> TryNeural(const query::Query& q,
                                 const PlanRequestOptions& ropts);
  StatusOr<PlanResult> TryGreedy(const query::Query& q,
                                 const PlanRequestOptions& ropts);
  StatusOr<PlanResult> TryTraditional(const query::Query& q,
                                      const PlanRequestOptions& ropts);

  const QpSeeker* model_;
  const optimizer::Planner* baseline_;
  GuardedOptions options_;

  GuardStats stats_;
  std::deque<bool> window_;  ///< recent MCTS outcomes, true = failure
  bool circuit_open_ = false;
  double circuit_opened_at_ms_ = 0.0;
};

}  // namespace core
}  // namespace qps

#endif  // QPS_CORE_GUARDED_PLANNER_H_
