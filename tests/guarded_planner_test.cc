// Copyright 2026 The QPSeeker Authors
//
// Fault-injection suite for the guarded planning pipeline. Every rung of
// the degradation ladder (neural MCTS -> greedy -> traditional DP) is
// triggered deterministically through armed fault points, and the circuit
// breaker's open/short-circuit/close cycle runs against an injected fake
// clock. With everything disarmed, GuardedPlanner must be byte-identical
// to the "neural" backend on complex queries and to the "baseline" backend
// on simple ones.

#include <gtest/gtest.h>

#include <cmath>

#include "core/guarded_planner.h"
#include "core/planner_backends.h"
#include "core/qpseeker.h"
#include "query/parser.h"
#include "storage/schemas.h"
#include "util/clock.h"
#include "util/fault.h"

namespace qps {
namespace core {
namespace {

class GuardedPlannerTest : public ::testing::Test {
 protected:
  // One trained model for the whole suite: training dominates runtime and
  // the guards only need a model that scores plans, not a good one.
  static void SetUpTestSuite() {
    Rng rng(1);
    db_ = storage::BuildDatabase(storage::ToySpec(), 300, &rng).value().release();
    stats_ = stats::DatabaseStats::Analyze(*db_).release();
    baseline_ = new optimizer::Planner(*db_, *stats_);

    std::vector<query::Query> queries;
    const char* sqls[] = {
        "SELECT COUNT(*) FROM a, b WHERE b.b1 = a.id AND a.a2 < 5;",
        "SELECT COUNT(*) FROM b, c WHERE c.c1 = b.id;",
        "SELECT COUNT(*) FROM a, b, c WHERE b.b1 = a.id AND c.c1 = b.id;",
        "SELECT COUNT(*) FROM a WHERE a.a2 >= 2;",
    };
    for (const char* sql : sqls) {
      queries.push_back(query::ParseSql(sql, *db_).value());
    }
    sampling::DatasetOptions dopts;
    dopts.source = sampling::PlanSource::kSampled;
    dopts.sampler.max_plans_per_query = 4;
    Rng drng(2);
    auto ds = sampling::BuildQepDataset(*db_, *stats_, queries, dopts, &drng).value();
    model_ = new QpSeeker(*db_, *stats_, QpSeekerConfig::ForScale(Scale::kSmoke), 3);
    TrainOptions topts;
    topts.epochs = 6;
    model_->Train(ds, topts);
  }

  static void TearDownTestSuite() {
    delete model_;
    delete baseline_;
    delete stats_;
    delete db_;
  }

  void TearDown() override { fault::FaultInjector::Global().DisarmAll(); }

  static query::Query Complex() {
    return query::ParseSql(
               "SELECT COUNT(*) FROM a, b, c WHERE b.b1 = a.id AND c.c1 = b.id;",
               *db_)
        .value();
  }
  static query::Query Simple() {
    return query::ParseSql("SELECT COUNT(*) FROM a WHERE a.a2 = 2;", *db_).value();
  }

  /// Deterministic options: rollout-capped MCTS, 3+ relations go neural.
  static GuardedOptions Opts() {
    GuardedOptions opts;
    opts.hybrid.neural_min_relations = 3;
    opts.hybrid.mcts.time_budget_ms = 1e9;
    opts.hybrid.mcts.max_rollouts = 40;
    opts.hybrid.mcts.seed = 5;
    return opts;
  }

  static void ArmSticky(const std::string& point, StatusCode code,
                        const std::string& msg = "injected fault") {
    fault::FaultSpec spec;
    spec.code = code;
    spec.message = msg;
    spec.trigger_on_hit = 1;
    spec.sticky = true;
    fault::FaultInjector::Global().Arm(point, spec);
  }

  static storage::Database* db_;
  static stats::DatabaseStats* stats_;
  static optimizer::Planner* baseline_;
  static QpSeeker* model_;
};

storage::Database* GuardedPlannerTest::db_ = nullptr;
stats::DatabaseStats* GuardedPlannerTest::stats_ = nullptr;
optimizer::Planner* GuardedPlannerTest::baseline_ = nullptr;
QpSeeker* GuardedPlannerTest::model_ = nullptr;

TEST_F(GuardedPlannerTest, DisarmedIsByteIdenticalToNeuralOrBaseline) {
  GuardedOptions gopts = Opts();
  GuardedPlanner guarded(model_, baseline_, gopts);
  auto neural = MakePlanner("neural", model_, baseline_, gopts).value();
  auto baseline = MakePlanner("baseline", model_, baseline_, gopts).value();

  for (const auto& q : {Complex(), Simple()}) {
    Planner& reference = q.num_relations() >= gopts.hybrid.neural_min_relations
                             ? *neural
                             : *baseline;
    auto g = guarded.Plan(q, {});
    auto r = reference.Plan(q, {});
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(g->stage, r->stage) << reference.name();
    EXPECT_EQ(g->plans_evaluated, r->plans_evaluated) << reference.name();
    EXPECT_EQ(g->node_stats.runtime_ms, r->node_stats.runtime_ms)
        << reference.name();
    EXPECT_EQ(g->plan->ToString(*db_, q), r->plan->ToString(*db_, q))
        << "guarded and " << reference.name()
        << " plans must be byte-identical when disarmed";
  }
  EXPECT_EQ(guarded.stats().requests, 2);
  EXPECT_EQ(guarded.stats().neural_attempts, 1);
  EXPECT_EQ(guarded.stats().neural_success, 1);
  EXPECT_EQ(guarded.stats().NeuralFailures(), 0);
  EXPECT_EQ(guarded.stats().traditional_success, 1);
  EXPECT_FALSE(guarded.circuit_open());
}

TEST_F(GuardedPlannerTest, MctsFaultDegradesToGreedy) {
  GuardedPlanner planner(model_, baseline_, Opts());
  ArmSticky("mcts.rollout", StatusCode::kInternal, "rollout blew up");

  const query::Query q = Complex();
  auto result = planner.Plan(q, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stage, PlanStage::kGreedy);
  EXPECT_TRUE(result->used_neural());
  EXPECT_NE(result->fallback_reason.find("rollout blew up"), std::string::npos);
  EXPECT_TRUE(query::ValidatePlan(q, *result->plan).ok());

  EXPECT_EQ(planner.stats().neural_error, 1);
  EXPECT_EQ(planner.stats().greedy_success, 1);
  EXPECT_EQ(planner.stats().traditional_attempts, 0);
  EXPECT_GE(fault::FaultInjector::Global().Triggers("mcts.rollout"), 1);
}

TEST_F(GuardedPlannerTest, NanScoreDegradesPastGreedyToTraditional) {
  GuardedPlanner planner(model_, baseline_, Opts());
  // Corrupt every model prediction: MCTS and greedy both score NaN.
  fault::FaultSpec nan_spec;
  nan_spec.inject_nan = true;
  nan_spec.trigger_on_hit = 1;
  nan_spec.sticky = true;
  fault::FaultInjector::Global().Arm("vae.forward", nan_spec);

  const query::Query q = Complex();
  auto result = planner.Plan(q, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stage, PlanStage::kTraditional);
  EXPECT_FALSE(result->used_neural());
  EXPECT_TRUE(query::ValidatePlan(q, *result->plan).ok());

  EXPECT_EQ(planner.stats().neural_nan, 1);
  EXPECT_EQ(planner.stats().greedy_failures, 1);
  EXPECT_EQ(planner.stats().traditional_success, 1);
}

TEST_F(GuardedPlannerTest, BlownDeadlineDegradesToGreedy) {
  GuardedOptions gopts = Opts();
  gopts.neural_deadline_ms = 5.0;
  gopts.deadline_slack = 1.0;
  GuardedPlanner planner(model_, baseline_, gopts);

  // Latency-only fault: the first rollout stalls far past the deadline.
  fault::FaultSpec stall;
  stall.code = StatusCode::kOk;
  stall.latency_ms = 40.0;
  stall.trigger_on_hit = 1;
  fault::FaultInjector::Global().Arm("mcts.rollout", stall);

  auto result = planner.Plan(Complex(), {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stage, PlanStage::kGreedy);
  EXPECT_EQ(planner.stats().neural_deadline, 1);
  EXPECT_EQ(planner.stats().greedy_success, 1);
}

TEST_F(GuardedPlannerTest, InvalidPlanVerdictDegradesToGreedy) {
  GuardedPlanner planner(model_, baseline_, Opts());
  // Fire validation exactly once: the neural plan is rejected, the greedy
  // plan re-validates cleanly.
  fault::FaultSpec reject;
  reject.code = StatusCode::kInvalidArgument;
  reject.message = "synthetic validation failure";
  reject.trigger_on_hit = 1;
  fault::FaultInjector::Global().Arm("plan.validate", reject);

  auto result = planner.Plan(Complex(), {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stage, PlanStage::kGreedy);
  EXPECT_EQ(planner.stats().neural_invalid_plan, 1);
  EXPECT_EQ(planner.stats().greedy_success, 1);
}

TEST_F(GuardedPlannerTest, AllRungsFailingSurfacesTheLastError) {
  GuardedPlanner planner(model_, baseline_, Opts());
  ArmSticky("mcts.rollout", StatusCode::kInternal);
  ArmSticky("greedy.plan", StatusCode::kInternal);
  ArmSticky("planner.dp", StatusCode::kAborted, "dp down");

  auto result = planner.Plan(Complex(), {});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsAborted());
  EXPECT_EQ(planner.stats().neural_error, 1);
  EXPECT_EQ(planner.stats().greedy_failures, 1);
  EXPECT_EQ(planner.stats().traditional_failures, 1);
}

TEST_F(GuardedPlannerTest, SimpleQueriesBypassTheNeuralPath) {
  GuardedPlanner planner(model_, baseline_, Opts());
  ArmSticky("mcts.rollout", StatusCode::kInternal);  // must never be reached

  auto result = planner.Plan(Simple(), {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stage, PlanStage::kTraditional);
  EXPECT_EQ(planner.stats().neural_attempts, 0);
  EXPECT_EQ(fault::FaultInjector::Global().Hits("mcts.rollout"), 0);
}

TEST_F(GuardedPlannerTest, CircuitOpensShedsTrafficAndClosesAfterCooldown) {
  ManualClock manual_clock;
  GuardedOptions gopts = Opts();
  gopts.breaker_window = 8;
  gopts.breaker_threshold = 3;
  gopts.breaker_cooldown_ms = 100.0;
  gopts.clock = &manual_clock;
  GuardedPlanner planner(model_, baseline_, gopts);

  ArmSticky("mcts.rollout", StatusCode::kInternal);
  const query::Query q = Complex();

  // Three MCTS failures (each saved by greedy) trip the breaker.
  for (int i = 0; i < 3; ++i) {
    auto r = planner.Plan(q, {});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->stage, PlanStage::kGreedy);
    EXPECT_EQ(planner.circuit_open(), i == 2);
  }
  EXPECT_EQ(planner.stats().circuit_opens, 1);
  EXPECT_EQ(planner.stats().neural_attempts, 3);

  // While open, complex queries short-circuit to the DP planner: no MCTS
  // attempt, no greedy attempt.
  auto shed = planner.Plan(q, {});
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->stage, PlanStage::kTraditional);
  EXPECT_EQ(shed->fallback_reason, "circuit open");
  EXPECT_EQ(planner.stats().circuit_short_circuits, 1);
  EXPECT_EQ(planner.stats().neural_attempts, 3);
  EXPECT_EQ(planner.stats().greedy_attempts, 3);

  // Cool-down not yet elapsed: still shedding.
  manual_clock.SetMillis(99.0);
  ASSERT_TRUE(planner.Plan(q, {}).ok());
  EXPECT_EQ(planner.stats().circuit_short_circuits, 2);
  EXPECT_TRUE(planner.circuit_open());

  // After the cool-down the circuit closes and, with the fault disarmed,
  // neural planning serves again.
  manual_clock.SetMillis(101.0);
  fault::FaultInjector::Global().DisarmAll();
  auto healed = planner.Plan(q, {});
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed->stage, PlanStage::kNeural);
  EXPECT_FALSE(planner.circuit_open());
  EXPECT_EQ(planner.stats().circuit_closes, 1);
  EXPECT_EQ(planner.stats().neural_success, 1);
}

TEST_F(GuardedPlannerTest, BreakerWindowSlidesOldFailuresOut) {
  ManualClock manual_clock;
  GuardedOptions gopts = Opts();
  gopts.breaker_window = 4;
  gopts.breaker_threshold = 3;
  gopts.clock = &manual_clock;
  GuardedPlanner planner(model_, baseline_, gopts);
  const query::Query q = Complex();

  // Failure pattern F S S S S F F: the two late failures land in a window
  // of successes, so the circuit must stay closed.
  fault::FaultInjector& fi = fault::FaultInjector::Global();
  fault::FaultSpec fail_once;
  fail_once.trigger_on_hit = 1;
  fi.Arm("mcts.rollout", fail_once);
  ASSERT_TRUE(planner.Plan(q, {}).ok());
  fi.DisarmAll();
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(planner.Plan(q, {}).ok());
  fi.Arm("mcts.rollout", fail_once);
  ASSERT_TRUE(planner.Plan(q, {}).ok());
  fi.Arm("mcts.rollout", fail_once);
  ASSERT_TRUE(planner.Plan(q, {}).ok());
  EXPECT_FALSE(planner.circuit_open());
  EXPECT_EQ(planner.stats().circuit_opens, 0);
  EXPECT_EQ(planner.stats().NeuralFailures(), 3);
}

TEST_F(GuardedPlannerTest, GuardStatsRenderAllCounters) {
  GuardStats stats;
  stats.requests = 7;
  stats.neural_attempts = 5;
  stats.circuit_opens = 1;
  const std::string s = stats.ToString();
  EXPECT_NE(s.find("requests=7"), std::string::npos);
  EXPECT_NE(s.find("opens=1"), std::string::npos);
}

}  // namespace
}  // namespace core
}  // namespace qps
