// Copyright 2026 The QPSeeker Authors

#include "core/planner_backends.h"

#include "util/timer.h"
#include "util/trace.h"

namespace qps {
namespace core {

StatusOr<PlanResult> BaselinePlanner::Plan(const query::Query& q,
                                           const PlanRequestOptions& ropts) {
  QPS_RETURN_IF_ERROR(CheckPlannable(q));
  QPS_TRACE_SPAN("baseline.plan");
  Timer timer;
  PlanResult result;
  QPS_ASSIGN_OR_RETURN(result.plan, baseline_->Plan(q, {}, ropts.cancel));
  result.stage = PlanStage::kTraditional;
  result.node_stats = result.plan->estimated;
  result.plan_ms = timer.ElapsedMillis();
  return result;
}

StatusOr<PlanResult> MctsPlanner::Plan(const query::Query& q,
                                       const PlanRequestOptions& ropts) {
  QPS_RETURN_IF_ERROR(CheckPlannable(q));
  QPS_ASSIGN_OR_RETURN(MctsResult mcts,
                       MctsPlan(*model_, q, WithRequest(options_, ropts)));
  QPS_RETURN_IF_ERROR(CheckRequestDeadline(mcts.deadline_hit, ropts));
  return ToPlanResult(std::move(mcts), PlanStage::kNeural);
}

Status CheckPlannerName(const std::string& name) {
  if (name == "baseline" || name == "neural" || name == "guarded") {
    return Status::OK();
  }
  return Status::InvalidArgument("unknown planner '" + name +
                                 "' (expected baseline|neural|guarded)");
}

StatusOr<std::unique_ptr<Planner>> MakePlanner(const std::string& name,
                                               const QpSeeker* model,
                                               const optimizer::Planner* baseline,
                                               const GuardedOptions& gopts) {
  QPS_RETURN_IF_ERROR(CheckPlannerName(name));
  if (name == "baseline") {
    if (baseline == nullptr) {
      return Status::InvalidArgument("baseline planner requires a DP planner");
    }
    return std::unique_ptr<Planner>(new BaselinePlanner(baseline));
  }
  if (model == nullptr) {
    return Status::InvalidArgument("planner '" + name +
                                   "' requires a trained model");
  }
  if (name == "neural") {
    return std::unique_ptr<Planner>(new MctsPlanner(model, gopts.hybrid.mcts));
  }
  return std::unique_ptr<Planner>(new GuardedPlanner(model, baseline, gopts));
}

}  // namespace core
}  // namespace qps
