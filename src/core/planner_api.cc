// Copyright 2026 The QPSeeker Authors

#include "core/planner_api.h"

#include "util/string_util.h"

namespace qps {
namespace core {

const char* PlanStageName(PlanStage stage) {
  switch (stage) {
    case PlanStage::kNeural:
      return "neural";
    case PlanStage::kGreedy:
      return "greedy";
    case PlanStage::kTraditional:
      return "traditional";
  }
  return "?";
}

GuardStats& GuardStats::operator+=(const GuardStats& o) {
  requests += o.requests;
  neural_attempts += o.neural_attempts;
  neural_success += o.neural_success;
  neural_invalid_plan += o.neural_invalid_plan;
  neural_nan += o.neural_nan;
  neural_deadline += o.neural_deadline;
  neural_error += o.neural_error;
  greedy_attempts += o.greedy_attempts;
  greedy_success += o.greedy_success;
  greedy_failures += o.greedy_failures;
  traditional_attempts += o.traditional_attempts;
  traditional_success += o.traditional_success;
  traditional_failures += o.traditional_failures;
  circuit_opens += o.circuit_opens;
  circuit_closes += o.circuit_closes;
  circuit_short_circuits += o.circuit_short_circuits;
  return *this;
}

std::string GuardStats::ToString() const {
  return StrFormat(
      "requests=%lld neural=%lld/%lld (invalid=%lld nan=%lld deadline=%lld "
      "error=%lld) greedy=%lld/%lld traditional=%lld/%lld circuit "
      "opens=%lld closes=%lld short_circuits=%lld",
      static_cast<long long>(requests), static_cast<long long>(neural_success),
      static_cast<long long>(neural_attempts),
      static_cast<long long>(neural_invalid_plan), static_cast<long long>(neural_nan),
      static_cast<long long>(neural_deadline), static_cast<long long>(neural_error),
      static_cast<long long>(greedy_success), static_cast<long long>(greedy_attempts),
      static_cast<long long>(traditional_success),
      static_cast<long long>(traditional_attempts),
      static_cast<long long>(circuit_opens), static_cast<long long>(circuit_closes),
      static_cast<long long>(circuit_short_circuits));
}

Status CheckPlannable(const query::Query& q) {
  if (q.num_relations() == 0) return Status::InvalidArgument("empty query");
  QPS_RETURN_IF_ERROR(q.ValidateStructure());
  if (q.num_relations() > 1 && !q.IsConnected()) {
    return Status::NotImplemented("cross products are not supported");
  }
  return Status::OK();
}

Status CheckRequestDeadline(bool deadline_hit, const PlanRequestOptions& ropts) {
  if (deadline_hit && ropts.fail_on_deadline) {
    return Status::DeadlineExceeded("planning deadline expired");
  }
  return Status::OK();
}

}  // namespace core
}  // namespace qps
