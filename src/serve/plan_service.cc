// Copyright 2026 The QPSeeker Authors

#include "serve/plan_service.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "core/plan_cache.h"
#include "obs/audit.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace qps {
namespace serve {

namespace {

struct ServeMetrics {
  metrics::Counter* requests;
  metrics::Counter* shed;
  metrics::Counter* deadline_misses;
  metrics::Gauge* inflight;
  metrics::Gauge* queue_depth;
  metrics::Histogram* queue_ms;
  metrics::Histogram* latency_ms;
  /// Worker-side retry accounting, shared with the caller-side loop.
  const RetryMetrics* retries;

  static const ServeMetrics& Get() {
    static const ServeMetrics m = [] {
      // requests/shed/queue_ms/latency_ms also feed a window: the rates and
      // rolling percentiles of the export surface and qps_top.
      constexpr auto kBoth = metrics::Series::kBoth;
      auto& reg = metrics::Registry::Global();
      ServeMetrics out;
      out.requests = reg.GetCounter("qps.serve.requests", kBoth);
      out.shed = reg.GetCounter("qps.serve.shed", kBoth);
      out.deadline_misses = reg.GetCounter("qps.serve.deadline_misses");
      out.inflight = reg.GetGauge("qps.serve.inflight");
      out.queue_depth = reg.GetGauge("qps.serve.queue_depth");
      out.queue_ms = reg.GetHistogram("qps.serve.queue_ms", kBoth);
      out.latency_ms = reg.GetHistogram("qps.serve.latency_ms", kBoth);
      out.retries = &RetryMetrics::Get();
      return out;
    }();
    return m;
  }
};

/// Blocking backoff between retry attempts. Millisecond-scale sleeps on a
/// worker (or submitting) thread; the deadline budget has already been
/// checked by the caller.
void SleepForBackoff(double backoff_ms) {
  if (backoff_ms <= 0.0) return;
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(backoff_ms));
}

/// Merges batching counters from a retired rendezvous into an accumulator.
void AccumulateBatching(BatchRendezvous::Stats* into,
                        const BatchRendezvous::Stats& s) {
  into->flushes += s.flushes;
  into->fused_queries += s.fused_queries;
  into->fused_plans += s.fused_plans;
  into->max_fused = std::max(into->max_fused, s.max_fused);
}

}  // namespace

const RetryMetrics& RetryMetrics::Get() {
  static const RetryMetrics m = [] {
    auto& reg = metrics::Registry::Global();
    RetryMetrics out;
    out.attempts =
        reg.GetCounter("qps.serve.retries.attempts", metrics::Series::kBoth);
    out.exhausted = reg.GetCounter("qps.serve.retries.exhausted");
    out.success = reg.GetCounter("qps.serve.retries.success_after_retry");
    return out;
  }();
  return m;
}

/// One admitted request: the PlanRequest lives here until a worker picks
/// the task up, and the promise carries the result back.
struct PlanService::Request {
  PlanRequest request;
  std::promise<StatusOr<core::PlanResult>> promise;
  Timer queued;  ///< admission -> task start, for qps.serve.queue_ms
};

/// A planner instance plus the mutex making it exclusive to one request at
/// a time. Backends carry per-request state (guard stats, breaker
/// windows), so instances are per-slot rather than shared; slots rotate
/// round-robin so with <= `workers` concurrent tasks contention is nil.
struct PlanService::PlannerSlot {
  std::mutex mu;
  std::unique_ptr<core::Planner> planner;
};

StatusOr<std::unique_ptr<PlanService>> PlanService::Create(
    PlanServiceDeps deps, PlanServiceOptions options) {
  std::unique_ptr<PlanService> service(
      new PlanService(std::move(deps), std::move(options)));
  const int slots = std::max(1, service->options_.workers);
  for (int i = 0; i < slots; ++i) {
    auto slot = std::make_unique<PlannerSlot>();
    QPS_ASSIGN_OR_RETURN(
        slot->planner,
        core::MakePlanner(service->planner_name_, service->model_.get(),
                          service->baseline_, service->gopts_));
    service->slots_.push_back(std::move(slot));
  }
  if (service->options_.shed_to_baseline) {
    if (service->baseline_ == nullptr) {
      return Status::InvalidArgument(
          "shed_to_baseline requires a baseline planner");
    }
    QPS_ASSIGN_OR_RETURN(
        service->shed_planner_,
        core::MakePlanner("baseline", service->model_.get(),
                          service->baseline_, service->gopts_));
  }
  return service;
}

PlanService::PlanService(PlanServiceDeps deps, PlanServiceOptions options)
    : model_(std::move(deps.model)),
      options_(std::move(options)),
      planner_name_(std::move(deps.planner_name)),
      baseline_(deps.baseline),
      gopts_(deps.guard_options) {
  if (model_ != nullptr) {
    BatchRendezvousOptions ropts;
    ropts.max_batch = options_.max_batch;
    ropts.flush_timeout_ms = options_.flush_timeout_ms;
    rendezvous_ = std::make_shared<BatchRendezvous>(model_.get(), ropts);
  }
  if (!options_.tenant_id.empty()) {
    constexpr auto kWindowed = metrics::Series::kWindowed;
    auto& reg = metrics::Registry::Global();
    tenant_requests_ =
        reg.GetCounter("qps.tenant.requests." + options_.tenant_id, kWindowed);
    tenant_shed_ =
        reg.GetCounter("qps.tenant.shed." + options_.tenant_id, kWindowed);
    tenant_latency_ = reg.GetHistogram(
        "qps.tenant.latency_ms." + options_.tenant_id, kWindowed);
  }
  if (options_.pool == nullptr) {
    owned_pool_ = std::make_unique<util::ThreadPool>(options_.workers);
  }
}

PlanService::~PlanService() {
  // On a shared pool the service cannot drain by destroying it; wait out
  // every task that still references this object.
  if (options_.pool != nullptr) Quiesce();
}

void PlanService::TaskStarted() {
  std::lock_guard<std::mutex> lock(outstanding_mu_);
  outstanding_ += 1;
}

void PlanService::TaskFinished() {
  std::lock_guard<std::mutex> lock(outstanding_mu_);
  outstanding_ -= 1;
  if (outstanding_ == 0) outstanding_cv_.notify_all();
}

void PlanService::Quiesce() {
  std::unique_lock<std::mutex> lock(outstanding_mu_);
  outstanding_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

StatusOr<core::PlanResult> PlanService::PlanShedded(const query::Query& q,
                                                    const char* reason) {
  std::lock_guard<std::mutex> lock(shed_mu_);
  auto result = shed_planner_->Plan(q, core::PlanRequestOptions{});
  if (result.ok()) result->fallback_reason = std::string("shed: ") + reason;
  return result;
}

void PlanService::ShedRequest(Request& req, const char* reason) {
  const ServeMetrics& sm = ServeMetrics::Get();
  sm.shed->Increment();
  if (tenant_shed_ != nullptr) tenant_shed_->Increment();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.shed += 1;
    if (shed_planner_ != nullptr) stats_.shed_degraded += 1;
  }
  obs::AuditRecord record;
  record.query_hash = core::QueryFingerprint(req.request.query);
  record.backend = planner_name_;
  record.tenant = req.request.tenant_id.empty() ? options_.tenant_id
                                                : req.request.tenant_id;
  record.reason = reason;
  if (shed_planner_ != nullptr) {
    StatusOr<core::PlanResult> degraded =
        PlanShedded(req.request.query, reason);
    if (options_.audit != nullptr) {
      record.outcome = "shed_degraded";
      if (degraded.ok()) {
        record.stage = core::PlanStageName(degraded->stage);
        record.plan_ms = degraded->plan_ms;
        record.plans_evaluated = degraded->plans_evaluated;
        record.fallback_reason = degraded->fallback_reason;
      }
      options_.audit->Append(record);
    }
    req.promise.set_value(std::move(degraded));
  } else {
    if (options_.audit != nullptr) {
      record.outcome = "shed";
      options_.audit->Append(record);
    }
    // Quarantine rejections are kUnavailable (retryable once the breaker
    // half-opens); load sheds stay kResourceExhausted. Either way the
    // machine-readable cause rides Status::reason(), not the message.
    Status rejected =
        std::strcmp(reason, "quarantined") == 0
            ? Status::Unavailable("tenant quarantined by health monitor")
            : Status::ResourceExhausted("plan service admission queue full");
    req.promise.set_value(std::move(rejected).SetReason(reason));
  }
}

std::future<StatusOr<core::PlanResult>> PlanService::SubmitDegraded(
    PlanRequest request, const char* reason) {
  const ServeMetrics& sm = ServeMetrics::Get();
  sm.requests->Increment();
  if (tenant_requests_ != nullptr) tenant_requests_->Increment();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.submitted += 1;
  }
  auto req = std::make_shared<Request>();
  req->request = std::move(request);
  auto future = req->promise.get_future();
  ShedRequest(*req, reason);
  return future;
}

std::future<StatusOr<core::PlanResult>> PlanService::Submit(
    PlanRequest request) {
  const ServeMetrics& sm = ServeMetrics::Get();
  QPS_TRACE_SPAN("serve.submit");
  sm.requests->Increment();
  if (tenant_requests_ != nullptr) tenant_requests_->Increment();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.submitted += 1;
  }

  auto req = std::make_shared<Request>();
  req->request = std::move(request);
  auto future = req->promise.get_future();

  // Chaos hook on the submitting thread, before admission: an armed
  // serve.submit spec fails the request synchronously (the future is ready
  // on return), which is exactly the shape the caller-side retry loop in
  // ShardedPlanService handles. Scoped to the tenant so only_context specs
  // can target one tenant's submissions.
  {
    fault::ScopedContext fault_ctx(req->request.tenant_id.empty()
                                       ? options_.tenant_id
                                       : req->request.tenant_id);
    Status injected = fault::Check("serve.submit");
    if (!injected.ok()) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.errors += 1;
      }
      req->promise.set_value(std::move(injected));
      return future;
    }
  }

  // Admission: bound admitted-but-unstarted requests at max_queue. A pool
  // with no workers runs everything inline on the caller and never sheds
  // (matching ThreadPool's never-drop inline semantics).
  const bool inline_pool = active_pool().num_threads() == 0;
  const int64_t prior = pending_.fetch_add(1, std::memory_order_relaxed);
  if (!inline_pool && prior >= static_cast<int64_t>(options_.max_queue)) {
    pending_.fetch_sub(1, std::memory_order_relaxed);
    ShedRequest(*req, "shed_queue_full");
    return future;
  }

  TaskStarted();
  auto task = [this, req] {
    pending_.fetch_sub(1, std::memory_order_relaxed);
    RunRequest(*req);
    TaskFinished();
  };
  bool admitted = true;
  if (options_.pool != nullptr && options_.pool_max_queue > 0) {
    admitted = active_pool().TrySchedule(std::move(task),
                                         options_.pool_max_queue);
  } else {
    active_pool().Schedule(std::move(task));
  }
  sm.queue_depth->Set(static_cast<double>(queue_depth()));
  if (!admitted) {
    // Shard-pool backstop tripped: the tenant was under its own quota but
    // the shared pool is drowning in aggregate traffic.
    pending_.fetch_sub(1, std::memory_order_relaxed);
    TaskFinished();
    ShedRequest(*req, "shed_pool_backstop");
  }
  return future;
}

void PlanService::RunRequest(Request& req) {
  const ServeMetrics& sm = ServeMetrics::Get();
  const double queue_ms = req.queued.ElapsedMillis();
  sm.queue_ms->Record(queue_ms);
  const int inflight = inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  sm.inflight->Set(static_cast<double>(inflight));
  sm.queue_depth->Set(static_cast<double>(queue_depth()));
  {
    std::lock_guard<std::mutex> lock(model_mu_);
    if (rendezvous_ != nullptr) rendezvous_->SetExpected(inflight);
  }

  QPS_TRACE_SPAN_VAR(span, "serve.plan");
  Timer timer;
  core::PlanRequestOptions ropts;
  ropts.deadline_ms = req.request.deadline_ms > 0.0
                          ? req.request.deadline_ms
                          : options_.default_deadline_ms;
  ropts.fail_on_deadline = req.request.fail_on_deadline;
  ropts.seed = req.request.seed;
  ropts.tenant_id = req.request.tenant_id.empty() ? options_.tenant_id
                                                  : req.request.tenant_id;

  // Cancellation: the caller's token when supplied; otherwise, for
  // fail_on_deadline requests, a service-armed one so a blown deadline
  // aborts the search cooperatively instead of running out the budget.
  // Best-effort requests keep their anytime semantics (no token).
  std::shared_ptr<util::CancelToken> deadline_token;
  const util::CancelToken* cancel = req.request.cancel.get();
  if (cancel == nullptr && req.request.fail_on_deadline &&
      ropts.deadline_ms > 0.0) {
    deadline_token = std::make_shared<util::CancelToken>();
    deadline_token->ArmDeadline(ropts.deadline_ms);
    cancel = deadline_token.get();
  }
  ropts.cancel = cancel;

  auto plan_once = [&]() -> StatusOr<core::PlanResult> {
    // Planning runs under the tenant's fault context, so chaos specs with
    // only_context follow this request onto whichever worker runs it.
    fault::ScopedContext fault_ctx(ropts.tenant_id);
    const size_t idx =
        next_slot_.fetch_add(1, std::memory_order_relaxed) % slots_.size();
    std::lock_guard<std::mutex> lock(slots_[idx]->mu);
    // Snapshot the rendezvous while holding the slot: SwapModel replaces
    // planner and rendezvous together under every slot mutex, so this pair
    // is consistent, and the shared_ptr capture keeps the rendezvous (and
    // through the service's model_ handoff, the model) alive for the whole
    // Plan call even if a swap lands right after it.
    std::shared_ptr<BatchRendezvous> rdv;
    {
      std::lock_guard<std::mutex> mlock(model_mu_);
      rdv = rendezvous_;
    }
    if (rdv != nullptr) {
      ropts.evaluate = [rdv](const query::Query& q,
                             const std::vector<const query::PlanNode*>& plans) {
        return rdv->Evaluate(q, plans);
      };
    }
    return slots_[idx]->planner->Plan(req.request.query, ropts);
  };

  // Worker-side retry: transient planning failures re-plan here, each
  // attempt budgeted against the request deadline. Backoff jitter is a
  // pure function of (seed, attempt), so a fixed seed replays the same
  // schedule — and the same plan — regardless of scheduling.
  const RetryPolicy& retry = options_.retry;
  const RetryMetrics& rm = *sm.retries;
  int retries_taken = 0;
  StatusOr<core::PlanResult> result = plan_once();
  while (!result.ok()) {
    const Status& failure = result.status();
    const bool cancelled = util::Cancelled(cancel);
    const int attempt = retries_taken + 1;
    if (cancelled || !retry.ShouldRetry(failure, attempt)) break;
    const double backoff_ms = retry.BackoffMs(attempt, req.request.seed);
    if (!RetryPolicy::FitsBudget(backoff_ms, timer.ElapsedMillis(),
                                 ropts.deadline_ms)) {
      rm.exhausted->Increment();
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.retry_exhausted += 1;
      }
      break;
    }
    if (options_.on_attempt) {
      options_.on_attempt(req.request, failure, /*final_attempt=*/false);
    }
    rm.attempts->Increment();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.retry_attempts += 1;
    }
    SleepForBackoff(backoff_ms);
    retries_taken += 1;
    result = plan_once();
  }
  if (!result.ok() && retries_taken >= retry.max_retries && retry.enabled() &&
      result.status().IsRetryable() && !util::Cancelled(cancel)) {
    // Ran out of attempts (as opposed to budget or a terminal failure).
    rm.exhausted->Increment();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.retry_exhausted += 1;
    }
  }
  if (result.ok() && retries_taken > 0) {
    rm.success->Increment();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.retry_successes += 1;
    }
  }
  if (options_.on_attempt) {
    options_.on_attempt(req.request, result.status(), /*final_attempt=*/true);
  }

  const double latency_ms = timer.ElapsedMillis();
  sm.latency_ms->Record(latency_ms);
  if (tenant_latency_ != nullptr) tenant_latency_->Record(latency_ms);
  span.AddAttr("ok", result.ok() ? 1 : 0);
  if (options_.audit != nullptr) {
    obs::AuditRecord record;
    record.query_hash = core::QueryFingerprint(req.request.query);
    record.backend = planner_name_;
    record.tenant = req.request.tenant_id.empty() ? options_.tenant_id
                                                  : req.request.tenant_id;
    record.outcome = result.ok() ? "ok" : "error";
    record.queue_ms = queue_ms;
    record.plan_ms = latency_ms;
    if (result.ok()) {
      record.stage = core::PlanStageName(result->stage);
      record.deadline_hit = result->deadline_hit;
      record.plans_evaluated = result->plans_evaluated;
      record.fallback_reason = result->fallback_reason;
    } else {
      record.fallback_reason = result.status().ToString();
      record.reason = result.status().reason();
    }
    options_.audit->Append(record);
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (result.ok()) {
      stats_.completed += 1;
      if (result->deadline_hit) {
        stats_.deadline_hits += 1;
        sm.deadline_misses->Increment();
      }
    } else {
      stats_.errors += 1;
      if (result.status().IsDeadlineExceeded()) {
        sm.deadline_misses->Increment();
      }
    }
  }

  const int remaining = inflight_.fetch_sub(1, std::memory_order_relaxed) - 1;
  sm.inflight->Set(static_cast<double>(remaining));
  {
    std::lock_guard<std::mutex> lock(model_mu_);
    if (rendezvous_ != nullptr) rendezvous_->SetExpected(std::max(remaining, 1));
  }
  req.promise.set_value(std::move(result));
}

PlanService::Stats PlanService::stats() const {
  // Both locks at once (std::scoped_lock's deadlock-avoiding acquisition):
  // the counter snapshot and the batching merge see the same instant, so a
  // SwapModel retiring a rendezvous between the two reads cannot tear the
  // view.
  std::scoped_lock lock(stats_mu_, model_mu_);
  Stats out = stats_;
  out.batching = retired_batching_;
  if (rendezvous_ != nullptr) {
    AccumulateBatching(&out.batching, rendezvous_->stats());
  }
  return out;
}

Status PlanService::SwapModel(std::shared_ptr<const core::QpSeeker> model) {
  if (model == nullptr) {
    return Status::InvalidArgument("SwapModel requires a model");
  }
  // Build everything fallible before touching live state: a construction
  // failure leaves the old model serving untouched.
  std::vector<std::unique_ptr<core::Planner>> fresh;
  fresh.reserve(slots_.size());
  for (size_t i = 0; i < slots_.size(); ++i) {
    QPS_ASSIGN_OR_RETURN(
        auto planner,
        core::MakePlanner(planner_name_, model.get(), baseline_, gopts_));
    fresh.push_back(std::move(planner));
  }
  BatchRendezvousOptions ropts;
  ropts.max_batch = options_.max_batch;
  ropts.flush_timeout_ms = options_.flush_timeout_ms;
  auto rendezvous = std::make_shared<BatchRendezvous>(model.get(), ropts);

  // Quiesce: acquire every slot in index order. Each acquisition waits out
  // the request currently planning there; requests parked in a rendezvous
  // flush drain via its timeout, so this converges. New requests that grab
  // a slot after us see the new planner + rendezvous pair.
  std::vector<std::unique_lock<std::mutex>> slot_locks;
  slot_locks.reserve(slots_.size());
  for (auto& slot : slots_) slot_locks.emplace_back(slot->mu);

  std::lock_guard<std::mutex> lock(model_mu_);
  if (rendezvous_ != nullptr) {
    AccumulateBatching(&retired_batching_, rendezvous_->stats());
  }
  for (size_t i = 0; i < slots_.size(); ++i) {
    slots_[i]->planner = std::move(fresh[i]);
  }
  rendezvous_ = std::move(rendezvous);
  model_ = std::move(model);
  return Status::OK();
}

core::GuardStats PlanService::guard_stats() const {
  core::GuardStats total;
  for (const auto& slot : slots_) {
    std::lock_guard<std::mutex> lock(slot->mu);
    total += slot->planner->guard_stats();
  }
  return total;
}

}  // namespace serve
}  // namespace qps
