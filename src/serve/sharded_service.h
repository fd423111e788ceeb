// Copyright 2026 The QPSeeker Authors
//
// Sharded multi-tenant serving: many (database, model, planner-config)
// workloads in one process, isolated from each other. The service owns N
// shards; each shard owns one worker pool and hosts the subset of tenants
// the consistent-hash ring (tenant.h) assigns to it. Every tenant gets its
// own PlanService core — per-tenant planner slots, admission quota, and
// BatchRendezvous — running on the shard's pool, so:
//
//  - batching stays intra-tenant and therefore intra-model (cross-query
//    fusion keeps working, and plans stay bit-identical to single-tenant
//    serving for the same (tenant, query, seed));
//  - a hot tenant exhausts *its* quota (max_pending) and sheds or degrades
//    on its own budget, while cold tenants on the same shard keep their
//    latency — the shard's pool_max_queue is only a backstop against
//    aggregate overload;
//  - model swaps are per tenant (SwapTenantModel quiesces only that
//    tenant's planner slots), so a ModelManager canary gate can guard each
//    tenant's reloads independently.
//
// Control plane: AddTenant / RemoveTenant / SwapTenantModel are safe under
// live traffic. RemoveTenant unroutes the tenant first (new Submits return
// kNotFound), then quiesces its core — in-flight futures resolve before
// the core is destroyed.
//
// Self-healing (DESIGN.md §16): every planning attempt's outcome feeds a
// per-tenant HealthMonitor breaker; a tenant whose error rate trips the
// window is quarantined — Submit fast-fails kUnavailable (reason
// "quarantined"), or degrades to the inline DP planner when the tenant's
// quota allows — then recovered through live half-open probes. Transient
// failures (injected chaos, shed bursts) are retried under the request's
// deadline budget with seeded deterministic backoff, at the caller for
// synchronously-failing submissions and on the worker for planning
// failures.
//
// Metrics: every tenant core feeds qps.tenant.{requests,shed,
// latency_ms}.<tenant_id> windowed series; RecordQError feeds
// qps.tenant.qerr.<tenant_id> from execution feedback; the breaker feeds
// qps.health.{state,quarantines,probes,recoveries}.<key> and the retry
// loops qps.serve.retries.{attempts,exhausted,success_after_retry}.

#ifndef QPS_SERVE_SHARDED_SERVICE_H_
#define QPS_SERVE_SHARDED_SERVICE_H_

#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/health.h"
#include "serve/tenant.h"

namespace qps {
namespace serve {

struct ShardedPlanServiceOptions {
  /// Shard count; each shard runs its own worker pool.
  int shards = 2;

  /// Worker threads per shard pool. Also the planner-slot count of every
  /// tenant core on the shard (a tenant can use the whole shard when it is
  /// alone on it).
  int workers_per_shard = 4;

  /// Backstop on each shard pool's queue, across all of its tenants
  /// (0 = unbounded). Tenants shed on their own quota first; this bound
  /// only trips when the aggregate outruns the pool.
  size_t shard_max_queue = 256;

  /// Deadline for requests that don't carry their own (0 = none).
  double default_deadline_ms = 0.0;

  /// Cross-query batching knobs for every tenant rendezvous.
  int max_batch = 16;
  double flush_timeout_ms = 0.5;

  /// Optional audit log shared by every tenant core (records carry the
  /// tenant id). Non-owning.
  obs::AuditLog* audit = nullptr;

  /// Per-tenant circuit breaker (serve/health.h): planning outcomes feed a
  /// rolling error-rate window per tenant; a tripping tenant is
  /// quarantined (fast-fail kUnavailable, or inline DP degrade when its
  /// quota sets shed_to_baseline) and recovered through live probes.
  /// Per-shard rates are tracked as shadow keys "shard_<i>". Set
  /// health.clock for ManualClock tests.
  HealthOptions health;

  /// Retry policy applied at both levels: the caller-side loop here
  /// (synchronously-failing submissions: injected submit/schedule faults,
  /// quarantine rejections) and each tenant core's worker-side loop
  /// (transient planning failures). Disabled by default.
  RetryPolicy retry;
};

class ShardedPlanService {
 public:
  static StatusOr<std::unique_ptr<ShardedPlanService>> Create(
      ShardedPlanServiceOptions options = {});

  ~ShardedPlanService();

  ShardedPlanService(const ShardedPlanService&) = delete;
  ShardedPlanService& operator=(const ShardedPlanService&) = delete;

  /// Registers the tenant and builds its core on the owning shard.
  /// kInvalidArgument for bad ids/deps, kAlreadyExists for duplicates.
  Status AddTenant(TenantSpec spec);

  /// Unroutes the tenant (subsequent Submits return kNotFound), quiesces
  /// its in-flight requests (their futures resolve), then destroys the
  /// core. kNotFound for unknown tenants.
  Status RemoveTenant(const std::string& tenant_id);

  /// Hot-swaps one tenant's model under traffic (PlanService::SwapModel on
  /// its core): use as the per-tenant ModelManager swap hook so each
  /// tenant's reloads ride the canary q-error gate independently.
  Status SwapTenantModel(const std::string& tenant_id,
                         std::shared_ptr<const core::QpSeeker> model);

  /// Routes by request.tenant_id. Unknown or empty tenant ids resolve the
  /// future immediately with kNotFound; quota exhaustion behaves like the
  /// tenant's PlanService (kResourceExhausted or inline degrade).
  std::future<StatusOr<core::PlanResult>> Submit(PlanRequest request);

  /// Execution feedback: records one runtime q-error sample into the
  /// tenant's qps.tenant.qerr.<id> window. Unknown tenants are ignored.
  void RecordQError(const std::string& tenant_id, double qerror);

  /// Deterministic shard assignment (pure function of id + shard count).
  int ShardOf(const std::string& tenant_id) const {
    return ring_.ShardFor(tenant_id);
  }

  StatusOr<PlanService::Stats> TenantStats(const std::string& tenant_id) const;
  StatusOr<core::GuardStats> TenantGuardStats(
      const std::string& tenant_id) const;

  /// Breaker stats for one tenant (kNotFound for unknown tenants) and the
  /// whole monitor (tenants plus shard_<i> shadow keys), for qpsql \health.
  StatusOr<HealthMonitor::KeyStats> TenantHealth(
      const std::string& tenant_id) const;
  const HealthMonitor& health() const { return health_; }

  const TenantRegistry& registry() const { return registry_; }
  std::vector<std::string> tenant_ids() const { return registry_.ids(); }
  int num_shards() const { return ring_.num_shards(); }

 private:
  explicit ShardedPlanService(ShardedPlanServiceOptions options);

  struct Shard {
    std::unique_ptr<util::ThreadPool> pool;
    mutable std::mutex mu;  ///< guards `tenants`
    /// shared_ptr so Submit can drop the shard lock before the (possibly
    /// inline-degrading) core call, and RemoveTenant can quiesce outside
    /// the lock.
    std::map<std::string, std::shared_ptr<PlanService>> tenants;
  };

  /// The tenant's core, or null. Never blocks on more than the shard map
  /// lock.
  std::shared_ptr<PlanService> FindCore(const std::string& tenant_id) const;

  /// The AttemptCallback bound into every tenant core: feeds the breaker
  /// (tenant key) and the shard shadow key, skipping cancelled outcomes.
  void RecordAttempt(const std::string& shard_key, const PlanRequest& request,
                     const Status& outcome, bool final_attempt);

  ShardedPlanServiceOptions options_;
  ShardRing ring_;
  TenantRegistry registry_;
  /// Declared before shards_: tenant cores (owned by shards_) hold
  /// callbacks into the monitor, so it must be destroyed after them.
  HealthMonitor health_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex qerr_mu_;
  std::map<std::string, metrics::Histogram*> qerr_windows_;
};

}  // namespace serve
}  // namespace qps

#endif  // QPS_SERVE_SHARDED_SERVICE_H_
