// Copyright 2026 The QPSeeker Authors
//
// qpsql: a small interactive/batch SQL shell over the QPSeeker stack.
// Generates (or loads) a database, optionally trains a QPSeeker instance,
// then reads SQL statements from stdin, plans each through the unified
// core::Planner interface, executes it, and prints EXPLAIN ANALYZE output.
//
// Usage:
//   qpsql [--db=imdb|stack|toy] [--rows=N]
//         [--planner=baseline|neural|guarded] [--train-queries=N]
//         [--seed=N] [--v=N] [--threads=N] [--cache-mb=N]
//         [--quant=int8] [--deadline-ms=D]
//         [--retry-max=N] [--retry-backoff-ms=D]
//         [--serve --clients=N --requests=M] [--tenants=FILE]
//         [--audit-log=FILE] [--obs-snapshot=FILE] [--obs-interval-ms=D]
//
//   echo "SELECT COUNT(*) FROM a, b WHERE b.b1 = a.id;" | ./build/examples/qpsql --db=toy
//
// Every backend is constructed by core::MakePlanner and dispatched through
// core::Planner::Plan(query, options) — qpsql never touches a concrete
// planner type. --planner=guarded walks the degradation ladder (validated
// neural -> greedy -> DP with a circuit breaker); \guards prints the
// accumulated GuardStats for any backend.
//
// Serving mode (--serve): generates a workload of --requests queries and
// drives them through serve::PlanService with --clients concurrent client
// threads. Candidate evaluations from different in-flight queries fuse
// into shared batched model forwards (cross-query micro-batching); the
// summary reports throughput, latency percentiles, the fused-batch
// histogram, shed counts, and model-vs-simulated runtime q-error.
// --audit-log=FILE appends one JSON line per served request;
// --obs-snapshot=FILE starts a background obs::SnapshotWriter refreshing
// the combined metrics/window/drift document every --obs-interval-ms
// (point qps_top at the same file to watch the run live).
//
// Observability:
//   EXPLAIN ANALYZE <sql>     per-operator estimated vs. actual rows,
//                             cardinality q-error, simulated + wall time
//   \metrics                  dump the global metrics registry
//   \prom                     the same registry in Prometheus text
//                             exposition (plus the windowed view as gauges)
//   \cache [clear]            plan-prediction cache stats (--cache-mb=N)
//   \trace on [file]          start span recording (default qpsql_trace.json)
//   \trace off                stop and write Chrome-trace JSON
//   \health                   per-tenant/per-shard breaker state, rolling
//                             error rates, quarantines/probes/recoveries
//                             (--tenants mode)
//   --v=N                     QPS_VLOG verbosity (breaker transitions at 1)
//
// Resilience:
//   --retry-max=N             retry transient serving failures (shed,
//                             pool-full, injected I/O faults) up to N times
//                             per request, each attempt budgeted against
//                             the remaining --deadline-ms
//   --retry-backoff-ms=D      base of the exponential retry backoff
//                             (deterministic jitter seeded by the request)
//
// Performance:
//   --threads=N               thread-pool workers for MCTS leaf evaluation;
//                             also scales the batched-forward size
//   --cache-mb=N              enable the LRU plan-prediction cache (N MiB)
//
// Model lifecycle (neural planners):
//   \save <path>              write the model to a crash-safe v2 checkpoint
//   \reload <path>            validated hot reload: load the checkpoint into
//                             a candidate, probe it on a canary workload,
//                             and swap only if its q-error passes the gate;
//                             failures roll back to the serving model and
//                             show up as qps.model.reload_failures in
//                             \metrics
//   --quant=int8              quantize the trained model for int8 inference
//                             at startup (SIMD GEMM, runtime-dispatched;
//                             QPS_FORCE_SCALAR=1 pins the portable kernel)
//   \quantize <path>          write an int8 quantized checkpoint of the
//                             serving model; follow with \reload <path> to
//                             canary-gate the quantized model against the
//                             live one (qps.model.quant_gate.* in \metrics)
//
// Multi-tenant mode (--tenants=FILE): each non-comment line of FILE is
//   <tenant_id> [backend] [max_pending] [shed]
// (backend defaults to --planner, max_pending to 16; a trailing "shed"
// degrades over-quota requests to the inline baseline instead of
// rejecting). Tenants are hosted on a serve::ShardedPlanService sharing
// the session's database/model; SQL statements route through the selected
// tenant's core. \tenant <id> switches tenants, \tenants lists them with
// shard placement and per-tenant serving stats, and \tenants add/rm
// changes the fleet at runtime.
//
// Meta-commands: \tables  \schema <table>  \guards  \metrics  \prom  \cache
//                \trace  \save <path>  \quantize [path]  \reload <path>
//                \tenants [add <id> [backend] [quota] [shed] | rm <id>]
//                \tenant <id>  \health  \quit

#include <cctype>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/planner_backends.h"
#include "core/qpseeker.h"
#include "nn/gemm_int8.h"
#include "eval/metrics.h"
#include "eval/workloads.h"
#include "exec/executor.h"
#include "obs/accuracy.h"
#include "obs/audit.h"
#include "obs/export.h"
#include "optimizer/planner.h"
#include "query/parser.h"
#include "serve/model_manager.h"
#include "serve/sharded_service.h"
#include "storage/schemas.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/threadpool.h"
#include "util/timer.h"
#include "util/trace.h"

using namespace qps;

namespace {

struct Options {
  std::string db = "toy";
  int64_t rows = 500;
  std::string planner = "baseline";
  int train_queries = 48;
  uint64_t seed = 42;
  int verbosity = 0;
  int threads = 1;
  int64_t cache_mb = 0;
  std::string quant;  ///< "" (f32) or "int8"
  double deadline_ms = 0.0;
  int retry_max = 0;
  double retry_backoff_ms = 2.0;
  bool serve = false;
  int clients = 4;
  int requests = 16;
  std::string tenants_file;
  std::string audit_log;
  std::string obs_snapshot;
  double obs_interval_ms = 1000.0;
};

Options ParseArgs(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const std::string& prefix) -> std::string {
      return arg.substr(prefix.size());
    };
    if (StartsWith(arg, "--db=")) {
      opts.db = value("--db=");
    } else if (StartsWith(arg, "--rows=")) {
      opts.rows = std::stoll(value("--rows="));
    } else if (StartsWith(arg, "--planner=")) {
      opts.planner = value("--planner=");
    } else if (StartsWith(arg, "--train-queries=")) {
      opts.train_queries = std::stoi(value("--train-queries="));
    } else if (StartsWith(arg, "--seed=")) {
      opts.seed = std::stoull(value("--seed="));
    } else if (StartsWith(arg, "--v=")) {
      opts.verbosity = std::stoi(value("--v="));
    } else if (StartsWith(arg, "--threads=")) {
      opts.threads = std::stoi(value("--threads="));
    } else if (StartsWith(arg, "--cache-mb=")) {
      opts.cache_mb = std::stoll(value("--cache-mb="));
    } else if (StartsWith(arg, "--quant=")) {
      opts.quant = value("--quant=");
      if (opts.quant != "int8") {
        std::fprintf(stderr, "unknown --quant: %s (only int8 is supported)\n",
                     opts.quant.c_str());
        std::exit(2);
      }
    } else if (StartsWith(arg, "--deadline-ms=")) {
      opts.deadline_ms = std::stod(value("--deadline-ms="));
    } else if (StartsWith(arg, "--retry-max=")) {
      opts.retry_max = std::stoi(value("--retry-max="));
    } else if (StartsWith(arg, "--retry-backoff-ms=")) {
      opts.retry_backoff_ms = std::stod(value("--retry-backoff-ms="));
    } else if (arg == "--serve") {
      opts.serve = true;
    } else if (StartsWith(arg, "--clients=")) {
      opts.clients = std::stoi(value("--clients="));
    } else if (StartsWith(arg, "--requests=")) {
      opts.requests = std::stoi(value("--requests="));
    } else if (StartsWith(arg, "--tenants=")) {
      opts.tenants_file = value("--tenants=");
    } else if (StartsWith(arg, "--audit-log=")) {
      opts.audit_log = value("--audit-log=");
    } else if (StartsWith(arg, "--obs-snapshot=")) {
      opts.obs_snapshot = value("--obs-snapshot=");
    } else if (StartsWith(arg, "--obs-interval-ms=")) {
      opts.obs_interval_ms = std::stod(value("--obs-interval-ms="));
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return opts;
}

void PrintTables(const storage::Database& db) {
  for (int t = 0; t < db.num_tables(); ++t) {
    std::printf("  %-18s %8lld rows, %d columns\n", db.table(t).name().c_str(),
                static_cast<long long>(db.table(t).num_rows()),
                static_cast<int>(db.table(t).num_columns()));
  }
}

void PrintSchema(const storage::Database& db, const std::string& name) {
  const int t = db.TableIndex(name);
  if (t < 0) {
    std::printf("no such table: %s\n", name.c_str());
    return;
  }
  const storage::Table& table = db.table(t);
  for (int c = 0; c < table.num_columns(); ++c) {
    const auto& meta = table.column_meta(c);
    std::string extra;
    if (meta.is_primary_key) extra = " PRIMARY KEY";
    if (!meta.ref_table.empty()) {
      extra = " REFERENCES " + meta.ref_table + "(" + meta.ref_column + ")";
    }
    std::printf("  %-20s %-8s%s\n", table.column(c).name().c_str(),
                storage::DataTypeName(table.column(c).type()), extra.c_str());
  }
}

/// Strips a case-insensitive keyword prefix ("EXPLAIN ANALYZE ") if present.
bool ConsumePrefixCI(const std::string& s, const std::string& prefix,
                     std::string* rest) {
  if (s.size() < prefix.size()) return false;
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(s[i])) !=
        std::tolower(static_cast<unsigned char>(prefix[i]))) {
      return false;
    }
  }
  *rest = StrTrim(s.substr(prefix.size()));
  return true;
}

/// Builds the \reload validation workload: a handful of small queries
/// planned by the baseline and executed for ground-truth stats, so the
/// model manager can q-error-probe reload candidates against real labels.
std::vector<serve::CanaryCase> BuildCanaries(const storage::Database& db,
                                             const optimizer::Planner& baseline,
                                             exec::Executor* executor,
                                             uint64_t seed) {
  eval::WorkloadOptions wo;
  wo.num_queries = 4;
  wo.min_joins = 0;
  wo.max_joins = 2;
  wo.num_templates = 4;
  Rng rng(seed);
  auto queries = eval::GenerateWorkload(db, wo, &rng);
  std::vector<serve::CanaryCase> canaries;
  for (auto& q : queries) {
    auto plan = baseline.Plan(q);
    if (!plan.ok() || *plan == nullptr) continue;
    if (!executor->Execute(q, plan->get()).ok()) continue;
    serve::CanaryCase c;
    c.query = std::move(q);
    c.plan = std::move(*plan);
    canaries.push_back(std::move(c));
  }
  return canaries;
}

/// One `--tenants=FILE` line: `<id> [backend] [max_pending] [shed]`.
struct TenantLine {
  std::string id;
  std::string backend;
  size_t max_pending = 16;
  bool shed = false;
};

/// Builds a TenantSpec over the session's model/baseline. Backends other
/// than "baseline" reuse the session model; per-tenant planning is
/// single-threaded (parallelism comes from concurrent requests).
serve::TenantSpec MakeTenantSpec(const TenantLine& line,
                                 const std::shared_ptr<core::QpSeeker>& model,
                                 const optimizer::Planner& baseline) {
  core::GuardedOptions gopts;
  gopts.hybrid.mcts.threads = 1;
  serve::TenantSpec spec;
  spec.tenant_id = line.id;
  spec.deps.planner_name = line.backend;
  spec.deps.model = model;
  spec.deps.baseline = &baseline;
  spec.deps.guard_options = gopts;
  spec.quota.max_pending = line.max_pending;
  spec.quota.shed_to_baseline = line.shed;
  return spec;
}

/// Parses a `--tenants` file; `default_backend` fills omitted backends.
std::vector<TenantLine> ParseTenantsFile(const std::string& path,
                                         const std::string& default_backend) {
  std::vector<TenantLine> lines;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "qpsql: cannot read --tenants file %s\n", path.c_str());
    return lines;
  }
  std::string raw;
  while (std::getline(in, raw)) {
    const std::string trimmed = StrTrim(raw);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    std::istringstream tok(trimmed);
    TenantLine line;
    line.backend = default_backend;
    tok >> line.id;
    std::string word;
    if (tok >> word) line.backend = word;
    if (tok >> word) line.max_pending = static_cast<size_t>(std::stoull(word));
    if (tok >> word) line.shed = (word == "shed");
    lines.push_back(std::move(line));
  }
  return lines;
}

/// `\health`: every key the serving-path HealthMonitor has seen — tenants
/// (breaker-governed) and shard_<i> shadow keys (observed rates only) —
/// with rolling window rates and lifetime transition counts.
void PrintHealth(const serve::ShardedPlanService& sharded) {
  const auto all = sharded.health().AllStats();
  if (all.empty()) {
    std::printf("no health samples yet (serve some queries first)\n");
    return;
  }
  std::printf("%-16s %-10s %10s %10s %8s %7s %7s\n", "key", "state",
              "win att", "win fail", "quarant", "probes", "recov");
  for (const auto& [key, s] : all) {
    std::printf("%-16s %-10s %10lld %10lld %8lld %7lld %7lld\n", key.c_str(),
                serve::HealthStateName(s.state),
                static_cast<long long>(s.window_attempts),
                static_cast<long long>(s.window_failures),
                static_cast<long long>(s.quarantines),
                static_cast<long long>(s.probes),
                static_cast<long long>(s.recoveries));
  }
}

void PrintTenants(const serve::ShardedPlanService& sharded) {
  std::printf("%-20s %5s %-10s %6s %6s %9s %9s %9s\n", "tenant", "shard",
              "backend", "quota", "shed?", "submit", "done", "shed");
  for (const std::string& id : sharded.tenant_ids()) {
    const auto spec = sharded.registry().Get(id);
    const auto stats = sharded.TenantStats(id);
    if (!spec.ok() || !stats.ok()) continue;
    std::printf("%-20s %5d %-10s %6zu %6s %9lld %9lld %9lld\n", id.c_str(),
                sharded.ShardOf(id), spec->deps.planner_name.c_str(),
                spec->quota.max_pending,
                spec->quota.shed_to_baseline ? "degr" : "rej",
                static_cast<long long>(stats->submitted),
                static_cast<long long>(stats->completed),
                static_cast<long long>(stats->shed));
  }
}

/// --serve: drive a generated workload through the plan service with
/// --clients concurrent submitters, then execute the returned plans
/// serially for q-error accounting.
int RunServe(const storage::Database& db, core::QpSeeker* model,
             const optimizer::Planner& baseline, const Options& opts) {
  // All model evaluation in serving goes through the batch rendezvous
  // (the model forward is not concurrently callable), so per-request MCTS
  // runs single-threaded and parallelism comes from concurrent requests.
  core::GuardedOptions gopts;
  gopts.hybrid.mcts.threads = 1;
  if (opts.planner == "guarded") {
    gopts.neural_deadline_ms = gopts.hybrid.mcts.time_budget_ms;
  }

  // Operator surface: per-request audit lines and/or a periodically
  // refreshed obs snapshot (the document qps_top polls).
  std::unique_ptr<obs::AuditLog> audit;
  if (!opts.audit_log.empty()) {
    auto log_or = obs::AuditLog::Open(opts.audit_log);
    if (!log_or.ok()) {
      std::fprintf(stderr, "audit log: %s\n",
                   log_or.status().ToString().c_str());
      return 2;
    }
    audit = std::move(*log_or);
  }
  std::unique_ptr<obs::SnapshotWriter> snapshot;
  if (!opts.obs_snapshot.empty()) {
    snapshot = std::make_unique<obs::SnapshotWriter>(opts.obs_snapshot,
                                                     opts.obs_interval_ms);
    snapshot->Start();
  }

  serve::PlanServiceOptions sopts;
  sopts.workers = std::max(1, opts.clients);
  sopts.default_deadline_ms = opts.deadline_ms;
  sopts.shed_to_baseline = true;
  sopts.audit = audit.get();
  sopts.retry.max_retries = opts.retry_max;
  sopts.retry.backoff_base_ms = opts.retry_backoff_ms;
  serve::PlanServiceDeps deps;
  deps.planner_name = opts.planner;
  deps.model = std::shared_ptr<const core::QpSeeker>(
      std::shared_ptr<const core::QpSeeker>(), model);
  deps.baseline = &baseline;
  deps.guard_options = gopts;
  auto service_or = serve::PlanService::Create(std::move(deps), sopts);
  if (!service_or.ok()) {
    std::fprintf(stderr, "plan service: %s\n",
                 service_or.status().ToString().c_str());
    return 2;
  }
  auto service = std::move(*service_or);

  // Complex-join workload so every backend exercises its neural path.
  eval::WorkloadOptions wo;
  wo.num_queries = opts.requests;
  wo.min_joins = 3;
  wo.max_joins = 3;
  wo.num_templates = std::max(4, opts.requests / 4);
  Rng wrng(opts.seed + 3);
  const auto queries = eval::GenerateWorkload(db, wo, &wrng);

  struct Outcome {
    bool ok = false;
    std::string error;
    core::PlanResult result;
    double latency_ms = 0.0;
  };
  std::vector<Outcome> outcomes(queries.size());

  const int nclients = std::max(1, opts.clients);
  Timer wall;
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(nclients));
  for (int c = 0; c < nclients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = static_cast<size_t>(c); i < queries.size();
           i += static_cast<size_t>(nclients)) {
        serve::PlanRequest request;
        request.query = queries[i];
        request.deadline_ms = opts.deadline_ms;
        // Per-request seeds pinned to the request index: the plans are a
        // function of the workload alone, not of scheduling.
        request.seed = opts.seed + 1000 + i;
        Timer t;
        auto result = service->Submit(std::move(request)).get();
        outcomes[i].latency_ms = t.ElapsedMillis();
        if (result.ok()) {
          outcomes[i].ok = true;
          outcomes[i].result = std::move(*result);
        } else {
          outcomes[i].error = result.status().ToString();
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const double wall_s = wall.ElapsedSeconds();

  std::vector<double> latencies;
  for (const auto& o : outcomes) latencies.push_back(o.latency_ms);
  const auto lat = eval::ComputePercentiles(std::move(latencies));
  const auto stats = service->stats();

  std::printf("serve: %zu requests, %d clients, planner=%s\n", queries.size(),
              nclients, opts.planner.c_str());
  std::printf("  throughput: %.1f qps   latency p50=%.1f ms p99=%.1f ms\n",
              wall_s > 0 ? static_cast<double>(queries.size()) / wall_s : 0.0,
              lat.p50, lat.p99);
  std::printf(
      "  batching: %lld flushes, mean %.2f queries/flush (max %lld), "
      "%lld plans fused\n",
      static_cast<long long>(stats.batching.flushes), stats.batching.MeanBatch(),
      static_cast<long long>(stats.batching.max_fused),
      static_cast<long long>(stats.batching.fused_plans));
  std::printf("  shed: %lld (degraded to baseline: %lld)   deadline hits: %lld\n",
              static_cast<long long>(stats.shed),
              static_cast<long long>(stats.shed_degraded),
              static_cast<long long>(stats.deadline_hits));
  if (opts.planner == "guarded") {
    std::printf("  guards: %s\n", service->guard_stats().ToString().c_str());
  }

  // Execute the returned plans serially: per-request q-error accounting
  // (model-predicted runtime vs. the executor's simulated runtime).
  // ExplainAnalyze (rather than bare Execute) so each plan also feeds a
  // predicted-vs-actual sample to the accuracy tracker under this
  // backend's name, populating the qps.model.drift.* gauges.
  exec::ExecOptions eopts;
  eopts.accuracy_backend = opts.planner;
  exec::Executor executor(db, eopts);
  std::vector<double> runtime_qerr;
  int executed = 0, failed = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!outcomes[i].ok) {
      std::printf("  request %zu failed: %s\n", i, outcomes[i].error.c_str());
      ++failed;
      continue;
    }
    query::PlanNode* plan = outcomes[i].result.plan.get();
    auto analysis = executor.ExplainAnalyze(queries[i], plan);
    if (!analysis.ok()) {
      std::printf("  request %zu execution failed: %s\n", i,
                  analysis.status().ToString().c_str());
      ++failed;
      continue;
    }
    ++executed;
    if (outcomes[i].result.used_neural()) {
      runtime_qerr.push_back(eval::QError(outcomes[i].result.node_stats.runtime_ms,
                                          plan->actual.runtime_ms, 1e-3));
    }
  }
  std::printf("  executed: %d/%zu plans (%d failed)\n", executed, queries.size(),
              failed);
  if (!runtime_qerr.empty()) {
    const size_t n_neural = runtime_qerr.size();
    const auto qe = eval::ComputePercentiles(std::move(runtime_qerr));
    std::printf(
        "  runtime q-error (model vs simulated): p50=%.2f p95=%.2f "
        "(%zu neural plans)\n",
        qe.p50, qe.p95, n_neural);
  }

  // Fold the execution feedback into the drift tracker and report it the
  // way the snapshot/qps_top would see it.
  const auto drift = obs::AccuracyTracker::Global().Update(opts.planner);
  if (drift.samples > 0) {
    std::printf(
        "  drift[%s]: score=%.2f  card q-error p50=%.2f p95=%.2f "
        "(%lld samples)%s\n",
        opts.planner.c_str(), drift.drift_score, drift.qerr_p50, drift.qerr_p95,
        static_cast<long long>(drift.samples),
        drift.drifted ? "  ** DRIFT **" : "");
  }
  if (audit != nullptr) {
    std::printf("  audit: %lld records -> %s\n",
                static_cast<long long>(audit->records_written()),
                audit->path().c_str());
  }
  if (snapshot != nullptr) {
    snapshot->Stop();
    if (Status st = snapshot->WriteOnce(); !st.ok()) {
      std::fprintf(stderr, "obs snapshot: %s\n", st.ToString().c_str());
    } else {
      std::printf("  obs snapshot: %s (%lld writes)\n",
                  snapshot->path().c_str(),
                  static_cast<long long>(snapshot->snapshots_written()));
    }
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = ParseArgs(argc, argv);
  SetVerbosity(opts.verbosity);
  // Reject a bad --planner before training a model for it (both the shell
  // and the --serve path build their planners with core::MakePlanner).
  if (Status st = core::CheckPlannerName(opts.planner); !st.ok()) {
    std::fprintf(stderr, "planner: %s\n", st.ToString().c_str());
    return 2;
  }

  Rng rng(opts.seed);
  storage::DatabaseSpec spec;
  if (opts.db == "imdb") {
    spec = storage::ImdbLikeSpec();
  } else if (opts.db == "stack") {
    spec = storage::StackLikeSpec();
  } else if (opts.db == "toy") {
    spec = storage::ToySpec();
  } else {
    std::fprintf(stderr, "unknown --db: %s (use imdb|stack|toy)\n", opts.db.c_str());
    return 2;
  }
  auto db_or = storage::BuildDatabase(spec, opts.rows, &rng);
  if (!db_or.ok()) {
    std::fprintf(stderr, "database build failed: %s\n",
                 db_or.status().ToString().c_str());
    return 1;
  }
  auto db = std::move(db_or).value();
  auto stats = stats::DatabaseStats::Analyze(*db);
  optimizer::Planner baseline(*db, *stats);
  std::fprintf(stderr, "qpsql: %s database, %lld rows, planner=%s\n",
               db->name().c_str(), static_cast<long long>(db->TotalRows()),
               opts.planner.c_str());

  // Train a model when a neural planner is requested. Shared ownership so
  // \reload can hand the previous model off gracefully while a planner
  // mid-query keeps it alive.
  std::shared_ptr<core::QpSeeker> model;
  if (opts.planner != "baseline") {
    eval::WorkloadOptions wo;
    wo.num_queries = opts.train_queries;
    wo.min_joins = 0;
    wo.max_joins = 3;
    wo.num_templates = std::max(4, opts.train_queries / 4);
    Rng wrng(opts.seed + 1);
    auto queries = eval::GenerateWorkload(*db, wo, &wrng);
    sampling::DatasetOptions dopts;
    dopts.source = sampling::PlanSource::kSampled;
    dopts.sampler.max_plans_per_query = 6;
    Rng drng(opts.seed + 2);
    auto ds = sampling::BuildQepDataset(*db, *stats, queries, dopts, &drng);
    if (!ds.ok()) {
      std::fprintf(stderr, "training-set build failed: %s\n",
                   ds.status().ToString().c_str());
      return 1;
    }
    model = std::make_shared<core::QpSeeker>(
        *db, *stats, core::QpSeekerConfig::ForScale(Scale::kSmoke), opts.seed);
    core::TrainOptions topts;
    topts.epochs = 35;
    topts.learning_rate = 2e-3f;
    auto report = model->Train(*ds, topts);
    std::fprintf(stderr, "qpsql: trained %lld params on %zu QEPs in %.1fs\n",
                 static_cast<long long>(report.num_parameters), ds->qeps.size(),
                 report.train_seconds);
    if (opts.cache_mb > 0) {
      model->EnableCache(opts.cache_mb * 1024 * 1024);
      std::fprintf(stderr, "qpsql: plan-prediction cache enabled (%lld MiB)\n",
                   static_cast<long long>(opts.cache_mb));
    }
    if (opts.quant == "int8") {
      const int64_t n = model->QuantizeForInference();
      std::fprintf(stderr, "qpsql: int8 inference enabled (%lld weights, %s kernel)\n",
                   static_cast<long long>(n), nn::ActiveInt8Kernel());
    }
  }

  if (opts.serve) return RunServe(*db, model.get(), baseline, opts);

  // One pool for the whole session; MCTS shards leaf evaluation over it.
  std::unique_ptr<util::ThreadPool> pool;
  if (opts.threads > 1) {
    pool = std::make_unique<util::ThreadPool>(opts.threads - 1);
  }

  exec::Executor executor(*db);
  core::GuardedOptions gopts;
  gopts.hybrid.mcts.threads = opts.threads;
  gopts.hybrid.mcts.pool = pool.get();
  if (opts.planner == "guarded") {
    gopts.neural_deadline_ms = gopts.hybrid.mcts.time_budget_ms;
  }
  auto planner_or = core::MakePlanner(opts.planner, model.get(), &baseline, gopts);
  if (!planner_or.ok()) {
    std::fprintf(stderr, "planner: %s\n", planner_or.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<core::Planner> planner = std::move(*planner_or);

  // Model lifecycle (\save / \reload). `serving` tracks whichever model the
  // planner currently runs on; the manager validates reload candidates on
  // the canary workload and rebuilds the planner only when the gate passes.
  std::shared_ptr<const core::QpSeeker> serving = model;
  std::unique_ptr<serve::ModelManager> manager;
  if (model != nullptr) {
    const storage::Database& dbr = *db;
    const stats::DatabaseStats& statsr = *stats;
    serve::ModelFactory factory =
        [&dbr, &statsr, opts](
            const std::string& path) -> StatusOr<std::shared_ptr<core::QpSeeker>> {
      auto candidate = std::make_shared<core::QpSeeker>(
          dbr, statsr, core::QpSeekerConfig::ForScale(Scale::kSmoke), opts.seed);
      QPS_RETURN_IF_ERROR(candidate->Load(path));
      if (opts.cache_mb > 0) {
        candidate->EnableCache(opts.cache_mb * 1024 * 1024);
      }
      return candidate;
    };
    manager = std::make_unique<serve::ModelManager>(model, std::move(factory));
    manager->SetSwapHook(
        [&planner, &serving, &baseline, &gopts,
         &opts](std::shared_ptr<const core::QpSeeker> m) -> Status {
          QPS_ASSIGN_OR_RETURN(
              auto fresh,
              core::MakePlanner(opts.planner, m.get(), &baseline, gopts));
          planner = std::move(fresh);
          serving = std::move(m);
          return Status::OK();
        });
    if (Status st = manager->SetCanaries(
            BuildCanaries(*db, baseline, &executor, opts.seed + 7));
        !st.ok()) {
      std::fprintf(stderr, "qpsql: canary setup failed: %s\n",
                   st.ToString().c_str());
    }
  }

  // --tenants: host a tenant fleet on a sharded service sharing the
  // session's database/model; SQL routes through the selected tenant.
  std::unique_ptr<serve::ShardedPlanService> sharded;
  std::string current_tenant;
  if (!opts.tenants_file.empty()) {
    serve::ShardedPlanServiceOptions shopts;
    shopts.shards = 2;
    shopts.workers_per_shard = std::max(1, opts.threads);
    shopts.default_deadline_ms = opts.deadline_ms;
    shopts.retry.max_retries = opts.retry_max;
    shopts.retry.backoff_base_ms = opts.retry_backoff_ms;
    auto sharded_or = serve::ShardedPlanService::Create(shopts);
    if (!sharded_or.ok()) {
      std::fprintf(stderr, "sharded service: %s\n",
                   sharded_or.status().ToString().c_str());
      return 2;
    }
    sharded = std::move(*sharded_or);
    for (const TenantLine& tl :
         ParseTenantsFile(opts.tenants_file, opts.planner)) {
      if (Status st = sharded->AddTenant(MakeTenantSpec(tl, model, baseline));
          !st.ok()) {
        std::fprintf(stderr, "qpsql: tenant %s: %s\n", tl.id.c_str(),
                     st.ToString().c_str());
        continue;
      }
      if (current_tenant.empty()) current_tenant = tl.id;
    }
    std::fprintf(stderr,
                 "qpsql: %zu tenants on %d shards, current tenant: %s\n",
                 sharded->tenant_ids().size(), sharded->num_shards(),
                 current_tenant.empty() ? "(none)" : current_tenant.c_str());
  }

  std::string trace_path = "qpsql_trace.json";
  std::string line;
  while (std::getline(std::cin, line)) {
    const std::string sql = StrTrim(line);
    if (sql.empty() || sql[0] == '#') continue;
    if (sql == "\\quit" || sql == "\\q") break;
    if (sql == "\\tables") {
      PrintTables(*db);
      continue;
    }
    if (StartsWith(sql, "\\schema")) {
      PrintSchema(*db, StrTrim(sql.substr(7)));
      continue;
    }
    if (sql == "\\guards") {
      std::printf("%s\n", planner->guard_stats().ToString().c_str());
      if (auto* guarded = dynamic_cast<core::GuardedPlanner*>(planner.get())) {
        std::printf("circuit: %s\n", guarded->circuit_open() ? "OPEN" : "closed");
      }
      continue;
    }
    if (StartsWith(sql, "\\cache")) {
      core::PlanPredictionCache* cache =
          serving != nullptr ? serving->cache() : nullptr;
      if (cache == nullptr) {
        std::printf("\\cache requires a neural planner and --cache-mb=N\n");
        continue;
      }
      const std::string rest = StrTrim(sql.substr(6));
      if (rest == "clear") {
        cache->Clear();
        std::printf("cache cleared\n");
        continue;
      }
      const auto cs = cache->GetStats();
      const int64_t lookups = cs.hits + cs.misses;
      std::printf(
          "plan-prediction cache: %lld entries (capacity %lld bytes)\n"
          "  hits %lld  misses %lld  evictions %lld  hit rate %.1f%%\n",
          static_cast<long long>(cs.entries),
          static_cast<long long>(cs.capacity_bytes),
          static_cast<long long>(cs.hits), static_cast<long long>(cs.misses),
          static_cast<long long>(cs.evictions),
          lookups > 0 ? 100.0 * static_cast<double>(cs.hits) /
                            static_cast<double>(lookups)
                      : 0.0);
      continue;
    }
    if (sql == "\\metrics") {
      std::printf("%s",
                  metrics::RenderText(metrics::Registry::Global().TakeSnapshot())
                      .c_str());
      continue;
    }
    if (sql == "\\prom") {
      std::printf("%s",
                  obs::RenderPrometheus(
                      metrics::Registry::Global().TakeSnapshot())
                      .c_str());
      continue;
    }
    if (StartsWith(sql, "\\save")) {
      const std::string path = StrTrim(sql.substr(5));
      if (serving == nullptr || path.empty()) {
        std::printf("usage: \\save <path>  (requires a neural planner)\n");
        continue;
      }
      if (Status st = serving->Save(path); !st.ok()) {
        std::printf("save failed: %s\n", st.ToString().c_str());
      } else {
        std::printf("model checkpoint written to %s\n", path.c_str());
      }
      continue;
    }
    if (StartsWith(sql, "\\quantize")) {
      const std::string path = StrTrim(sql.substr(9));
      if (serving == nullptr) {
        std::printf("usage: \\quantize <path>  (requires a neural planner)\n");
        continue;
      }
      if (path.empty()) {
        std::printf("serving model: %s inference (active kernel %s)\n"
                    "usage: \\quantize <path> writes an int8 checkpoint;"
                    " \\reload <path> canary-gates it\n",
                    serving->quantized() ? "int8" : "f32",
                    nn::ActiveInt8Kernel());
        continue;
      }
      if (Status st = serving->SaveQuantized(path); !st.ok()) {
        std::printf("quantized save failed: %s\n", st.ToString().c_str());
      } else {
        std::printf("int8 checkpoint written to %s; \\reload %s canary-gates it\n",
                    path.c_str(), path.c_str());
      }
      continue;
    }
    if (StartsWith(sql, "\\reload")) {
      const std::string path = StrTrim(sql.substr(7));
      if (manager == nullptr || path.empty()) {
        std::printf("usage: \\reload <path>  (requires a neural planner)\n");
        continue;
      }
      if (Status st = manager->Reload(path); !st.ok()) {
        std::printf("reload rejected, previous model still serving: %s\n",
                    st.ToString().c_str());
      } else {
        const auto mstats = manager->stats();
        std::printf("model reloaded from %s (canary q-error %.3f%s)\n",
                    path.c_str(), mstats.live_qerror,
                    mstats.last_candidate_quantized ? ", int8 inference" : "");
      }
      continue;
    }
    if (sql == "\\health") {
      if (sharded == nullptr) {
        std::printf("\\health requires --tenants=FILE\n");
      } else {
        PrintHealth(*sharded);
      }
      continue;
    }
    if (sql == "\\tenants" || StartsWith(sql, "\\tenants ")) {
      if (sharded == nullptr) {
        std::printf("\\tenants requires --tenants=FILE\n");
        continue;
      }
      const std::string rest = StrTrim(sql.substr(8));
      if (rest.empty()) {
        PrintTenants(*sharded);
        continue;
      }
      std::istringstream tok(rest);
      std::string verb;
      tok >> verb;
      if (verb == "add") {
        TenantLine tl;
        tl.backend = opts.planner;
        std::string word;
        if (!(tok >> tl.id)) {
          std::printf("usage: \\tenants add <id> [backend] [quota] [shed]\n");
          continue;
        }
        if (tok >> word) tl.backend = word;
        if (tok >> word) tl.max_pending = static_cast<size_t>(std::stoull(word));
        if (tok >> word) tl.shed = (word == "shed");
        if (Status st = sharded->AddTenant(MakeTenantSpec(tl, model, baseline));
            !st.ok()) {
          std::printf("add failed: %s\n", st.ToString().c_str());
        } else {
          std::printf("tenant %s added on shard %d\n", tl.id.c_str(),
                      sharded->ShardOf(tl.id));
          if (current_tenant.empty()) current_tenant = tl.id;
        }
      } else if (verb == "rm") {
        std::string id;
        if (!(tok >> id)) {
          std::printf("usage: \\tenants rm <id>\n");
          continue;
        }
        if (Status st = sharded->RemoveTenant(id); !st.ok()) {
          std::printf("rm failed: %s\n", st.ToString().c_str());
        } else {
          std::printf("tenant %s removed (in-flight requests drained)\n",
                      id.c_str());
          if (current_tenant == id) current_tenant.clear();
        }
      } else {
        std::printf(
            "usage: \\tenants [add <id> [backend] [quota] [shed] | rm <id>]\n");
      }
      continue;
    }
    if (StartsWith(sql, "\\tenant ")) {
      const std::string id = StrTrim(sql.substr(7));
      if (sharded == nullptr) {
        std::printf("\\tenant requires --tenants=FILE\n");
      } else if (!sharded->registry().Contains(id)) {
        std::printf("no such tenant: %s (\\tenants lists them)\n", id.c_str());
      } else {
        current_tenant = id;
        std::printf("now planning as tenant %s (shard %d)\n", id.c_str(),
                    sharded->ShardOf(id));
      }
      continue;
    }
    if (StartsWith(sql, "\\trace")) {
      const std::string rest = StrTrim(sql.substr(6));
      if (rest == "on" || StartsWith(rest, "on ")) {
        const std::string path = StrTrim(rest.size() > 2 ? rest.substr(2) : "");
        if (!path.empty()) trace_path = path;
        trace::Start();
        std::printf("tracing on (will write %s)\n", trace_path.c_str());
      } else if (rest == "off") {
        trace::Stop();
        const size_t n = trace::Snapshot().size();
        if (trace::WriteChromeJson(trace_path)) {
          std::printf("tracing off: wrote %zu spans to %s\n", n, trace_path.c_str());
        } else {
          std::printf("tracing off: cannot write %s\n", trace_path.c_str());
        }
      } else {
        std::printf("usage: \\trace on [file] | \\trace off\n");
      }
      continue;
    }

    std::string stmt = sql;
    const bool explain_analyze = ConsumePrefixCI(sql, "explain analyze ", &stmt);

    QPS_TRACE_SPAN_VAR(query_span, "qpsql.query");
    auto q = query::ParseSql(stmt, *db);
    if (!q.ok()) {
      std::printf("parse error: %s\n", q.status().ToString().c_str());
      continue;
    }

    // Every backend dispatches through the one unified interface; with a
    // tenant fleet loaded, the request routes through the selected
    // tenant's core instead of the session planner.
    auto p = [&]() -> StatusOr<core::PlanResult> {
      if (sharded != nullptr && !current_tenant.empty()) {
        serve::PlanRequest request;
        request.query = *q;
        request.tenant_id = current_tenant;
        request.deadline_ms = opts.deadline_ms;
        request.seed = opts.seed;
        return sharded->Submit(std::move(request)).get();
      }
      core::PlanRequestOptions ropts;
      ropts.deadline_ms = opts.deadline_ms;
      return planner->Plan(*q, ropts);
    }();
    if (!p.ok()) {
      std::printf("plan error: %s\n", p.status().ToString().c_str());
      continue;
    }
    if (sharded != nullptr && !current_tenant.empty()) {
      std::printf("-- tenant %s: %s stage, %d plans evaluated in %.0f ms\n",
                  current_tenant.c_str(), core::PlanStageName(p->stage),
                  p->plans_evaluated, p->plan_ms);
    } else if (opts.planner != "baseline") {
      std::printf("-- %s planner: %s stage, %d plans evaluated in %.0f ms%s%s%s\n",
                  planner->name(), core::PlanStageName(p->stage),
                  p->plans_evaluated, p->plan_ms,
                  p->deadline_hit ? " (deadline hit)" : "",
                  p->fallback_reason.empty() ? "" : " after ",
                  p->fallback_reason.c_str());
    }
    query::PlanPtr plan = std::move(p->plan);

    if (explain_analyze) {
      auto analysis = executor.ExplainAnalyze(*q, plan.get());
      if (!analysis.ok()) {
        std::printf("execution aborted: %s\n", analysis.status().ToString().c_str());
        continue;
      }
      std::printf("%s\n\n", analysis->ToString().c_str());
      continue;
    }

    auto card = executor.Execute(*q, plan.get());
    if (!card.ok()) {
      std::printf("execution aborted: %s\n", card.status().ToString().c_str());
      continue;
    }
    std::printf("EXPLAIN ANALYZE:\n%s", plan->ToString(*db, *q, true).c_str());
    std::printf("count(*) = %.0f   (%.2f ms simulated)\n\n", *card,
                plan->actual.runtime_ms);
  }
  if (opts.planner == "guarded") {
    std::fprintf(stderr, "qpsql guard stats: %s\n",
                 planner->guard_stats().ToString().c_str());
  }
  return 0;
}
