// Copyright 2026 The QPSeeker Authors
//
// End-to-end planning benchmark. perfbench/NOTES.md records why each
// workload exists, how the numbers are made steady, and what the traced
// run measured.
//
//   qps_perfbench --workload solo_deep|fleet_zipf
//                 [--seed N] [--seconds S] [--trace 0|1]
//                 [--source-id ID]
//
// One run = one workload in a closed loop: every client waits for its plan
// before it sends the next request.
// All load comes from this process, through serve::ShardedPlanService.
//
// Set-up (database, QEP labels, model training) uses fixed seeds, so its
// work is identical on every run. MCTS is rollout-capped with a fixed
// eval_batch and a fixed seed per query, so plans are a pure function of
// the query and latency measures speed rather than a time budget. `--seed`
// drives only the request stream: the shuffled order of each pass over the
// query pool and the Zipf tenant draws.
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics, each timed from outside around calls into a layer's public
// functions. Either way every served plan is hashed and compared with a
// direct serial Planner::Plan of the same (query, seed), and the last line
// of stdout is one JSON object with the keys correct, attempted, failed and
// metrics.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/plan_cache.h"
#include "core/planner_backends.h"
#include "core/qpseeker.h"
#include "eval/metrics.h"
#include "eval/workloads.h"
#include "exec/executor.h"
#include "optimizer/planner.h"
#include "sampling/plan_sampler.h"
#include "serve/sharded_service.h"
#include "stats/analyze.h"
#include "storage/datagen.h"
#include "storage/schemas.h"
#include "util/cpuid.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/rng.h"

namespace qps {
namespace perfbench {
namespace {

using SteadyClock = std::chrono::steady_clock;

double MsSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - t0)
      .count();
}

double P50(const std::vector<double>& v) { return eval::ComputePercentiles(v).p50; }
double P95(const std::vector<double>& v) { return eval::ComputePercentiles(v).p95; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Workloads

struct WorkloadSpec {
  const char* name;
  int clients;
  int tenants;
  int workers;  ///< planning workers in total (one shard)
  bool int8;    ///< serve the int8-quantized model
};

// Planning workers stay at half of a 4-core box or below: with 4 workers the
// closed loop's throughput and p50 scattered by 10% between identical runs.
// MCTS runs on one thread everywhere: a served request evaluates through the
// service's rendezvous hook, which never uses MCTS's own pool, so more MCTS
// threads would only start idle ones.
constexpr WorkloadSpec kWorkloads[] = {
    {"solo_deep", 1, 1, 1, false},
    {"fleet_zipf", 4, 16, 2, true},
};

// A slow phase of a shared VM adds a roughly fixed cost per request; 512
// rollouts spread it over twice the work of 256 (solo_deep p50 spread 0.11
// to 0.15 instead of 0.17 to 0.20 over ten runs).
constexpr int kMaxRollouts = 512;
constexpr int kEvalBatch = 16;
constexpr uint64_t kMctsSeed = 5;
constexpr double kZipfSkew = 1.1;

// A run is valid only with this many OK samples in complete passes over the
// pool, which leaves at least ten beyond p95.
constexpr int64_t kMinSamples = 200;

// setup_s is the median of this many set-ups in one run, half of them
// before the timed loop and half after it. The machine slows by up to half
// for tens of seconds at a time; set-ups spread over the whole run sample
// more of its phases than set-ups bunched at the start.
constexpr int kSetups = 8;

// Set-up is a function of these constants and the workload alone.
constexpr int64_t kBaseRows = 1000;
constexpr uint64_t kDbSeed = 20240301;
constexpr uint64_t kPoolSeed = 778;
constexpr uint64_t kLabelSeed = 4242;
constexpr uint64_t kModelSeed = 1234;
constexpr int kPlansPerQuery = 2;
constexpr int kTrainEpochs = 3;
// Statement limit: an execution whose intermediate result passes this many
// rows aborts (the executor's timeout analogue), in labelling and serving.
constexpr int64_t kRowCap = 200'000;

exec::ExecOptions ExecOpts() {
  exec::ExecOptions opts;
  opts.max_intermediate_rows = kRowCap;
  opts.accuracy_backend.clear();
  return opts;
}

core::GuardedOptions GuardOpts() {
  core::GuardedOptions g;
  g.hybrid.mcts.time_budget_ms = 1e9;  // never binds: the rollout cap does
  g.hybrid.mcts.max_rollouts = kMaxRollouts;
  g.hybrid.mcts.eval_batch = kEvalBatch;
  return g;
}

/// Per-query MCTS seed, independent of the run seed: plans, and with them
/// sim_runtime_ratio, repeat exactly across runs, and every request of a
/// query is checked against one serial reference plan.
uint64_t QuerySeed(size_t qi) {
  return util::Mix64(util::HashCombine(kMctsSeed, static_cast<uint64_t>(qi))) | 1;
}

std::string TenantId(int t) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "t%02d", t);
  return buf;
}

// ---------------------------------------------------------------------------
// Set-up: database, query pool, labelled QEPs, trained model.

struct Setup {
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<stats::DatabaseStats> stats;
  std::vector<query::Query> pool;
  std::unique_ptr<optimizer::Planner> baseline;
  std::shared_ptr<core::QpSeeker> model;
  double env_s = 0.0;
  double label_s = 0.0;
  double train_s = 0.0;
  double total_s() const { return env_s + label_s + train_s; }
};

Setup BuildSetup(const WorkloadSpec& spec) {
  Setup s;
  auto t0 = SteadyClock::now();
  Rng db_rng(kDbSeed);
  auto db = storage::BuildDatabase(storage::ImdbLikeSpec(), kBaseRows, &db_rng);
  QPS_CHECK(db.ok()) << db.status().ToString();
  s.db = std::move(db).value();
  s.stats = stats::DatabaseStats::Analyze(*s.db);
  s.baseline = std::make_unique<optimizer::Planner>(*s.db, *s.stats);
  Rng pool_rng(kPoolSeed);
  s.pool = eval::JobWorkload(*s.db, Scale::kCi, &pool_rng);
  QPS_CHECK(!s.pool.empty());
  s.env_s = MsSince(t0) / 1e3;

  t0 = SteadyClock::now();
  sampling::DatasetOptions dopts;
  dopts.source = sampling::PlanSource::kSampled;
  dopts.exec = ExecOpts();
  dopts.sampler.candidates_per_order = 3;
  dopts.sampler.max_plans_per_query = kPlansPerQuery;
  dopts.sampler.max_join_orders = 20;
  Rng label_rng(kLabelSeed);
  auto ds = sampling::BuildQepDataset(*s.db, *s.stats, s.pool, dopts, &label_rng);
  QPS_CHECK(ds.ok()) << ds.status().ToString();
  s.label_s = MsSince(t0) / 1e3;

  t0 = SteadyClock::now();
  s.model = std::make_shared<core::QpSeeker>(
      *s.db, *s.stats, core::QpSeekerConfig::ForScale(Scale::kCi), kModelSeed);
  core::TrainOptions topts;
  topts.learning_rate = 2e-3f;
  topts.seed = 97;
  topts.epochs = kTrainEpochs;
  s.model->Train(*ds, topts);
  if (spec.int8) QPS_CHECK(s.model->QuantizeForInference() > 0);
  s.train_s = MsSince(t0) / 1e3;
  return s;
}

// ---------------------------------------------------------------------------
// Serial reference: the plan every query must get.

uint64_t PlanHash(const Setup& s, size_t qi, const query::PlanNode& plan) {
  return util::HashString(plan.ToString(*s.db, s.pool[qi]));
}

struct SerialPass {
  std::vector<query::PlanPtr> plans;  ///< per pool query
  std::vector<uint64_t> hashes;
  std::vector<double> plan_ms;  ///< Plan() wall time per query
  uint64_t digest = 0;          ///< over all hashes, comparable across runs
  // Filled by the hooked modes.
  double tree_ms = 0.0;  ///< Plan() time outside the hook, MCTS requests only
  int64_t mcts_requests = 0;
  int64_t evals = 0;       ///< PlanResult::plans_evaluated, summed
  int64_t hook_plans = 0;  ///< plans handed to the hook
  double eval_ms = 0.0;    ///< inside QpSeeker::PredictPlansBatch
  double annotate_ms = 0.0;
};

enum class PassMode {
  kPlain,     ///< no hook: the planner calls the model itself
  kTimed,     ///< a BatchEvalFn times QpSeeker::PredictPlansBatch
  kAnnotate,  ///< a BatchEvalFn times annotation of the plans the model annotates
};

/// Plans every pool query once with a standalone guarded planner.
SerialPass PlanSerially(const Setup& s, PassMode mode) {
  SerialPass pass;
  // PredictPlansBatch clones and annotates each distinct plan shape of a
  // batch, then runs one forward over them. kAnnotate repeats that clone +
  // AnnotateEstimates on the same shapes, outside the timed pass, so the
  // forward alone is the timed pass's model time minus this.
  core::BatchEvalFn hook = [&](const query::Query& q,
                               const std::vector<const query::PlanNode*>& batch) {
    if (mode == PassMode::kAnnotate) {
      std::unordered_set<uint64_t> shapes;
      std::vector<const query::PlanNode*> distinct;
      for (const auto* p : batch) {
        if (shapes.insert(core::PlanShapeHash(*p)).second) distinct.push_back(p);
      }
      const auto a0 = SteadyClock::now();
      for (const auto* p : distinct) {
        auto copy = p->Clone();
        s.model->AnnotateEstimates(q, copy.get());
      }
      pass.annotate_ms += MsSince(a0);
    }
    const auto f0 = SteadyClock::now();
    auto out = s.model->PredictPlansBatch(q, batch, nullptr);
    pass.eval_ms += MsSince(f0);
    pass.hook_plans += static_cast<int64_t>(batch.size());
    return out;
  };
  auto planner =
      core::MakePlanner("guarded", s.model.get(), s.baseline.get(), GuardOpts());
  QPS_CHECK(planner.ok());
  for (size_t qi = 0; qi < s.pool.size(); ++qi) {
    core::PlanRequestOptions ropts;
    ropts.seed = QuerySeed(qi);
    if (mode != PassMode::kPlain) ropts.evaluate = hook;
    const double hook_before = pass.eval_ms + pass.annotate_ms;
    const auto p0 = SteadyClock::now();
    auto r = (*planner)->Plan(s.pool[qi], ropts);
    pass.plan_ms.push_back(MsSince(p0));
    QPS_CHECK(r.ok()) << r.status().ToString();
    if (r->stage == core::PlanStage::kNeural) {
      pass.tree_ms +=
          pass.plan_ms.back() - (pass.eval_ms + pass.annotate_ms - hook_before);
      ++pass.mcts_requests;
    }
    pass.evals += r->plans_evaluated;
    pass.hashes.push_back(PlanHash(s, qi, *r->plan));
    pass.digest = util::HashCombine(pass.digest, pass.hashes.back());
    pass.plans.push_back(std::move(r->plan));
  }
  return pass;
}

// ---------------------------------------------------------------------------
// Timed closed loop through the sharded service.

/// The run's requests: the pool in a fresh shuffled order per pass, each
/// request's tenant drawn from Zipf. A pure function of the seed: request i
/// is the same whichever client takes it, and every complete pass holds
/// each pool query exactly once.
class RequestStream {
 public:
  struct Item {
    int64_t index;
    size_t qi;
    int tenant;
  };

  RequestStream(size_t pool_size, int tenants, uint64_t seed)
      : rng_(util::Mix64(seed)),
        order_(pool_size),
        zipf_(static_cast<uint64_t>(tenants), kZipfSkew),
        tenants_(tenants) {}

  Item Next() {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t pos = static_cast<size_t>(next_) % order_.size();
    if (pos == 0) {
      std::iota(order_.begin(), order_.end(), size_t{0});
      rng_.Shuffle(&order_);
    }
    const int tenant = tenants_ > 1 ? static_cast<int>(zipf_.Sample(&rng_)) - 1 : 0;
    return Item{next_++, order_[pos], tenant};
  }

 private:
  std::mutex mu_;
  Rng rng_;
  std::vector<size_t> order_;
  ZipfDistribution zipf_;
  int tenants_;
  int64_t next_ = 0;
};

struct Sample {
  int64_t index = 0;  ///< position in the request stream
  size_t qi = 0;
  bool ok = false;
  double end_s = 0.0;       ///< plan back, seconds since the loop started
  double latency_ms = 0.0;  ///< Submit until the future resolves
  double plan_ms = 0.0;     ///< PlanResult::plan_ms
  core::PlanStage stage = core::PlanStage::kTraditional;
  bool fallback = false;
  query::PlanPtr plan;
};

struct LoopResult {
  std::vector<Sample> samples;  ///< sorted by stream index, no gaps
  int64_t shed = 0;
  int64_t retry_attempts = 0;
  int64_t deadline_hits = 0;
  int64_t flushes = 0;
  int64_t fused_queries = 0;
};

LoopResult RunLoop(const Setup& s, const WorkloadSpec& spec, uint64_t seed,
                   double seconds) {
  serve::ShardedPlanServiceOptions so;
  so.shards = 1;
  so.workers_per_shard = spec.workers;
  so.shard_max_queue = 256;
  auto service_or = serve::ShardedPlanService::Create(so);
  QPS_CHECK(service_or.ok());
  auto service = std::move(service_or).value();
  for (int t = 0; t < spec.tenants; ++t) {
    serve::TenantSpec ts;
    ts.tenant_id = TenantId(t);
    ts.deps.planner_name = "guarded";
    ts.deps.model = s.model;
    ts.deps.baseline = s.baseline.get();
    ts.deps.guard_options = GuardOpts();
    ts.quota.max_pending = 16;  // roomy: 4 clients can never fill it
    QPS_CHECK(service->AddTenant(std::move(ts)).ok());
  }

  RequestStream stream(s.pool.size(), spec.tenants, seed);
  std::vector<std::vector<Sample>> per_client(static_cast<size_t>(spec.clients));
  std::atomic<bool> go{false};
  SteadyClock::time_point start, deadline;

  auto client = [&](int c) {
    auto& out = per_client[static_cast<size_t>(c)];
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    while (SteadyClock::now() < deadline) {
      const RequestStream::Item item = stream.Next();
      Sample sample;
      sample.index = item.index;
      sample.qi = item.qi;
      serve::PlanRequest req;
      req.query = s.pool[item.qi];
      req.tenant_id = TenantId(item.tenant);
      req.seed = QuerySeed(item.qi);
      const auto t0 = SteadyClock::now();
      auto result = service->Submit(std::move(req)).get();
      sample.latency_ms = MsSince(t0);
      sample.ok = result.ok();
      if (sample.ok) {
        sample.plan_ms = result->plan_ms;
        sample.stage = result->stage;
        sample.fallback = !result->fallback_reason.empty();
        sample.plan = std::move(result->plan);
      }
      sample.end_s = std::chrono::duration<double>(SteadyClock::now() - start).count();
      out.push_back(std::move(sample));
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < spec.clients; ++c) threads.emplace_back(client, c);
  start = SteadyClock::now();
  deadline = start + std::chrono::duration_cast<SteadyClock::duration>(
                         std::chrono::duration<double>(seconds));
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  LoopResult loop;
  for (auto& v : per_client) {
    for (auto& sample : v) loop.samples.push_back(std::move(sample));
  }
  std::sort(loop.samples.begin(), loop.samples.end(),
            [](const Sample& a, const Sample& b) { return a.index < b.index; });
  for (int t = 0; t < spec.tenants; ++t) {
    auto st = service->TenantStats(TenantId(t));
    QPS_CHECK(st.ok());
    loop.shed += st->shed;
    loop.retry_attempts += st->retry_attempts;
    loop.deadline_hits += st->deadline_hits;
    loop.flushes += st->batching.flushes;
    loop.fused_queries += st->batching.fused_queries;
  }
  return loop;
}

/// Served plans whose hash differs from the serial reference.
int64_t CountMismatches(const Setup& s, const SerialPass& ref,
                        const LoopResult& loop) {
  int64_t bad = 0;
  for (const auto& sample : loop.samples) {
    if (sample.plan != nullptr &&
        PlanHash(s, sample.qi, *sample.plan) != ref.hashes[sample.qi]) {
      ++bad;
    }
  }
  return bad;
}

/// Latency and throughput over the loop's complete passes. Every complete
/// pass serves each pool query once, so the samples are the same multiset
/// of queries on every run and seed; the partial pass at the end is left
/// out. Per-pass p50s go to the info line, to tell a run that a burst of
/// outside load slowed from one that was slow throughout.
struct PassSummary {
  int passes = 0;
  int64_t samples = 0;  ///< OK requests inside complete passes
  double plan_p50 = 0.0, plan_p95 = 0.0;
  double qps = 0.0;
  std::vector<double> pass_p50;
};

PassSummary SummarizePasses(const LoopResult& loop, size_t pool_size) {
  PassSummary out;
  out.passes = static_cast<int>(loop.samples.size() / pool_size);
  std::vector<double> plan, pass_plan;
  double end_s = 0.0;
  for (size_t i = 0; i < static_cast<size_t>(out.passes) * pool_size; ++i) {
    const Sample& x = loop.samples[i];
    end_s = std::max(end_s, x.end_s);
    if (x.ok) {
      plan.push_back(x.latency_ms);
      pass_plan.push_back(x.latency_ms);
    }
    if ((i + 1) % pool_size == 0) {
      out.pass_p50.push_back(P50(pass_plan));
      pass_plan.clear();
    }
  }
  out.samples = static_cast<int64_t>(plan.size());
  out.plan_p50 = P50(plan);
  out.plan_p95 = P95(plan);
  out.qps = end_s > 0.0 ? static_cast<double>(plan.size()) / end_s : 0.0;
  return out;
}

// ---------------------------------------------------------------------------
// Untimed check pass: simulated runtime of served vs DP plans, plus the
// executor and the DP planner timed from outside.

struct CheckPass {
  double sim_runtime_ratio = 0.0;
  std::vector<double> exec_ms;
  std::vector<double> dp_ms;
  double tuples_per_query = 0.0;
};

/// Simulated runtime, clamped on an executor abort the way the paper
/// harnesses do (bench/harness.cc ExecuteOrClamp).
double ExecuteOrClamp(exec::Executor* ex, const query::Query& q,
                      query::PlanNode* plan) {
  if (ex->Execute(q, plan).ok()) return plan->actual.runtime_ms;
  return std::max(plan->actual.runtime_ms, ex->last_counters().RuntimeMs());
}

CheckPass RunCheckPass(const Setup& s, const SerialPass& ref) {
  CheckPass pass;
  exec::Executor ex(*s.db, ExecOpts());
  double served_sum = 0.0, dp_sum = 0.0, tuples = 0.0;
  for (size_t qi = 0; qi < s.pool.size(); ++qi) {
    const query::Query& q = s.pool[qi];
    auto served = ref.plans[qi]->Clone();
    const auto e0 = SteadyClock::now();
    served_sum += ExecuteOrClamp(&ex, q, served.get());
    pass.exec_ms.push_back(MsSince(e0));
    const auto& c = ex.last_counters();
    tuples += static_cast<double>(c.tuples_scanned + c.hash_build +
                                  c.hash_probe + c.output_tuples);
    const auto d0 = SteadyClock::now();
    auto dp = s.baseline->Plan(q);
    pass.dp_ms.push_back(MsSince(d0));
    QPS_CHECK(dp.ok()) << dp.status().ToString();
    dp_sum += ExecuteOrClamp(&ex, q, dp->get());
  }
  pass.sim_runtime_ratio = served_sum / dp_sum;
  pass.tuples_per_query = tuples / static_cast<double>(s.pool.size());
  return pass;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string body;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::printf("metric %s is not finite\n", m.name.c_str());
      correct = false;
    }
    if (!body.empty()) body += ", ";
    body += "\"" + m.name + "\": {\"value\": " +
            Num(std::isfinite(m.value) ? m.value : 0.0) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), body.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string source_id = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--source-id") {
      a->source_id = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

int Run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  double load1 = -1.0;
  if (getloadavg(&load1, 1) != 1) load1 = -1.0;
  std::printf(
      "{\"stamp\": {\"source\": \"%s\", \"nproc\": %ld, \"isa\": \"%s\", "
      "\"loadavg_1m\": %.2f, \"workload\": \"%s\", \"seed\": %llu, "
      "\"trace\": %d}}\n",
      args.source_id.c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      simd::IsaName(simd::ActiveIsa()), load1, spec->name,
      static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  std::fflush(stdout);

  // Set-up runs several times when its time is the reported metric.
  std::vector<double> setup_s;
  std::unique_ptr<Setup> built;
  for (int i = 0; i < (args.trace ? 1 : kSetups / 2); ++i) {
    built.reset();  // free the previous copy before building the next
    built = std::make_unique<Setup>(BuildSetup(*spec));
    setup_s.push_back(built->total_s());
  }
  const Setup& s = *built;

  // The serial reference runs first: it also warms lazily built model state
  // before any request is timed.
  const SerialPass ref = PlanSerially(s, PassMode::kPlain);
  const LoopResult loop = RunLoop(s, *spec, args.seed, args.seconds);
  const PassSummary sum = SummarizePasses(loop, s.pool.size());

  bool correct = true;
  const int64_t attempted = static_cast<int64_t>(loop.samples.size());
  int64_t ok = 0;
  for (const auto& x : loop.samples) ok += x.ok ? 1 : 0;
  // Quotas are roomy and no deadline is set, so every request must succeed.
  if (ok != attempted) {
    std::printf("%lld of %lld requests failed\n",
                static_cast<long long>(attempted - ok),
                static_cast<long long>(attempted));
    correct = false;
  }
  const int64_t mismatches = CountMismatches(s, ref, loop);
  if (mismatches != 0) {
    std::printf("%lld served plans differ from the serial reference\n",
                static_cast<long long>(mismatches));
    correct = false;
  }
  if (sum.samples < kMinSamples) {
    std::printf("too little measured: %d passes, %lld samples\n", sum.passes,
                static_cast<long long>(sum.samples));
    correct = false;
  }
  std::vector<Metric> metrics;
  if (!args.trace) {
    const CheckPass check = RunCheckPass(s, ref);
    // Read before the remaining set-ups, which each live alongside `s`.
    const double peak_rss_mb = PeakRssMb();
    for (int i = 0; i < kSetups / 2; ++i) setup_s.push_back(BuildSetup(*spec).total_s());
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"plan_p50_ms", sum.plan_p50, "ms"},
        {"plan_p95_ms", sum.plan_p95, "ms"},
        {"throughput_qps", sum.qps, "1/s"},
        {"ok_ratio",
         static_cast<double>(ok) / static_cast<double>(std::max<int64_t>(1, attempted)),
         "ratio"},
        {"sim_runtime_ratio", check.sim_runtime_ratio, "ratio"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    // An untimed serial pass right before the timed one, so the two differ
    // only in the timing hook: the median per-query difference is what
    // tracing costs. Annotation is timed in a pass of its own, because
    // timing it adds work the planner does not do.
    const SerialPass plain = PlanSerially(s, PassMode::kPlain);
    s.model->tabert().ResetTiming();
    const SerialPass layers = PlanSerially(s, PassMode::kTimed);
    const auto& tab = s.model->tabert();
    const double tab_ms = tab.total_time_ms();
    const int64_t tab_calls = tab.num_calls();
    const SerialPass annot = PlanSerially(s, PassMode::kAnnotate);
    if (plain.hashes != ref.hashes || layers.hashes != ref.hashes ||
        annot.hashes != ref.hashes) {
      std::printf("traced planner did not reproduce the reference plans\n");
      correct = false;
    }
    const CheckPass check = RunCheckPass(s, ref);

    std::vector<double> wait, plan_ms;
    int64_t neural = 0, fallbacks = 0;
    for (const auto& x : loop.samples) {
      if (!x.ok) continue;
      plan_ms.push_back(x.plan_ms);
      wait.push_back(x.latency_ms - x.plan_ms);
      neural += x.stage == core::PlanStage::kNeural ? 1 : 0;
      fallbacks += x.fallback ? 1 : 0;
    }
    std::vector<double> traced_minus_plain;
    for (size_t qi = 0; qi < s.pool.size(); ++qi) {
      traced_minus_plain.push_back(layers.plan_ms[qi] - plain.plan_ms[qi]);
    }
    const double n_ok = static_cast<double>(std::max<int64_t>(1, ok));
    const double n_req = static_cast<double>(std::max<int64_t>(1, attempted));
    const double n_pool = static_cast<double>(s.pool.size());
    const double n_hook = static_cast<double>(std::max<int64_t>(1, layers.hook_plans));
    // Both passes hand the model the same batches, so their per-plan times
    // add up to the time spent in PredictPlansBatch per plan.
    const double annotate_per_plan = annot.annotate_ms / n_hook;
    metrics = {
        {"serve.wait_ms_p50", P50(wait), "ms"},
        {"serve.batch_mean",
         static_cast<double>(loop.fused_queries) /
             static_cast<double>(std::max<int64_t>(1, loop.flushes)),
         "count"},
        {"serve.flushes_per_req", static_cast<double>(loop.flushes) / n_req, "count"},
        {"serve.shed", static_cast<double>(loop.shed), "count"},
        {"serve.retry_attempts", static_cast<double>(loop.retry_attempts), "count"},
        {"serve.deadline_hits", static_cast<double>(loop.deadline_hits), "count"},
        {"core.plan_ms_p50", P50(plan_ms), "ms"},
        {"mcts.tree_ms_per_req",
         layers.tree_ms /
             static_cast<double>(std::max<int64_t>(1, layers.mcts_requests)),
         "ms"},
        {"mcts.evals_per_req", static_cast<double>(layers.evals) / n_pool, "count"},
        {"guard.neural_share", static_cast<double>(neural) / n_ok, "ratio"},
        {"guard.fallbacks", static_cast<double>(fallbacks), "count"},
        {"model.forward_ms_per_plan", layers.eval_ms / n_hook - annotate_per_plan,
         "ms"},
        {"model.annotate_ms_per_plan", annotate_per_plan, "ms"},
        {"tabert.ms_per_call",
         tab_ms / static_cast<double>(std::max<int64_t>(1, tab_calls)), "ms"},
        {"tabert.calls_per_req", static_cast<double>(tab_calls) / n_pool, "count"},
        {"optimizer.dp_ms_p50", P50(check.dp_ms), "ms"},
        {"exec.execute_ms_p50", P50(check.exec_ms), "ms"},
        {"exec.execute_ms_p95", P95(check.exec_ms), "ms"},
        {"exec.tuples_per_query", check.tuples_per_query, "count"},
        {"setup.env_s", s.env_s, "s"},
        {"setup.label_s", s.label_s, "s"},
        {"setup.train_s", s.train_s, "s"},
        {"trace.overhead_ms", Median(traced_minus_plain), "ms"},
    };
  }
  auto list = [](const std::vector<double>& v) {
    std::string out;
    for (double x : v) out += (out.empty() ? "" : ", ") + Num(x);
    return out;
  };
  std::printf(
      "{\"info\": {\"requests\": %lld, \"passes\": %d, \"samples\": %lld, "
      "\"pool\": %zu, \"plan_digest\": \"%016llx\", \"pass_plan_p50_ms\": [%s], "
      "\"setups_s\": [%s]}}\n",
      static_cast<long long>(attempted), sum.passes,
      static_cast<long long>(sum.samples), s.pool.size(),
      static_cast<unsigned long long>(ref.digest), list(sum.pass_p50).c_str(),
      list(setup_s).c_str());

  PrintResult(correct, attempted, attempted - ok, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace qps

int main(int argc, char** argv) {
  qps::perfbench::Args args;
  if (!qps::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: qps_perfbench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--source-id ID]\n");
    return 2;
  }
  return qps::perfbench::Run(args);
}
