#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include <sys/resource.h>

#include "checks.h"
#include "common/rng.h"
#include "common/timer.h"
#include "expr/datasets.h"
#include "expr/workload.h"
#include "index/index_builder.h"
#include "index/irr_index.h"
#include "index/rr_greedy.h"
#include "index/rr_index.h"
#include "net/router.h"
#include "net/shard_client.h"
#include "net/shard_server.h"
#include "net/wire_format.h"
#include "propagation/rr_sampler.h"
#include "sampling/wris_solver.h"
#include "serving/query_service.h"
#include "stats.h"
#include "storage/io_counter.h"
#include "topics/query_generator.h"
#include "trace.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using kbtim::Query;
using kbtim::QueryEngine;
using kbtim::SeedSetResult;
using kbtim::StatusOr;

enum class Kind { kIndex, kWris, kRouted };

struct WorkloadSpec {
  const char* name;
  Kind kind;
};

const WorkloadSpec kWorkloads[] = {
    {"warm_index", Kind::kIndex},
    {"online_wris", Kind::kWris},
    {"routed_rr", Kind::kRouted},
};

// Inputs and load shape shared by every workload. The README records why
// each value was chosen and how it relates to the cache and to capacity.
/// Twitter-like preset at this many vertices and topics.
constexpr uint32_t kVertices = 2500;
constexpr uint32_t kTopics = 8;
/// KeywordCache decoded-block budget: the whole decoded index fits.
constexpr uint64_t kCacheBytes = uint64_t{256} << 20;
/// Closed-loop clients, and QueryService workers (per shard when routed):
/// each client always finds a free worker.
constexpr uint32_t kClients = 2;
/// Index workload: open-loop rate, and the share of the run it lasts.
constexpr double kOfferedQps = 150.0;
constexpr double kOpenShare = 0.4;

/// ε of every engine: the index build and WRIS alike.
constexpr double kEpsilon = 0.5;
/// Index K (largest supported k) and the k of every query.
constexpr uint32_t kIndexK = 10;
constexpr uint32_t kQueryK = 5;
/// Pool: this many queries of each keyword count 1..6.
constexpr uint32_t kQueriesPerLength = 8;

/// The dataset (graph, profiles), the query pool and the index's RR
/// samples are generated from this fixed seed: they are the platform's
/// corpus and index, the same from run to run, so the spread between runs
/// is the program's, not the corpus's. (With a per-seed index, its size
/// and decoded working set moved by about 5% between seeds, and peak RSS
/// with them.) --seed drives everything random on top: the request order,
/// the WRIS solvers, the Monte-Carlo checks and the tiny-graph check.
constexpr uint64_t kCorpusSeed = 2015;

/// Full set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Forward Monte-Carlo cascades per spread estimate.
constexpr uint32_t kSpreadSimulations = 1024;
/// RR sets drawn when the traced run drives the sampler directly.
constexpr uint32_t kPropagationSets = 200000;

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + stream;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

/// User + system CPU seconds of every thread of the process so far.
double ProcessCpuSeconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

// ---- Set-up ----------------------------------------------------------------

/// Everything one set-up creates. Members are destroyed in reverse order:
/// the fleet and the service go before the dataset they point into.
struct Deployment {
  std::unique_ptr<kbtim::Environment> env;
  std::vector<Query> queries;
  std::string dir;
  uint64_t index_bytes = 0;
  uint64_t max_theta_w = 0;
  std::unique_ptr<kbtim::QueryService> service;
  std::vector<std::unique_ptr<kbtim::net::ShardServer>> shards;
  std::unique_ptr<kbtim::net::Router> router;
  std::optional<kbtim::RrIndex> rr;
  std::optional<kbtim::IrrIndex> irr;
  /// In-process RR answer per pool query (index and routed workloads):
  /// IRR must equal it (Theorem 3), routed must equal it.
  std::vector<SeedSetResult> reference;

  /// Process CPU seconds of each set-up phase. Time stolen from the
  /// host's vCPUs is not charged to the process, so these stay steady on
  /// a shared host where the wall-clock time does not.
  double dataset_s = 0.0;
  double build_s = 0.0;
  double open_s = 0.0;
  double warmup_s = 0.0;
  double total_s() const { return dataset_s + build_s + open_s + warmup_s; }
  double wall_s = 0.0;  ///< Wall-clock time of the whole set-up.
};

kbtim::QueryServiceOptions ServiceOptions(uint64_t seed) {
  kbtim::QueryServiceOptions so;
  so.num_workers = kClients;
  so.max_pending = 4096;
  so.cache.block_cache_bytes = kCacheBytes;
  so.scheduler.max_wris_workers = kClients;
  so.wris.epsilon = kEpsilon;
  so.wris.num_threads = 1;
  so.wris.seed = Mix(seed, 6);
  return so;
}

kbtim::OnlineSolverOptions StandaloneWrisOptions(uint64_t seed) {
  return ServiceOptions(seed).wris;
}

StatusOr<std::unique_ptr<Deployment>> SetUp(const WorkloadSpec& w,
                                            uint64_t seed,
                                            const std::string& dir) {
  auto d = std::make_unique<Deployment>();
  d->dir = dir;
  kbtim::WallTimer wall;
  double cpu_mark = ProcessCpuSeconds();
  auto lap = [&cpu_mark] {  // CPU seconds since the previous lap
    const double now = ProcessCpuSeconds();
    const double phase = now - cpu_mark;
    cpu_mark = now;
    return phase;
  };

  // Dataset: graph, profiles, tf-idf and IC weights, then the query pool.
  kbtim::DatasetSpec spec = kbtim::DefaultTwitterSpec(kTopics);
  spec.graph.num_vertices = kVertices;
  spec.graph.seed = Mix(kCorpusSeed, 1);
  spec.profiles.seed = Mix(kCorpusSeed, 2);
  KBTIM_ASSIGN_OR_RETURN(d->env, kbtim::Environment::Create(spec));
  kbtim::QueryGeneratorOptions qopts;
  qopts.queries_per_length = kQueriesPerLength;
  qopts.min_keywords = 1;
  qopts.max_keywords = 6;
  qopts.k = kQueryK;
  qopts.seed = Mix(kCorpusSeed, 3);
  KBTIM_ASSIGN_OR_RETURN(d->queries, d->env->Queries(qopts));
  d->dataset_s = lap();

  // A fresh index build into a private directory.
  kbtim::IndexBuildOptions bopts;
  bopts.epsilon = kEpsilon;
  bopts.max_k = kIndexK;
  bopts.partition_size = 100;
  bopts.num_threads = 2;
  bopts.seed = Mix(kCorpusSeed, 5);
  bopts.max_theta_per_keyword = uint64_t{1} << 26;
  bopts.opt_estimate.pilot_initial = 2048;
  kbtim::IndexBuilder builder(d->env->graph(), d->env->tfidf(),
                              d->env->ic_probs(), bopts);
  KBTIM_ASSIGN_OR_RETURN(kbtim::IndexBuildReport report, builder.Build(dir));
  for (uint64_t t : report.theta_per_topic) {
    d->max_theta_w = std::max(d->max_theta_w, t);
  }
  if (d->max_theta_w >= bopts.max_theta_per_keyword) {
    return kbtim::Status::FailedPrecondition(
        "index theta clipped; the guarantee the checks rely on is void");
  }
  d->build_s = lap();
  d->index_bytes = DirectoryBytes(dir);

  // Service or fleet start.
  const kbtim::QueryServiceOptions so = ServiceOptions(seed);
  switch (w.kind) {
    case Kind::kIndex: {
      KBTIM_ASSIGN_OR_RETURN(d->service, kbtim::QueryService::Create(dir, so));
      KBTIM_ASSIGN_OR_RETURN(kbtim::RrIndex rr,
                             kbtim::RrIndex::Open(d->service->cache()));
      KBTIM_ASSIGN_OR_RETURN(kbtim::IrrIndex irr,
                             kbtim::IrrIndex::Open(d->service->cache()));
      d->rr.emplace(std::move(rr));
      d->irr.emplace(std::move(irr));
      break;
    }
    case Kind::kWris: {
      kbtim::QueryService::OnlineBackend online;
      online.graph = &d->env->graph();
      online.tfidf = &d->env->tfidf();
      online.model = kbtim::PropagationModel::kIndependentCascade;
      online.in_edge_weights = &d->env->ic_probs();
      KBTIM_ASSIGN_OR_RETURN(d->service,
                             kbtim::QueryService::Create(dir, so, online));
      KBTIM_ASSIGN_OR_RETURN(kbtim::RrIndex rr, kbtim::RrIndex::Open(dir));
      d->rr.emplace(std::move(rr));
      break;
    }
    case Kind::kRouted: {
      // Two shards in this process on loopback, each over the full index
      // (keyword ownership is the router's affinity, not data placement).
      kbtim::net::ShardServerOptions sopts;
      sopts.service = so;
      std::vector<kbtim::net::ShardAddress> addrs;
      for (int s = 0; s < 2; ++s) {
        KBTIM_ASSIGN_OR_RETURN(auto shard,
                               kbtim::net::ShardServer::Start(dir, sopts));
        addrs.push_back({"127.0.0.1", shard->port()});
        d->shards.push_back(std::move(shard));
      }
      KBTIM_ASSIGN_OR_RETURN(d->router, kbtim::net::Router::Create(addrs));
      KBTIM_ASSIGN_OR_RETURN(kbtim::RrIndex rr, kbtim::RrIndex::Open(dir));
      d->rr.emplace(std::move(rr));
      break;
    }
  }
  d->open_s = lap();

  // Warm-up: one pass over the pool on every engine the load uses, plus
  // the in-process RR reference answers the load is checked against.
  if (w.kind != Kind::kWris) {
    for (const Query& q : d->queries) {
      KBTIM_ASSIGN_OR_RETURN(SeedSetResult ref, d->rr->Query(q));
      d->reference.push_back(std::move(ref));
    }
  }
  for (size_t i = 0; i < d->queries.size(); ++i) {
    const Query& q = d->queries[i];
    if (w.kind == Kind::kRouted) {
      KBTIM_RETURN_IF_ERROR(d->router->Query(q).status());
      continue;
    }
    kbtim::ServiceRequest req;
    req.query = q;
    if (w.kind == Kind::kWris) {
      if (i >= 4) break;  // a few solves size every slot's scratch
      req.engine = QueryEngine::kWris;
      KBTIM_RETURN_IF_ERROR(d->service->Execute(req).status());
      continue;
    }
    for (QueryEngine e : {QueryEngine::kIrr, QueryEngine::kRr}) {
      req.engine = e;
      KBTIM_RETURN_IF_ERROR(d->service->Execute(req).status());
    }
  }
  if (d->service != nullptr) {
    d->service->cache()->WaitForPrefetches();
    d->service->ResetLatencyWindow();
  }
  for (auto& shard : d->shards) shard->service().ResetLatencyWindow();
  d->warmup_s = lap();
  d->wall_s = wall.ElapsedSeconds();
  return d;
}

// ---- Load ----------------------------------------------------------------

/// What one load phase observed.
struct LoadStats {
  /// Latency of each answered request, by QueryEngine.
  std::vector<double> latencies_ms[3];
  double latency_sum_ms = 0.0;
  uint64_t latency_count = 0;
  /// Closed loop: when each successful request returned, in seconds from
  /// the start of the phase.
  std::vector<double> completions_s;
  double lag_sum_ms = 0.0;
  uint64_t lag_count = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  ///< First few reasons.
  std::map<size_t, SeedSetResult> first_answer;  ///< Pool index -> answer.

  void Fail(const std::string& why) {
    ++failed;
    if (failures.size() < 5) failures.push_back(why);
  }
  void AddLatency(QueryEngine engine, double ms) {
    latencies_ms[static_cast<size_t>(engine)].push_back(ms);
    latency_sum_ms += ms;
    ++latency_count;
  }
  void Merge(LoadStats&& o) {
    for (size_t e = 0; e < 3; ++e) {
      latencies_ms[e].insert(latencies_ms[e].end(), o.latencies_ms[e].begin(),
                             o.latencies_ms[e].end());
    }
    latency_sum_ms += o.latency_sum_ms;
    latency_count += o.latency_count;
    completions_s.insert(completions_s.end(), o.completions_s.begin(),
                         o.completions_s.end());
    attempted += o.attempted;
    failed += o.failed;
    for (auto& f : o.failures) {
      if (failures.size() < 5) failures.push_back(std::move(f));
    }
    for (auto& [i, r] : o.first_answer) first_answer.emplace(i, std::move(r));
  }
};

/// The request sequence: a seed-shuffled walk over the pool. Index
/// workloads alternate IRR and RR, as the repository's serving bench does;
/// the alternation flips on each pass over the pool, so every query runs
/// on both engines equally often.
class RequestMix {
 public:
  RequestMix(const WorkloadSpec& w, size_t pool, uint64_t seed) : w_(w) {
    order_.resize(pool);
    for (size_t i = 0; i < pool; ++i) order_[i] = i;
    kbtim::Rng rng(Mix(seed, 4));
    for (size_t i = pool; i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.NextU64Below(i)]);
    }
  }
  size_t QueryAt(uint64_t seq) const { return order_[seq % order_.size()]; }
  QueryEngine EngineAt(uint64_t seq) const {
    if (w_.kind == Kind::kWris) return QueryEngine::kWris;
    if (w_.kind == Kind::kRouted) return QueryEngine::kRr;
    return (seq + seq / order_.size()) % 2 == 0 ? QueryEngine::kIrr
                                                : QueryEngine::kRr;
  }

 private:
  const WorkloadSpec& w_;
  std::vector<size_t> order_;
};

std::string VerifyAnswer(const Deployment& d, size_t qi,
                         const StatusOr<SeedSetResult>& r) {
  if (!r.ok()) return r.status().ToString();
  std::string error =
      CheckAnswer(*r, d.queries[qi], d.env->graph().num_vertices());
  if (error.empty() && !d.reference.empty()) {
    error = CompareAnswers(*r, d.reference[qi]);
  }
  return error;
}

void Observe(const Deployment& d, size_t qi, StatusOr<SeedSetResult> r,
             bool keep_first, LoadStats* stats) {
  const std::string error = VerifyAnswer(d, qi, r);
  if (!error.empty()) {
    stats->Fail(error);
  } else if (keep_first && !stats->first_answer.count(qi)) {
    stats->first_answer.emplace(qi, std::move(*r));
  }
}

/// Open loop: one generator submits request i at its due time whatever
/// the state of earlier ones, and polls the outstanding futures between
/// submissions. Latency runs from the due time.
void RunOpenLoop(Deployment& d, const RequestMix& mix, double seconds,
                 Tracer& tracer, LoadStats* stats) {
  const Clock::time_point start = Clock::now();
  const OpenLoopSchedule schedule(start, kOfferedQps);
  const size_t total = schedule.DueBefore(
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds)));
  struct Outstanding {
    size_t seq;
    std::future<StatusOr<SeedSetResult>> future;
  };
  std::vector<Outstanding> outstanding;
  size_t next = 0;
  while (next < total || !outstanding.empty()) {
    Clock::time_point now = Clock::now();
    while (next < total && schedule.Due(next) <= now) {
      kbtim::ServiceRequest req;
      req.query = d.queries[mix.QueryAt(next)];
      req.engine = mix.EngineAt(next);
      stats->lag_sum_ms += Ms(now - schedule.Due(next));
      ++stats->lag_count;
      ++stats->attempted;
      outstanding.push_back({next, d.service->Submit(std::move(req))});
      ++next;
      now = Clock::now();
    }
    bool progressed = false;
    for (size_t i = 0; i < outstanding.size();) {
      auto& o = outstanding[i];
      if (o.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      const Clock::time_point done = Clock::now();
      stats->AddLatency(mix.EngineAt(o.seq), schedule.LatencyMs(o.seq, done));
      tracer.Record("load.request", tracer.NewRequest(), 0,
                    schedule.Due(o.seq), done);
      Observe(d, mix.QueryAt(o.seq), o.future.get(), false, stats);
      outstanding[i] = std::move(outstanding.back());
      outstanding.pop_back();
      progressed = true;
    }
    if (!progressed) {
      const Clock::duration poll = std::chrono::microseconds(50);
      Clock::duration wait = poll;
      if (next < total) wait = std::min(poll, schedule.Due(next) - now);
      if (wait > Clock::duration::zero()) std::this_thread::sleep_for(wait);
    }
  }
}

/// The closed loop is cut into this many equal slices; throughput and CPU
/// per query are medians over them, so a burst of interference in one
/// slice does not move the result.
constexpr int kThroughputSegments = 8;

/// Closed loop: kClients callers, each sending its next request when the
/// previous one returned. Latency runs from the call. This thread samples
/// the process CPU time at the slice boundaries and appends each slice's
/// CPU milliseconds per completed query to *cpu_ms_per_query.
void RunClosedLoop(Deployment& d, const WorkloadSpec& w, const RequestMix& mix,
                   double seconds, bool keep_first, Tracer& tracer,
                   LoadStats* stats, std::vector<double>* cpu_ms_per_query) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::mutex merge_mu;
  std::atomic<uint64_t> completed{0};
  std::vector<std::thread> clients;
  for (uint32_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      LoadStats local;
      // Clients start at spread-out offsets of the same sequence.
      uint64_t seq = uint64_t{c} * 7919;
      while (Clock::now() < end) {
        const size_t qi = mix.QueryAt(seq);
        const QueryEngine engine = mix.EngineAt(seq);
        ++seq;
        ++local.attempted;
        const uint64_t request = tracer.NewRequest();
        const Clock::time_point t0 = Clock::now();
        StatusOr<SeedSetResult> r = kbtim::Status::Internal("not run");
        if (w.kind == Kind::kRouted) {
          ScopedSpan span(tracer, "load.request", request);
          r = d.router->Query(d.queries[qi]);
        } else {
          ScopedSpan span(tracer, "load.request", request);
          kbtim::ServiceRequest req;
          req.query = d.queries[qi];
          req.engine = engine;
          r = d.service->Execute(std::move(req));
        }
        const Clock::time_point t1 = Clock::now();
        local.AddLatency(engine, Ms(t1 - t0));
        if (r.ok()) {
          local.completions_s.push_back(
              std::chrono::duration<double>(t1 - start).count());
          completed.fetch_add(1, std::memory_order_relaxed);
        }
        Observe(d, qi, std::move(r), keep_first, &local);
      }
      std::lock_guard<std::mutex> lock(merge_mu);
      stats->Merge(std::move(local));
    });
  }
  const Clock::duration slice = (end - start) / kThroughputSegments;
  double cpu = ProcessCpuSeconds();
  uint64_t done = 0;
  for (int i = 1; i <= kThroughputSegments; ++i) {
    std::this_thread::sleep_until(start + slice * i);
    const double cpu_now = ProcessCpuSeconds();
    const uint64_t done_now = completed.load(std::memory_order_relaxed);
    if (done_now > done) {
      cpu_ms_per_query->push_back((cpu_now - cpu) * 1e3 /
                                  static_cast<double>(done_now - done));
    }
    cpu = cpu_now;
    done = done_now;
  }
  for (auto& t : clients) t.join();
}

/// Closed-loop throughput: the median over the slices of the requests
/// completed in each, per second.
double SegmentedThroughput(const std::vector<double>& completions_s,
                           double seconds) {
  const double slice = seconds / kThroughputSegments;
  std::vector<double> counts(kThroughputSegments, 0.0);
  for (double t : completions_s) {
    const int s = static_cast<int>(t / slice);
    if (s >= 0 && s < kThroughputSegments) counts[s] += 1.0;
  }
  return Percentile(std::move(counts), 0.5) / slice;
}

// ---- Checks after the window ---------------------------------------------

struct CheckStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double spread_sum = 0.0;
  uint64_t spread_count = 0;
  std::vector<std::string> failures;
  void Fail(const std::string& why) {
    ++failed;
    if (failures.size() < 5) failures.push_back(why);
  }
};

/// Spread checks on the check subset (the first query of each keyword
/// count) and the tiny-graph guarantee check.
CheckStats RunChecks(Deployment& d, const WorkloadSpec& w, uint64_t seed,
                     const std::string& work_dir, LoadStats& load) {
  CheckStats out;
  const kbtim::Environment& env = *d.env;
  const SpreadOracle oracle(env.graph(), env.tfidf(), env.ic_probs(),
                            kSpreadSimulations, Mix(seed, 7));
  std::optional<kbtim::WrisSolver> wris;
  if (w.kind != Kind::kWris) {
    wris.emplace(env.graph(), env.tfidf(),
                 kbtim::PropagationModel::kIndependentCascade,
                 env.ic_probs(), StandaloneWrisOptions(seed));
  }
  for (size_t len = 0; len < 6; ++len) {
    const size_t qi = len * kQueriesPerLength;
    const Query& q = d.queries[qi];
    ++out.attempted;
    // The workload's own answer: the reference every timed answer was
    // checked equal to, or (WRIS) the first answer the load returned.
    std::optional<SeedSetResult> mine;
    if (w.kind != Kind::kWris) {
      mine = d.reference[qi];
    } else if (load.first_answer.count(qi)) {
      mine = load.first_answer[qi];
    } else {
      kbtim::ServiceRequest req;
      req.query = q;
      req.engine = QueryEngine::kWris;
      StatusOr<SeedSetResult> r = d.service->Execute(req);
      const std::string error = VerifyAnswer(d, qi, r);
      if (!error.empty()) {
        out.Fail("wris: " + error);
        continue;
      }
      mine = std::move(*r);
    }
    // Another engine's answer to the same query.
    StatusOr<SeedSetResult> other =
        wris.has_value() ? wris->Solve(q) : d.rr->Query(q);

    const std::string error =
        other.ok() ? CheckAnswer(*other, q, env.graph().num_vertices())
                   : other.status().ToString();
    if (!error.empty()) {
      out.Fail("other engine: " + error);
      continue;
    }
    const SpreadEstimate f_mine = oracle.Estimate(q, mine->seeds);
    const SpreadEstimate f_other = oracle.Estimate(q, other->seeds);
    out.spread_sum += f_mine.mean;
    ++out.spread_count;
    for (const std::string& e :
         {CheckSpreadAgrees(mine->estimated_influence, f_mine, kEpsilon),
          CheckSpreadAgrees(other->estimated_influence, f_other, kEpsilon),
          CheckApproximates(f_mine, f_other, kEpsilon),
          CheckApproximates(f_other, f_mine, kEpsilon)}) {
      if (!e.empty()) {
        out.Fail("spread: " + e);
        break;
      }
    }
  }
  for (const EngineVerdict& v : TinyGraphGuarantee(seed, work_dir)) {
    ++out.attempted;
    if (!v.error.empty()) out.Fail("tiny graph " + v.engine + ": " + v.error);
  }
  return out;
}

// ---- Traced replay ---------------------------------------------------------

/// Process-wide counters snapshotted around one span.
struct Counters {
  kbtim::IoStats io;
  kbtim::KeywordCacheStats cache;
};

Counters Snap(const kbtim::KeywordCache* cache) {
  Counters c;
  c.io = kbtim::IoCounter::Snapshot();
  if (cache != nullptr) c.cache = cache->stats();
  return c;
}

std::vector<std::pair<std::string, double>> Delta(const Counters& a,
                                                  const Counters& b) {
  auto d = [](uint64_t x, uint64_t y) { return static_cast<double>(y - x); };
  return {{"io_reads", d(a.io.read_ops, b.io.read_ops)},
          {"io_bytes", d(a.io.read_bytes, b.io.read_bytes)},
          {"cache_hits", d(a.cache.hits, b.cache.hits)},
          {"cache_misses", d(a.cache.misses, b.cache.misses)},
          {"cache_evictions", d(a.cache.evictions, b.cache.evictions)},
          {"crc_checks", d(a.cache.crc_checks, b.cache.crc_checks)},
          {"prefetches_issued",
           d(a.cache.prefetches_issued, b.cache.prefetches_issued)},
          {"prefetches_served",
           d(a.cache.prefetches_served, b.cache.prefetches_served)}};
}

/// One IrrIndex::Query or RrIndex::Query in a span carrying the cache and
/// I/O counts it caused (trailing prefetch reads included).
StatusOr<SeedSetResult> TracedQuery(const char* span, const Query& q,
                                    const kbtim::IrrIndex* irr,
                                    const kbtim::RrIndex* rr,
                                    uint64_t request, Tracer& tracer) {
  kbtim::KeywordCache* cache =
      irr != nullptr ? irr->cache().get() : rr->cache().get();
  const Counters before = Snap(cache);
  const Clock::time_point t0 = Clock::now();
  StatusOr<SeedSetResult> r = irr != nullptr ? irr->Query(q) : rr->Query(q);
  const Clock::time_point t1 = Clock::now();
  cache->WaitForPrefetches();
  auto counts = Delta(before, Snap(cache));
  if (r.ok()) {
    counts.emplace_back("rr_sets_loaded",
                        static_cast<double>(r->stats.rr_sets_loaded));
  }
  tracer.Record(span, request, 0, t0, t1, std::move(counts));
  return r;
}

/// RR decomposed under one parent span: the budget, one block load per
/// keyword (storage.block_load on a cache miss, index.cache_lookup on a
/// hit) and RunRrGreedy over the loaded blocks.
StatusOr<SeedSetResult> DecomposedRr(const kbtim::RrIndex& rr, const Query& q,
                                     uint64_t request, Tracer& tracer) {
  kbtim::KeywordCache* cache = rr.cache().get();
  ScopedSpan parent(tracer, "index.rr_decomposed", request);
  KBTIM_ASSIGN_OR_RETURN(kbtim::QueryBudget budget,
                         kbtim::ComputeQueryBudget(rr.meta(), q));
  std::unordered_map<kbtim::TopicId,
                     std::shared_ptr<const kbtim::RrKeywordBlock>>
      loaded;
  for (const auto& [topic, tw] : budget.per_keyword) {
    if (tw == 0) continue;
    const Counters before = Snap(cache);
    const Clock::time_point t0 = Clock::now();
    auto block = cache->GetRrKeyword(topic, tw);
    const Clock::time_point t1 = Clock::now();
    const Counters after = Snap(cache);
    KBTIM_RETURN_IF_ERROR(block.status());
    const bool miss = after.cache.misses > before.cache.misses;
    tracer.Record(miss ? "storage.block_load" : "index.cache_lookup", request,
                  parent.id(), t0, t1, Delta(before, after));
    loaded.emplace(topic, std::move(*block));
  }
  ScopedSpan span(tracer, "index.greedy", request, parent.id());
  return kbtim::RunRrGreedy(q, budget, loaded, rr.meta().num_vertices);
}

/// Index and storage layers, one pass over the pool. First touch: each
/// query on a fresh cache (nothing resident), so every block it needs is
/// read, CRC-checked and decoded. Steady state: the same query on the
/// service's cache, as the load saw it.
void ReplayIndex(Deployment& d, uint64_t seed, Tracer& tracer,
                 std::vector<std::string>* bad) {
  const kbtim::KeywordCacheOptions cache_options = ServiceOptions(seed).cache;
  auto check = [&](const char* what, size_t qi,
                   const StatusOr<SeedSetResult>& r) {
    const std::string error = VerifyAnswer(d, qi, r);
    if (!error.empty()) bad->push_back(std::string(what) + ": " + error);
  };
  for (size_t qi = 0; qi < d.queries.size(); ++qi) {
    const Query& q = d.queries[qi];
    const uint64_t request = tracer.NewRequest();
    auto fresh = [&]() { return kbtim::KeywordCache::Create(d.dir, cache_options); };
    auto c1 = fresh();
    auto c2 = fresh();
    auto c3 = fresh();
    if (!c1.ok() || !c2.ok() || !c3.ok()) {
      bad->push_back("cannot open a fresh cache");
      return;
    }
    auto irr = kbtim::IrrIndex::Open(*c1);
    auto rr = kbtim::RrIndex::Open(*c2);
    auto rr_parts = kbtim::RrIndex::Open(*c3);
    if (!irr.ok() || !rr.ok() || !rr_parts.ok()) {
      bad->push_back("cannot open index handles");
      return;
    }
    check("first-touch irr", qi,
          TracedQuery("storage.cold_irr_query", q, &*irr, nullptr, request,
                      tracer));
    check("first-touch rr", qi,
          TracedQuery("storage.cold_rr_query", q, nullptr, &*rr, request,
                      tracer));
    check("first-touch decomposed rr", qi,
          DecomposedRr(*rr_parts, q, request, tracer));

    check("irr", qi,
          TracedQuery("index.irr_query", q, &*d.irr, nullptr, request, tracer));
    check("rr", qi,
          TracedQuery("index.rr_query", q, nullptr, &*d.rr, request, tracer));
    check("decomposed rr", qi, DecomposedRr(*d.rr, q, request, tracer));
  }
}

/// Net layer, one pass over the pool: Router::Query with its scatter and
/// hedge counts, then the same gather replayed by hand — one
/// ShardClient::FetchRr per owning shard, the response encode, frame and
/// decode replayed on its result, and RunRrGreedy over the blocks.
void ReplayRouted(Deployment& d, Tracer& tracer,
                  std::vector<std::string>* bad) {
  std::vector<std::unique_ptr<kbtim::net::ShardClient>> clients;
  for (const auto& shard : d.shards) {
    clients.push_back(
        std::make_unique<kbtim::net::ShardClient>("127.0.0.1", shard->port()));
  }
  kbtim::KeywordCache* ref_cache = d.rr->cache().get();
  for (size_t qi = 0; qi < d.queries.size(); ++qi) {
    const Query& q = d.queries[qi];
    const uint64_t request = tracer.NewRequest();
    {
      const kbtim::net::RouterStats before = d.router->stats();
      ScopedSpan span(tracer, "net.route", request);
      StatusOr<SeedSetResult> r = d.router->Query(q);
      span.End();
      const kbtim::net::RouterStats after = d.router->stats();
      span.Count("scatter_rpcs",
                 static_cast<double>(after.scatter_rpcs - before.scatter_rpcs));
      span.Count("hedged_rpcs",
                 static_cast<double>(after.hedged_rpcs - before.hedged_rpcs));
      const std::string error = VerifyAnswer(d, qi, r);
      if (!error.empty()) bad->push_back("replay routed: " + error);
    }
    {
      // The in-process RR query the routed answer must equal.
      const Counters before = Snap(ref_cache);
      const Clock::time_point t0 = Clock::now();
      StatusOr<SeedSetResult> r = d.rr->Query(q);
      const Clock::time_point t1 = Clock::now();
      auto counts = Delta(before, Snap(ref_cache));
      if (r.ok()) {
        counts.emplace_back("rr_sets_loaded",
                            static_cast<double>(r->stats.rr_sets_loaded));
      }
      tracer.Record("index.rr_query", request, 0, t0, t1, std::move(counts));
    }

    ScopedSpan gather(tracer, "net.gather", request);
    StatusOr<kbtim::QueryBudget> budget =
        kbtim::ComputeQueryBudget(d.router->meta(), q);
    if (!budget.ok()) {
      bad->push_back(budget.status().ToString());
      continue;
    }
    std::map<uint32_t, kbtim::RrFetchRequest> by_shard;
    for (const auto& [topic, tw] : budget->per_keyword) {
      if (tw == 0) continue;
      kbtim::RrFetchRequest& f = by_shard[d.router->ReplicasOf(topic)[0]];
      f.topics.push_back(topic);
      f.budgets.push_back(tw);
    }
    std::unordered_map<kbtim::TopicId,
                       std::shared_ptr<const kbtim::RrKeywordBlock>>
        loaded;
    double wire_bytes = 0.0;
    for (const auto& [shard, fetch] : by_shard) {
      StatusOr<kbtim::RrFetchResult> result =
          kbtim::Status::Internal("not fetched");
      {
        ScopedSpan span(tracer, "net.fetch_rpc", request, gather.id());
        result = clients[shard]->FetchRr(fetch);
      }
      if (!result.ok() || !result->dropped.empty()) {
        bad->push_back("fetch failed or dropped keywords");
        continue;
      }
      std::string payload;
      {
        ScopedSpan span(tracer, "net.encode", request, gather.id());
        payload = kbtim::net::EncodeFetchResponse(*result);
      }
      {
        ScopedSpan span(tracer, "net.frame", request, gather.id());
        const std::string frame = kbtim::net::EncodeFrame(
            kbtim::net::MsgType::kFetchResponse, payload);
        wire_bytes += static_cast<double>(frame.size());
      }
      StatusOr<kbtim::RrFetchResult> decoded =
          kbtim::Status::Internal("not decoded");
      {
        ScopedSpan span(tracer, "net.decode", request, gather.id());
        decoded = kbtim::net::DecodeFetchResponse(payload);
      }
      if (!decoded.ok()) {
        bad->push_back(decoded.status().ToString());
        continue;
      }
      for (size_t i = 0; i < fetch.topics.size(); ++i) {
        loaded.emplace(fetch.topics[i], decoded->blocks[i]);
      }
    }
    gather.Count("wire_bytes", wire_bytes);
    SeedSetResult r;
    {
      ScopedSpan span(tracer, "index.greedy", request, gather.id());
      r = kbtim::RunRrGreedy(q, *budget, loaded, d.router->meta().num_vertices);
    }
    const std::string error = CompareAnswers(r, d.reference[qi]);
    if (!error.empty()) bad->push_back("replayed gather: " + error);
  }
}

/// Sampling and coverage layers: WrisSolver::Solve on the check subset,
/// with the solver's own θ, sampling and max-cover times as counts.
void ReplayWris(Deployment& d, uint64_t seed, Tracer& tracer,
                std::vector<std::string>* bad) {
  const kbtim::Environment& env = *d.env;
  const kbtim::WrisSolver solver(env.graph(), env.tfidf(),
                                 kbtim::PropagationModel::kIndependentCascade,
                                 env.ic_probs(), StandaloneWrisOptions(seed));
  for (size_t len = 0; len < 6; ++len) {
    const size_t qi = len * kQueriesPerLength;
    ScopedSpan span(tracer, "sampling.solve", tracer.NewRequest());
    StatusOr<SeedSetResult> r = solver.Solve(d.queries[qi]);
    span.End();
    if (!r.ok()) {
      bad->push_back(r.status().ToString());
      continue;
    }
    span.Count("theta", static_cast<double>(r->stats.theta));
    span.Count("sampling_ms", r->stats.sampling_seconds * 1e3);
    span.Count("greedy_ms", r->stats.greedy_seconds * 1e3);
  }
}

/// Propagation layer: the RR sampler the solvers and the builder share,
/// driven directly from uniform roots.
void ReplayPropagation(Deployment& d, uint64_t seed, Tracer& tracer) {
  const kbtim::Environment& env = *d.env;
  auto sampler = kbtim::MakeRrSampler(
      kbtim::PropagationModel::kIndependentCascade, env.graph(),
      env.ic_probs());
  kbtim::Rng rng(Mix(seed, 8));
  std::vector<kbtim::VertexId> set;
  double total = 0.0;
  ScopedSpan span(tracer, "propagation.sample", tracer.NewRequest());
  for (uint32_t i = 0; i < kPropagationSets; ++i) {
    sampler->Sample(rng.NextU32Below(env.graph().num_vertices()), rng, &set);
    total += static_cast<double>(set.size());
  }
  span.End();
  span.Count("sets", kPropagationSets);
  span.Count("vertices", total);
}

// ---- Metrics ---------------------------------------------------------------

const char* const kPerLayer[][2] = {
    {"serving.queue_ms", "ms"},         {"serving.exec_ms", "ms"},
    {"serving.rr_batched_share", "ratio"}, {"serving.rr_queries", "count"},
    {"index.irr_query_ms", "ms"},       {"index.rr_query_ms", "ms"},
    {"index.greedy_ms", "ms"},          {"index.rr_sets_loaded", "count"},
    {"index.cache_hits", "count"},      {"index.cache_misses", "count"},
    {"index.cache_evictions", "count"}, {"index.prefetch_useful", "ratio"},
    {"index.prefetches_issued", "count"}, {"storage.io_reads", "count"},
    {"storage.io_bytes", "bytes"},      {"storage.crc_checks", "count"},
    {"storage.block_load_ms", "ms"},    {"propagation.rr_sets_per_s", "1/s"},
    {"propagation.mean_rr_set_size", "vertices"}, {"sampling.theta", "count"},
    {"sampling.sampling_ms", "ms"},     {"coverage.greedy_ms", "ms"},
    {"net.fetch_rpc_ms", "ms"},         {"net.wire_bytes", "bytes"},
    {"net.encode_ms", "ms"},            {"net.frame_ms", "ms"},
    {"net.decode_ms", "ms"},            {"net.scatter_rpcs", "count"},
    {"net.hedged_rpcs", "count"},       {"setup.dataset_s", "s"},
    {"setup.index_build_s", "s"},       {"setup.open_s", "s"},
    {"setup.warmup_s", "s"},            {"loadgen.lag_ms", "ms"},
    {"trace.p50_ms", "ms"},
};

/// Per-layer values from the aggregated spans. A layer the workload does
/// not exercise reads 0.
std::map<std::string, double> LayerValues(
    const std::map<std::string, SpanAggregate>& agg) {
  std::map<std::string, double> v;
  auto mean_ms = [&](const char* span) {
    auto it = agg.find(span);
    return it == agg.end() ? 0.0 : it->second.mean_self_ms;
  };
  // Mean of a count over the spans of several names, weighted by spans.
  auto mean_count = [&](std::initializer_list<const char*> spans,
                        const char* count) {
    double sum = 0.0;
    double n = 0.0;
    for (const char* s : spans) {
      auto it = agg.find(s);
      if (it == agg.end()) continue;
      const double k = static_cast<double>(it->second.spans);
      auto c = it->second.mean_counts.find(count);
      if (c != it->second.mean_counts.end()) sum += c->second * k;
      n += k;
    }
    return n > 0.0 ? sum / n : 0.0;
  };
  const auto queries = {"index.irr_query", "index.rr_query"};
  const auto cold_queries = {"storage.cold_irr_query",
                             "storage.cold_rr_query"};
  v["index.irr_query_ms"] = mean_ms("index.irr_query");
  v["index.rr_query_ms"] = mean_ms("index.rr_query");
  v["index.greedy_ms"] = mean_ms("index.greedy");
  v["index.rr_sets_loaded"] = mean_count(queries, "rr_sets_loaded");
  v["index.cache_hits"] = mean_count(queries, "cache_hits");
  v["index.cache_misses"] = mean_count(queries, "cache_misses");
  v["index.cache_evictions"] = mean_count(queries, "cache_evictions");
  // Prefetch works on the read path, so it is judged on first touch. A
  // prefetch is useful when the query later asks for its partition: while
  // still in flight (served) or after it landed (a hit). On a fresh cache
  // NRA asks for each partition once, so every IRR hit there is a landed
  // prefetch.
  const auto cold_irr = {"storage.cold_irr_query"};
  const double issued = mean_count(cold_irr, "prefetches_issued");
  const double useful = mean_count(cold_irr, "prefetches_served") +
                        mean_count(cold_irr, "cache_hits");
  v["index.prefetches_issued"] = issued;
  v["index.prefetch_useful"] = issued > 0.0 ? useful / issued : 0.0;
  v["storage.io_reads"] = mean_count(cold_queries, "io_reads");
  v["storage.io_bytes"] = mean_count(cold_queries, "io_bytes");
  v["storage.crc_checks"] = mean_count(cold_queries, "crc_checks");
  v["storage.block_load_ms"] = mean_ms("storage.block_load");
  auto prop = agg.find("propagation.sample");
  if (prop != agg.end() && prop->second.mean_ms > 0.0) {
    const double sets = prop->second.mean_counts.at("sets");
    v["propagation.rr_sets_per_s"] = sets / (prop->second.mean_ms * 1e-3);
    v["propagation.mean_rr_set_size"] =
        prop->second.mean_counts.at("vertices") / sets;
  }
  v["sampling.theta"] = mean_count({"sampling.solve"}, "theta");
  v["sampling.sampling_ms"] = mean_count({"sampling.solve"}, "sampling_ms");
  v["coverage.greedy_ms"] = mean_count({"sampling.solve"}, "greedy_ms");
  v["net.fetch_rpc_ms"] = mean_ms("net.fetch_rpc");
  v["net.encode_ms"] = mean_ms("net.encode");
  v["net.frame_ms"] = mean_ms("net.frame");
  v["net.decode_ms"] = mean_ms("net.decode");
  v["net.wire_bytes"] = mean_count({"net.gather"}, "wire_bytes");
  v["net.scatter_rpcs"] = mean_count({"net.route"}, "scatter_rpcs");
  v["net.hedged_rpcs"] = mean_count({"net.route"}, "hedged_rpcs");
  return v;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : kWorkloads) names.push_back(w.name);
  return names;
}

StatusOr<RunOutcome> RunWorkload(const RunConfig& config) {
  const WorkloadSpec* spec = FindWorkload(config.workload);
  if (spec == nullptr) {
    return kbtim::Status::InvalidArgument("unknown workload " +
                                          config.workload);
  }
  const WorkloadSpec& w = *spec;
  Tracer tracer(config.trace);
  RunOutcome out;

  // The first set-up serves the run. The other kSetupRepeats - 1 are made
  // after the load and its checks, only to time them: what a torn-down
  // deployment leaves in the allocator's arenas then cannot count toward
  // peak_rss_mb.
  std::vector<double> setup_total, setup_dataset, setup_build, setup_open,
      setup_warmup, setup_wall;
  auto set_up = [&](int r) -> StatusOr<std::unique_ptr<Deployment>> {
    const std::string dir = config.work_dir + "/index" + std::to_string(r);
    ScopedSpan span(tracer, "setup", tracer.NewRequest());
    KBTIM_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d,
                           SetUp(w, config.seed, dir));
    span.End();
    setup_total.push_back(d->total_s());
    setup_dataset.push_back(d->dataset_s);
    setup_build.push_back(d->build_s);
    setup_open.push_back(d->open_s);
    setup_warmup.push_back(d->warmup_s);
    setup_wall.push_back(d->wall_s);
    return d;
  };
  auto tear_down = [](std::unique_ptr<Deployment> d) {
    const std::string dir = d->dir;
    d.reset();
    std::filesystem::remove_all(dir);
  };
  KBTIM_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d, set_up(0));

  // Timed window.
  const RequestMix mix(w, d->queries.size(), config.seed);
  kbtim::ServiceStats svc_before;
  if (d->service != nullptr) svc_before = d->service->stats();
  // Index workloads: open-loop latency, then closed-loop throughput.
  // The others: one closed loop gives both.
  LoadStats open;
  LoadStats load;
  const kbtim::IoStats io_before = kbtim::IoCounter::Snapshot();
  const double open_s =
      w.kind == Kind::kIndex ? config.seconds * kOpenShare : 0.0;
  if (open_s > 0.0) RunOpenLoop(*d, mix, open_s, tracer, &open);
  std::vector<double> cpu_ms_per_query;
  RunClosedLoop(*d, w, mix, config.seconds - open_s, w.kind == Kind::kWris,
                tracer, &load, &cpu_ms_per_query);
  const double qps =
      SegmentedThroughput(load.completions_s, config.seconds - open_s);
  const QueryEngine primary = w.kind == Kind::kIndex  ? QueryEngine::kIrr
                              : w.kind == Kind::kWris ? QueryEngine::kWris
                                                      : QueryEngine::kRr;
  const LatencySummary lat = Summarize(
      (open_s > 0.0 ? open : load).latencies_ms[static_cast<size_t>(primary)]);
  const double lag_ms =
      open.lag_count > 0 ? open.lag_sum_ms / static_cast<double>(open.lag_count)
                         : 0.0;
  load.Merge(std::move(open));
  const kbtim::IoStats io_window = kbtim::IoCounter::Snapshot() - io_before;
  kbtim::ServiceStats svc_after;
  if (d->service != nullptr) {
    svc_after = d->service->stats();
    const kbtim::KeywordCacheStats cs = d->service->cache()->stats();
    char cache_note[256];
    std::snprintf(cache_note, sizeof(cache_note),
                  "cache budget %llu bytes, %llu resident, %llu evictions; "
                  "window read ops %llu",
                  static_cast<unsigned long long>(kCacheBytes),
                  static_cast<unsigned long long>(cs.bytes_cached),
                  static_cast<unsigned long long>(cs.evictions),
                  static_cast<unsigned long long>(io_window.read_ops));
    out.notes.push_back(cache_note);
  }

  if (w.kind == Kind::kIndex && io_window.read_ops != 0) {
    out.correct = false;
    out.notes.push_back("warm window performed " +
                        std::to_string(io_window.read_ops) + " read ops");
  }

  kbtim::WallTimer check_timer;
  CheckStats checks = RunChecks(*d, w, config.seed, config.work_dir, load);
  out.notes.push_back("check phase took " +
                      std::to_string(check_timer.ElapsedSeconds()) + " s");
  out.attempted = load.attempted + checks.attempted;
  out.failed = load.failed + checks.failed;
  for (const auto& f : load.failures) out.notes.push_back("failed: " + f);
  for (const auto& f : checks.failures) out.notes.push_back("failed: " + f);

  // Wall-clock latency and throughput, printed on every run but not
  // bounded: on a shared host they move with CPU steal (README).
  char note[512];
  std::snprintf(note, sizeof(note),
                "wall clock: p50 %.3f ms, p%g %.3f ms, highest supported "
                "tail p%g %.3f ms (%zu samples), qps %.1f",
                lat.p50_ms, lat.p90_quantile * 100.0, lat.p90_ms,
                lat.tail_quantile * 100.0, lat.tail_ms, lat.samples, qps);
  out.notes.push_back(note);
  std::snprintf(note, sizeof(note),
                "pool %zu queries; max theta_w %llu; index %llu bytes",
                d->queries.size(),
                static_cast<unsigned long long>(d->max_theta_w),
                static_cast<unsigned long long>(d->index_bytes));
  out.notes.push_back(note);

  // Traced run: replay each exercised layer, then aggregate the spans.
  std::map<std::string, double> v;
  if (config.trace) {
    std::vector<std::string> bad;
    if (w.kind == Kind::kIndex) ReplayIndex(*d, config.seed, tracer, &bad);
    if (w.kind == Kind::kRouted) ReplayRouted(*d, tracer, &bad);
    if (w.kind == Kind::kWris) ReplayWris(*d, config.seed, tracer, &bad);
    ReplayPropagation(*d, config.seed, tracer);
    if (!bad.empty()) {
      out.correct = false;
      for (size_t i = 0; i < bad.size() && i < 5; ++i) {
        out.notes.push_back("replay check failed: " + bad[i]);
      }
    }
    v = LayerValues(AggregateSpans(tracer.spans()));
    if (d->service != nullptr) {
      v["serving.queue_ms"] = svc_after.mean_queue_ms;
      const double mean_latency =
          load.latency_count > 0
              ? load.latency_sum_ms / static_cast<double>(load.latency_count)
              : 0.0;
      v["serving.exec_ms"] = mean_latency - svc_after.mean_queue_ms;
      const double rr = static_cast<double>(svc_after.rr_queries -
                                            svc_before.rr_queries);
      v["serving.rr_queries"] = rr;
      v["serving.rr_batched_share"] =
          rr > 0.0 ? static_cast<double>(svc_after.rr_batched_queries -
                                         svc_before.rr_batched_queries) /
                         rr
                   : 0.0;
    } else {
      // Routed: the shards' services serve the fetches; their median fetch
      // time (Submit to resolution) stands for the execution time.
      double queue = 0.0;
      double exec = 0.0;
      for (auto& shard : d->shards) {
        const kbtim::ServiceStats s = shard->service().stats();
        queue += s.mean_queue_ms;
        exec += s.p50_ms;
      }
      const double n = static_cast<double>(d->shards.size());
      v["serving.queue_ms"] = queue / n;
      v["serving.exec_ms"] = exec / n;
    }
  }

  const double peak_rss_mb = PeakRssMb();
  const double index_bytes = static_cast<double>(d->index_bytes);
  tear_down(std::move(d));
  for (int r = 1; r < kSetupRepeats; ++r) {
    KBTIM_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> timed, set_up(r));
    tear_down(std::move(timed));
  }
  std::snprintf(note, sizeof(note),
                "set-up: median %.3f CPU s, %.3f wall s over %d set-ups",
                Median(setup_total), Median(setup_wall), kSetupRepeats);
  out.notes.push_back(note);

  if (!config.trace) {
    const double spread = checks.spread_count > 0
                              ? checks.spread_sum /
                                    static_cast<double>(checks.spread_count)
                              : 0.0;
    out.metrics = {
        {"setup_s", Median(setup_total), "s"},
        {"index_bytes", index_bytes, "bytes"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"cpu_ms_per_query", Median(cpu_ms_per_query), "ms"},
        {"targeted_spread", spread, "influence"},
    };
    return out;
  }

  v["setup.dataset_s"] = Median(setup_dataset);
  v["setup.index_build_s"] = Median(setup_build);
  v["setup.open_s"] = Median(setup_open);
  v["setup.warmup_s"] = Median(setup_warmup);
  v["loadgen.lag_ms"] = lag_ms;
  v["trace.p50_ms"] = lat.p50_ms;
  for (const auto& [name, unit] : kPerLayer) {
    out.metrics.push_back({name, v.count(name) ? v[name] : 0.0, unit});
  }
  if (!config.trace_path.empty() && !tracer.WriteJsonLines(config.trace_path)) {
    out.notes.push_back("could not write " + config.trace_path);
  }
  return out;
}

}  // namespace perfbench
