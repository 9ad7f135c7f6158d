#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <unordered_set>

#include "graph/generators.h"
#include "index/index_builder.h"
#include "index/irr_index.h"
#include "index/rr_index.h"
#include "propagation/exact_spread.h"
#include "propagation/forward_simulator.h"
#include "sampling/wris_solver.h"
#include "topics/profile_generator.h"

namespace perfbench {

using kbtim::Query;
using kbtim::SeedSetResult;
using kbtim::VertexId;

namespace {

std::string Fmt(const char* fmt, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

/// 1 − 1/e − ε: the approximation factor every engine guarantees.
double GuaranteeFactor(double epsilon) {
  return 1.0 - 1.0 / std::exp(1.0) - epsilon;
}

}  // namespace

std::string CheckAnswer(const SeedSetResult& answer, const Query& query,
                        VertexId num_vertices) {
  if (answer.seeds.size() != query.k) {
    return Fmt("%g seeds for k=%g", static_cast<double>(answer.seeds.size()),
               query.k);
  }
  std::unordered_set<VertexId> seen;
  for (VertexId v : answer.seeds) {
    if (v >= num_vertices) return Fmt("seed %g out of range", v);
    if (!seen.insert(v).second) return Fmt("seed %g repeated", v);
  }
  if (answer.marginal_gains.size() != answer.seeds.size()) {
    return "marginal gains not aligned with seeds";
  }
  double sum = 0.0;
  for (size_t i = 0; i < answer.marginal_gains.size(); ++i) {
    const double g = answer.marginal_gains[i];
    if (!(g >= 0.0)) return Fmt("negative gain %g at %g", g, i);
    if (i > 0 && g > answer.marginal_gains[i - 1]) {
      return Fmt("gain rises at position %g: %g > %g", i, g,
                 answer.marginal_gains[i - 1]);
    }
    sum += g;
  }
  const double est = answer.estimated_influence;
  if (std::fabs(sum - est) > 1e-9 * std::max(1.0, std::fabs(est))) {
    return Fmt("gains sum to %g, estimated_influence %g", sum, est);
  }
  if (answer.degraded || !answer.dropped_keywords.empty()) {
    return "degraded answer without any fault";
  }
  return "";
}

std::string CompareAnswers(const SeedSetResult& got,
                           const SeedSetResult& want) {
  if (got.seeds != want.seeds) return "seeds differ";
  if (got.marginal_gains != want.marginal_gains) return "gains differ";
  if (got.estimated_influence != want.estimated_influence) {
    return Fmt("influence %g vs %g", got.estimated_influence,
               want.estimated_influence);
  }
  return "";
}

SpreadEstimate SpreadOracle::Estimate(
    const Query& query, const std::vector<VertexId>& seeds) const {
  std::vector<double> phi(graph_.num_vertices(), 0.0);
  for (const auto& [v, w] : tfidf_.SparsePhi(query)) phi[v] = w;
  const kbtim::ForwardSimulator sim(
      graph_, kbtim::PropagationModel::kIndependentCascade, ic_probs_);
  double batch_mean[kBatches];
  double mean = 0.0;
  for (uint32_t b = 0; b < kBatches; ++b) {
    kbtim::SpreadEstimateOptions opts;
    opts.num_simulations = simulations_ / kBatches;
    opts.num_threads = 1;
    opts.seed = seed_ * 1000003 + b;
    batch_mean[b] = sim.EstimateWeightedSpread(seeds, phi, opts);
    mean += batch_mean[b];
  }
  mean /= kBatches;
  double var = 0.0;
  for (double m : batch_mean) var += (m - mean) * (m - mean);
  var /= kBatches - 1;
  return {mean, std::sqrt(var / kBatches)};
}

std::string CheckSpreadAgrees(double estimated_influence,
                              const SpreadEstimate& forward, double epsilon) {
  const double tol =
      epsilon * std::max(estimated_influence, forward.mean) +
      kSpreadZ * forward.stderr_;
  if (std::fabs(estimated_influence - forward.mean) > tol) {
    return Fmt("estimate %g vs forward spread %g (tolerance %g)",
               estimated_influence, forward.mean, tol);
  }
  return "";
}

std::string CheckApproximates(const SpreadEstimate& a,
                              const SpreadEstimate& b, double epsilon) {
  const double floor = GuaranteeFactor(epsilon) * b.mean -
                       kSpreadZ * std::hypot(a.stderr_, b.stderr_);
  if (a.mean < floor) {
    return Fmt("spread %g below (1-1/e-eps) x %g", a.mean, b.mean);
  }
  return "";
}

std::vector<EngineVerdict> TinyGraphGuarantee(uint64_t seed,
                                              const std::string& work_dir) {
  constexpr double kEpsilon = 0.3;
  constexpr uint32_t kK = 2;
  std::vector<EngineVerdict> out;
  auto fail_all = [&](const std::string& why) {
    for (const char* e : {"rr", "irr", "wris"}) out.push_back({e, why});
    return out;
  };

  // A graph small enough to enumerate every live-edge world: redraw
  // (deterministically from `seed`) until it has 6..14 edges.
  kbtim::SocialGraphOptions gopts;
  gopts.num_vertices = 11;
  gopts.avg_degree = 1.5;
  gopts.num_communities = 2;
  kbtim::StatusOr<kbtim::SocialGraph> sg =
      kbtim::Status::Internal("no tiny graph drawn");
  for (uint64_t attempt = 0; attempt < 64; ++attempt) {
    gopts.seed = seed * 131 + attempt;
    sg = kbtim::GenerateSocialGraph(gopts);
    if (sg.ok() && sg->graph.num_edges() >= 6 &&
        sg->graph.num_edges() <= 14) {
      break;
    }
  }
  if (!sg.ok()) return fail_all(sg.status().ToString());
  const kbtim::Graph& graph = sg->graph;
  const std::vector<float> probs = kbtim::UniformIcProbabilities(graph);

  kbtim::ProfileGeneratorOptions popts;
  popts.num_topics = 3;
  popts.mean_topics_per_user = 2.0;
  popts.seed = seed + 1;
  auto profiles =
      kbtim::GenerateProfiles(graph.num_vertices(), sg->community, popts);
  if (!profiles.ok()) return fail_all(profiles.status().ToString());
  const kbtim::TfIdfModel tfidf(&*profiles);
  kbtim::TopicId best = 0;
  for (kbtim::TopicId w = 1; w < popts.num_topics; ++w) {
    if (profiles->TopicTfSum(w) > profiles->TopicTfSum(best)) best = w;
  }
  const Query query{{best}, kK};
  std::vector<double> phi(graph.num_vertices(), 0.0);
  for (const auto& [v, w] : tfidf.SparsePhi(query)) phi[v] = w;

  auto opt = kbtim::ExactBestSeedSet(
      graph, kbtim::PropagationModel::kIndependentCascade, probs, kK, phi);
  if (!opt.ok()) return fail_all(opt.status().ToString());

  kbtim::IndexBuildOptions bopts;
  bopts.epsilon = kEpsilon;
  bopts.max_k = kK;
  bopts.partition_size = 2;
  bopts.num_threads = 1;
  bopts.seed = seed + 2;
  const std::string dir = work_dir + "/tiny_index";
  kbtim::IndexBuilder builder(graph, tfidf, probs, bopts);
  auto report = builder.Build(dir);
  if (!report.ok()) return fail_all(report.status().ToString());

  kbtim::OnlineSolverOptions wopts;
  wopts.epsilon = kEpsilon;
  wopts.seed = seed + 3;
  const kbtim::WrisSolver wris(graph, tfidf,
                               kbtim::PropagationModel::kIndependentCascade,
                               probs, wopts);

  std::vector<std::pair<std::string, kbtim::StatusOr<SeedSetResult>>> answers;
  {
    auto rr = kbtim::RrIndex::Open(dir);
    auto irr = kbtim::IrrIndex::Open(dir);
    answers.emplace_back("rr", rr.ok() ? rr->Query(query)
                                       : kbtim::StatusOr<SeedSetResult>(
                                             rr.status()));
    answers.emplace_back("irr", irr.ok() ? irr->Query(query)
                                         : kbtim::StatusOr<SeedSetResult>(
                                               irr.status()));
    answers.emplace_back("wris", wris.Solve(query));
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  for (auto& [engine, answer] : answers) {
    if (!answer.ok()) {
      out.push_back({engine, answer.status().ToString()});
      continue;
    }
    std::string error = CheckAnswer(*answer, query, graph.num_vertices());
    if (error.empty()) {
      auto exact = kbtim::ExactExpectedSpread(
          graph, kbtim::PropagationModel::kIndependentCascade, probs,
          answer->seeds, phi);
      if (!exact.ok()) {
        error = exact.status().ToString();
      } else if (*exact < GuaranteeFactor(kEpsilon) * opt->spread - 1e-9) {
        error = Fmt("exact spread %g below (1-1/e-eps) x OPT %g", *exact,
                    opt->spread);
      }
    }
    out.push_back({engine, error});
  }
  return out;
}

}  // namespace perfbench
