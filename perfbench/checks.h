// Answer checks of the benchmark, made apart from the solvers: what a
// correct seed set must satisfy whatever engine produced it, judged from
// the answer, the graph and the propagation model alone. No stored copy
// of earlier answers is consulted.
#ifndef KBTIM_PERFBENCH_CHECKS_H_
#define KBTIM_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "propagation/model.h"
#include "sampling/solver_result.h"
#include "topics/query.h"
#include "topics/tfidf.h"

namespace perfbench {

/// Property checks run on every answer. Returns "" when the answer holds:
///   * k seeds, each a valid vertex id, no two equal;
///   * marginal gains non-negative and non-increasing (greedy max-cover
///     over a submodular coverage function), one per seed;
///   * the gains sum to estimated_influence;
///   * not degraded (no fault is injected, so no keyword may be dropped).
std::string CheckAnswer(const kbtim::SeedSetResult& answer,
                        const kbtim::Query& query,
                        kbtim::VertexId num_vertices);

/// "" when two answers agree exactly in seeds, gains and influence (the
/// IRR = RR equality of Theorem 3; routed = in-process), else the reason.
std::string CompareAnswers(const kbtim::SeedSetResult& got,
                           const kbtim::SeedSetResult& want);

/// Forward Monte-Carlo estimate of the targeted spread E[I^Q(S)] with
/// its standard error, from kBatches independent batches.
struct SpreadEstimate {
  double mean = 0.0;
  double stderr_ = 0.0;
};

class SpreadOracle {
 public:
  static constexpr uint32_t kBatches = 8;

  SpreadOracle(const kbtim::Graph& graph, const kbtim::TfIdfModel& tfidf,
               const std::vector<float>& ic_probs, uint32_t simulations,
               uint64_t seed)
      : graph_(graph),
        tfidf_(tfidf),
        ic_probs_(ic_probs),
        simulations_(simulations),
        seed_(seed) {}

  SpreadEstimate Estimate(const kbtim::Query& query,
                          const std::vector<kbtim::VertexId>& seeds) const;

 private:
  const kbtim::Graph& graph_;
  const kbtim::TfIdfModel& tfidf_;
  const std::vector<float>& ic_probs_;
  uint32_t simulations_;
  uint64_t seed_;
};

/// Monte-Carlo standard errors allowed on top of the ε tolerance.
inline constexpr double kSpreadZ = 4.0;

/// "" when the forward spread agrees with the sampled estimate: the
/// sample-size bound was sized so that the estimate is within ε of the
/// truth (relative), and the forward estimate is itself within kSpreadZ
/// standard errors of it.
std::string CheckSpreadAgrees(double estimated_influence,
                              const SpreadEstimate& forward, double epsilon);

/// "" when a's forward spread is no worse than (1 − 1/e − ε) times b's:
/// both engines are (1 − 1/e − ε)-approximate and OPT ≥ spread(b).
std::string CheckApproximates(const SpreadEstimate& a,
                              const SpreadEstimate& b, double epsilon);

/// Tiny-graph guarantee check: on a generated graph small enough for
/// exact world enumeration, RR, IRR and WRIS each return seeds whose
/// exact targeted spread is at least (1 − 1/e − ε)·OPT, OPT from brute
/// force. One entry per engine: "" on success, else the reason.
struct EngineVerdict {
  std::string engine;
  std::string error;
};
std::vector<EngineVerdict> TinyGraphGuarantee(uint64_t seed,
                                              const std::string& work_dir);

}  // namespace perfbench

#endif  // KBTIM_PERFBENCH_CHECKS_H_
