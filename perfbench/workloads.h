// The benchmark's three workloads. Each generates its inputs (a fixed
// corpus, with the index samples and request order from the seed), sets
// the system up (dataset, fresh index build, service or fleet start,
// warm-up), drives its load for the run length, and checks every answer.
// A traced run drives the same load with spans on, then replays the
// workload's queries through each layer's public calls to split the time
// by layer.
#ifndef KBTIM_PERFBENCH_WORKLOADS_H_
#define KBTIM_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/statusor.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Private scratch directory of this run (indexes are built here).
  std::string work_dir;
  /// Where the traced run writes its spans.
  std::string trace_path;
};

struct RunOutcome {
  /// False when a whole-run check failed (e.g. the warm workload read
  /// from disk inside its timed window).
  bool correct = true;
  uint64_t attempted = 0;
  /// Operations that returned an error or whose answer failed a check.
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result (failed checks,
  /// the input make-up, which percentile a tail metric is).
  std::vector<std::string> notes;
};

std::vector<std::string> WorkloadNames();

kbtim::StatusOr<RunOutcome> RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // KBTIM_PERFBENCH_WORKLOADS_H_
