// Latency statistics of the benchmark: nearest-rank percentiles, the
// tail percentile a sample can support, and open-loop timing from each
// request's due time.
#ifndef KBTIM_PERFBENCH_STATS_H_
#define KBTIM_PERFBENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; below that it describes a handful of outliers.
inline constexpr size_t kMinSamplesBeyondTail = 10;

/// Nearest-rank q-quantile (q in (0, 1]) of an unsorted sample: the
/// smallest value with at least q·n samples at or below it. 0 when empty.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(values.size()) - 1e-9);
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  const size_t at = std::min(idx, values.size() - 1);
  std::nth_element(values.begin(), values.begin() + at, values.end());
  return values[at];
}

/// Samples strictly beyond the nearest-rank q-quantile of n samples.
inline size_t SamplesBeyond(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return n - std::min(n, static_cast<size_t>(rank));
}

/// The highest quantile of the ladder 0.99, 0.95, 0.90, 0.75 that keeps
/// kMinSamplesBeyondTail samples beyond it; 0.5 (the median alone) when
/// none does or when there are fewer than 40 samples.
inline double TailQuantile(size_t n) {
  if (n < 40) return 0.5;
  for (double q : {0.99, 0.95, 0.90, 0.75}) {
    if (SamplesBeyond(n, q) >= kMinSamplesBeyondTail) return q;
  }
  return 0.5;
}

/// Median, p90 and highest supported tail of one latency sample. p90 is
/// the tail the benchmark bounds; the highest supported tail is reported
/// alongside it.
struct LatencySummary {
  size_t samples = 0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p90_quantile = 0.5;   ///< 0.90, or the supported tail below it.
  double tail_ms = 0.0;
  double tail_quantile = 0.5;  ///< Which quantile tail_ms is.
};

inline LatencySummary Summarize(const std::vector<double>& latencies_ms) {
  LatencySummary s;
  s.samples = latencies_ms.size();
  s.p50_ms = Percentile(latencies_ms, 0.5);
  s.tail_quantile = TailQuantile(s.samples);
  s.tail_ms = Percentile(latencies_ms, s.tail_quantile);
  s.p90_quantile = std::min(0.90, s.tail_quantile);
  s.p90_ms = Percentile(latencies_ms, s.p90_quantile);
  return s;
}

/// Open-loop arrival schedule: request i is due at start + i / rate,
/// whether or not earlier requests have finished. A request's latency is
/// measured from its due time, so a stall that delays the generator is
/// charged to every request it held back.
class OpenLoopSchedule {
 public:
  using Clock = std::chrono::steady_clock;

  OpenLoopSchedule(Clock::time_point start, double rate_per_s)
      : start_(start), interval_s_(1.0 / rate_per_s) {}

  Clock::time_point Due(size_t i) const {
    return start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            interval_s_ * static_cast<double>(i)));
  }

  /// Requests due strictly before `end` (the phase's request count).
  size_t DueBefore(Clock::time_point end) const {
    const double span = std::chrono::duration<double>(end - start_).count();
    if (span <= 0.0) return 0;
    return static_cast<size_t>(std::ceil(span / interval_s_ - 1e-9));
  }

  /// Latency of request i that completed at `done`, from its due time.
  double LatencyMs(size_t i, Clock::time_point done) const {
    return std::chrono::duration<double, std::milli>(done - Due(i)).count();
  }

 private:
  Clock::time_point start_;
  double interval_s_;
};

}  // namespace perfbench

#endif  // KBTIM_PERFBENCH_STATS_H_
