// Tests of the benchmark's own arithmetic: percentiles, the tail the
// sample supports, open-loop latency from the due time, and span self
// time. Exits non-zero on the first failed expectation.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  Expect(Near(perfbench::Percentile(v, 0.5), 50), "p50 of 1..100 is 50");
  Expect(Near(perfbench::Percentile(v, 0.99), 99), "p99 of 1..100 is 99");
  Expect(Near(perfbench::Percentile(v, 1.0), 100), "p100 is the max");
  Expect(Near(perfbench::Percentile({7.0}, 0.99), 7), "single sample");
  Expect(perfbench::Percentile({}, 0.5) == 0.0, "empty sample reads 0");
}

void TestTailKeepsTenBeyond() {
  using perfbench::SamplesBeyond;
  using perfbench::TailQuantile;
  Expect(SamplesBeyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
  Expect(TailQuantile(1000) == 0.99, "1000 samples support p99");
  Expect(TailQuantile(999) == 0.95, "999 samples fall back to p95");
  Expect(TailQuantile(200) == 0.95, "200 samples support p95");
  Expect(TailQuantile(199) == 0.90, "199 samples fall back to p90");
  Expect(TailQuantile(100) == 0.90, "100 samples support p90");
  Expect(TailQuantile(40) == 0.75, "40 samples support p75");
  Expect(TailQuantile(39) == 0.5, "below 40 samples: the median alone");
  for (size_t n = 40; n < 3000; ++n) {
    const double q = TailQuantile(n);
    if (q > 0.5 && SamplesBeyond(n, q) < perfbench::kMinSamplesBeyondTail) {
      Expect(false, "every reported tail keeps ten samples beyond it");
      break;
    }
  }
  const perfbench::LatencySummary s =
      perfbench::Summarize(std::vector<double>(500, 2.0));
  Expect(s.samples == 500 && s.tail_quantile == 0.95 && Near(s.tail_ms, 2.0),
         "summary names the tail it reports");
  Expect(s.p90_quantile == 0.90, "p90 with 500 samples");
  const perfbench::LatencySummary few =
      perfbench::Summarize(std::vector<double>(60, 1.0));
  Expect(few.p90_quantile == 0.75, "p90 falls back below 100 samples");
}

void TestOpenLoopFromDueTime() {
  using Clock = perfbench::OpenLoopSchedule::Clock;
  const Clock::time_point start{};
  const perfbench::OpenLoopSchedule schedule(start, 100.0);  // every 10 ms
  Expect(schedule.Due(3) == start + std::chrono::milliseconds(30),
         "request 3 is due at 30 ms");
  // A stall: request 3 is sent late and finishes at 55 ms. Its latency
  // counts from 30 ms, not from when the stalled generator sent it.
  Expect(Near(schedule.LatencyMs(3, start + std::chrono::milliseconds(55)),
              25.0),
         "latency runs from the due time");
  Expect(schedule.DueBefore(start + std::chrono::milliseconds(100)) == 10,
         "ten requests are due in the first 100 ms");
  Expect(schedule.DueBefore(start + std::chrono::microseconds(100001)) == 11,
         "the eleventh is due at exactly 100 ms");
}

void TestSelfTime() {
  using Clock = std::chrono::steady_clock;
  perfbench::Tracer tracer(true);
  const Clock::time_point t0 = Clock::now();
  auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  const uint64_t parent = tracer.Record("p", 1, 0, at(0), at(10));
  // Two overlapping children covering 2..6 and a third at 8..9.
  tracer.Record("c", 1, parent, at(2), at(5));
  tracer.Record("c", 1, parent, at(4), at(6));
  tracer.Record("c", 1, parent, at(8), at(9), {{"n", 4.0}});
  const auto agg = perfbench::AggregateSpans(tracer.spans());
  Expect(Near(agg.at("p").mean_ms, 10.0), "parent duration");
  Expect(Near(agg.at("p").mean_self_ms, 5.0),
         "self time subtracts the union of the children");
  Expect(agg.at("c").spans == 3, "children counted");
  Expect(Near(agg.at("c").mean_counts.at("n"), 4.0 / 3.0),
         "counts average over the spans of a name");
  perfbench::Tracer off(false);
  Expect(off.Begin("x", 1) == 0 && off.spans().empty(),
         "a disabled tracer records nothing");
}

}  // namespace

int main() {
  TestPercentile();
  TestTailKeepsTenBeyond();
  TestOpenLoopFromDueTime();
  TestSelfTime();
  if (failures == 0) std::printf("perfbench_stats_test: all passed\n");
  return failures == 0 ? 0 : 1;
}
