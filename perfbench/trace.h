// In-memory span recorder of the traced run.
//
// The benchmark wraps its calls into each src/ module's public functions
// in spans named "<layer>.<call>" (index.rr_query, net.fetch_rpc, ...).
// A span records its start and end, the span that caused it and the
// request it belongs to; the spans of one request share that request id.
// Counts are attached to the span at the boundary where the work
// happened (cache hits of one query, bytes of one frame), so per-layer
// ratios are measured where the work is done. Spans stay in memory and
// are written out once, when the run ends.
#ifndef KBTIM_PERFBENCH_TRACE_H_
#define KBTIM_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = a root span.
  uint64_t request = 0;  ///< Shared by every span of one request.
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<std::pair<std::string, double>> counts;
};

/// Per span name: how many spans, their mean duration, their mean self
/// time (duration minus the part of it covered by child spans), and the
/// mean of each count attached to them.
struct SpanAggregate {
  uint64_t spans = 0;
  double mean_ms = 0.0;
  double mean_self_ms = 0.0;
  std::map<std::string, double> mean_counts;
};

/// Aggregates finished spans by name. Children are matched by parent id;
/// overlapping children (parallel work) are merged before subtracting,
/// so self time is never negative.
std::map<std::string, SpanAggregate> AggregateSpans(
    const std::vector<Span>& spans);

/// Thread-safe span recorder. A disabled tracer records nothing and its
/// calls cost one branch, which is how the untraced runs use it.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (0 when disabled).
  uint64_t Begin(std::string name, uint64_t request, uint64_t parent = 0);
  /// Attaches a count to an open span.
  void Count(uint64_t span, std::string name, double value);
  /// Closes a span.
  void End(uint64_t span);

  /// Records a span whose interval was measured by the caller (an
  /// open-loop request timed from its due time; a load whose layer is
  /// known only once it returned).
  uint64_t Record(std::string name, uint64_t request, uint64_t parent,
                  std::chrono::steady_clock::time_point start,
                  std::chrono::steady_clock::time_point end,
                  std::vector<std::pair<std::string, double>> counts = {});

  /// Fresh request id for a group of spans.
  uint64_t NewRequest();

  /// Copy of every span recorded so far (open spans have end_ns == 0).
  std::vector<Span> spans() const;

  /// Writes the spans, one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  static int64_t ToNs(std::chrono::steady_clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  }
  static int64_t NowNs() { return ToNs(std::chrono::steady_clock::now()); }

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // index = id - 1
  uint64_t next_request_ = 1;
};

/// RAII span; End() may be called early to close it before scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, uint64_t request,
             uint64_t parent = 0)
      : tracer_(tracer), id_(tracer.Begin(std::move(name), request, parent)) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }
  void Count(std::string name, double value) {
    tracer_.Count(id_, std::move(name), value);
  }
  void End() {
    if (!ended_) tracer_.End(id_);
    ended_ = true;
  }

 private:
  Tracer& tracer_;
  uint64_t id_;
  bool ended_ = false;
};

}  // namespace perfbench

#endif  // KBTIM_PERFBENCH_TRACE_H_
