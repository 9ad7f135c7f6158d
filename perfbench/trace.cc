#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

uint64_t Tracer::Begin(std::string name, uint64_t request, uint64_t parent) {
  if (!enabled_) return 0;
  Span span;
  span.parent = parent;
  span.request = request;
  span.name = std::move(name);
  span.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  span.id = spans_.size() + 1;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::Count(uint64_t span, std::string name, double value) {
  if (!enabled_ || span == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[span - 1].counts.emplace_back(std::move(name), value);
}

void Tracer::End(uint64_t span) {
  if (!enabled_ || span == 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[span - 1].end_ns = now;
}

uint64_t Tracer::Record(std::string name, uint64_t request, uint64_t parent,
                        std::chrono::steady_clock::time_point start,
                        std::chrono::steady_clock::time_point end,
                        std::vector<std::pair<std::string, double>> counts) {
  if (!enabled_) return 0;
  Span span;
  span.parent = parent;
  span.request = request;
  span.name = std::move(name);
  span.start_ns = ToNs(start);
  span.end_ns = ToNs(end);
  span.counts = std::move(counts);
  std::lock_guard<std::mutex> lock(mu_);
  span.id = spans_.size() + 1;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

uint64_t Tracer::NewRequest() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_request_++;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
    for (const auto& [name, value] : s.counts) {
      std::fprintf(f, ",\"%s\":%.17g", name.c_str(), value);
    }
    std::fprintf(f, "}\n");
  }
  return std::fclose(f) == 0;
}

std::map<std::string, SpanAggregate> AggregateSpans(
    const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, SpanAggregate> out;
  std::map<std::string, std::map<std::string, double>> count_sums;
  for (const Span& s : spans) {
    if (s.end_ns < s.start_ns || s.end_ns == 0) continue;  // still open
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<int64_t, int64_t>> iv;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        const int64_t b = std::max(c->start_ns, s.start_ns);
        const int64_t e = std::min(c->end_ns, s.end_ns);
        if (e > b) iv.emplace_back(b, e);
      }
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_b = 0;
    int64_t cur_e = -1;
    for (const auto& [b, e] : iv) {
      if (b > cur_e) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;

    SpanAggregate& agg = out[s.name];
    const double dur_ms = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    agg.spans += 1;
    agg.mean_ms += dur_ms;
    agg.mean_self_ms += dur_ms - static_cast<double>(covered) * 1e-6;
    for (const auto& [name, value] : s.counts) {
      count_sums[s.name][name] += value;
    }
  }
  for (auto& [name, agg] : out) {
    const double n = static_cast<double>(agg.spans);
    agg.mean_ms /= n;
    agg.mean_self_ms /= n;
    for (const auto& [count, sum] : count_sums[name]) {
      agg.mean_counts[count] = sum / n;
    }
  }
  return out;
}

}  // namespace perfbench
