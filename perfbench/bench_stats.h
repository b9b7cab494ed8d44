// Measurement helpers of the Thrifty benchmark: nearest-rank percentiles
// with the "at least ten samples beyond" tail rule, an in-memory span
// recorder with self-time accounting, and metric-name validation.
//
// Everything here is header-only so the benchmark program and its unit test
// share one definition.

#ifndef PERFBENCH_BENCH_STATS_H_
#define PERFBENCH_BENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// \brief Index of the nearest-rank q-quantile in a sorted sample of size n
/// (the smallest rank whose cumulative share reaches q). n must be > 0.
inline size_t NearestRankIndex(size_t n, double q) {
  double rank = std::ceil(q * static_cast<double>(n));
  if (rank < 1) rank = 1;
  size_t index = static_cast<size_t>(rank) - 1;
  return std::min(index, n - 1);
}

/// \brief Nearest-rank q-quantile of `samples` (copied and sorted); NaN when
/// empty.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::nan("");
  size_t index = NearestRankIndex(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

/// \brief The highest of `candidates` (ascending quantiles) whose nearest-rank
/// value has at least `min_beyond` samples ranked above it in a sample of
/// size n; nullopt when not even the lowest candidate qualifies.
inline std::optional<double> TailQuantile(
    size_t n, const std::vector<double>& candidates = {0.9, 0.99, 0.999,
                                                       0.9999},
    size_t min_beyond = 10) {
  std::optional<double> best;
  if (n == 0) return best;
  for (double q : candidates) {
    size_t beyond = n - 1 - NearestRankIndex(n, q);
    if (beyond >= min_beyond) best = q;
  }
  return best;
}

/// \brief Metric names: 1-64 characters from [A-Za-z0-9_.-], starting with a
/// letter or digit.
inline bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

/// \brief One recorded span: [start, end) in seconds since the recorder was
/// created, and the index of the span that was open when it began (-1 for
/// a root).
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;

  double Duration() const { return end - start; }
};

/// \brief Self time of every span: its duration minus the part of its
/// interval that its direct children cover (overlapping children are
/// counted once; a child sticking out of its parent is clipped).
inline std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> covered(spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<size_t>(span.parent)];
    double begin = std::max(span.start, parent.start);
    double end = std::min(span.end, parent.end);
    if (end > begin) {
      covered[static_cast<size_t>(span.parent)].push_back({begin, end});
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& pieces = covered[i];
    std::sort(pieces.begin(), pieces.end());
    double union_length = 0;
    double reach = -1e300;
    for (const auto& [begin, end] : pieces) {
      double from = std::max(begin, reach);
      if (end > from) union_length += end - from;
      reach = std::max(reach, end);
    }
    self[i] = spans[i].Duration() - union_length;
  }
  return self;
}

/// \brief Per-name totals over a span list.
struct SpanTotals {
  size_t count = 0;
  double total_s = 0;
  double self_s = 0;
};

inline std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<Span>& spans) {
  std::vector<double> self = SelfTimes(spans);
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.total_s += spans[i].Duration();
    t.self_s += self[i];
  }
  return totals;
}

/// \brief Records spans in memory; nothing is written until the caller asks.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  /// \brief Opens a span under the innermost open one; returns its index.
  int Begin(std::string name) {
    int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({std::move(name), Now(), 0, parent});
    int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
  }

  /// \brief Closes the innermost open span (which must be `id`).
  void End(int id) {
    spans_[static_cast<size_t>(id)].end = Now();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// \brief RAII span; a null recorder records nothing (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name) : recorder_(recorder) {
    if (recorder_ != nullptr) id_ = recorder_->Begin(std::move(name));
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_STATS_H_
