#include "trace.h"

#include <algorithm>

#include "report.h"

namespace perfbench {
namespace {

/// Open spans of the calling thread, innermost last. Keyed by tracer so two
/// tracers on one thread (the calibration below) do not interleave.
struct OpenSpan {
  const Tracer* tracer;
  int32_t index;
};
thread_local std::vector<OpenSpan> open_spans;

}  // namespace

int32_t Tracer::Begin(const char* name, uint64_t request_id) {
  if (!enabled_) return -1;
  int32_t parent = -1;
  for (auto it = open_spans.rbegin(); it != open_spans.rend(); ++it) {
    if (it->tracer == this) {
      parent = it->index;
      break;
    }
  }
  SpanRecord record;
  record.name = name;
  record.parent = parent;
  record.request_id = request_id;
  int32_t index;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<int32_t>(spans_.size());
    spans_.push_back(record);
    child_ns_.push_back(0);
  }
  open_spans.push_back(OpenSpan{this, index});
  // Stamped last, so the span excludes its own bookkeeping.
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].start_ns = now;
  return index;
}

void Tracer::End(int32_t index) {
  if (index < 0) return;
  const int64_t now = NowNs();
  for (auto it = open_spans.rbegin(); it != open_spans.rend(); ++it) {
    if (it->tracer == this && it->index == index) {
      open_spans.erase(std::next(it).base());
      break;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord& span = spans_[static_cast<size_t>(index)];
  span.end_ns = now;
  if (span.parent >= 0) {
    child_ns_[static_cast<size_t>(span.parent)] += now - span.start_ns;
  }
}

void Tracer::Rename(int32_t index, const char* name) {
  if (index < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].name = name;
}

void Tracer::Exclude(int32_t index, int32_t other) {
  if (index < 0 || other < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  const SpanRecord& excluded = spans_[static_cast<size_t>(other)];
  child_ns_[static_cast<size_t>(index)] +=
      excluded.end_ns - excluded.start_ns;
}

std::vector<double> Tracer::SelfMicros(const std::string& name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      out.push_back(static_cast<double>(spans_[i].end_ns -
                                        spans_[i].start_ns - child_ns_[i]) /
                    1e3);
    }
  }
  return out;
}

double Tracer::TotalSelfSeconds(const std::string& name) const {
  double total = 0.0;
  for (double us : SelfMicros(name)) total += us;
  return total / 1e6;
}

int64_t Tracer::Count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::count_if(spans_.begin(), spans_.end(),
                       [&](const SpanRecord& s) { return name == s.name; });
}

int64_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(spans_.size());
}

double Tracer::CoveredSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.empty()) return 0.0;
  int64_t first = spans_.front().start_ns;
  int64_t last = 0;
  for (const SpanRecord& s : spans_) {
    first = std::min(first, s.start_ns);
    last = std::max(last, s.end_ns);
  }
  return static_cast<double>(last - first) / 1e9;
}

double Tracer::CalibrateSpanCostNs() {
  constexpr int kSpans = 20000;
  std::vector<double> per_span;
  for (int rep = 0; rep < 5; ++rep) {
    Tracer probe(true);
    const int64_t start = NowNs();
    for (int i = 0; i < kSpans; ++i) {
      ScopedSpan span(&probe, "calibrate");
    }
    per_span.push_back(static_cast<double>(NowNs() - start) / kSpans);
  }
  return Median(per_span);
}

}  // namespace perfbench
