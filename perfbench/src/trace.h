#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One recorded span: a call into a layer, timed from the benchmark's side.
struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span on the same thread, -1 at top level.
  int32_t parent = -1;
  /// Spans of one request (or one update step) share an id; 0 = none.
  uint64_t request_id = 0;
};

/// In-memory span recorder. Disabled (the untraced run), Begin/End cost one
/// branch and record nothing. Enabled, spans are appended under a mutex and
/// kept until the run ends; nesting is tracked per thread, so a span opened
/// inside another becomes its child.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its index (or -1 when disabled).
  int32_t Begin(const char* name, uint64_t request_id = 0);
  void End(int32_t index);
  /// Renames a recorded span, for calls whose kind is known only once they
  /// return (a refresh's action).
  void Rename(int32_t index, const char* name);
  /// Takes ended span `other`'s duration out of ended span `index`'s self
  /// time: for a call that `index` makes internally and that the benchmark
  /// also timed on its own as `other`.
  void Exclude(int32_t index, int32_t other);

  /// Self times of every span named `name`, in microseconds.
  std::vector<double> SelfMicros(const std::string& name) const;
  /// Sum of the self times of spans named `name`, in seconds.
  double TotalSelfSeconds(const std::string& name) const;
  int64_t Count(const std::string& name) const;
  int64_t size() const;

  /// Wall span from the first span's start to the last span's end, seconds.
  double CoveredSeconds() const;

  /// Measured cost of one Begin/End pair on an enabled tracer, ns.
  static double CalibrateSpanCostNs();

 private:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  /// Per span: summed duration of its direct children.
  std::vector<int64_t> child_ns_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request_id = 0)
      : tracer_(tracer), index_(tracer->Begin(name, request_id)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
