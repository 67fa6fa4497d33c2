#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "report.h"
#include "trace.h"

namespace perfbench {

/// What every workload receives from the command line.
struct RunConfig {
  uint64_t seed = 1;
  /// Measurement time; whole rounds run until it has passed.
  double seconds = 10.0;
  /// Records benchmark-side spans and reports per-layer metrics instead of
  /// end-to-end ones.
  bool trace = false;
  /// serve_highcard's dictionary size (branches in its program). Not passed
  /// by BENCHMARK.json; for re-measuring the publish and Handle scaling by
  /// hand (see README.md).
  int32_t keys = 12288;
};

/// The end-to-end figures every workload reports. Rounds repeat identical
/// work, so each figure is a median over rounds: a round that a neighbour
/// on a shared machine disturbed moves it no further than one rank.
struct EndToEnd {
  std::vector<double> setup_seconds;
  /// Per round: time spent making program versions live.
  std::vector<double> update_seconds;
  /// Per round: rows validated over the time the guard surface was busy:
  /// the summed time of its calls when one thread makes them, the wall time
  /// of the validate phase when clients run concurrently (not the sum of
  /// their latencies).
  std::vector<double> rows_per_second;
  /// Per round: latency of each guard-surface call, milliseconds.
  std::vector<std::vector<double>> validate_ms;

  void AddRound(double update, int64_t rows, double busy_seconds,
                std::vector<double> latencies_ms);
  std::vector<Metric> Metrics() const;
};

/// Shared tail of every workload: tracing overhead against the run's own
/// traced wall time.
void AppendTraceOverhead(const Tracer& tracer, std::vector<Metric>* out);

/// Each returns the metrics to print; failures go to `log`.
std::vector<Metric> RunOfflineSynth(const RunConfig& config, RunLog* log);
std::vector<Metric> RunServeHighcard(const RunConfig& config, RunLog* log);
std::vector<Metric> RunStreamDrift(const RunConfig& config, RunLog* log);

/// Every per-layer metric, in the order BENCHMARK.json lists them, with
/// values taken from `measured` by name. A workload that does not exercise
/// a layer reports 0 for it.
std::vector<Metric> CompletePerLayer(const std::vector<Metric>& measured);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
