#include <cstdio>
#include <map>

#include "workloads.h"

namespace perfbench {

void EndToEnd::AddRound(double update, int64_t rows, double busy_seconds,
                        std::vector<double> latencies_ms) {
  update_seconds.push_back(update);
  rows_per_second.push_back(
      busy_seconds > 0 ? static_cast<double>(rows) / busy_seconds : 0.0);
  validate_ms.push_back(std::move(latencies_ms));
}

std::vector<Metric> EndToEnd::Metrics() const {
  std::vector<double> p50;
  std::vector<double> p90;
  size_t samples = 0;
  for (const std::vector<double>& round : validate_ms) {
    p50.push_back(Percentile(round, 0.50));
    p90.push_back(Percentile(round, 0.90));
    samples += round.size();
  }
  std::fprintf(stderr,
               "%zu timed rounds, %zu validate calls (%zu per round)\n",
               validate_ms.size(), samples,
               validate_ms.empty() ? size_t{0} : samples / validate_ms.size());
  return {
      {"setup_s", Median(setup_seconds), "s"},
      {"update_s", Median(update_seconds), "s"},
      {"validate_rows_per_s", Median(rows_per_second), "rows/s"},
      {"validate_ms_p50", Median(p50), "ms"},
      {"validate_ms_p90", Median(p90), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
  };
}

void AppendTraceOverhead(const Tracer& tracer, std::vector<Metric>* out) {
  const double span_ns = Tracer::CalibrateSpanCostNs();
  const double covered = tracer.CoveredSeconds();
  const double overhead_s = span_ns * 1e-9 * static_cast<double>(tracer.size());
  out->push_back({"trace.span_cost_ns", span_ns, "ns"});
  out->push_back({"trace.spans", static_cast<double>(tracer.size()), "count"});
  out->push_back(
      {"trace.overhead_pct", covered > 0 ? 100.0 * overhead_s / covered : 0.0,
       "%"});
}

namespace {

const std::vector<Metric>& PerLayerTemplate() {
  static const std::vector<Metric>* kTemplate = new std::vector<Metric>{
      {"pgm.aux_sample_s", 0, "s"},
      {"pgm.pc_s", 0, "s"},
      {"pgm.ci_tests", 0, "count"},
      {"pgm.mec_enumerate_s", 0, "s"},
      {"pgm.mec_dags", 0, "count"},
      {"core.fill_s", 0, "s"},
      {"core.fill_cache_hit_ratio", 0, "ratio"},
      {"analysis.minimize_s", 0, "s"},
      {"analysis.certify_s", 0, "s"},
      {"analysis.analyze_s", 0, "s"},
      {"analysis.statements_raw", 0, "count"},
      {"analysis.statements_min", 0, "count"},
      {"serve.publish_s", 0, "s"},
      {"core.deserialize_s", 0, "s"},
      {"core.compile_s", 0, "s"},
      {"core.kernel_rows_per_s", 0, "rows/s"},
      {"core.guard_ignore_rows_per_s", 0, "rows/s"},
      {"core.guard_coerce_rows_per_s", 0, "rows/s"},
      {"core.guard_rectify_rows_per_s", 0, "rows/s"},
      {"sql.scan_s", 0, "s"},
      {"sql.guarded_scan_s", 0, "s"},
      {"common.csv_parse_us", 0, "us"},
      {"serve.decode_rows_us", 0, "us"},
      {"table.schema_copy_us", 0, "us"},
      {"core.request_kernel_us", 0, "us"},
      {"serve.handle_us", 0, "us"},
      {"serve.encode_response_us", 0, "us"},
      {"serve.wire_us", 0, "us"},
      {"stream.ingest_us", 0, "us"},
      {"stream.refresh_noop_ms", 0, "ms"},
      {"stream.refresh_incremental_ms", 0, "ms"},
      {"stream.refresh_full_ms", 0, "ms"},
      {"stream.refreshes_noop", 0, "count"},
      {"stream.refreshes_incremental", 0, "count"},
      {"stream.refreshes_full", 0, "count"},
      {"stream.refresh_useful_ratio", 0, "ratio"},
      {"stream.statements_refilled", 0, "count"},
      {"stream.statements_reused", 0, "count"},
      {"stream.rows_retained", 0, "rows"},
      {"trace.span_cost_ns", 0, "ns"},
      {"trace.spans", 0, "count"},
      {"trace.overhead_pct", 0, "%"},
  };
  return *kTemplate;
}

}  // namespace

std::vector<Metric> CompletePerLayer(const std::vector<Metric>& measured) {
  std::map<std::string, double> by_name;
  for (const Metric& m : measured) by_name[m.name] = m.value;
  std::vector<Metric> out = PerLayerTemplate();
  for (Metric& m : out) {
    auto it = by_name.find(m.name);
    if (it != by_name.end()) m.value = it->second;
  }
  return out;
}

}  // namespace perfbench
