#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

void RunLog::Fail(const std::string& kind, const std::string& why,
                  bool known_fault) {
  const bool first = failed_[kind]++ == 0;
  if (!known_fault) {
    Check(false, kind + " failed: " + why);
  } else if (first) {
    std::fprintf(stderr, "known fault, %s: %s\n", kind.c_str(), why.c_str());
  }
}

bool RunLog::Check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    ++check_failures_;
    if (check_failures_ <= 20) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
  return ok;
}

int64_t RunLog::attempted() const {
  int64_t n = 0;
  for (const auto& [kind, count] : attempted_) n += count;
  return n;
}

int64_t RunLog::failed() const {
  int64_t n = 0;
  for (const auto& [kind, count] : failed_) n += count;
  return n;
}

void RunLog::PrintAccounting() const {
  std::fprintf(stderr, "%-12s %10s %8s\n", "operation", "attempted",
               "failed");
  for (const auto& [kind, count] : attempted_) {
    auto it = failed_.find(kind);
    std::fprintf(stderr, "%-12s %10lld %8lld\n", kind.c_str(),
                 static_cast<long long>(count),
                 static_cast<long long>(it == failed_.end() ? 0 : it->second));
  }
  std::fprintf(stderr, "checks: %lld, failed: %lld\n",
               static_cast<long long>(checks_),
               static_cast<long long>(check_failures_));
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void PrintResult(const RunLog& log, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += log.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(log.attempted());
  out += ", \"failed\": " + std::to_string(log.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::fflush(stderr);
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
