#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One named figure with its unit, printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Operation accounting and correctness bookkeeping for one run.
///
/// Every operation the workload attempts is counted by kind (synthesize,
/// publish, validate, sql, ingest, refresh). A failed operation — an error
/// status from the program — is counted against its kind; a wrong output
/// caught by an oracle is a failed check. A failed check makes the run exit
/// non-zero; so does a failed operation, unless it is the known fault the
/// workload keeps visible.
class RunLog {
 public:
  void Attempt(const std::string& kind) { ++attempted_[kind]; }
  /// Records a failed operation of `kind` (already counted by Attempt).
  /// Unless `known_fault` — a documented program fault that fails
  /// identically in every round — a failure is also a failed check.
  void Fail(const std::string& kind, const std::string& why,
            bool known_fault = false);
  /// Records a correctness check; a false `ok` marks the run incorrect.
  bool Check(bool ok, const std::string& what);

  int64_t attempted() const;
  int64_t failed() const;
  bool correct() const { return check_failures_ == 0; }

  /// Per-kind table on stderr: attempted / failed.
  void PrintAccounting() const;

 private:
  std::map<std::string, int64_t> attempted_;
  std::map<std::string, int64_t> failed_;
  int64_t checks_ = 0;
  int64_t check_failures_ = 0;
};

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Nearest-rank percentile, `q` in (0, 1].
double Percentile(std::vector<double> values, double q);

/// Peak resident set size of this process, MiB (getrusage ru_maxrss).
double PeakRssMb();

/// Prints the result object as the last line of standard output.
void PrintResult(const RunLog& log, const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
