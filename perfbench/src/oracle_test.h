#ifndef PERFBENCH_ORACLE_TEST_H_
#define PERFBENCH_ORACLE_TEST_H_

#include "report.h"

namespace perfbench {

/// Runs the oracles on hand-built cases with known answers; a wrong answer
/// is a failed check in `log`.
void RunOracleSelfTest(RunLog* log);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_TEST_H_
