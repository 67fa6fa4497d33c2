// End-to-end benchmark driver: runs one workload in this process and prints
// one JSON result line (see perfbench/README.md).
//
//   perfbench --workload offline_synth|serve_highcard|stream_drift
//             --seed N --seconds S --trace 0|1 [--keys N]
//   perfbench --self-test

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/thread_pool.h"
#include "oracle_test.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--keys N]\n       perfbench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunConfig config;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      perfbench::RunLog log;
      perfbench::RunOracleSelfTest(&log);
      log.PrintAccounting();
      return log.correct() ? 0 : 1;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--keys") {
      config.keys = std::atoi(value.c_str());
    } else {
      return Usage();
    }
  }
  if (workload.empty() || !have_seed || config.seconds <= 0 ||
      config.keys < 1) {
    return Usage();
  }

  // Fixed thread count: synthesis, fills and sharded scans run on the
  // calling thread alone, whatever the machine offers.
  guardrail::ThreadPool::SetSharedWorkers(0);

  perfbench::RunLog log;
  // The oracles must still know their hand-built answers before they judge
  // the program.
  perfbench::RunOracleSelfTest(&log);

  std::vector<perfbench::Metric> metrics;
  if (workload == "offline_synth") {
    metrics = perfbench::RunOfflineSynth(config, &log);
  } else if (workload == "serve_highcard") {
    metrics = perfbench::RunServeHighcard(config, &log);
  } else if (workload == "stream_drift") {
    metrics = perfbench::RunStreamDrift(config, &log);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  if (config.trace) metrics = perfbench::CompletePerLayer(metrics);
  log.PrintAccounting();
  if (!log.correct() || log.attempted() == 0) {
    std::fprintf(stderr, "run failed its checks; no result printed\n");
    return 1;
  }
  perfbench::PrintResult(log, metrics);
  return 0;
}
