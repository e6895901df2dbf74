// Shared pieces of the timed run (main.cc) and the traced run
// (traced.cc).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/latency_space.h"
#include "core/nearest_algorithm.h"
#include "engine.h"
#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Every broken correctness check; any entry makes the run incorrect.
  std::vector<std::string> errors;
};

/// argv[0] of this process.
const std::string& ExecutablePath();

/// Median of a non-empty sample.
double Median(std::vector<double> values);

/// Checks the run's deterministic digest against the one an earlier
/// run of the same workload and seed stored under `state_dir` (timed
/// and traced runs alike), storing it when there is none yet.
void CheckDigestAcrossRuns(const std::string& state_dir,
                           const Workload& workload, std::uint64_t seed,
                           std::uint64_t digest,
                           std::vector<std::string>* errors);

/// The traced run: wrapper + tap, micro-loops, printout.
RunResult RunTraced(const Workload& workload, std::uint64_t seed,
                    const std::string& state_dir);

}  // namespace perfbench
