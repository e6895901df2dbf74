// The benchmark's workloads: each one is a world, a churn schedule, an
// engine configuration and a list of algorithms, all generated from
// the --seed argument. Nothing is read from disk.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/churn.h"
#include "core/nearest_algorithm.h"
#include "core/scenario.h"
#include "core/space_factory.h"

namespace perfbench {

struct Workload {
  std::string name;
  /// RunServing (3 readers + 1 writer) instead of RunScenario.
  bool serving = false;
  /// Sparse shortest-path world instead of the embedded one.
  bool sparse_world = false;
  np::matrix::EmbeddedSpaceConfig embedded;
  np::matrix::SparseTopologyConfig sparse;
  np::core::ChurnScheduleConfig churn;
  np::core::ScenarioConfig scenario;
  int reader_threads = 1;
  std::vector<std::string> algorithms;
  /// Scenario-mode workloads: closed-loop queries per algorithm against
  /// the final overlay, which give the serve_* metrics.
  int service_queries = 0;
};

/// Names accepted by MakeWorkload, in the order the doc lists them.
const std::vector<std::string>& WorkloadNames();

/// Worker threads for builds and queries: the hardware, capped at 4.
int BenchThreads();

/// Builds the named workload from `seed`. `reduced` shrinks the world,
/// overlay and query counts for the transparency test.
Workload MakeWorkload(const std::string& name, std::uint64_t seed,
                      bool reduced = false);

/// World + schedule: what every engine call of a workload shares.
struct Inputs {
  std::unique_ptr<np::core::SpaceFactory> world;
  np::core::ChurnSchedule schedule;
};

Inputs MakeInputs(const Workload& workload);

/// Fresh, unbuilt algorithm instances, one per workload algorithm.
std::vector<std::unique_ptr<np::core::NearestPeerAlgorithm>> MakeAlgorithms(
    const Workload& workload);

}  // namespace perfbench
