// One engine call per (workload, algorithm), plus the correctness
// checks every timed run applies to its result.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/latency_space.h"
#include "core/nearest_algorithm.h"
#include "core/scenario.h"
#include "core/serving.h"
#include "workloads.h"

namespace perfbench {

struct EngineRun {
  np::core::ScenarioReport scenario;
  /// Set for serving workloads; its scenario block equals `scenario`.
  std::optional<np::core::ServingReport> serving;
  /// Wall time of the RunScenario / RunServing call.
  double wall_s = 0.0;
};

/// Runs `algo` through the workload's engine over `space`.
EngineRun RunEngine(const Workload& workload, const np::core::LatencySpace& space,
                    np::core::NearestPeerAlgorithm& algo,
                    const np::core::ChurnSchedule& schedule);

/// Canonical text of every deterministic field of the run (hex floats,
/// so equal text means bit-identical values). Wall-clock fields are
/// left out.
std::string DeterministicDump(const EngineRun& run);

/// DeterministicDump of each run, one line per run.
std::string CombinedDump(const std::vector<EngineRun>& runs);

/// 64-bit FNV-1a of `text`.
std::uint64_t Fnv1a(const std::string& text);

/// Appends a message to `errors` for every accounting identity or range
/// the run breaks.
void CheckRun(const Workload& workload, const EngineRun& run,
              std::vector<std::string>* errors);

/// Probes billed to the run: build + maintenance + queries.
std::uint64_t BilledProbes(const np::core::ScenarioReport& report);

}  // namespace perfbench
