// Wrapper transparency test: for every algorithm of every workload, at
// reduced size, the report of a run through TimedAlgorithm + BackendTap
// must equal the unwrapped run's under ScenarioReportsIdentical (the
// serving workload compares ServingReport.scenario and its staleness
// block too). Exit code 0 iff every pair matches.
#include <iostream>
#include <memory>
#include <string>
#include <utility>

#include "core/serving.h"
#include "engine.h"
#include "instrument.h"
#include "workloads.h"

int main() {
  using perfbench::EngineRun;
  int failures = 0;
  int checked = 0;
  for (const std::string& name : perfbench::WorkloadNames()) {
    for (const std::uint64_t seed : {1ULL, 2ULL}) {
      const perfbench::Workload w =
          perfbench::MakeWorkload(name, seed, /*reduced=*/true);
      const perfbench::Inputs inputs = perfbench::MakeInputs(w);
      const np::core::LatencySpace& world = inputs.world->space();
      const perfbench::BackendTap tap(world);
      auto plain_algos = perfbench::MakeAlgorithms(w);
      auto inner_algos = perfbench::MakeAlgorithms(w);
      for (std::size_t i = 0; i < plain_algos.size(); ++i) {
        const EngineRun plain = perfbench::RunEngine(
            w, world, *plain_algos[i], inputs.schedule);
        perfbench::TimedAlgorithm wrapped(
            std::move(inner_algos[i]),
            std::make_shared<perfbench::CallLog>());
        const EngineRun traced =
            perfbench::RunEngine(w, tap, wrapped, inputs.schedule);
        const bool same =
            np::core::ScenarioReportsIdentical(plain.scenario,
                                               traced.scenario) &&
            perfbench::DeterministicDump(plain) ==
                perfbench::DeterministicDump(traced);
        ++checked;
        std::cout << (same ? "PASS " : "FAIL ") << name << " seed " << seed
                  << " " << w.algorithms[i] << "\n";
        if (!same) {
          ++failures;
        }
      }
    }
  }
  std::cout << checked - failures << "/" << checked
            << " wrapped runs identical to unwrapped\n";
  return failures == 0 ? 0 : 1;
}
