#include "workloads.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "bench/algo_factory.h"
#include "util/rng.h"

namespace perfbench {

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "lossy_crash", "clean_parallel", "serving_readers", "sparse_rows"};
  return names;
}

int BenchThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1U, 4U));
}

Workload MakeWorkload(const std::string& name, std::uint64_t seed,
                      bool reduced) {
  Workload w;
  w.name = name;
  // The world is fixed per workload, so the backend costs the same for
  // every seed; the seed drives the churn schedule and the engine
  // (initial membership, who joins and leaves, query targets).
  const std::uint64_t world_seed = 0x57001ULL;
  w.churn.seed = np::util::Mix64(seed ^ 0xC4021ULL);
  w.scenario.seed = np::util::Mix64(seed ^ 0x5CE11ULL);
  w.scenario.num_threads = BenchThreads();

  w.embedded.num_nodes = reduced ? 2000 : 10000;
  w.embedded.dimensions = 3;
  w.embedded.side_ms = 100.0;
  w.embedded.distortion = 0.1;
  w.embedded.seed = world_seed;

  if (name == "lossy_crash") {
    // Trimmed crash_churn: half the departures are crashes, 5% probe
    // loss with one retry, per-node load ledger on. The overlay is kept
    // small enough that the loss decorators' per-pair maps stay
    // cache-resident; larger ones make run_s swing with the host's
    // memory latency.
    w.churn.duration_s = 300.0;
    w.churn.events_per_s = 0.5;
    w.churn.mean_session_s = 600.0;
    w.churn.crash_fraction = 0.5;
    w.scenario.initial_overlay = reduced ? 150 : 300;
    w.scenario.epochs = 4;
    w.scenario.queries_per_epoch = reduced ? 100 : 3000;
    w.scenario.fault.loss_rate = 0.05;
    w.scenario.fault.max_attempts = 2;
    w.scenario.fault.track_load = true;
    w.algorithms = {"meridian", "karger-ruhl"};
    w.service_queries = reduced ? 100 : 1500;
  } else if (name == "clean_parallel") {
    // Fault-free: builds fan out over every worker through one meter.
    w.churn.duration_s = 300.0;
    w.churn.events_per_s = 1.5;
    w.churn.mean_session_s = 240.0;
    w.scenario.initial_overlay = reduced ? 200 : 1000;
    w.scenario.epochs = 4;
    w.scenario.queries_per_epoch = reduced ? 100 : 8000;
    w.algorithms = {"meridian", "karger-ruhl", "tiers", "beaconing"};
    w.service_queries = reduced ? 100 : 1500;
  } else if (name == "serving_readers") {
    // Reads beside writes: large batches per snapshot, fast churn. The
    // 3 readers + 1 writer use every worker; the initial build runs on
    // the writer alone.
    w.serving = true;
    w.reader_threads = 3;
    w.scenario.num_threads = 1;
    w.churn.duration_s = 300.0;
    w.churn.events_per_s = 4.0;
    w.churn.mean_session_s = 120.0;
    w.churn.session_model = np::core::SessionModel::kLogNormal;
    w.churn.lognormal_sigma = 1.5;
    w.scenario.initial_overlay = reduced ? 200 : 3000;
    w.scenario.epochs = reduced ? 3 : 5;
    w.scenario.queries_per_epoch = reduced ? 200 : 5000;
    w.algorithms = {"karger-ruhl", "coord-vivaldi", "tiers"};
  } else if (name == "sparse_rows") {
    // Dijkstra rows behind an LRU smaller than the working set.
    w.sparse_world = true;
    w.sparse.num_nodes = reduced ? 1500 : 10000;
    w.sparse.extra_edges_per_node = 3;
    w.sparse.min_edge_ms = 1.0;
    w.sparse.max_edge_ms = 50.0;
    w.sparse.row_cache_capacity = reduced ? 16 : 64;
    w.sparse.seed = world_seed;
    w.churn.duration_s = 300.0;
    w.churn.events_per_s = 1.5;
    w.churn.join_fraction = 0.6;
    w.scenario.initial_overlay = reduced ? 100 : 600;
    w.scenario.epochs = 3;
    w.scenario.queries_per_epoch = reduced ? 50 : 400;
    // Not tiers: on this world it collapses to one whole-overlay cluster
    // for some seeds (~650 probes per query), which makes every
    // deterministic metric bimodal across seeds.
    w.algorithms = {"karger-ruhl", "beaconing"};
    w.service_queries = reduced ? 50 : 500;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

Inputs MakeInputs(const Workload& workload) {
  return Inputs{
      std::make_unique<np::core::SpaceFactory>(
          workload.sparse_world
              ? np::core::SpaceFactory::MakeSparse(workload.sparse)
              : np::core::SpaceFactory::MakeEmbedded(workload.embedded)),
      np::core::ChurnSchedule::Poisson(workload.churn)};
}

std::vector<std::unique_ptr<np::core::NearestPeerAlgorithm>> MakeAlgorithms(
    const Workload& workload) {
  std::vector<std::unique_ptr<np::core::NearestPeerAlgorithm>> algos;
  for (const std::string& name : workload.algorithms) {
    algos.push_back(np::bench::MakeBenchAlgorithm(name));
  }
  return algos;
}

}  // namespace perfbench
