// The traced run: the workload plain, through the tracing wrapper +
// backend tap, and plain again (all reports must match), then micro-loops
// over the public decorators, ParallelBuild, TrueClosestMember and the
// sparse row cache. Prints a per-workload self-time table and returns
// the per-layer metrics.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench/algo_factory.h"
#include "core/probe_policy.h"
#include "instrument.h"
#include "matrix/faulty_space.h"
#include "matrix/partitioned_space.h"
#include "run.h"
#include "util/rng.h"
#include "util/stats.h"

namespace perfbench {
namespace {

using np::NodeId;
using np::core::LatencySpace;
using np::core::NearestPeerAlgorithm;

/// Every algorithm any workload runs; per-algorithm metrics are printed
/// for all of them and read 0 where the workload does not run one.
const std::vector<std::string>& AllAlgorithms() {
  static const std::vector<std::string> names = {
      "meridian", "karger-ruhl", "tiers", "beaconing", "coord-vivaldi"};
  return names;
}

// Fixed decorator settings for the probe-path micro-loops, so every
// workload measures the same stacks.
constexpr double kMicroLossRate = 0.05;
constexpr double kMicroNoiseFrac = 0.1;
constexpr int kMicroAttempts = 2;
constexpr std::size_t kMicroPairs = std::size_t{1} << 19;
constexpr std::size_t kMicroProbes = std::size_t{1} << 20;
constexpr int kMicroRepeats = 3;

/// Results of timed loops land here so the loops are not optimized out.
volatile double g_sink = 0.0;

double Seconds(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Length of the union of [start, end) intervals, seconds.
double UnionSeconds(std::vector<std::pair<std::int64_t, std::int64_t>> spans) {
  std::sort(spans.begin(), spans.end());
  double total = 0.0;
  std::int64_t cur_start = 0;
  std::int64_t cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : spans) {
    if (open && s <= cur_end) {
      cur_end = std::max(cur_end, e);
      continue;
    }
    if (open) {
      total += Seconds(cur_start, cur_end);
    }
    cur_start = s;
    cur_end = e;
    open = true;
  }
  if (open) {
    total += Seconds(cur_start, cur_end);
  }
  return total;
}

/// What one algorithm's call log says about its engine call.
struct AlgoTrace {
  std::string name;
  double wall_s = 0.0;  // traced engine call
  double plain_wall_s = 0.0;
  double build_s = 0.0;
  std::int64_t joins = 0;
  double join_s = 0.0;
  std::int64_t leaves = 0;
  double leave_s = 0.0;
  std::int64_t clones = 0;
  double clone_s = 0.0;
  std::vector<double> query_us;
  double query_busy_s = 0.0;
  double query_phase_s = 0.0;
  /// Query busy time / phase span on snapshot clones (serving only).
  double clone_query_busy_s = 0.0;
  double clone_phase_s = 0.0;
  double covered_s = 0.0;
  double truth_us = 0.0;
};

AlgoTrace Analyze(const std::string& name, const CallLog& log,
                  std::int64_t run_start, std::int64_t run_end) {
  AlgoTrace t;
  t.name = name;
  t.wall_s = Seconds(run_start, run_end);
  std::map<std::int64_t, std::pair<std::int64_t, std::int64_t>> phases;
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (const Call& c : log.Calls()) {
    const double d = Seconds(c.start_ns, c.end_ns);
    switch (c.kind) {
      case CallKind::kBuild:
        t.build_s += d;
        break;
      case CallKind::kJoin:
        ++t.joins;
        t.join_s += d;
        break;
      case CallKind::kLeave:
        ++t.leaves;
        t.leave_s += d;
        break;
      case CallKind::kClone:
        ++t.clones;
        t.clone_s += d;
        break;
      case CallKind::kQuery: {
        t.query_us.push_back(d * 1e6);
        t.query_busy_s += d;
        auto [it, inserted] =
            phases.try_emplace(c.phase, c.start_ns, c.end_ns);
        if (!inserted) {
          it->second.first = std::min(it->second.first, c.start_ns);
          it->second.second = std::max(it->second.second, c.end_ns);
        }
        if (c.phase >= kFirstClonePhase) {
          t.clone_query_busy_s += d;
        }
        continue;
      }
    }
    covered.emplace_back(c.start_ns, c.end_ns);
  }
  for (const auto& [phase, span] : phases) {
    const double s = Seconds(span.first, span.second);
    t.query_phase_s += s;
    if (phase >= kFirstClonePhase) {
      t.clone_phase_s += s;
    }
    covered.push_back(span);
  }
  t.covered_s = UnionSeconds(std::move(covered));
  return t;
}

/// Mean µs of TrueClosestMember over the algorithm's final membership,
/// over up to 2000 targets or one second.
double TimeTruthScan(const LatencySpace& space,
                     const std::vector<NodeId>& members, std::uint64_t seed) {
  const std::unordered_set<NodeId> member_set(members.begin(), members.end());
  np::util::Rng rng(seed);
  std::vector<NodeId> targets;
  while (targets.size() < 2000) {
    const auto t =
        static_cast<NodeId>(rng.Index(static_cast<std::size_t>(space.size())));
    if (member_set.count(t) == 0) {
      targets.push_back(t);
    }
  }
  NodeId sink = 0;
  std::size_t scanned = 0;
  const std::int64_t start = NowNs();
  for (const NodeId t : targets) {
    sink ^= np::core::TrueClosestMember(space, members, t);
    if (++scanned >= 100 && Seconds(start, NowNs()) > 1.0) {
      break;
    }
  }
  const double us =
      Seconds(start, NowNs()) * 1e6 / static_cast<double>(scanned);
  g_sink = static_cast<double>(sink);
  return us;
}

/// Probe pairs for the micro-loops: random sources against a few
/// targets, the pivot-second pattern the engines use (on the sparse
/// backend every row stays cached, so the loops time the decorators).
std::vector<std::pair<NodeId, NodeId>> MicroPairs(NodeId n,
                                                  std::uint64_t seed) {
  np::util::Rng rng(seed);
  std::vector<NodeId> targets;
  for (int i = 0; i < 32; ++i) {
    targets.push_back(
        static_cast<NodeId>(rng.Index(static_cast<std::size_t>(n))));
  }
  std::vector<std::pair<NodeId, NodeId>> pairs(kMicroPairs);
  for (auto& [a, b] : pairs) {
    a = static_cast<NodeId>(rng.Index(static_cast<std::size_t>(n)));
    b = targets[rng.Index(targets.size())];
  }
  return pairs;
}

/// ns per call of probe(a, b) over kMicroProbes calls, median of
/// kMicroRepeats; `make` builds fresh decorator state per repeat.
template <typename MakeProbe>
double NsPerProbe(const std::vector<std::pair<NodeId, NodeId>>& pairs,
                  MakeProbe make) {
  std::vector<double> ns;
  for (int rep = 0; rep < kMicroRepeats; ++rep) {
    auto probe = make(rep);
    double sink = 0.0;
    const std::int64_t start = NowNs();
    for (std::size_t i = 0; i < kMicroProbes; ++i) {
      const auto& [a, b] = pairs[i & (pairs.size() - 1)];
      sink += probe(a, b);
    }
    ns.push_back(static_cast<double>(NowNs() - start) /
                 static_cast<double>(kMicroProbes));
    g_sink = sink;
  }
  return Median(ns);
}

struct ProbeMicro {
  double raw = 0.0;
  double metered = 0.0;
  double faulty = 0.0;
  double noisy_faulty = 0.0;
  double policy = 0.0;
  double metered_shared = 0.0;
};

ProbeMicro RunProbeMicro(const LatencySpace& world, std::uint64_t seed) {
  using np::core::MeteredSpace;
  using np::core::NoisySpace;
  using np::matrix::FaultySpace;
  using np::matrix::PartitionedSpace;
  const auto pairs = MicroPairs(world.size(), seed);
  const np::matrix::PartitionSchedule no_partitions;
  ProbeMicro m;
  m.raw = NsPerProbe(pairs, [&](int) {
    return [&](NodeId a, NodeId b) { return world.Latency(a, b); };
  });
  m.metered = NsPerProbe(pairs, [&](int) {
    auto meter = std::make_shared<MeteredSpace>(world);
    return [meter](NodeId a, NodeId b) { return meter->Latency(a, b); };
  });
  // The engine's stack, innermost first: Noisy -> Partitioned -> Faulty
  // -> Metered (-> ProbePolicy).
  struct Stack {
    std::unique_ptr<NoisySpace> noisy;
    std::unique_ptr<PartitionedSpace> part;
    std::unique_ptr<FaultySpace> faulty;
    std::unique_ptr<MeteredSpace> meter;
    np::core::ProbeCounter counter;
    std::unique_ptr<np::core::ProbePolicy> policy;
  };
  const auto make_stack = [&](bool noisy, int rep) {
    auto s = std::make_shared<Stack>();
    const std::uint64_t k = np::util::Mix64(seed ^ static_cast<unsigned>(rep));
    const LatencySpace* inner = &world;
    if (noisy) {
      s->noisy = std::make_unique<NoisySpace>(world, kMicroNoiseFrac, k);
      inner = s->noisy.get();
    }
    s->part = std::make_unique<PartitionedSpace>(*inner, no_partitions, k ^ 1);
    s->faulty = std::make_unique<FaultySpace>(*s->part, kMicroLossRate, k ^ 2);
    s->meter = std::make_unique<MeteredSpace>(*s->faulty);
    s->policy = std::make_unique<np::core::ProbePolicy>(
        np::core::ProbePolicyConfig{kMicroAttempts}, &s->counter);
    return s;
  };
  m.faulty = NsPerProbe(pairs, [&](int rep) {
    auto s = make_stack(false, rep);
    return [s](NodeId a, NodeId b) { return s->meter->Latency(a, b); };
  });
  m.noisy_faulty = NsPerProbe(pairs, [&](int rep) {
    auto s = make_stack(true, rep);
    return [s](NodeId a, NodeId b) { return s->meter->Latency(a, b); };
  });
  m.policy = NsPerProbe(pairs, [&](int rep) {
    auto s = make_stack(true, rep);
    return [s](NodeId a, NodeId b) {
      return s->policy->Probe(*s->meter, a, b).value_or(0.0);
    };
  });

  // Every worker probing through one shared meter: ns per probe per
  // thread, comparable with the single-thread `metered` figure.
  const int threads = BenchThreads();
  std::vector<double> shared;
  for (int rep = 0; rep < kMicroRepeats; ++rep) {
    const MeteredSpace meter(world);
    std::vector<double> sinks(static_cast<std::size_t>(threads), 0.0);
    std::vector<std::thread> workers;
    const std::int64_t start = NowNs();
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        double sink = 0.0;
        for (std::size_t i = 0; i < kMicroProbes; ++i) {
          const auto& [a, b] =
              pairs[(i + static_cast<std::size_t>(t) * 7919) &
                    (pairs.size() - 1)];
          sink += meter.Latency(a, b);
        }
        sinks[static_cast<std::size_t>(t)] = sink;
      });
    }
    for (std::thread& w : workers) {
      w.join();
    }
    shared.push_back(static_cast<double>(NowNs() - start) /
                     static_cast<double>(kMicroProbes));
    for (const double sink : sinks) {
      g_sink = g_sink + sink;
    }
  }
  m.metered_shared = Median(shared);
  return m;
}

struct BuildMicro {
  std::string algorithm;
  std::vector<int> threads;
  std::vector<double> metered_s;
  std::vector<double> unmetered_s;
};

/// ParallelBuild of `name` over `members` at 1, 2 and BenchThreads()
/// workers, through one shared meter and bare. Metered probe counts
/// must agree across thread counts (the ParallelBuild contract).
BuildMicro RunBuildMicro(const std::string& name, const LatencySpace& world,
                         const std::vector<NodeId>& members, std::uint64_t seed,
                         std::vector<std::string>* errors) {
  BuildMicro b;
  b.algorithm = name;
  for (const int t : {1, 2, BenchThreads()}) {
    if (std::find(b.threads.begin(), b.threads.end(), t) == b.threads.end()) {
      b.threads.push_back(t);
    }
  }
  std::uint64_t probes_at_one = 0;
  for (const int t : b.threads) {
    {
      const np::core::MeteredSpace meter(world);
      auto algo = np::bench::MakeBenchAlgorithm(name);
      np::util::Rng rng(seed);
      const std::int64_t start = NowNs();
      algo->ParallelBuild(meter, members, rng, t);
      b.metered_s.push_back(Seconds(start, NowNs()));
      if (t == 1) {
        probes_at_one = meter.probes();
      } else if (meter.probes() != probes_at_one) {
        errors->push_back(name + ": ParallelBuild billed a different probe "
                                 "count at " + std::to_string(t) + " threads");
      }
    }
    {
      auto algo = np::bench::MakeBenchAlgorithm(name);
      np::util::Rng rng(seed);
      const std::int64_t start = NowNs();
      algo->ParallelBuild(world, members, rng, t);
      b.unmetered_s.push_back(Seconds(start, NowNs()));
    }
  }
  return b;
}

struct SparseMicro {
  double hit_rate = 0.0;
  double misses = 0.0;
  double ns_hit = 0.0;
  double ns_miss = 0.0;
};

/// Timed row-cache hits (many sources against one cached target) and
/// misses (a cycle of distinct pairs 4x longer than the cache, so LRU
/// evicts every row before its reuse).
SparseMicro RunSparseMicro(const np::matrix::SparseTopologySpace& sparse,
                           std::uint64_t seed,
                           std::vector<std::string>* errors) {
  SparseMicro s;
  np::util::Rng rng(seed);
  const auto n = static_cast<std::size_t>(sparse.size());
  const NodeId target = static_cast<NodeId>(rng.Index(n));
  sparse.Latency(0, target);
  const auto before_hit = sparse.cache_stats();
  constexpr std::size_t kHits = 200000;
  double sink = 0.0;
  std::int64_t start = NowNs();
  for (std::size_t i = 0; i < kHits; ++i) {
    sink += sparse.Latency(static_cast<NodeId>((i * 7919) % n), target);
  }
  s.ns_hit = static_cast<double>(NowNs() - start) / kHits;
  if (sparse.cache_stats().misses != before_hit.misses) {
    errors->push_back("sparse micro-loop: hit loop missed the cache");
  }

  const std::size_t cycle = 4 * sparse.config().row_cache_capacity;
  std::vector<NodeId> nodes(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes[i] = static_cast<NodeId>(i);
  }
  rng.Shuffle(nodes);
  // One untimed pass evicts whatever earlier probes left cached; after
  // it every row a pair needs was evicted 3 cache-fulls ago.
  for (std::size_t i = 0; i < cycle; ++i) {
    sink += sparse.Latency(nodes[2 * i], nodes[2 * i + 1]);
  }
  const auto before_miss = sparse.cache_stats();
  start = NowNs();
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < cycle; ++i) {
      sink += sparse.Latency(nodes[2 * i], nodes[2 * i + 1]);
    }
  }
  const double calls = static_cast<double>(2 * cycle);
  s.ns_miss = static_cast<double>(NowNs() - start) / calls;
  const auto after_miss = sparse.cache_stats();
  if (static_cast<double>(after_miss.misses - before_miss.misses) != calls) {
    errors->push_back("sparse micro-loop: miss loop hit the cache");
  }
  g_sink = sink;
  return s;
}

void PrintRow(const std::string& layer, const std::string& calls, double s,
              double run_s) {
  char line[160];
  std::snprintf(line, sizeof(line), "  %-34s %10s %10.4f %7.1f%%\n",
                layer.c_str(), calls.c_str(), s, 100.0 * s / run_s);
  std::cout << line;
}

}  // namespace

RunResult RunTraced(const Workload& w, std::uint64_t seed,
                    const std::string& state_dir) {
  RunResult result;
  const Inputs inputs = MakeInputs(w);
  const LatencySpace& world = inputs.world->space();
  const int threads = BenchThreads();

  // --- Plain pass (the reference) ---------------------------------------
  std::vector<EngineRun> plain;
  {
    auto algos = MakeAlgorithms(w);
    for (auto& algo : algos) {
      plain.push_back(RunEngine(w, world, *algo, inputs.schedule));
      CheckRun(w, plain.back(), &result.errors);
    }
  }
  CheckDigestAcrossRuns(state_dir, w, seed, Fnv1a(CombinedDump(plain)),
                        &result.errors);

  // --- Traced pass: wrapper around each algorithm, tap under the world --
  const BackendTap tap(world);
  const np::matrix::SparseTopologySpace* sparse = inputs.world->sparse();
  np::matrix::SparseTopologySpace::CacheStats cache_before;
  if (sparse != nullptr) {
    cache_before = sparse->cache_stats();
  }
  BackendTap::ResetReads();
  std::vector<EngineRun> traced;
  std::vector<AlgoTrace> algo_traces;
  std::vector<std::unique_ptr<NearestPeerAlgorithm>> traced_algos;
  for (auto& inner : MakeAlgorithms(w)) {
    auto log = std::make_shared<CallLog>();
    auto algo = std::make_unique<TimedAlgorithm>(std::move(inner), log);
    const std::int64_t start = NowNs();
    traced.push_back(RunEngine(w, tap, *algo, inputs.schedule));
    const std::int64_t end = NowNs();
    const std::size_t i = traced.size() - 1;
    if (!np::core::ScenarioReportsIdentical(plain[i].scenario,
                                            traced[i].scenario) ||
        DeterministicDump(plain[i]) != DeterministicDump(traced[i])) {
      result.errors.push_back(w.name + "/" + w.algorithms[i] +
                              ": traced report differs from the plain run");
    }
    algo_traces.push_back(Analyze(w.algorithms[i], *log, start, end));
    algo_traces.back().plain_wall_s = plain[i].wall_s;
    traced_algos.push_back(std::move(algo));
  }
  const std::uint64_t backend_reads = BackendTap::Reads();

  // A second plain pass after the traced one, so warm-up and drift do
  // not land on one side of trace.overhead_frac.
  {
    auto algos = MakeAlgorithms(w);
    for (std::size_t i = 0; i < algos.size(); ++i) {
      const EngineRun again = RunEngine(w, world, *algos[i], inputs.schedule);
      if (DeterministicDump(again) != DeterministicDump(plain[i])) {
        result.errors.push_back(w.name + "/" + w.algorithms[i] +
                                ": plain passes disagree");
      }
      algo_traces[i].plain_wall_s =
          0.5 * (algo_traces[i].plain_wall_s + again.wall_s);
    }
  }
  np::matrix::SparseTopologySpace::CacheStats cache_run;
  if (sparse != nullptr) {
    const auto after = sparse->cache_stats();
    cache_run.hits = after.hits - cache_before.hits;
    cache_run.misses = after.misses - cache_before.misses;
  }

  // --- Truth scan over each final membership ----------------------------
  double truth_us_sum = 0.0;
  for (std::size_t i = 0; i < traced_algos.size(); ++i) {
    algo_traces[i].truth_us = TimeTruthScan(
        world, traced_algos[i]->members(), np::util::Mix64(seed ^ (0x7B + i)));
    truth_us_sum += algo_traces[i].truth_us;
  }

  // --- Probe-path micro-loops -------------------------------------------
  const ProbeMicro probe = RunProbeMicro(world, np::util::Mix64(seed ^ 0x9B));

  // --- ParallelBuild on the heaviest algorithm --------------------------
  std::size_t heaviest = 0;
  for (std::size_t i = 1; i < algo_traces.size(); ++i) {
    if (algo_traces[i].build_s > algo_traces[heaviest].build_s) {
      heaviest = i;
    }
  }
  std::vector<NodeId> build_members;
  {
    std::vector<NodeId> all(static_cast<std::size_t>(world.size()));
    for (std::size_t i = 0; i < all.size(); ++i) {
      all[i] = static_cast<NodeId>(i);
    }
    np::util::Rng rng(np::util::Mix64(seed ^ 0xB1D));
    rng.Shuffle(all);
    all.resize(static_cast<std::size_t>(w.scenario.initial_overlay));
    build_members = std::move(all);
  }
  const BuildMicro build =
      RunBuildMicro(w.algorithms[heaviest], world, build_members,
                    np::util::Mix64(seed ^ 0xB1E), &result.errors);

  SparseMicro sparse_micro;
  if (sparse != nullptr) {
    const double lookups = static_cast<double>(cache_run.hits + cache_run.misses);
    sparse_micro = RunSparseMicro(*sparse, np::util::Mix64(seed ^ 0x5A),
                                  &result.errors);
    sparse_micro.hit_rate =
        lookups > 0 ? static_cast<double>(cache_run.hits) / lookups : 0.0;
    sparse_micro.misses = static_cast<double>(cache_run.misses);
  }

  // --- Aggregate ----------------------------------------------------------
  double run_plain = 0.0;
  double run_traced = 0.0;
  double phase_s = 0.0;
  double covered_s = 0.0;
  std::uint64_t billed = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t events = 0;
  std::size_t snapshots = 0;
  std::size_t max_retired = 0;
  double clone_busy = 0.0;
  double clone_phase = 0.0;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const AlgoTrace& t = algo_traces[i];
    run_plain += t.plain_wall_s;
    run_traced += t.wall_s;
    phase_s += t.query_phase_s;
    covered_s += t.covered_s;
    billed += BilledProbes(traced[i].scenario);
    failed += traced[i].scenario.totals.failed_probes;
    retries += traced[i].scenario.totals.retries;
    events += traced[i].scenario.totals.churn_events;
    // Two plain passes and one traced pass, all with the same report.
    result.attempted +=
        static_cast<std::int64_t>(3 * traced[i].scenario.totals.queries);
    result.failed +=
        static_cast<std::int64_t>(2 * plain[i].scenario.failed_queries +
                                  traced[i].scenario.failed_queries);
    if (traced[i].serving) {
      snapshots += traced[i].serving->snapshots_published;
      max_retired = std::max(max_retired, traced[i].serving->max_retired_alive);
      clone_busy += t.clone_query_busy_s;
      clone_phase += t.clone_phase_s;
    }
  }
  const double residual_s = run_traced - covered_s;

  std::vector<Metric>& m = result.metrics;
  for (const std::string& name : AllAlgorithms()) {
    const auto it = std::find(w.algorithms.begin(), w.algorithms.end(), name);
    AlgoTrace t;
    double share = 0.0;
    if (it != w.algorithms.end()) {
      t = algo_traces[static_cast<std::size_t>(it - w.algorithms.begin())];
      share = t.plain_wall_s / run_plain;
    }
    const auto pct = [&](double q) {
      return t.query_us.empty() ? 0.0 : np::util::Percentile(t.query_us, q);
    };
    m.push_back({name + ".build_s", t.build_s, "s"});
    m.push_back({name + ".join_us",
                 t.joins > 0 ? t.join_s * 1e6 / static_cast<double>(t.joins)
                             : 0.0,
                 "us"});
    m.push_back({name + ".leave_us",
                 t.leaves > 0
                     ? t.leave_s * 1e6 / static_cast<double>(t.leaves)
                     : 0.0,
                 "us"});
    m.push_back({name + ".query_us_p50", pct(50.0), "us"});
    m.push_back({name + ".query_us_p99", pct(99.0), "us"});
    m.push_back({name + ".clone_ms",
                 t.clones > 0
                     ? t.clone_s * 1e3 / static_cast<double>(t.clones)
                     : 0.0,
                 "ms"});
    m.push_back({name + ".run_share", share, "fraction"});
  }
  const double n_algos = static_cast<double>(algo_traces.size());
  m.push_back({"engine.query_phase_s", phase_s, "s"});
  m.push_back({"engine.truth_us", truth_us_sum / n_algos, "us"});
  m.push_back({"engine.residual_s", residual_s, "s"});
  m.push_back({"engine.covered_frac", covered_s / run_traced, "fraction"});
  m.push_back({"churn.events", static_cast<double>(events), "count"});
  m.push_back({"probe.billed", static_cast<double>(billed), "count"});
  m.push_back({"probe.failed", static_cast<double>(failed), "count"});
  m.push_back({"probe.retries", static_cast<double>(retries), "count"});
  m.push_back({"probe.useful_ratio",
               billed > 0 ? static_cast<double>(billed - failed) /
                                static_cast<double>(billed)
                          : 0.0,
               "fraction"});
  m.push_back({"probe.ns.raw", probe.raw, "ns"});
  m.push_back({"probe.ns.metered", probe.metered, "ns"});
  m.push_back({"probe.ns.faulty", probe.faulty, "ns"});
  m.push_back({"probe.ns.noisy_faulty", probe.noisy_faulty, "ns"});
  m.push_back({"probe.ns.policy", probe.policy, "ns"});
  m.push_back({"probe.ns.metered_shared", probe.metered_shared, "ns"});
  m.push_back({"backend.calls_per_probe",
               billed > 0 ? static_cast<double>(backend_reads) /
                                static_cast<double>(billed)
                          : 0.0,
               "ratio"});
  const std::size_t last = build.threads.size() - 1;
  m.push_back({"parallel.build_speedup",
               build.metered_s[0] / build.metered_s[last], "ratio"});
  m.push_back({"parallel.build_speedup_unmetered",
               build.unmetered_s[0] / build.unmetered_s[last], "ratio"});
  m.push_back({"parallel.metered_s_t1", build.metered_s[0], "s"});
  m.push_back({"parallel.metered_s_t2",
               build.metered_s[std::min<std::size_t>(1, last)], "s"});
  m.push_back({"parallel.metered_s_tmax", build.metered_s[last], "s"});
  m.push_back({"parallel.unmetered_s_t1", build.unmetered_s[0], "s"});
  m.push_back({"parallel.unmetered_s_t2",
               build.unmetered_s[std::min<std::size_t>(1, last)], "s"});
  m.push_back({"parallel.unmetered_s_tmax", build.unmetered_s[last], "s"});
  m.push_back({"serving.snapshots", static_cast<double>(snapshots), "count"});
  m.push_back({"serving.max_retired_alive", static_cast<double>(max_retired),
               "count"});
  m.push_back({"serving.reader_algo_share",
               clone_phase > 0.0
                   ? clone_busy / (static_cast<double>(w.reader_threads) *
                                   clone_phase)
                   : 0.0,
               "fraction"});
  m.push_back({"sparse.row_hit_rate", sparse_micro.hit_rate, "fraction"});
  m.push_back({"sparse.row_misses", sparse_micro.misses, "count"});
  m.push_back({"sparse.ns_hit", sparse_micro.ns_hit, "ns"});
  m.push_back({"sparse.ns_miss", sparse_micro.ns_miss, "ns"});
  m.push_back({"trace.overhead_frac", run_traced / run_plain - 1.0,
               "fraction"});

  // --- Printout -----------------------------------------------------------
  std::cout << "traced run: " << w.name << " seed " << seed << ", "
            << threads << " threads\n";
  std::cout << "run_s plain " << run_plain << " s, traced " << run_traced
            << " s (trace.overhead_frac " << run_traced / run_plain - 1.0
            << ")\n";
  std::cout << "self-times of the traced run (share of traced run_s):\n";
  char head[160];
  std::snprintf(head, sizeof(head), "  %-34s %10s %10s %8s\n", "layer",
                "calls", "seconds", "share");
  std::cout << head;
  for (const AlgoTrace& t : algo_traces) {
    const double algo_busy_in_phase =
        t.query_busy_s /
        static_cast<double>(w.serving ? w.reader_threads : threads);
    PrintRow(t.name + " build", "1", t.build_s, run_traced);
    PrintRow(t.name + " join", std::to_string(t.joins), t.join_s, run_traced);
    PrintRow(t.name + " leave", std::to_string(t.leaves), t.leave_s,
             run_traced);
    PrintRow(t.name + " clone", std::to_string(t.clones), t.clone_s,
             run_traced);
    PrintRow(t.name + " query phases (wall)",
             std::to_string(t.query_us.size()), t.query_phase_s, run_traced);
    PrintRow("  in FindNearest (busy/workers)", "", algo_busy_in_phase,
             run_traced);
    PrintRow("  rest: truth scan, stacks, reduce", "",
             t.query_phase_s - algo_busy_in_phase, run_traced);
  }
  PrintRow("engine.residual_s (uncovered)", "", residual_s, run_traced);
  std::cout << "wrapped calls cover " << 100.0 * covered_s / run_traced
            << "% of traced run_s; engine.residual_s = " << residual_s
            << " s\n";
  std::cout << "truth scan vs algorithm query (us):\n";
  for (const AlgoTrace& t : algo_traces) {
    const double q50 =
        t.query_us.empty() ? 0.0 : np::util::Percentile(t.query_us, 50.0);
    std::cout << "  " << t.name << ": truth " << t.truth_us << " us, query p50 "
              << q50 << " us, truth/query " << (q50 > 0 ? t.truth_us / q50 : 0)
              << "\n";
  }
  std::cout << "probe path ns/probe (1 thread): raw " << probe.raw
            << ", metered " << probe.metered << ", +faulty " << probe.faulty
            << ", +noisy " << probe.noisy_faulty << ", +policy "
            << probe.policy << "; metered shared by " << threads
            << " threads " << probe.metered_shared << "\n";
  std::cout << "ParallelBuild " << build.algorithm << " ("
            << build_members.size() << " members):\n";
  for (std::size_t i = 0; i < build.threads.size(); ++i) {
    std::cout << "  threads " << build.threads[i] << ": metered "
              << build.metered_s[i] << " s, unmetered "
              << build.unmetered_s[i] << " s\n";
  }
  std::cout << "run shares:";
  for (const AlgoTrace& t : algo_traces) {
    std::cout << " " << t.name << " " << t.plain_wall_s / run_plain;
  }
  std::cout << "\nbackend reads " << backend_reads << " for " << billed
            << " billed probes\n";
  return result;
}

}  // namespace perfbench
