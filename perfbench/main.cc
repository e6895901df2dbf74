// End-to-end + per-layer benchmark of the scenario and serving engines.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--state-dir <dir>]
//
// --trace 0 times the workload with no instrumentation and prints the
// end-to-end metrics; --trace 1 runs it plain, through the tracing
// wrapper and tap, and plain again, runs the per-layer micro-loops and
// prints the per-layer metrics. The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// See README.md for every metric and workload.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/probe_policy.h"
#include "instrument.h"
#include "matrix/faulty_space.h"
#include "run.h"
#include "util/rng.h"
#include "util/stats.h"

namespace perfbench {

namespace {
std::string g_executable;
}  // namespace

const std::string& ExecutablePath() { return g_executable; }

double Median(std::vector<double> values) {
  return np::util::Percentile(std::move(values), 50.0);
}

void CheckDigestAcrossRuns(const std::string& state_dir,
                           const Workload& workload, std::uint64_t seed,
                           std::uint64_t digest,
                           std::vector<std::string>* errors) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(state_dir, ec);
  // Keyed by the executable's build time too, so a rebuilt program
  // starts afresh.
  std::error_code exe_ec;
  const auto exe_time = fs::last_write_time(ExecutablePath(), exe_ec);
  const std::string key =
      workload.name + "-" + std::to_string(seed) + "-" +
      std::to_string(exe_time.time_since_epoch().count()) + ".digest";
  const fs::path path = fs::path(state_dir) / key;
  std::ifstream in(path);
  std::uint64_t stored = 0;
  if (in >> std::hex >> stored) {
    if (stored != digest) {
      errors->push_back("deterministic block differs from an earlier run "
                        "of the same workload and seed");
    }
    return;
  }
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp);
    out << std::hex << digest << "\n";
  }
  fs::rename(tmp, path, ec);
}

namespace {

// Set-up is timed kSetupRepeats times on each of the first kSetupTurns
// CPUs up front, and kSetupRepeats times on the next CPU before each
// timed iteration; each batch follows one untimed set-up on its CPU.
// The metric is the median of all samples.
constexpr int kSetupTurns = 4;
constexpr int kSetupRepeats = 5;
constexpr int kMinIterations = 2;

/// Pins the calling thread to one CPU of its affinity mask, chosen
/// round-robin by `turn`, and restores the mask on destruction. Used
/// only around single-threaded timed work (set-up, the service loop):
/// threads created while pinned would inherit the one-CPU mask. On a
/// VM one vCPU can run slow for seconds while its host core is busy;
/// rotating over the CPUs keeps one such vCPU from deciding a median.
class ScopedCpuPin {
 public:
  explicit ScopedCpuPin(std::size_t turn) {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) {
      return;
    }
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) {
        cpus.push_back(c);
      }
    }
    if (cpus.size() < 2) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[turn % cpus.size()], &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~ScopedCpuPin() {
    if (pinned_) {
      sched_setaffinity(0, sizeof(original_), &original_);
    }
  }
  ScopedCpuPin(const ScopedCpuPin&) = delete;
  ScopedCpuPin& operator=(const ScopedCpuPin&) = delete;

 private:
  cpu_set_t original_;
  bool pinned_ = false;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Closed-loop query service against a scenario-mode algorithm's final
/// overlay: one client, each query through the engine's per-query
/// stack (loss decorator, meter, retry policy) and scored against the
/// exhaustive truth scan, as a serving reader does. The algorithm keeps
/// a pointer to the engine's (now destroyed) maintenance space; every
/// scheme these workloads run only null-checks it in FindNearest and
/// probes through the meter passed in.
struct ServiceSample {
  std::vector<double> latency_us;
  double wall_s = 0.0;
  std::int64_t failed = 0;
};

ServiceSample ServeFinalOverlay(const Workload& w,
                                const np::core::LatencySpace& space,
                                np::core::NearestPeerAlgorithm& algo,
                                std::uint64_t seed,
                                std::vector<std::string>* errors) {
  const std::vector<np::NodeId> members = algo.members();
  const std::unordered_set<np::NodeId> member_set(members.begin(),
                                                  members.end());
  np::util::Rng rng(seed);
  std::vector<np::NodeId> targets;
  while (targets.size() < static_cast<std::size_t>(w.service_queries)) {
    const auto t = static_cast<np::NodeId>(
        rng.Index(static_cast<std::size_t>(space.size())));
    if (member_set.count(t) == 0) {
      targets.push_back(t);
    }
  }
  const np::core::ProbePolicy policy(
      np::core::ProbePolicyConfig{w.scenario.fault.max_attempts});
  algo.AttachProbePolicy(&policy);
  ServiceSample out;
  out.latency_us.reserve(targets.size());
  const std::int64_t loop_start = NowNs();
  for (std::size_t q = 0; q < targets.size(); ++q) {
    const np::NodeId target = targets[q];
    const std::int64_t start = NowNs();
    const np::matrix::FaultySpace faulty(space, w.scenario.fault.loss_rate,
                                         np::util::Mix64(seed ^ q));
    const np::core::MeteredSpace metered(faulty);
    np::util::Rng qrng(np::util::Mix64(seed ^ 0x51ULL ^ (q << 8)));
    const np::core::QueryResult res = algo.Query(target, metered, qrng);
    const np::NodeId truth =
        np::core::TrueClosestMember(space, members, target);
    out.latency_us.push_back(static_cast<double>(NowNs() - start) * 1e-3);
    if (res.found == np::kInvalidNode) {
      ++out.failed;
      if (w.scenario.fault.loss_rate == 0.0) {
        errors->push_back(w.name + "/" + algo.name() +
                          ": fault-free service query unanswered");
      }
    } else if (member_set.count(res.found) == 0) {
      errors->push_back(w.name + "/" + algo.name() +
                        ": service query answered a non-member");
    } else if (space.Latency(res.found, target) <
               space.Latency(truth, target)) {
      errors->push_back(w.name + "/" + algo.name() +
                        ": service answer closer than the true nearest");
    }
  }
  out.wall_s = SecondsSince(loop_start);
  algo.AttachProbePolicy(nullptr);
  return out;
}

struct Quality {
  double p_exact = 0.0;
  double msgs_per_query = 0.0;
  double maint_per_event = 0.0;
  double answered = 0.0;
};

Quality QualityOf(const std::vector<EngineRun>& runs) {
  double p_sum = 0.0;
  int epochs = 0;
  std::uint64_t query_probes = 0;
  std::uint64_t queries = 0;
  std::uint64_t maint = 0;
  std::uint64_t events = 0;
  std::uint64_t failed = 0;
  for (const EngineRun& run : runs) {
    for (const np::core::EpochReport& er : run.scenario.epochs) {
      p_sum += er.p_exact_closest;
      ++epochs;
    }
    query_probes += run.scenario.totals.query_probes;
    queries += run.scenario.totals.queries;
    maint += run.scenario.totals.maintenance_probes;
    events += run.scenario.totals.churn_events;
    failed += run.scenario.failed_queries;
  }
  Quality q;
  q.p_exact = epochs > 0 ? p_sum / epochs : 0.0;
  q.msgs_per_query = queries > 0 ? static_cast<double>(query_probes) /
                                       static_cast<double>(queries)
                                 : 0.0;
  q.maint_per_event =
      events > 0 ? static_cast<double>(maint) / static_cast<double>(events)
                 : 0.0;
  q.answered = queries > 0 ? 1.0 - static_cast<double>(failed) /
                                       static_cast<double>(queries)
                           : 0.0;
  return q;
}

RunResult RunTimed(const Workload& w, std::uint64_t seed, double seconds,
                   const std::string& state_dir) {
  RunResult result;

  // --- Set-up: world + churn schedule + algorithm construction --------
  std::vector<double> setup_s;
  // One untimed set-up first: the allocator's first large blocks are
  // slower than every later one.
  std::optional<Inputs> inputs(MakeInputs(w));
  std::size_t setup_turn = 0;
  const auto time_setups = [&] {
    const ScopedCpuPin pin(setup_turn++);
    MakeInputs(w);
    for (int i = 0; i < kSetupRepeats; ++i) {
      const std::int64_t start = NowNs();
      Inputs in = MakeInputs(w);
      const auto algos = MakeAlgorithms(w);
      setup_s.push_back(SecondsSince(start));
    }
  };
  for (int turn = 0; turn < kSetupTurns; ++turn) {
    time_setups();
  }
  const np::core::LatencySpace& space = inputs->world->space();

  // --- Timed engine calls, repeated until the time is used ------------
  const std::int64_t begin = NowNs();
  std::vector<double> run_s;
  std::vector<double> qps;
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<EngineRun> first;
  std::string first_dump;
  for (int iter = 0;; ++iter) {
    time_setups();
    auto algos = MakeAlgorithms(w);
    std::vector<EngineRun> runs;
    double wall = 0.0;
    double service_queries = 0.0;
    double service_wall = 0.0;
    std::vector<double> algo_p50;
    std::vector<double> algo_p99;
    for (std::size_t a = 0; a < algos.size(); ++a) {
      runs.push_back(RunEngine(w, space, *algos[a], inputs->schedule));
      const EngineRun& run = runs.back();
      wall += run.wall_s;
      CheckRun(w, run, &result.errors);
      result.attempted += static_cast<std::int64_t>(run.scenario.totals.queries);
      result.failed += static_cast<std::int64_t>(run.scenario.failed_queries);
      if (run.serving) {
        const np::core::ServingReport& sr = *run.serving;
        service_queries += static_cast<double>(run.scenario.totals.queries);
        service_wall += static_cast<double>(run.scenario.totals.queries) /
                        sr.qps;
        algo_p50.push_back(sr.query_latency_p50_us);
        algo_p99.push_back(sr.query_latency_p99_us);
      } else {
        const ScopedCpuPin pin(static_cast<std::size_t>(iter) + a);
        const ServiceSample s = ServeFinalOverlay(
            w, space, *algos[a], np::util::Mix64(seed ^ (0xA160ULL + a)),
            &result.errors);
        result.attempted += static_cast<std::int64_t>(s.latency_us.size());
        result.failed += s.failed;
        service_queries += static_cast<double>(s.latency_us.size());
        service_wall += s.wall_s;
        algo_p50.push_back(np::util::Percentile(s.latency_us, 50.0));
        algo_p99.push_back(np::util::Percentile(s.latency_us, 99.0));
      }
    }
    run_s.push_back(wall);
    qps.push_back(service_queries / service_wall);
    // Per-algorithm percentiles, averaged over the algorithms.
    p50.push_back(Mean(algo_p50));
    p99.push_back(Mean(algo_p99));

    const std::string dump = CombinedDump(runs);
    if (iter == 0) {
      first = std::move(runs);
      first_dump = dump;
    } else if (dump != first_dump) {
      result.errors.push_back("deterministic block changed between "
                              "iterations of the same inputs");
    }
    if (iter + 1 >= kMinIterations && SecondsSince(begin) >= seconds) {
      break;
    }
  }
  const double peak_rss_mb = PeakRssMb();
  const std::size_t latency_samples =
      w.serving ? static_cast<std::size_t>(w.scenario.epochs) *
                      static_cast<std::size_t>(w.scenario.queries_per_epoch)
                : static_cast<std::size_t>(w.service_queries);

  // --- Untimed checks ---------------------------------------------------
  if (w.serving) {
    // Serving's deterministic block must equal serial RunScenario.
    // Reports are thread-count invariant, so the replay may use every
    // worker.
    auto replay_algos = MakeAlgorithms(w);
    np::core::ScenarioConfig replay_config = w.scenario;
    replay_config.num_threads = BenchThreads();
    for (std::size_t a = 0; a < replay_algos.size(); ++a) {
      const np::core::ScenarioReport replay = np::core::RunScenario(
          space, nullptr, *replay_algos[a], inputs->schedule, replay_config);
      if (!np::core::ScenarioReportsIdentical(first[a].scenario, replay)) {
        result.errors.push_back(w.name + "/" + w.algorithms[a] +
                                ": serving block differs from serial replay");
      }
    }
  }
  CheckDigestAcrossRuns(state_dir, w, seed, Fnv1a(first_dump),
                        &result.errors);

  const Quality q = QualityOf(first);
  result.metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"run_s", Median(run_s), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"p_exact", q.p_exact, "fraction"},
      {"msgs_per_query", q.msgs_per_query, "probes"},
      {"maint_msgs_per_event", q.maint_per_event, "probes"},
      {"answered_query_frac", result.errors.empty() ? q.answered : 0.0,
       "fraction"},
      {"serve_qps", Median(qps), "1/s"},
      {"serve_p50_us", Median(p50), "us"},
      {"serve_p99_us", Median(p99), "us"},
  };
  std::cout << "timed run: " << w.name << " seed " << seed << ", "
            << run_s.size() << " iterations of " << w.algorithms.size()
            << " engine calls, " << setup_s.size() << " set-ups\n";
  for (const EngineRun& run : first) {
    const np::core::ScenarioReport& r = run.scenario;
    std::cout << "algorithm " << r.algorithm << ": members "
              << r.initial_members << " -> " << r.final_members
              << ", msgs/query " << r.messages_per_query << ", maint/event "
              << r.maintenance_per_event << ", failed queries "
              << r.failed_queries << ", p_exact by epoch";
    for (const np::core::EpochReport& er : r.epochs) {
      std::cout << " " << er.p_exact_closest;
    }
    std::cout << "\n";
  }
  std::cout << "latency samples per algorithm per iteration: "
            << latency_samples << "\n";
  std::cout << "run_s per iteration:";
  for (const double s : run_s) {
    std::cout << " " << s;
  }
  std::cout << "\n";
  return result;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(const RunResult& result) {
  for (const std::string& e : result.errors) {
    std::cout << "CHECK FAILED: " << e << "\n";
  }
  const bool correct = result.errors.empty();
  // A run that fails a check counts every query it attempted as failed.
  const std::int64_t attempted = std::max<std::int64_t>(result.attempted, 1);
  const std::int64_t failed = correct ? result.failed : attempted;
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    out << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
        << JsonNumber(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

int Main(int argc, char** argv) {
  g_executable = argv[0];
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string state_dir = ".bench_build/perfbench_state";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::stoull(value);
    } else if (key == "--seconds") {
      seconds = std::stod(value);
    } else if (key == "--trace") {
      trace = std::stoi(value);
    } else if (key == "--state-dir") {
      state_dir = value;
    } else {
      std::cerr << "unknown argument: " << key << "\n";
      return 2;
    }
  }
  if (workload.empty() || (trace != 0 && trace != 1)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--state-dir <dir>]\n";
    return 2;
  }
  const Workload w = MakeWorkload(workload, seed);
  const RunResult result = trace == 1 ? RunTraced(w, seed, state_dir)
                                      : RunTimed(w, seed, seconds, state_dir);
  PrintResult(result);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
