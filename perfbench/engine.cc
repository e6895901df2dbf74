#include "engine.h"

#include <cstdio>
#include <string>

#include "instrument.h"

namespace perfbench {
namespace {

using np::core::EpochReport;
using np::core::ScenarioReport;

/// Appends `key=value;` with doubles as hex floats (exact bits).
class Dump {
 public:
  Dump& Add(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return Put(key, buf);
  }
  Dump& Add(const char* key, std::uint64_t v) {
    return Put(key, std::to_string(v));
  }
  Dump& Add(const char* key, std::int64_t v) {
    return Put(key, std::to_string(v));
  }
  Dump& Add(const char* key, int v) { return Put(key, std::to_string(v)); }
  Dump& Add(const char* key, bool v) { return Put(key, v ? "1" : "0"); }
  Dump& Add(const char* key, const std::string& v) { return Put(key, v); }
  std::string text() const { return text_; }

 private:
  Dump& Put(const char* key, const std::string& v) {
    text_ += key;
    text_ += '=';
    text_ += v;
    text_ += ';';
    return *this;
  }
  std::string text_;
};

void DumpEpoch(const EpochReport& er, Dump& d) {
  d.Add("epoch", er.epoch).Add("t", er.time_s).Add("live", er.live_members);
  d.Add("joins", er.joins).Add("leaves", er.leaves).Add("crashes", er.crashes);
  d.Add("skipped", er.skipped_events).Add("rebuilt", er.rebuilt);
  d.Add("p_exact", er.p_exact_closest)
      .Add("p_cluster", er.p_correct_cluster)
      .Add("p_net", er.p_same_net);
  d.Add("found_ms", er.mean_found_latency_ms).Add("hops", er.mean_hops);
  d.Add("x50", er.excess_latency_p50_ms)
      .Add("x95", er.excess_latency_p95_ms)
      .Add("x99", er.excess_latency_p99_ms);
  d.Add("mpq", er.messages_per_query)
      .Add("maint", er.maintenance_messages)
      .Add("mpe", er.maintenance_per_event);
  d.Add("p_fail", er.p_query_failed)
      .Add("failed_probes", er.failed_probes)
      .Add("retries", er.retries);
  d.Add("p_reach", er.p_exact_reachable);
  for (const EpochReport::ComponentStats& c : er.components) {
    d.Add("comp", c.component).Add("members", c.members);
    d.Add("queries", c.queries).Add("failed", c.failed_queries);
    d.Add("gini", c.load_gini);
  }
  d.Add("quar", er.quarantined_peers)
      .Add("skips", er.suspicion_skips)
      .Add("probation", er.probation_probes);
  d.Add("load_max", er.load_max)
      .Add("load_med", er.load_median)
      .Add("load_gini", er.load_gini);
}

void CheckFraction(const std::string& where, const char* what, double p,
                   std::vector<std::string>* errors) {
  if (!(p >= 0.0 && p <= 1.0)) {
    errors->push_back(where + ": " + what + " = " + std::to_string(p) +
                      " outside [0, 1]");
  }
}

}  // namespace

EngineRun RunEngine(const Workload& workload,
                    const np::core::LatencySpace& space,
                    np::core::NearestPeerAlgorithm& algo,
                    const np::core::ChurnSchedule& schedule) {
  EngineRun run;
  const std::int64_t start = NowNs();
  if (workload.serving) {
    np::core::ServingConfig config;
    config.scenario = workload.scenario;
    config.reader_threads = workload.reader_threads;
    run.serving = np::core::RunServing(space, nullptr, algo, schedule, config);
    run.scenario = run.serving->scenario;
  } else {
    run.scenario = np::core::RunScenario(space, nullptr, algo, schedule,
                                         workload.scenario);
  }
  run.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  return run;
}

std::string DeterministicDump(const EngineRun& run) {
  const ScenarioReport& r = run.scenario;
  Dump d;
  d.Add("algo", r.algorithm).Add("clustered", r.clustered);
  d.Add("build", r.build_messages)
      .Add("initial", r.initial_members)
      .Add("final", r.final_members);
  const np::core::ProbeCounter::Snapshot& t = r.totals;
  d.Add("q_probes", t.query_probes).Add("queries", t.queries);
  d.Add("m_probes", t.maintenance_probes).Add("events", t.churn_events);
  d.Add("b_probes", t.build_probes).Add("failed", t.failed_probes);
  d.Add("retries", t.retries)
      .Add("skips", t.suspicion_skips)
      .Add("probation", t.probation_probes);
  d.Add("mpq", r.messages_per_query).Add("mpe", r.maintenance_per_event);
  d.Add("fault", r.fault_mode)
      .Add("load", r.load_tracking)
      .Add("partition", r.partition_mode)
      .Add("suspicion", r.suspicion_mode);
  d.Add("failed_queries", r.failed_queries);
  d.Add("load_total", r.load.total)
      .Add("load_max", r.load.max)
      .Add("load_max_node", r.load.max_node)
      .Add("load_median", r.load.median)
      .Add("load_gini", r.load.gini);
  for (const EpochReport& er : r.epochs) {
    DumpEpoch(er, d);
  }
  if (run.serving) {
    d.Add("snapshots", static_cast<std::uint64_t>(
                           run.serving->snapshots_published));
    for (const np::core::StalenessReport& st : run.serving->staleness) {
      d.Add("st_epoch", st.epoch)
          .Add("live", st.p_exact_live)
          .Add("departed", st.p_found_departed);
    }
  }
  return d.text();
}

std::string CombinedDump(const std::vector<EngineRun>& runs) {
  std::string text;
  for (const EngineRun& run : runs) {
    text += DeterministicDump(run);
    text += '\n';
  }
  return text;
}

std::uint64_t Fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t BilledProbes(const ScenarioReport& report) {
  return report.totals.build_probes + report.totals.maintenance_probes +
         report.totals.query_probes;
}

void CheckRun(const Workload& workload, const EngineRun& run,
              std::vector<std::string>* errors) {
  const ScenarioReport& r = run.scenario;
  const std::string where = workload.name + "/" + r.algorithm;
  const np::core::ProbeCounter::Snapshot& t = r.totals;
  if (t.failed_probes > BilledProbes(r)) {
    errors->push_back(where + ": failed probes exceed billed probes");
  }
  if (t.retries > t.failed_probes) {
    errors->push_back(where + ": retries exceed failed probes");
  }
  std::int64_t joins = 0;
  std::int64_t departures = 0;
  for (const EpochReport& er : r.epochs) {
    joins += er.joins;
    departures += er.leaves + er.crashes;
    const std::string at = where + " epoch " + std::to_string(er.epoch);
    CheckFraction(at, "p_exact_closest", er.p_exact_closest, errors);
    CheckFraction(at, "p_correct_cluster", er.p_correct_cluster, errors);
    CheckFraction(at, "p_same_net", er.p_same_net, errors);
    CheckFraction(at, "p_query_failed", er.p_query_failed, errors);
    CheckFraction(at, "p_exact_reachable", er.p_exact_reachable, errors);
  }
  if (static_cast<std::int64_t>(r.initial_members) + joins - departures !=
      static_cast<std::int64_t>(r.final_members)) {
    errors->push_back(where + ": initial + joins - leaves - crashes != final");
  }
  const bool fault_free = workload.scenario.fault.loss_rate == 0.0 &&
                          workload.churn.crash_fraction == 0.0;
  if (fault_free && r.failed_queries != 0) {
    errors->push_back(where + ": fault-free run left " +
                      std::to_string(r.failed_queries) + " queries unanswered");
  }
  const std::uint64_t expected_queries =
      static_cast<std::uint64_t>(workload.scenario.epochs) *
      static_cast<std::uint64_t>(workload.scenario.queries_per_epoch);
  if (t.queries != expected_queries) {
    errors->push_back(where + ": " + std::to_string(t.queries) +
                      " queries charged, expected " +
                      std::to_string(expected_queries));
  }
  if (run.serving) {
    for (const np::core::StalenessReport& st : run.serving->staleness) {
      const std::string at = where + " epoch " + std::to_string(st.epoch);
      CheckFraction(at, "p_exact_live", st.p_exact_live, errors);
      CheckFraction(at, "p_found_departed", st.p_found_departed, errors);
    }
  }
}

}  // namespace perfbench
