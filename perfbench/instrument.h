// Tracing seams the benchmark puts around the program from outside.
//
// TimedAlgorithm wraps any NearestPeerAlgorithm, forwards every virtual
// unchanged and records a span per Build / ParallelBuild / AddMember /
// RemoveMember / FindNearest / Clone call. BackendTap sits under the
// world space and counts backend Latency() reads. Neither changes a
// result: the transparency test checks that every ScenarioReport is
// bit-identical with and without them.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/latency_space.h"
#include "core/nearest_algorithm.h"

namespace perfbench {

/// Monotonic clock in nanoseconds.
std::int64_t NowNs();

enum class CallKind { kBuild, kJoin, kLeave, kQuery, kClone };

/// First query phase of serving snapshots; live-overlay phases stay
/// far below it.
inline constexpr std::int64_t kFirstClonePhase = std::int64_t{1} << 40;

/// One wrapped call. `phase` groups queries: for the live overlay it is
/// the maintenance generation the query ran after (one per epoch's
/// query batch), for a serving snapshot it is the snapshot's own id.
struct Call {
  CallKind kind = CallKind::kQuery;
  std::int64_t phase = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Call log shared by a wrapper and all its clones. Threads append to
/// one of a few shards picked by thread id, so concurrent readers
/// rarely contend; read it only after every worker has joined.
class CallLog {
 public:
  void Record(const Call& call);
  std::vector<Call> Calls() const;
  /// Ids for snapshot clones, disjoint from live-overlay generations.
  std::int64_t NextClonePhase() { return next_clone_phase_++; }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::vector<Call> calls;
  };
  static constexpr std::size_t kShards = 16;
  std::array<Shard, kShards> shards_;
  std::atomic<std::int64_t> next_clone_phase_{kFirstClonePhase};
};

class TimedAlgorithm final : public np::core::NearestPeerAlgorithm {
 public:
  TimedAlgorithm(std::unique_ptr<np::core::NearestPeerAlgorithm> inner,
                 std::shared_ptr<CallLog> log);

  bool SupportsChurn() const override { return inner_->SupportsChurn(); }
  void AddMember(np::NodeId node, np::util::Rng& rng) override;
  void RemoveMember(np::NodeId node) override;
  std::string name() const override { return inner_->name(); }
  bool ParallelQuerySafe() const override {
    return inner_->ParallelQuerySafe();
  }
  void Build(const np::core::LatencySpace& space,
             std::vector<np::NodeId> members, np::util::Rng& rng) override;
  bool SupportsParallelBuild() const override {
    return inner_->SupportsParallelBuild();
  }
  void ParallelBuild(const np::core::LatencySpace& space,
                     std::vector<np::NodeId> members, np::util::Rng& rng,
                     int num_threads) override;
  np::core::QueryResult FindNearest(np::NodeId target,
                                    const np::core::MeteredSpace& metered,
                                    np::util::Rng& rng) override;
  void AttachProbePolicy(const np::core::ProbePolicy* policy) override;
  const std::vector<np::NodeId>& members() const override {
    return inner_->members();
  }
  bool SupportsSnapshot() const override {
    return inner_->SupportsSnapshot();
  }
  std::unique_ptr<np::core::NearestPeerAlgorithm> Clone() const override;

 private:
  /// Records a maintenance span; the next query opens a new phase.
  void Maintenance(CallKind kind, std::int64_t start_ns);

  std::unique_ptr<np::core::NearestPeerAlgorithm> inner_;
  std::shared_ptr<CallLog> log_;
  /// Written only by the serial maintenance path; read by queries.
  std::int64_t phase_ = 0;
  std::atomic<bool> queried_since_maintenance_{false};
  /// Snapshot clones answer under their own fixed phase.
  bool is_clone_ = false;
};

/// Counts every Latency() read of the wrapped backend. Counts are kept
/// per thread (a shared atomic add on every read triples the run time)
/// and summed on demand.
class BackendTap final : public np::core::LatencySpace {
 public:
  explicit BackendTap(const np::core::LatencySpace& inner) : inner_(&inner) {}
  np::NodeId size() const override { return inner_->size(); }
  np::LatencyMs Latency(np::NodeId a, np::NodeId b) const override;

  /// Reads since the last reset. Call from the thread that owns the
  /// run, after every worker thread has joined.
  static std::uint64_t Reads();
  static void ResetReads();

 private:
  const np::core::LatencySpace* inner_;
};

}  // namespace perfbench
