#include "instrument.h"

#include <chrono>
#include <functional>
#include <thread>
#include <utility>

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void CallLog::Record(const Call& call) {
  const std::size_t shard =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards;
  std::lock_guard<std::mutex> lock(shards_[shard].mu);
  shards_[shard].calls.push_back(call);
}

std::vector<Call> CallLog::Calls() const {
  std::vector<Call> all;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    all.insert(all.end(), shard.calls.begin(), shard.calls.end());
  }
  return all;
}

TimedAlgorithm::TimedAlgorithm(
    std::unique_ptr<np::core::NearestPeerAlgorithm> inner,
    std::shared_ptr<CallLog> log)
    : inner_(std::move(inner)), log_(std::move(log)) {}

void TimedAlgorithm::Maintenance(CallKind kind, std::int64_t start_ns) {
  log_->Record(Call{kind, phase_, start_ns, NowNs()});
  if (queried_since_maintenance_.exchange(false, std::memory_order_relaxed)) {
    ++phase_;
  }
}

void TimedAlgorithm::AddMember(np::NodeId node, np::util::Rng& rng) {
  const std::int64_t start = NowNs();
  inner_->AddMember(node, rng);
  Maintenance(CallKind::kJoin, start);
}

void TimedAlgorithm::RemoveMember(np::NodeId node) {
  const std::int64_t start = NowNs();
  inner_->RemoveMember(node);
  Maintenance(CallKind::kLeave, start);
}

void TimedAlgorithm::Build(const np::core::LatencySpace& space,
                           std::vector<np::NodeId> members,
                           np::util::Rng& rng) {
  const std::int64_t start = NowNs();
  inner_->Build(space, std::move(members), rng);
  Maintenance(CallKind::kBuild, start);
}

void TimedAlgorithm::ParallelBuild(const np::core::LatencySpace& space,
                                   std::vector<np::NodeId> members,
                                   np::util::Rng& rng, int num_threads) {
  const std::int64_t start = NowNs();
  inner_->ParallelBuild(space, std::move(members), rng, num_threads);
  Maintenance(CallKind::kBuild, start);
}

np::core::QueryResult TimedAlgorithm::FindNearest(
    np::NodeId target, const np::core::MeteredSpace& metered,
    np::util::Rng& rng) {
  const std::int64_t start = NowNs();
  np::core::QueryResult result = inner_->FindNearest(target, metered, rng);
  log_->Record(Call{CallKind::kQuery, phase_, start, NowNs()});
  if (!is_clone_) {
    queried_since_maintenance_.store(true, std::memory_order_relaxed);
  }
  return result;
}

void TimedAlgorithm::AttachProbePolicy(const np::core::ProbePolicy* policy) {
  NearestPeerAlgorithm::AttachProbePolicy(policy);
  inner_->AttachProbePolicy(policy);
}

std::unique_ptr<np::core::NearestPeerAlgorithm> TimedAlgorithm::Clone() const {
  const std::int64_t start = NowNs();
  auto clone = std::make_unique<TimedAlgorithm>(inner_->Clone(), log_);
  clone->is_clone_ = true;
  clone->phase_ = log_->NextClonePhase();
  log_->Record(Call{CallKind::kClone, phase_, start, NowNs()});
  return clone;
}

namespace {

/// One counter per thread that has read through a tap, each on its own
/// cache line. Slots outlive their threads, so counts survive the
/// short-lived ParallelFor workers; a thread finds its slot through a
/// trivial thread_local pointer.
struct alignas(64) ReadSlot {
  std::uint64_t count = 0;
};
std::mutex g_slots_mu;
std::vector<std::unique_ptr<ReadSlot>> g_slots;
thread_local ReadSlot* t_slot = nullptr;

ReadSlot* RegisterSlot() {
  std::lock_guard<std::mutex> lock(g_slots_mu);
  g_slots.push_back(std::make_unique<ReadSlot>());
  return g_slots.back().get();
}

}  // namespace

np::LatencyMs BackendTap::Latency(np::NodeId a, np::NodeId b) const {
  ReadSlot* slot = t_slot;
  if (slot == nullptr) {
    slot = t_slot = RegisterSlot();
  }
  ++slot->count;
  return inner_->Latency(a, b);
}

std::uint64_t BackendTap::Reads() {
  std::lock_guard<std::mutex> lock(g_slots_mu);
  std::uint64_t total = 0;
  for (const auto& slot : g_slots) {
    total += slot->count;
  }
  return total;
}

void BackendTap::ResetReads() {
  std::lock_guard<std::mutex> lock(g_slots_mu);
  for (const auto& slot : g_slots) {
    slot->count = 0;
  }
}

}  // namespace perfbench
