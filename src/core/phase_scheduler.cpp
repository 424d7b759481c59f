#include "core/phase_scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/assert.hpp"

namespace edgemm::core {

const char* to_string(Lane lane) {
  switch (lane) {
    case Lane::kCcStage: return "cc-stage";
    case Lane::kMcDecode: return "mc-decode";
  }
  return "?";
}

PhaseScheduler::PhaseScheduler(ChipTimingModel& chip) : chip_(chip) {
  // §IV-B mapping: encoder/prefill prefer the CC clusters, decode the MC
  // clusters; preferred_clusters already falls back to every cluster for
  // the homogeneous and baseline compositions.
  cc_.clusters = &chip_.preferred_clusters(Phase::kPrefill);
  mc_.clusters = &chip_.preferred_clusters(Phase::kDecode);
  EDGEMM_ASSERT_MSG(!cc_.clusters->empty() && !mc_.clusters->empty(),
                    "PhaseScheduler: chip has no clusters for a lane");
}

PhaseScheduler::LaneState& PhaseScheduler::state(Lane lane) {
  return lane == Lane::kCcStage ? cc_ : mc_;
}

const PhaseScheduler::LaneState& PhaseScheduler::state(Lane lane) const {
  return lane == Lane::kCcStage ? cc_ : mc_;
}

void PhaseScheduler::submit(Lane lane, std::vector<GemmWork> ops,
                            std::function<void()> done,
                            std::function<void()> started,
                            std::uint64_t affinity) {
  submit(lane, std::make_shared<const std::vector<GemmWork>>(std::move(ops)),
         std::move(done), std::move(started), affinity);
}

void PhaseScheduler::submit(Lane lane, OpsRef ops, std::function<void()> done,
                            std::function<void()> started,
                            std::uint64_t affinity) {
  if (!ops || ops->empty()) {
    throw std::invalid_argument("PhaseScheduler::submit: empty op list");
  }
  LaneState& s = state(lane);
  s.queue.push_back(Job{std::move(ops), std::move(done), std::move(started),
                        sim().now(), affinity});
  if (!s.busy) dispatch_next(s);
}

void PhaseScheduler::set_affinity_chaining(Lane lane, bool enabled) {
  state(lane).chain_affinity = enabled;
}

bool PhaseScheduler::affinity_chaining(Lane lane) const {
  return state(lane).chain_affinity;
}

bool PhaseScheduler::idle(Lane lane) const {
  const LaneState& s = state(lane);
  return !s.busy && s.queue.empty();
}

std::size_t PhaseScheduler::queued(Lane lane) const {
  const LaneState& s = state(lane);
  return s.queue.size();
}

std::size_t PhaseScheduler::dispatched(Lane lane) const {
  return state(lane).stats.dispatched;
}

const PhaseScheduler::LaneStats& PhaseScheduler::lane_stats(Lane lane) const {
  return state(lane).stats;
}

const ChipTimingModel::ClusterSet& PhaseScheduler::lane_clusters(Lane lane) const {
  return *state(lane).clusters;
}

void PhaseScheduler::dispatch_next(LaneState& lane) {
  EDGEMM_ASSERT(!lane.busy);
  if (lane.queue.empty()) return;
  // Affinity chaining: prefer the earliest queued job continuing the
  // previous job's affinity group (its on-chip state — pinned weights —
  // is still hot); strict FIFO otherwise and whenever nothing matches.
  auto pick = lane.queue.begin();
  if (lane.chain_affinity && lane.last_affinity != 0) {
    for (auto it = lane.queue.begin(); it != lane.queue.end(); ++it) {
      if (it->affinity == lane.last_affinity) {
        pick = it;
        break;
      }
    }
  }
  if (pick != lane.queue.begin()) ++lane.stats.affinity_chained;
  Job job = lane.queue.take(pick);
  lane.last_affinity = job.affinity;
  lane.busy = true;
  ++lane.stats.dispatched;
  const Cycle waited = sim().now() - job.submitted;
  lane.stats.max_queue_wait = std::max(lane.stats.max_queue_wait, waited);
  lane.stats.total_queue_wait += waited;
  if (job.started) job.started();
  lane.running_done = std::move(job.done);
  chip_.run_on(*lane.clusters, *job.ops, [this, &lane] {
    lane.busy = false;
    const std::function<void()> done = std::move(lane.running_done);
    if (done) done();
    // `done` may have submitted follow-up work (continuous batching does
    // exactly this); only dispatch if it did not already claim the lane.
    if (!lane.busy) dispatch_next(lane);
  });
}

}  // namespace edgemm::core
