// Lane-based phase scheduler over the heterogeneous chip (Fig. 9).
//
// The CC lane runs modality-encoder + LLM-prefill jobs, the MC lane runs
// decode steps; jobs on one lane execute FIFO, one at a time, across the
// lane's full cluster set, while the two lanes overlap freely. This is
// the scheduling core shared by the legacy fixed-workload MllmPipeline
// and the request-level serve::ServingEngine (continuous batching: a
// prefill job for a newly arrived request can run on the CC lane while
// the MC lane drains decode steps of in-flight requests).
#ifndef EDGEMM_CORE_PHASE_SCHEDULER_HPP
#define EDGEMM_CORE_PHASE_SCHEDULER_HPP

#include <cstddef>
#include <functional>
#include <vector>

#include "common/fifo.hpp"
#include "core/chip.hpp"
#include "core/timing.hpp"

namespace edgemm::core {

/// The two overlapping stages of the streaming pipeline.
enum class Lane : std::uint8_t {
  kCcStage,   ///< vision encoder + LLM prefill (compute-centric clusters)
  kMcDecode,  ///< autoregressive decode steps (memory-centric clusters)
};

/// Dispatches jobs onto the chip's cluster sets in per-lane FIFO order
/// by default (see set_affinity_chaining for the opt-in exception).
///
/// A job is one ChipTimingModel::run_on call: its ops are tensor-partitioned
/// across the lane's clusters and the job retires when every shard has.
/// Submitting to a busy lane queues the job; `started` (optional) fires at
/// dispatch time, `done` at retirement — both inside the simulation, so
/// sim().now() reads the event's timestamp.
class PhaseScheduler {
 public:
  explicit PhaseScheduler(ChipTimingModel& chip);

  ChipTimingModel& chip() { return chip_; }
  sim::Simulator& sim() { return chip_.simulator(); }

  /// Enqueues `ops` as one job on `lane`. Throws std::invalid_argument
  /// for an empty op list (an empty job has no retirement event).
  /// `affinity` is an opaque non-zero key (0 = none) grouping jobs that
  /// share on-chip state — e.g. prefill chunks of one request riding a
  /// weight pin; it only affects dispatch order when affinity chaining
  /// is enabled on the lane.
  void submit(Lane lane, std::vector<GemmWork> ops, std::function<void()> done,
              std::function<void()> started = {}, std::uint64_t affinity = 0);

  /// Affinity chaining (default off, preserving strict FIFO): when
  /// enabled, dispatch prefers the earliest queued job whose affinity
  /// matches the lane's last dispatched job, falling back to the queue
  /// head. Chained chunks of a weight-resident prefill then run
  /// back-to-back where their weights are pinned, shortening the window
  /// a pin is held (and competing pins fall back to re-fetch). Bounded
  /// un-fairness: a chain is at most one request's remaining chunks, and
  /// a lane with no matching job always takes the FIFO head.
  void set_affinity_chaining(Lane lane, bool enabled);

  /// True when no job is running or queued on `lane`.
  bool idle(Lane lane) const;

  /// Jobs waiting behind the running one (0 when idle or running the
  /// only job).
  std::size_t queued(Lane lane) const;

  /// Jobs dispatched to `lane` so far (for tests and occupancy stats).
  std::size_t dispatched(Lane lane) const;

  /// Per-lane queueing statistics: how long jobs sat behind earlier jobs
  /// between submit and dispatch. max_queue_wait is the head-of-line
  /// blocking metric chunked prefill exists to bound.
  struct LaneStats {
    std::size_t dispatched = 0;
    Cycle max_queue_wait = 0;
    /// Jobs dispatched ahead of the FIFO head because their affinity
    /// matched the previous job (0 unless chaining is enabled).
    std::size_t affinity_chained = 0;
  };

  const LaneStats& lane_stats(Lane lane) const;

  /// The cluster set backing `lane` under the chip's composition
  /// (heterogeneous: CC / MC; homogeneous compositions share all
  /// clusters between both lanes and serialize inside the cluster FIFOs).
  const ChipTimingModel::ClusterSet& lane_clusters(Lane lane) const;

 private:
  struct Job {
    std::vector<GemmWork> ops;
    std::function<void()> done;
    std::function<void()> started;
    Cycle submitted = 0;
    std::uint64_t affinity = 0;
  };
  struct LaneState {
    /// The chip's cluster set for the lane (bound, never copied).
    const ChipTimingModel::ClusterSet* clusters = nullptr;
    Fifo<Job> queue;
    /// The running job's completion, held here so the join callback
    /// captures only the lane.
    std::function<void()> running_done;
    bool busy = false;
    bool chain_affinity = false;
    std::uint64_t last_affinity = 0;
    LaneStats stats;
  };

  LaneState& state(Lane lane);
  const LaneState& state(Lane lane) const;
  void dispatch_next(LaneState& lane);

  ChipTimingModel& chip_;
  LaneState cc_;
  LaneState mc_;
};

}  // namespace edgemm::core

#endif  // EDGEMM_CORE_PHASE_SCHEDULER_HPP
