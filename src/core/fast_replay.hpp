// Fast execution tier: closed-form fluid pricing of cluster op batches.
//
// The detailed tier walks every DMA burst through the event-driven
// memory hierarchy (mem/memory_path, mem/resource_server); the fast
// tier replaces that walk with a fluid-flow model over the SAME
// calibrated cost tables (ClusterTimingModel's byte/cycle arithmetic):
// each submitted op list becomes one "stream" whose DRAM service rate
// is the max-min (water-filling) share of the channel, capped by the
// cluster's PMC throttle budget and its compute back-pressure, with
// the interconnect's burst-pipeline latencies charged whenever the
// pipe drains. Everything above the cluster —
// PhaseScheduler lanes, the ServingEngine and all four policy seams —
// runs unmodified on either tier (docs/ARCHITECTURE.md, "fast/detailed
// execution tiers").
#ifndef EDGEMM_CORE_FAST_REPLAY_HPP
#define EDGEMM_CORE_FAST_REPLAY_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "common/fifo.hpp"
#include "common/types.hpp"
#include "core/config.hpp"
#include "core/timing.hpp"
#include "mem/dram.hpp"
#include "sim/action.hpp"
#include "sim/simulator.hpp"

namespace edgemm::core {

/// Execution tier behind ChipTimingModel: kDetailed simulates every DMA
/// burst event-by-event; kFast prices each submitted op list with the
/// FastMemoryModel below. Identical op streams, identical policy
/// decisions — only the memory-time integrator differs.
enum class ReplayMode : std::uint8_t {
  kDetailed,
  kFast,
};

const char* to_string(ReplayMode mode);

/// The fast tier's memory-time integrator.
///
/// One stream per ClusterTimingModel::run_ops call, holding the batch's
/// aggregate DMA bytes D, effective compute cycles C and block count n
/// (mirroring run_ops' exact block split). Active streams share the
/// DRAM channel by max-min fairness; a stream's rate is capped by its
/// back-pressure demand D / dma_iso — the average channel occupancy of
/// the batch's serial op chain replayed in isolation (double buffering
/// lets the DMA run at most one block ahead of the datapath, so
/// compute-bound ops throttle the loads behind them).
/// The PMC throttle enters that chain replay on the detailed tier's own
/// absolute interval grid: each interval of T cycles admits one
/// allowance — (floor(B/burst)+1) * burst bytes, since the PMC charges
/// a burst before it blocks — at full channel speed, and bytes past the
/// current interval's remaining allowance FLOOD at the following
/// boundaries (multiples of T), exactly the deferred-burst release of
/// mem/dma.cpp. Interval usage carries across a lane's batches, so a
/// batch chained behind a budget-bound one starts on a drained
/// allowance.
/// The chain replay prices the interconnect the way the burst pipeline
/// behaves: the lead burst's crossbar traversal (head) and the DRAM
/// access latency (tail) are LATENCIES paid when the pipe is empty —
/// at the stream head and whenever compute back-pressure drains it —
/// not per-byte channel occupancy. A block sequence therefore advances
/// at the steady period max(c_blk, b_blk/bw, (head+tail+b_blk/bw)/2):
/// compute-bound, channel-bound, or latency-starved (the double buffer
/// covers the refill with exactly two compute spans).
/// Rates are piecewise constant between events (stream start/finish,
/// budget rebalance), so DMA completions are solved exactly; batch
/// completion replays the serial chain with the per-byte channel terms
/// stretched by realized/isolated DMA span (latencies do not stretch
/// under contention; queueing does).
/// Streams on one cluster run FIFO (the lanes above never overlap jobs
/// on a cluster). Per-cluster stats and the DRAM service ledger are fed
/// the same totals the detailed tier would accumulate.
class FastMemoryModel {
 public:
  FastMemoryModel(sim::Simulator& sim, mem::DramController& dram,
                  const ChipConfig& config);

  /// Registers `cluster` and returns its lane index (replay determinism:
  /// the water-filling iterates clusters in registration order, never by
  /// pointer). Called by the fast-tier ClusterTimingModel constructor,
  /// which keeps the index so submit and idle find the lane in O(1).
  std::size_t register_cluster(ClusterTimingModel& cluster);

  /// Prices `ops` as one stream on `cluster`; `done` fires at the
  /// modeled completion. Called by ClusterTimingModel::run_ops in fast
  /// mode (never with an empty op list).
  void submit(ClusterTimingModel& cluster, const std::vector<GemmWork>& ops,
              sim::Action done);

  /// True when `cluster` has no stream active or queued.
  bool idle(const ClusterTimingModel& cluster) const;

  /// Re-prices every active stream at the current time; every
  /// ClusterTimingModel::set_budget on this tier calls it. Coalesces:
  /// many set_budget calls in one event (a BandwidthManager rebalance
  /// touches every cluster) schedule one recompute.
  void budgets_changed();

  /// Streams priced so far (tests / sanity checks).
  std::uint64_t streams_completed() const { return streams_completed_; }

 private:
  /// Per-op serial profile, mirroring run_ops' block split: the op's DMA
  /// bytes, its block geometry (compute can start once the first block
  /// lands), its effective compute, the last block's compute tail and
  /// the per-block compute share (the double-buffer back-pressure
  /// granularity). `head` is the lead burst's crossbar traversal time —
  /// the latency between a transfer's issue and its first byte reaching
  /// the DRAM channel.
  struct OpCost {
    double bytes = 0.0;
    double first_block = 0.0;
    double per_block = 0.0;
    double last_block = 0.0;
    double n_blocks = 1.0;
    double head = 0.0;
    double compute = 0.0;
    double compute_last = 0.0;
    double compute_per_block = 0.0;
  };
  struct Stream {
    ClusterTimingModel* cluster = nullptr;
    std::size_t lane = 0;  ///< registration index of the cluster
    sim::Action done;
    std::vector<OpCost> ops;         ///< serial chain, submission order
    double total_bytes = 0.0;        ///< D: batch DMA bytes
    double served_bytes = 0.0;       ///< integrated at the current rates
    double cpb_iso = 0.0;            ///< isolated memory cycles per byte
    double inv_rb = 0.0;             ///< budget cycles/byte at last pricing
    double usage0 = 0.0;             ///< PMC interval usage (bytes) at start
    double tokens0 = 0.0;            ///< allowance left (bytes) at start
    double priced_rb = -1.0;         ///< budget rate last priced (<0 = never)
    double dma_iso = 0.0;            ///< isolated chain's last-byte time
    double demand_rate = 0.0;        ///< D / dma_iso: avg channel demand
    double rate = 0.0;               ///< current effective bytes/cycle
    bool defers = false;             ///< isolated chain floods at boundaries
    double flood_now = 1.0;          ///< current flood contention factor
    double flood_acc = 0.0;          ///< integral of flood contention dt
    double rb_acc = 0.0;             ///< integral of the budget rate dt
    double slip_now = 0.0;           ///< current grid-slip rate (cyc/cyc)
    double slip_acc = 0.0;           ///< accumulated grid slip (cycles)
    double sync_now = 1.0;           ///< current sibling contention factor
    double sync_acc = 0.0;           ///< integral of sibling contention dt
    double started_at = 0.0;         ///< activation time (DMA start)
    double dma_done_at = -1.0;       ///< exact crossing; <0 = in flight
    Bytes stat_bytes = 0;            ///< exact integers for the ledgers
    Cycle stat_compute = 0;
    Flops stat_flops = 0;
  };
  struct Lane {
    ClusterTimingModel* cluster = nullptr;
    std::unique_ptr<Stream> active;
    Fifo<std::unique_ptr<Stream>> pending;
    std::size_t outstanding = 0;  ///< submitted batches whose done is pending
    /// PMC interval usage carried across this lane's streams: a batch
    /// chained behind a budget-bound one starts on whatever the
    /// predecessor charged to the current interval. time < 0 = no carry.
    double bucket_usage = 0.0;
    double bucket_time = -1.0;  ///< absolute time of the usage snapshot
  };

  struct ChainTimes {
    double dma_end = 0.0;   ///< channel service of the last byte ends
    double done = 0.0;      ///< datapath drains
    double usage = 0.0;     ///< PMC interval usage (bytes) at dma_end
    double deferred = 0.0;  ///< bytes that waited for a boundary flood
  };
  /// Replays the chain in ABSOLUTE time from `t0` so the PMC grants land
  /// on the detailed tier's absolute interval grid (multiples of the
  /// throttle interval — mem/dma.cpp keys usage on now / T). `inv_rb` is
  /// the budget in cycles per byte (0 = unthrottled): each interval
  /// admits one allowance at full channel speed and bytes past it flood
  /// at the following boundaries, which is what makes budget-bound ops
  /// in a compute-heavy chain stall locally even when the stream's
  /// average demand fits the budget. `usage0` seeds the first interval's
  /// charge (cross-batch carry on a lane). Boundary floods are
  /// GRID-SYNCHRONIZED across clusters, so a flood's partial service is
  /// charged at `flood_cpb` — cpb scaled by the concurrency of co-active
  /// deferring streams — rather than the stream's own channel share.
  /// `sync_cpb` prices the latency-gated first-block fetches (they gate
  /// compute start, so lockstep-sibling burst collisions hit them
  /// directly; the bulk's contention is already in `cpb`).
  ChainTimes replay_chain(const std::vector<OpCost>& ops, double cpb,
                          double flood_cpb, double sync_cpb, double inv_rb,
                          double t0, double usage0) const;

  void activate(Lane& lane, std::unique_ptr<Stream> stream,
                double not_before = 0.0);
  void reprice(Stream& stream);
  void advance_to(double now);
  void settle();
  void retire(Lane& lane, std::unique_ptr<Stream> stream);
  void compute_rates();
  void recompute();
  void schedule_next();
  double budget_rate(const ClusterTimingModel& cluster) const;

  /// One active stream's channel demand in compute_rates (scratch kept
  /// across calls, sized for one entry per cluster).
  struct RateEntry {
    Stream* stream;
    double demand;
  };

  sim::Simulator& sim_;
  mem::DramController& dram_;
  const ChipConfig& config_;
  std::vector<Lane> lanes_;
  std::vector<RateEntry> rate_entries_;
  double last_advance_ = 0.0;
  std::uint64_t event_token_ = 0;  ///< newest scheduled recompute wins
  bool budget_recompute_pending_ = false;
  std::uint64_t streams_completed_ = 0;
};

}  // namespace edgemm::core

#endif  // EDGEMM_CORE_FAST_REPLAY_HPP
