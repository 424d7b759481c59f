// Timing plane: analytic per-op compute models + event-driven memory.
//
// Compute latency inside a cluster follows the closed-form cycle models
// of the coprocessors (Eq. 2 / Eq. 3 plus weight-write and distribution
// overheads); DRAM traffic, DMA throttling and inter-cluster contention
// are simulated event-by-event. docs/ARCHITECTURE.md explains the split.
#ifndef EDGEMM_CORE_TIMING_HPP
#define EDGEMM_CORE_TIMING_HPP

#include <optional>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/fifo.hpp"
#include "common/types.hpp"
#include "core/config.hpp"
#include "mem/dma.hpp"
#include "mem/dram.hpp"
#include "sim/action.hpp"
#include "sim/simulator.hpp"

namespace edgemm::core {

class FastMemoryModel;  // fast replay tier (core/fast_replay.hpp)

/// Flavours of cluster the timing plane can instantiate. The baseline
/// SIMD flavour models the unextended Snitch cluster of Fig. 11.
enum class ClusterKind : std::uint8_t {
  kComputeCentric,
  kMemoryCentric,
  kBaselineSimd,
};

const char* to_string(ClusterKind kind);

/// One dense operation: out(m×n) = acts(m×k) × weights(k×n).
/// GEMV is the m = 1 case.
struct GemmWork {
  std::size_t m = 1;
  std::size_t k = 1;
  std::size_t n = 1;
  Phase phase = Phase::kDecode;
  /// When true the operands are already on-chip / in-macro (batch
  /// decoding reuses weights across the batch, Fig. 9(c)) and no weight
  /// DMA is issued.
  bool weights_resident = false;
  /// Overrides the cluster's element size for the *weight* operand
  /// (e.g. BF16 KV-cache streamed through an MC-cluster). 0 = default.
  std::size_t weight_elem_bytes_override = 0;
  /// True for FFN projections whose input channels the activation-aware
  /// pruner may drop (§IV-A prunes FFN weight rows only).
  bool prunable = false;

  Flops flops() const { return 2ULL * m * k * n; }
};

/// Per-cluster statistics accumulated by the timing model.
struct ClusterStats {
  Cycle busy_until = 0;        ///< completion time of the last op
  Cycle compute_cycles = 0;    ///< pure datapath occupancy
  Bytes dma_bytes = 0;         ///< DRAM traffic attributed to this cluster
  Flops flops = 0;             ///< useful work executed
  std::size_t ops_executed = 0;
};

/// Timing model of one cluster: turns a stream of GemmWork into
/// double-buffered (DMA-in, compute) block sequences on the shared DRAM.
class ClusterTimingModel {
 public:
  /// Direct-to-DRAM wiring: a one-hop route on a fresh DRAM port (unit
  /// tests and isolated probes).
  ClusterTimingModel(sim::Simulator& sim, mem::DramController& dram,
                     const ChipConfig& config, ClusterKind kind);

  /// Hierarchical wiring: the DMA builds its path in place from `route`
  /// (group crossbar -> system crossbar -> DRAM).
  ClusterTimingModel(sim::Simulator& sim, std::span<const mem::MemoryPath::Hop> route,
                     const ChipConfig& config, ClusterKind kind);

  /// Fast-tier wiring: no DMA and no path. Batches are priced by `fast`,
  /// which registers this cluster as its next lane; the cluster must not
  /// move afterwards.
  ClusterTimingModel(sim::Simulator& sim, FastMemoryModel& fast,
                     const ChipConfig& config, ClusterKind kind);

  ClusterKind kind() const { return kind_; }

  /// Analytic datapath cycles for `work` on this cluster (all cores of
  /// the cluster cooperating), excluding memory time.
  Cycle compute_cycles(const GemmWork& work) const;

  /// Weight bytes `work` pulls from DRAM on this cluster.
  Bytes weight_bytes(const GemmWork& work) const;

  /// Activation traffic (inputs + outputs) for `work`.
  Bytes activation_bytes(const GemmWork& work) const;

  /// Double-buffer block granularity (half the cluster working memory).
  Bytes block_bytes() const;

  /// Enqueues `ops`; `done` fires when the last block of the last op
  /// retires. May be called while a previous batch is still running —
  /// the new ops queue behind it.
  void run_ops(const std::vector<GemmWork>& ops, sim::Action done);

  /// True when no blocks are queued or in flight.
  bool idle() const;

  /// Sets the per-interval PMC byte budget B (§IV-B). The detailed tier
  /// forwards it to the cluster's DMA; the fast tier re-prices its
  /// streams on every call, an unchanged value included (the re-pricing
  /// is not idempotent, so skipping it would move simulated output).
  void set_budget(Bytes budget);
  Bytes budget() const { return budget_; }

  /// The cluster's DMA engine; only the detailed-tier wirings have one.
  mem::DmaEngine& dma() {
    EDGEMM_ASSERT_MSG(dma_.has_value(), "fast-tier clusters have no DMA");
    return *dma_;
  }
  const ClusterStats& stats() const { return stats_; }

 private:
  struct Block {
    Bytes dma_bytes = 0;
    Cycle compute_cycles = 0;
    Flops flops = 0;
    sim::Action done;  // set on the last block of a batch
  };

  void maybe_issue_dma();
  void maybe_start_compute();
  void finish_block(Block block);

  friend class FastMemoryModel;  // injects batch totals into stats_, reads fast_lane_

  FastMemoryModel* fast_ = nullptr;
  std::size_t fast_lane_ = 0;  ///< this cluster's lane in *fast_
  sim::Simulator& sim_;
  const ChipConfig& config_;
  ClusterKind kind_;
  Bytes budget_ = mem::DmaEngine::kUnlimited;
  std::optional<mem::DmaEngine> dma_;  ///< detailed tier only
  // A block moves blocks_ -> loading_ -> ready_ -> computing_. The DMA
  // lands this cluster's transfers in issue order, so the event callbacks
  // capture only `this` and take the block from the front of its queue.
  Fifo<Block> blocks_;   // not yet DMA-issued
  Fifo<Block> loading_;  // DMA in flight, in issue order
  Fifo<Block> ready_;    // loaded, awaiting compute
  Block computing_;      // on the datapath while compute_busy_
  bool compute_busy_ = false;
  ClusterStats stats_;
};

/// Total DRAM traffic (weights + activations) `ops` would generate on
/// `cluster` — the traffic estimate behind the §IV-B budget ratios of
/// both the pipeline and the serving engine.
Bytes estimated_traffic_bytes(const ClusterTimingModel& cluster,
                              std::span<const GemmWork> ops);

}  // namespace edgemm::core

#endif  // EDGEMM_CORE_TIMING_HPP
