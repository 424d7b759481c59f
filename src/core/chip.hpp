// Chip-level timing model: clusters + shared DRAM + phase scheduler.
//
// Compositions mirror the §V-B comparison: the heterogeneous EdgeMM
// (2 CC + 2 MC clusters per group), homo-CC, homo-MC, and the original
// Snitch SIMD cluster baseline.
#ifndef EDGEMM_CORE_CHIP_HPP
#define EDGEMM_CORE_CHIP_HPP

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/fast_replay.hpp"
#include "core/timing.hpp"
#include "mem/dram.hpp"
#include "mem/resource_server.hpp"
#include "sim/action.hpp"
#include "sim/simulator.hpp"

namespace edgemm::core {

/// Cluster mix instantiated on the chip (Fig. 11 design points).
enum class ChipComposition : std::uint8_t {
  kHeterogeneous,   ///< EdgeMM: CC + MC per group (Fig. 4)
  kHomoCc,          ///< all clusters compute-centric
  kHomoMc,          ///< all clusters memory-centric
  kBaselineSnitch,  ///< unextended SIMD clusters
};

const char* to_string(ChipComposition composition);

/// The chip: owns the simulator, the DRAM controller, and the clusters.
///
/// Tensor partitioning (§III-C) splits each operation's output dimension
/// across the clusters of the set chosen for its phase; every cluster
/// runs its shard through the double-buffered timing model and the
/// shared DRAM arbitrates the resulting traffic.
///
/// The topology is flat, built once and shaped by the tier: crossbars
/// and clusters live by value in storage sized at construction, and the
/// cluster sets the accessors return are computed there too. Only the
/// detailed tier builds the burst hierarchy (crossbar and DRAM ports, a
/// MemoryPath and a DmaEngine per cluster); a fast-tier cluster holds
/// just its PMC budget and its lane in the FastMemoryModel. Clusters,
/// DMA hops, fast lanes and in-flight events point into that storage,
/// so a chip is pinned in place: neither copyable nor movable.
class ChipTimingModel {
 public:
  using ClusterSet = std::vector<ClusterTimingModel*>;

  /// `mode` selects the execution tier: kDetailed walks every DMA burst
  /// through the event-driven memory hierarchy, kFast prices batches
  /// with the closed-form FastMemoryModel. Everything above the chip
  /// (PhaseScheduler, ServingEngine, policies) runs unmodified either way.
  ChipTimingModel(const ChipConfig& config, ChipComposition composition,
                  ReplayMode mode = ReplayMode::kDetailed);
  ChipTimingModel(const ChipTimingModel&) = delete;
  ChipTimingModel& operator=(const ChipTimingModel&) = delete;
  ChipTimingModel(ChipTimingModel&&) = delete;
  ChipTimingModel& operator=(ChipTimingModel&&) = delete;

  const ChipConfig& config() const { return config_; }
  ReplayMode replay_mode() const { return mode_; }
  /// The fast tier's integrator; nullptr in kDetailed mode.
  const FastMemoryModel* fast_model() const { return fast_ ? &*fast_ : nullptr; }

  sim::Simulator& simulator() { return sim_; }
  mem::DramController& dram() { return dram_; }
  const mem::DramController& dram() const { return dram_; }

  /// All clusters of one kind in group-major order (empty if the
  /// composition has none). The same object on every call.
  const ClusterSet& clusters(ClusterKind kind) const {
    return by_kind_[static_cast<std::size_t>(kind)];
  }

  /// Every cluster on the chip, in group-major order.
  const ClusterSet& all_clusters() { return all_; }

  /// The cluster set the scheduler prefers for `phase` under this
  /// composition (§IV-B: encoder/prefill on CC, decode on MC; homo and
  /// baseline compositions fall back to what they have).
  const ClusterSet& preferred_clusters(Phase phase);

  /// Splits `work` into `ways` shards along the output dimension n.
  /// Shards cover n exactly; surplus ways get no shard.
  static std::vector<GemmWork> partition(const GemmWork& work, std::size_t ways);

  /// Asynchronously runs `ops` over `targets` with tensor partitioning;
  /// `done` fires when every shard on every cluster has retired.
  void run_on(const ClusterSet& targets, const std::vector<GemmWork>& ops,
              sim::Action done);

  /// Synchronously executes `ops` on the preferred clusters of each op's
  /// phase, running the simulator to completion. Returns elapsed cycles.
  Cycle run_phase(std::span<const GemmWork> ops);

  /// Sets every cluster's PMC budget to unlimited (per interval).
  void clear_bandwidth_budgets();

  /// The per-group crossbar links (for interconnect inspection/tests).
  /// Empty on the fast tier, whose system crossbar has no ports.
  std::span<const mem::ResourceServer> group_crossbars() const { return group_xbars_; }
  mem::ResourceServer& system_crossbar() { return system_xbar_; }

 private:
  ChipConfig config_;
  ChipComposition composition_;
  ReplayMode mode_;
  sim::Simulator sim_;
  mem::DramController dram_;
  mem::ResourceServer system_xbar_;
  std::vector<mem::ResourceServer> group_xbars_;  ///< reserved once; detailed only
  std::vector<ClusterTimingModel> clusters_;      ///< reserved once
  std::array<ClusterSet, 3> by_kind_;             ///< indexed by ClusterKind
  ClusterSet all_;
  std::optional<FastMemoryModel> fast_;  ///< engaged only in kFast mode
};

}  // namespace edgemm::core

#endif  // EDGEMM_CORE_CHIP_HPP
