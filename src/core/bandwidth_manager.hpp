// Token-length-driven bandwidth management (paper §IV-B, Fig. 9/13).
//
// Mechanism: every cluster carries a PMC byte budget per interval T
// (ClusterTimingModel::set_budget; the detailed tier's DMA enforces it,
// mem/dma.hpp, and the fast tier prices it). Policy: as the output
// token length l grows, LLM-decoding on the MC-clusters dominates the
// pipeline, so the CC-cluster budget Bc is progressively reduced in
// favour of Bm (ratios down to 1:7); beyond l_b the pipeline switches
// to stream-based batch decoding (Fig. 9(c)).
//
// Two ways to apply a Bc:Bm = 1:r split:
//   - apply_ratio hard-partitions the interval bytes: both sides are
//     capped, so the MC side never exceeds r/(1+r) of DRAM even while
//     the CC side idles. MllmPipeline (Fig. 13, Table II) uses it.
//   - apply_cc_cap is work-conserving on the decode side: only the CC
//     clusters are capped (at the same 1/(1+r) slice) and the MC
//     clusters stay elastic (unthrottled). When both sides saturate, MC
//     still gets r/(1+r); when the CC side idles or runs under its cap,
//     DRAM arbitration hands the rest to decode. A bandwidth-managed
//     ServingEngine rebalances with it.
#ifndef EDGEMM_CORE_BANDWIDTH_MANAGER_HPP
#define EDGEMM_CORE_BANDWIDTH_MANAGER_HPP

#include <cstddef>

#include "common/types.hpp"
#include "core/chip.hpp"
#include "core/config.hpp"

namespace edgemm::core {

/// Tunable policy constants (paper values as defaults).
struct BandwidthPolicy {
  /// l_e: output length at which CC and MC stage latencies balance under
  /// equal bandwidth sharing (paper: 36).
  std::size_t balance_length = 36;
  /// l_b: output length beyond which bandwidth reallocation saturates and
  /// batch decoding takes over (paper: 131).
  std::size_t batch_length = 131;
  /// Most extreme Bc:Bm ratio (paper: "1:3 or even 1:7").
  std::size_t max_mc_ratio = 7;
  /// Batch-size ceiling for stream-based batch decoding.
  std::size_t max_batch = 16;
};

/// Budget assignment for one operating point.
///
/// The PMC throttling of §IV-B is always armed: "each cluster is
/// assigned a memory access budget B". The *default* is equal sharing
/// (every cluster gets an equal hard slice of the interval bytes); the
/// optimization shifts the partition toward the MC side as l grows.
struct BudgetAssignment {
  Bytes cc_budget_per_cluster = 0;  ///< bytes per throttle interval
  Bytes mc_budget_per_cluster = 0;
  std::size_t mc_ratio = 1;  ///< Bc:Bm = 1:mc_ratio
};

/// Computes and applies throttle budgets from the output token length.
class BandwidthManager {
 public:
  BandwidthManager(const ChipConfig& config, const BandwidthPolicy& policy);

  const BandwidthPolicy& policy() const { return policy_; }

  /// Bc:Bm ratio for output length l: 1:1 at or below l_e, stepping
  /// through 1:3 and 1:5 up to 1:max_mc_ratio as l approaches l_b.
  std::size_t mc_ratio_for_length(std::size_t l) const;

  /// Budget assignment for an explicit Bc:Bm = 1:mc_ratio split; the
  /// equal partition at mc_ratio <= 1 or when either side is empty.
  BudgetAssignment budgets_for_ratio(std::size_t mc_ratio,
                                     std::size_t cc_clusters,
                                     std::size_t mc_clusters) const;

  /// The paper's default operating point: every cluster receives an
  /// equal hard slice of the deliverable interval bytes ("default equal
  /// bandwidth sharing among clusters", §IV-B).
  BudgetAssignment equal_sharing(std::size_t cc_clusters,
                                 std::size_t mc_clusters) const;

  /// Batch size for stream-based batch decoding: 1 below l_b, then
  /// growing with l up to max_batch (Fig. 9(c)).
  std::size_t batch_for_length(std::size_t l) const;

  /// Applies an explicit Bc:Bm = 1:mc_ratio partition to every cluster
  /// of `chip` — mc_ratio_for_length(l) for a plain output length, or
  /// the per-round byte ratio when batch decoding rebalances the
  /// pipeline (Fig. 9(c)).
  void apply_ratio(ChipTimingModel& chip, std::size_t mc_ratio) const;

  /// Work-conserving split: caps every CC cluster at the budget
  /// apply_ratio(chip, mc_ratio) would give it and leaves every MC
  /// cluster at DmaEngine::kUnlimited, so decode takes whatever DRAM
  /// bytes the CC side leaves unused. The CC side never gets less than
  /// under apply_ratio.
  void apply_cc_cap(ChipTimingModel& chip, std::size_t mc_ratio) const;

  /// Applies the default equal partition (the Fig. 13 baseline).
  void apply_equal_sharing(ChipTimingModel& chip) const;

 private:
  static void set_budgets(ChipTimingModel& chip, Bytes cc_budget, Bytes mc_budget);

  ChipConfig config_;
  BandwidthPolicy policy_;
};

}  // namespace edgemm::core

#endif  // EDGEMM_CORE_BANDWIDTH_MANAGER_HPP
