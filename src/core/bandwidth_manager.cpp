#include "core/bandwidth_manager.hpp"

#include <algorithm>
#include <stdexcept>

#include "mem/dma.hpp"

namespace edgemm::core {

BandwidthManager::BandwidthManager(const ChipConfig& config,
                                   const BandwidthPolicy& policy)
    : config_(config), policy_(policy) {
  if (policy.balance_length == 0 || policy.batch_length <= policy.balance_length) {
    throw std::invalid_argument(
        "BandwidthPolicy: require 0 < balance_length < batch_length");
  }
  if (policy.max_mc_ratio == 0 || policy.max_batch == 0) {
    throw std::invalid_argument("BandwidthPolicy: ratios/batch must be positive");
  }
}

std::size_t BandwidthManager::mc_ratio_for_length(std::size_t l) const {
  if (l <= policy_.balance_length) return 1;
  // Linear march from 1 at l_e to max_mc_ratio at l_b, then saturate.
  const double span = static_cast<double>(policy_.batch_length) -
                      static_cast<double>(policy_.balance_length);
  const double excess = static_cast<double>(std::min(l, policy_.batch_length)) -
                        static_cast<double>(policy_.balance_length);
  const double ratio = 1.0 + excess / span * (static_cast<double>(policy_.max_mc_ratio) - 1.0);
  return static_cast<std::size_t>(ratio + 0.5);
}

BudgetAssignment BandwidthManager::equal_sharing(std::size_t cc_clusters,
                                                 std::size_t mc_clusters) const {
  BudgetAssignment out;
  out.mc_ratio = 1;
  const std::size_t total = cc_clusters + mc_clusters;
  if (total == 0) return out;
  const double interval_bytes =
      config_.dram.bytes_per_cycle * static_cast<double>(config_.dma.throttle_interval);
  const auto slice = static_cast<Bytes>(interval_bytes / static_cast<double>(total));
  out.cc_budget_per_cluster = slice;
  out.mc_budget_per_cluster = slice;
  return out;
}

BudgetAssignment BandwidthManager::budgets_for_length(std::size_t l,
                                                      std::size_t cc_clusters,
                                                      std::size_t mc_clusters) const {
  return budgets_for_ratio(mc_ratio_for_length(l), cc_clusters, mc_clusters);
}

BudgetAssignment BandwidthManager::budgets_for_ratio(std::size_t mc_ratio,
                                                     std::size_t cc_clusters,
                                                     std::size_t mc_clusters) const {
  if (cc_clusters == 0 || mc_clusters == 0 || mc_ratio <= 1) {
    return equal_sharing(cc_clusters, mc_clusters);
  }
  // Total deliverable bytes per throttle interval at peak bandwidth,
  // partitioned Bc : Bm = 1 : mc_ratio between the cluster sets.
  BudgetAssignment out;
  out.mc_ratio = mc_ratio;
  const double interval_bytes =
      config_.dram.bytes_per_cycle * static_cast<double>(config_.dma.throttle_interval);
  const double cc_share = 1.0 / (1.0 + static_cast<double>(mc_ratio));
  out.cc_budget_per_cluster = static_cast<Bytes>(
      interval_bytes * cc_share / static_cast<double>(cc_clusters));
  out.mc_budget_per_cluster = static_cast<Bytes>(
      interval_bytes * (1.0 - cc_share) / static_cast<double>(mc_clusters));
  return out;
}

std::size_t BandwidthManager::batch_for_length(std::size_t l) const {
  if (l < policy_.batch_length) return 1;
  // Grow the batch with the decode length: each 1.5x of l past l_b
  // doubles the batch until the ceiling (reaches 16 at the paper's
  // l = 1024 / 13.98x operating point).
  std::size_t batch = 2;
  double threshold = static_cast<double>(policy_.batch_length) * 1.5;
  while (static_cast<double>(l) >= threshold && batch < policy_.max_batch) {
    batch *= 2;
    threshold *= 1.5;
  }
  return std::min(batch, policy_.max_batch);
}

void BandwidthManager::apply(ChipTimingModel& chip, std::size_t l) const {
  apply_ratio(chip, mc_ratio_for_length(l));
}

void BandwidthManager::apply_ratio(ChipTimingModel& chip, std::size_t mc_ratio) const {
  const auto budgets = budgets_for_ratio(
      mc_ratio, chip.clusters(ClusterKind::kComputeCentric).size(),
      chip.clusters(ClusterKind::kMemoryCentric).size());
  set_budgets(chip, budgets.cc_budget_per_cluster, budgets.mc_budget_per_cluster);
}

void BandwidthManager::apply_cc_cap(ChipTimingModel& chip, std::size_t mc_ratio) const {
  const auto budgets = budgets_for_ratio(
      mc_ratio, chip.clusters(ClusterKind::kComputeCentric).size(),
      chip.clusters(ClusterKind::kMemoryCentric).size());
  set_budgets(chip, budgets.cc_budget_per_cluster, mem::DmaEngine::kUnlimited);
}

void BandwidthManager::apply_equal_sharing(ChipTimingModel& chip) const {
  apply_ratio(chip, 1);
}

void BandwidthManager::set_budgets(ChipTimingModel& chip, Bytes cc_budget,
                                   Bytes mc_budget) {
  for (auto* cluster : chip.clusters(ClusterKind::kComputeCentric)) {
    cluster->set_budget(cc_budget);
  }
  for (auto* cluster : chip.clusters(ClusterKind::kMemoryCentric)) {
    cluster->set_budget(mc_budget);
  }
}

}  // namespace edgemm::core
