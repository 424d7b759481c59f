#include "core/bandwidth_manager.hpp"

#include <cstddef>
#include <stdexcept>

#include <gtest/gtest.h>

namespace edgemm::core {
namespace {

BandwidthManager make_manager() {
  return BandwidthManager(default_chip_config(), BandwidthPolicy{});
}

TEST(BandwidthManager, PolicyValidation) {
  const ChipConfig cfg = default_chip_config();
  BandwidthPolicy bad;
  bad.balance_length = 0;
  EXPECT_THROW(BandwidthManager(cfg, bad), std::invalid_argument);
  bad = BandwidthPolicy{};
  bad.batch_length = bad.balance_length;  // must be strictly larger
  EXPECT_THROW(BandwidthManager(cfg, bad), std::invalid_argument);
  bad = BandwidthPolicy{};
  bad.max_mc_ratio = 0;
  EXPECT_THROW(BandwidthManager(cfg, bad), std::invalid_argument);
}

TEST(BandwidthManager, RatioOneUpToBalanceLength) {
  const auto mgr = make_manager();
  // Paper: l_e = 36 — equal sharing below it.
  EXPECT_EQ(mgr.mc_ratio_for_length(1), 1u);
  EXPECT_EQ(mgr.mc_ratio_for_length(36), 1u);
}

TEST(BandwidthManager, RatioRampsToSevenAtBatchLength) {
  const auto mgr = make_manager();
  // Paper: "The Bc:Bm ratio ranges to 1:3 or even 1:7" as l -> l_b = 131.
  EXPECT_GE(mgr.mc_ratio_for_length(80), 3u);
  EXPECT_EQ(mgr.mc_ratio_for_length(131), 7u);
  EXPECT_EQ(mgr.mc_ratio_for_length(1024), 7u);  // saturates
}

TEST(BandwidthManager, RatioMonotoneInLength) {
  const auto mgr = make_manager();
  std::size_t prev = 0;
  for (std::size_t l = 1; l <= 256; l += 5) {
    const std::size_t r = mgr.mc_ratio_for_length(l);
    EXPECT_GE(r, prev) << l;
    prev = r;
  }
}

TEST(BandwidthManager, BudgetsSplitByRatio) {
  const ChipConfig cfg = default_chip_config();
  const auto mgr = make_manager();
  const auto budgets = mgr.budgets_for_ratio(mgr.mc_ratio_for_length(131), 8, 8);
  EXPECT_EQ(budgets.mc_ratio, 7u);
  // CC side gets 1/8 of the interval bytes across 8 clusters; MC side
  // gets the remaining 7/8.
  const double interval_bytes =
      cfg.dram.bytes_per_cycle * static_cast<double>(cfg.dma.throttle_interval);
  EXPECT_NEAR(static_cast<double>(budgets.cc_budget_per_cluster),
              interval_bytes / 8.0 / 8.0, 2.0);
  EXPECT_NEAR(static_cast<double>(budgets.mc_budget_per_cluster),
              interval_bytes * 7.0 / 8.0 / 8.0, 2.0);
  EXPECT_GT(budgets.mc_budget_per_cluster, 6 * budgets.cc_budget_per_cluster);
}

TEST(BandwidthManager, ShortOutputsKeepEqualSharing) {
  // Below l_e the manager leaves the default equal hard partition in
  // place (§IV-B: throttles are always armed with budget B).
  const auto mgr = make_manager();
  const auto budgets = mgr.budgets_for_ratio(mgr.mc_ratio_for_length(8), 8, 8);
  EXPECT_EQ(budgets.mc_ratio, 1u);
  EXPECT_EQ(budgets.cc_budget_per_cluster, budgets.mc_budget_per_cluster);
  EXPECT_EQ(budgets.cc_budget_per_cluster,
            mgr.equal_sharing(8, 8).cc_budget_per_cluster);
}

TEST(BandwidthManager, EqualSharingSlicesEvenly) {
  const ChipConfig cfg = default_chip_config();
  const auto mgr = make_manager();
  const auto budgets = mgr.equal_sharing(8, 8);
  const double interval_bytes =
      cfg.dram.bytes_per_cycle * static_cast<double>(cfg.dma.throttle_interval);
  EXPECT_NEAR(static_cast<double>(budgets.cc_budget_per_cluster),
              interval_bytes / 16.0, 2.0);
  EXPECT_EQ(budgets.cc_budget_per_cluster, budgets.mc_budget_per_cluster);
}

TEST(BandwidthManager, BatchKicksInAtBatchLength) {
  const auto mgr = make_manager();
  // Paper: l_b = 131 — single-stream below, batched at and beyond.
  EXPECT_EQ(mgr.batch_for_length(36), 1u);
  EXPECT_EQ(mgr.batch_for_length(130), 1u);
  EXPECT_GE(mgr.batch_for_length(131), 2u);
  EXPECT_EQ(mgr.batch_for_length(1024), 16u);  // paper's 13.98x point
}

TEST(BandwidthManager, BatchMonotoneAndCapped) {
  const auto mgr = make_manager();
  std::size_t prev = 0;
  for (std::size_t l = 1; l <= 8192; l *= 2) {
    const std::size_t b = mgr.batch_for_length(l);
    EXPECT_GE(b, prev);
    EXPECT_LE(b, BandwidthPolicy{}.max_batch);
    prev = b;
  }
}

TEST(BandwidthManager, ApplySetsClusterBudgets) {
  const ChipConfig cfg = default_chip_config();
  const auto mgr = make_manager();
  ChipTimingModel chip(cfg, ChipComposition::kHeterogeneous);
  mgr.apply_ratio(chip, mgr.mc_ratio_for_length(131));
  const Bytes cc_at_131 =
      chip.clusters(ClusterKind::kComputeCentric).front()->budget();
  for (auto* c : chip.clusters(ClusterKind::kComputeCentric)) {
    EXPECT_EQ(c->budget(), cc_at_131);
  }
  for (auto* c : chip.clusters(ClusterKind::kMemoryCentric)) {
    EXPECT_GT(c->budget(), 6 * cc_at_131);
  }
  // Short output: back to the equal partition.
  mgr.apply_ratio(chip, mgr.mc_ratio_for_length(8));
  const Bytes equal_slice = mgr.equal_sharing(8, 8).cc_budget_per_cluster;
  for (auto* c : chip.all_clusters()) {
    EXPECT_EQ(c->budget(), equal_slice);
    // The detailed tier enforces the cluster's budget in its DMA.
    EXPECT_EQ(c->dma().budget(), equal_slice);
  }
  EXPECT_GT(equal_slice, cc_at_131);
}

TEST(BandwidthManager, ApplyRatioSetsFastTierBudgets) {
  const ChipConfig cfg = default_chip_config();
  const auto mgr = make_manager();
  ChipTimingModel detailed(cfg, ChipComposition::kHeterogeneous);
  ChipTimingModel fast(cfg, ChipComposition::kHeterogeneous, ReplayMode::kFast);
  mgr.apply_ratio(detailed, 7);
  mgr.apply_ratio(fast, 7);
  const auto& want = detailed.all_clusters();
  const auto& got = fast.all_clusters();
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i]->budget(), want[i]->budget());
  }
  EXPECT_GT(fast.clusters(ClusterKind::kMemoryCentric).front()->budget(),
            6 * fast.clusters(ClusterKind::kComputeCentric).front()->budget());
}

/// The CC slice apply_ratio gives each CC cluster at Bc:Bm = 1:r.
Bytes hard_partition_cc_slice(const ChipConfig& cfg, std::size_t r,
                              std::size_t cc_clusters, std::size_t mc_clusters) {
  const double interval_bytes =
      cfg.dram.bytes_per_cycle * static_cast<double>(cfg.dma.throttle_interval);
  if (r == 1) {
    return static_cast<Bytes>(interval_bytes /
                              static_cast<double>(cc_clusters + mc_clusters));
  }
  return static_cast<Bytes>(interval_bytes * (1.0 / (1.0 + static_cast<double>(r))) /
                            static_cast<double>(cc_clusters));
}

TEST(BandwidthManager, CcCapKeepsTheCcSliceAndFreesTheMcSide) {
  const ChipConfig cfg = default_chip_config();
  const auto mgr = make_manager();
  for (const ReplayMode mode : {ReplayMode::kDetailed, ReplayMode::kFast}) {
    SCOPED_TRACE(to_string(mode));
    const bool detailed = mode == ReplayMode::kDetailed;
    ChipTimingModel partitioned(cfg, ChipComposition::kHeterogeneous, mode);
    ChipTimingModel capped(cfg, ChipComposition::kHeterogeneous, mode);
    const auto& cc = capped.clusters(ClusterKind::kComputeCentric);
    const auto& mc = capped.clusters(ClusterKind::kMemoryCentric);
    for (std::size_t r = 1; r <= 7; ++r) {
      SCOPED_TRACE(r);
      mgr.apply_ratio(partitioned, r);
      mgr.apply_cc_cap(capped, r);
      const Bytes slice = hard_partition_cc_slice(cfg, r, cc.size(), mc.size());
      EXPECT_EQ(partitioned.clusters(ClusterKind::kComputeCentric).front()->budget(),
                slice);
      for (auto* c : cc) {
        EXPECT_EQ(c->budget(), slice);
        if (detailed) {
          EXPECT_EQ(c->dma().budget(), slice);
        }
      }
      for (auto* c : mc) {
        EXPECT_EQ(c->budget(), mem::DmaEngine::kUnlimited);
        if (detailed) {
          EXPECT_EQ(c->dma().budget(), mem::DmaEngine::kUnlimited);
        }
      }
    }
    // Switching back to the hard partition re-caps the MC side.
    mgr.apply_ratio(capped, 7);
    EXPECT_EQ(mc.front()->budget(),
              partitioned.clusters(ClusterKind::kMemoryCentric).front()->budget());
  }
}

}  // namespace
}  // namespace edgemm::core
