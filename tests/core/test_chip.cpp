#include "core/chip.hpp"

#include <type_traits>

#include <gtest/gtest.h>

namespace edgemm::core {
namespace {

// Clusters, DMA hops and in-flight events point into the chip: it is
// pinned in place.
static_assert(!std::is_copy_constructible_v<ChipTimingModel>);
static_assert(!std::is_copy_assignable_v<ChipTimingModel>);
static_assert(!std::is_move_constructible_v<ChipTimingModel>);
static_assert(!std::is_move_assignable_v<ChipTimingModel>);

constexpr ChipComposition kCompositions[] = {
    ChipComposition::kHeterogeneous, ChipComposition::kHomoCc,
    ChipComposition::kHomoMc, ChipComposition::kBaselineSnitch};

TEST(Chip, ClusterSetsAreBuiltOnceInGroupMajorOrder) {
  const ChipConfig cfg = default_chip_config();
  const std::size_t per_group = cfg.cc_clusters_per_group + cfg.mc_clusters_per_group;
  for (const ChipComposition composition : kCompositions) {
    SCOPED_TRACE(to_string(composition));
    ChipTimingModel chip(cfg, composition);
    const ChipTimingModel::ClusterSet& all = chip.all_clusters();
    EXPECT_EQ(&all, &chip.all_clusters());
    ASSERT_EQ(all.size(), cfg.groups * per_group);
    // Flat storage in registration order: group g's slot c is entry
    // g * per_group + c, and consecutive clusters are adjacent.
    for (std::size_t i = 1; i < all.size(); ++i) EXPECT_EQ(all[i], all[i - 1] + 1);
    for (std::size_t i = 0; i < all.size(); ++i) {
      const std::size_t slot = i % per_group;
      ClusterKind expected = ClusterKind::kBaselineSimd;
      if (composition == ChipComposition::kHeterogeneous) {
        expected = slot < cfg.cc_clusters_per_group ? ClusterKind::kComputeCentric
                                                    : ClusterKind::kMemoryCentric;
      } else if (composition == ChipComposition::kHomoCc) {
        expected = ClusterKind::kComputeCentric;
      } else if (composition == ChipComposition::kHomoMc) {
        expected = ClusterKind::kMemoryCentric;
      }
      EXPECT_EQ(all[i]->kind(), expected);
    }
    // Each kind's set is the same object on every call and is the
    // in-order subsequence of all_clusters() of that kind.
    for (const ClusterKind kind : {ClusterKind::kComputeCentric,
                                   ClusterKind::kMemoryCentric,
                                   ClusterKind::kBaselineSimd}) {
      const ChipTimingModel::ClusterSet& set = chip.clusters(kind);
      EXPECT_EQ(&set, &chip.clusters(kind));
      ChipTimingModel::ClusterSet expected;
      for (ClusterTimingModel* c : all) {
        if (c->kind() == kind) expected.push_back(c);
      }
      EXPECT_EQ(set, expected);
    }
    for (const Phase phase : {Phase::kVisionEncoder, Phase::kProjector,
                              Phase::kPrefill, Phase::kDecode}) {
      const ChipTimingModel::ClusterSet& preferred = chip.preferred_clusters(phase);
      EXPECT_EQ(&preferred, &chip.preferred_clusters(phase));
      if (composition != ChipComposition::kHeterogeneous) {
        EXPECT_EQ(&preferred, &all);
      } else {
        EXPECT_EQ(&preferred, &chip.clusters(phase == Phase::kDecode
                                                 ? ClusterKind::kMemoryCentric
                                                 : ClusterKind::kComputeCentric));
      }
    }
  }
}

TEST(Chip, HeterogeneousCompositionMatchesConfig) {
  ChipTimingModel chip(default_chip_config(), ChipComposition::kHeterogeneous);
  EXPECT_EQ(chip.clusters(ClusterKind::kComputeCentric).size(), 8u);
  EXPECT_EQ(chip.clusters(ClusterKind::kMemoryCentric).size(), 8u);
  EXPECT_EQ(chip.all_clusters().size(), 16u);
}

TEST(Chip, HomogeneousCompositionsFillAllSlots) {
  ChipTimingModel homo_cc(default_chip_config(), ChipComposition::kHomoCc);
  EXPECT_EQ(homo_cc.clusters(ClusterKind::kComputeCentric).size(), 16u);
  EXPECT_TRUE(homo_cc.clusters(ClusterKind::kMemoryCentric).empty());

  ChipTimingModel baseline(default_chip_config(), ChipComposition::kBaselineSnitch);
  EXPECT_EQ(baseline.clusters(ClusterKind::kBaselineSimd).size(), 16u);
}

TEST(Chip, PreferredClustersFollowPhaseMapping) {
  // §IV-B: encoder/prefill on CC; decode on MC.
  ChipTimingModel chip(default_chip_config(), ChipComposition::kHeterogeneous);
  for (const Phase phase : {Phase::kVisionEncoder, Phase::kProjector, Phase::kPrefill}) {
    for (auto* cluster : chip.preferred_clusters(phase)) {
      EXPECT_EQ(cluster->kind(), ClusterKind::kComputeCentric);
    }
  }
  for (auto* cluster : chip.preferred_clusters(Phase::kDecode)) {
    EXPECT_EQ(cluster->kind(), ClusterKind::kMemoryCentric);
  }
}

TEST(Chip, HomogeneousChipsUseEverythingForEveryPhase) {
  ChipTimingModel chip(default_chip_config(), ChipComposition::kHomoMc);
  EXPECT_EQ(chip.preferred_clusters(Phase::kPrefill).size(), 16u);
  EXPECT_EQ(chip.preferred_clusters(Phase::kDecode).size(), 16u);
}

TEST(Chip, PartitionCoversOutputExactly) {
  const GemmWork work{4, 512, 1000, Phase::kPrefill, false, 0, false};
  const auto shards = ChipTimingModel::partition(work, 8);
  ASSERT_EQ(shards.size(), 8u);
  std::size_t total_n = 0;
  for (const auto& s : shards) {
    EXPECT_EQ(s.m, work.m);
    EXPECT_EQ(s.k, work.k);
    total_n += s.n;
  }
  EXPECT_EQ(total_n, 1000u);
  // Remainder spread: shard sizes differ by at most one.
  EXPECT_EQ(shards.front().n, 125u);
}

TEST(Chip, PartitionMoreWaysThanColumns) {
  const GemmWork work{1, 8, 3, Phase::kDecode, false, 0, false};
  const auto shards = ChipTimingModel::partition(work, 8);
  EXPECT_EQ(shards.size(), 3u);  // surplus ways get nothing
}

TEST(Chip, RunPhaseExecutesToCompletion) {
  ChipConfig cfg = default_chip_config();
  cfg.groups = 1;  // keep the test fast
  ChipTimingModel chip(cfg, ChipComposition::kHeterogeneous);
  const std::vector<GemmWork> ops{
      {64, 1024, 1024, Phase::kPrefill, false, 0, false},
      {64, 1024, 2048, Phase::kPrefill, false, 0, false},
  };
  const Cycle elapsed = chip.run_phase(ops);
  EXPECT_GT(elapsed, 0u);
  for (auto* cluster : chip.clusters(ClusterKind::kComputeCentric)) {
    EXPECT_TRUE(cluster->idle());
  }
}

TEST(Chip, ShardingAcrossClustersBeatsSingleCluster) {
  // The same op on 1 vs 4 CC clusters: tensor partitioning must help.
  ChipConfig small = default_chip_config();
  small.groups = 1;
  small.mc_clusters_per_group = 0;
  small.cc_clusters_per_group = 1;

  ChipConfig wide = small;
  wide.cc_clusters_per_group = 4;

  const std::vector<GemmWork> ops{{128, 2048, 2048, Phase::kPrefill, false, 0, false}};

  ChipTimingModel chip1(small, ChipComposition::kHeterogeneous);
  const Cycle t1 = chip1.run_phase(ops);
  ChipTimingModel chip4(wide, ChipComposition::kHeterogeneous);
  const Cycle t4 = chip4.run_phase(ops);
  EXPECT_LT(t4, t1);
  EXPECT_GT(static_cast<double>(t1) / static_cast<double>(t4), 2.0);
}

TEST(Chip, MixedPhaseSpanRunsGroupwise) {
  ChipConfig cfg = default_chip_config();
  cfg.groups = 1;
  ChipTimingModel chip(cfg, ChipComposition::kHeterogeneous);
  const std::vector<GemmWork> ops{
      {32, 512, 512, Phase::kPrefill, false, 0, false},
      {1, 512, 512, Phase::kDecode, false, 0, false},
  };
  const Cycle elapsed = chip.run_phase(ops);
  EXPECT_GT(elapsed, 0u);
  // Both cluster kinds must have seen work.
  Bytes cc_bytes = 0;
  Bytes mc_bytes = 0;
  for (auto* c : chip.clusters(ClusterKind::kComputeCentric)) {
    cc_bytes += c->dma().total_bytes();
  }
  for (auto* c : chip.clusters(ClusterKind::kMemoryCentric)) {
    mc_bytes += c->dma().total_bytes();
  }
  EXPECT_GT(cc_bytes, 0u);
  EXPECT_GT(mc_bytes, 0u);
}

TEST(Chip, ClearBandwidthBudgetsLiftsThrottles) {
  ChipConfig cfg = default_chip_config();
  cfg.groups = 1;
  for (const ReplayMode mode : {ReplayMode::kDetailed, ReplayMode::kFast}) {
    SCOPED_TRACE(to_string(mode));
    const bool detailed = mode == ReplayMode::kDetailed;
    ChipTimingModel chip(cfg, ChipComposition::kHeterogeneous, mode);
    for (auto* c : chip.all_clusters()) c->set_budget(1);
    for (auto* c : chip.all_clusters()) {
      EXPECT_EQ(c->budget(), 1u);
      if (detailed) {
        EXPECT_EQ(c->dma().budget(), 1u);
      }
    }
    chip.clear_bandwidth_budgets();
    for (auto* c : chip.all_clusters()) {
      EXPECT_EQ(c->budget(), mem::DmaEngine::kUnlimited);
      if (detailed) {
        EXPECT_EQ(c->dma().budget(), mem::DmaEngine::kUnlimited);
      }
    }
  }
}

TEST(Chip, DetailedTierBuildsTheBurstHierarchy) {
  const ChipConfig cfg = default_chip_config();
  ChipTimingModel chip(cfg, ChipComposition::kHeterogeneous);
  const std::size_t per_group = cfg.cc_clusters_per_group + cfg.mc_clusters_per_group;
  const std::size_t total = cfg.groups * per_group;
  ASSERT_EQ(chip.group_crossbars().size(), cfg.groups);
  for (const mem::ResourceServer& xbar : chip.group_crossbars()) {
    EXPECT_EQ(xbar.port_count(), per_group);
  }
  EXPECT_EQ(chip.system_crossbar().port_count(), total);
  EXPECT_EQ(chip.dram().channel().port_count(), total);
}

TEST(Chip, DetailedRoutesFollowTheGroupHierarchy) {
  // Cluster i's DMA crosses its group's crossbar on the group-local port,
  // then the system crossbar and the DRAM channel on port i (Fig. 4).
  // Each cluster moves a distinct byte count, so a swapped port lands the
  // wrong bytes on some port; a server counts a burst when it starts
  // serving it, so a swapped hop lets a downstream counter lead.
  const ChipConfig cfg = default_chip_config();
  ChipTimingModel chip(cfg, ChipComposition::kHeterogeneous);
  const std::size_t per_group = cfg.cc_clusters_per_group + cfg.mc_clusters_per_group;
  const ChipTimingModel::ClusterSet& all = chip.all_clusters();
  ASSERT_EQ(per_group, 4u);
  ASSERT_EQ(all.size(), 16u);
  mem::ResourceServer& system = chip.system_crossbar();
  mem::ResourceServer& dram = chip.dram().channel();
  for (std::size_t i = 0; i < all.size(); ++i) {
    SCOPED_TRACE(i);
    const Bytes bytes = 4096 * (i + 1);
    const mem::ResourceServer& group = chip.group_crossbars()[i / per_group];
    const Bytes group_before = group.bytes_served();
    const Bytes system_before = system.bytes_served();
    const Bytes dram_before = dram.bytes_served();
    bool landed = false;
    all[i]->dma().transfer(bytes, [&] { landed = true; });
    const int port = static_cast<int>(i);
    const int group_port = static_cast<int>(i % per_group);
    sim::Simulator& sim = chip.simulator();
    while (!sim.idle()) {
      sim.run_until(sim.now() + 1);
      ASSERT_GE(group.bytes_served(group_port), system.bytes_served(port)) << sim.now();
      ASSERT_GE(system.bytes_served(port), dram.bytes_served(port)) << sim.now();
    }
    ASSERT_TRUE(landed);
    EXPECT_EQ(group.bytes_served(group_port), bytes);
    EXPECT_EQ(system.bytes_served(port), bytes);
    EXPECT_EQ(dram.bytes_served(port), bytes);
    // Nothing else moved: the transfer crossed exactly these three hops.
    EXPECT_EQ(group.bytes_served() - group_before, bytes);
    EXPECT_EQ(system.bytes_served() - system_before, bytes);
    EXPECT_EQ(dram.bytes_served() - dram_before, bytes);
  }
}

TEST(Chip, FastTierBuildsNoBurstHierarchy) {
  // The fast tier prices memory time analytically: no crossbar or DRAM
  // hop ports, no MemoryPath and no cluster DMA.
  const ChipConfig cfg = default_chip_config();
  for (const ChipComposition composition : kCompositions) {
    SCOPED_TRACE(to_string(composition));
    ChipTimingModel chip(cfg, composition, ReplayMode::kFast);
    EXPECT_TRUE(chip.group_crossbars().empty());
    EXPECT_EQ(chip.system_crossbar().port_count(), 0u);
    EXPECT_EQ(chip.dram().channel().port_count(), 0u);
    EXPECT_EQ(chip.all_clusters().size(),
              cfg.groups * (cfg.cc_clusters_per_group + cfg.mc_clusters_per_group));
  }
  ChipTimingModel chip(cfg, ChipComposition::kHeterogeneous, ReplayMode::kFast);
  EXPECT_DEATH(chip.all_clusters().front()->dma(), "fast-tier clusters have no DMA");
}

}  // namespace
}  // namespace edgemm::core
