#include "core/timing.hpp"

#include <gtest/gtest.h>

#include "core/config.hpp"
#include "mem/dram.hpp"
#include "sim/simulator.hpp"

namespace edgemm::core {
namespace {

struct TimingFixture : ::testing::Test {
  ChipConfig cfg = default_chip_config();
  sim::Simulator sim;
  mem::DramController dram{sim, cfg.dram};
};

TEST_F(TimingFixture, CcComputeFollowsEq2Tiling) {
  ClusterTimingModel cc(sim, dram, cfg, ClusterKind::kComputeCentric);
  const GemmWork work{300, 2048, 2048, Phase::kPrefill, false, 0, false};
  // tiles = (2048/16)·(2048/16) = 16384; per-tile Eq. 2 at m=300 = 345;
  // 4 cores share the tiles.
  const Cycle expected = (16384 / 4) * (2 * 16 + 16 + 300 - 3);
  EXPECT_EQ(cc.compute_cycles(work), expected);
}

TEST_F(TimingFixture, McComputeFollowsEq3PlusWrites) {
  ClusterTimingModel mc(sim, dram, cfg, ClusterKind::kMemoryCentric);
  const GemmWork work{1, 2048, 2048, Phase::kDecode, false, 0, false};
  // col groups = 2048/64 = 32 over 2 cores = 16 sequential groups;
  // per group: 128 entries × 16 write cycles + (1·128·8 + 1) compute.
  const Cycle per_group = 128 * 16 + (128 * 8 + 1);
  EXPECT_EQ(mc.compute_cycles(work), 16 * per_group);
}

TEST_F(TimingFixture, ResidentWeightsSkipCimWrites) {
  ClusterTimingModel mc(sim, dram, cfg, ClusterKind::kMemoryCentric);
  GemmWork work{1, 2048, 2048, Phase::kDecode, false, 0, false};
  const Cycle with_writes = mc.compute_cycles(work);
  work.weights_resident = true;
  const Cycle without_writes = mc.compute_cycles(work);
  EXPECT_LT(without_writes, with_writes);
}

TEST_F(TimingFixture, WeightBytesFollowElementSizes) {
  ClusterTimingModel cc(sim, dram, cfg, ClusterKind::kComputeCentric);
  ClusterTimingModel mc(sim, dram, cfg, ClusterKind::kMemoryCentric);
  const GemmWork work{1, 1024, 1024, Phase::kDecode, false, 0, false};
  EXPECT_EQ(cc.weight_bytes(work), 1024u * 1024u * 2u);  // BF16 weights
  EXPECT_EQ(mc.weight_bytes(work), 1024u * 1024u * 1u);  // INT8 weights

  GemmWork kv = work;
  kv.weight_elem_bytes_override = 2;  // KV cache streams BF16 everywhere
  EXPECT_EQ(mc.weight_bytes(kv), 1024u * 1024u * 2u);

  GemmWork resident = work;
  resident.weights_resident = true;
  EXPECT_EQ(mc.weight_bytes(resident), 0u);
}

TEST_F(TimingFixture, McBlocksLargerThanCc) {
  // Fig. 6(b) insight: the ample MC memory permits larger DMA blocks.
  ClusterTimingModel cc(sim, dram, cfg, ClusterKind::kComputeCentric);
  ClusterTimingModel mc(sim, dram, cfg, ClusterKind::kMemoryCentric);
  EXPECT_GT(mc.block_bytes(), cc.block_bytes());
}

TEST_F(TimingFixture, GemvFasterOnMcThanCc) {
  // §V-B: "an MC-cluster is 2.42× faster in GEMV".  Our model should land
  // near 2× (precision + efficiency); assert the direction and ballpark.
  const GemmWork gemv{1, 2048, 2048, Phase::kDecode, false, 0, false};

  auto run_isolated = [&](ClusterKind kind) {
    sim::Simulator local_sim;
    mem::DramController local_dram(local_sim, cfg.dram);
    ClusterTimingModel cluster(local_sim, local_dram, cfg, kind);
    Cycle done = 0;
    cluster.run_ops({gemv}, [&] { done = local_sim.now(); });
    local_sim.run();
    return done;
  };

  const Cycle cc_time = run_isolated(ClusterKind::kComputeCentric);
  const Cycle mc_time = run_isolated(ClusterKind::kMemoryCentric);
  const double ratio = static_cast<double>(cc_time) / static_cast<double>(mc_time);
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 4.0);
}

TEST_F(TimingFixture, GemmFasterOnCcThanMc) {
  // §V-B: "a CC-cluster shows 4.3× better GEMM performance than an
  // MC-cluster".
  const GemmWork gemm{300, 2048, 2048, Phase::kPrefill, false, 0, false};

  auto run_isolated = [&](ClusterKind kind) {
    sim::Simulator local_sim;
    mem::DramController local_dram(local_sim, cfg.dram);
    ClusterTimingModel cluster(local_sim, local_dram, cfg, kind);
    Cycle done = 0;
    cluster.run_ops({gemm}, [&] { done = local_sim.now(); });
    local_sim.run();
    return done;
  };

  const Cycle cc_time = run_isolated(ClusterKind::kComputeCentric);
  const Cycle mc_time = run_isolated(ClusterKind::kMemoryCentric);
  const double ratio = static_cast<double>(mc_time) / static_cast<double>(cc_time);
  EXPECT_GT(ratio, 2.5);
  EXPECT_LT(ratio, 7.0);
}

TEST_F(TimingFixture, BaselineSlowerThanBothExtensions) {
  const GemmWork gemm{300, 2048, 2048, Phase::kPrefill, false, 0, false};
  ClusterTimingModel cc(sim, dram, cfg, ClusterKind::kComputeCentric);
  ClusterTimingModel simd(sim, dram, cfg, ClusterKind::kBaselineSimd);
  EXPECT_GT(simd.compute_cycles(gemm), 10 * cc.compute_cycles(gemm));
}

TEST_F(TimingFixture, RunOpsCompletesAndAccountsStats) {
  ClusterTimingModel cc(sim, dram, cfg, ClusterKind::kComputeCentric);
  bool done = false;
  const GemmWork work{16, 256, 256, Phase::kPrefill, false, 0, false};
  cc.run_ops({work, work}, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(cc.idle());
  EXPECT_EQ(cc.stats().ops_executed, 2u);
  EXPECT_EQ(cc.stats().flops, 2 * work.flops());
  EXPECT_GT(cc.stats().compute_cycles, 0u);
  EXPECT_EQ(cc.dma().total_bytes(),
            2 * (cc.weight_bytes(work) + cc.activation_bytes(work)));
}

TEST_F(TimingFixture, EmptyOpListStillCompletes) {
  ClusterTimingModel cc(sim, dram, cfg, ClusterKind::kComputeCentric);
  bool done = false;
  cc.run_ops({}, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
}

TEST_F(TimingFixture, DoubleBufferingOverlapsDmaAndCompute) {
  // End-to-end latency of n blocks must be well below the serial sum
  // (DMA then compute per block) when both sides are comparable.
  ClusterTimingModel cc(sim, dram, cfg, ClusterKind::kComputeCentric);
  const GemmWork work{64, 2048, 2048, Phase::kPrefill, false, 0, false};
  Cycle done_at = 0;
  cc.run_ops({work}, [&] { done_at = sim.now(); });
  sim.run();

  const Bytes bytes = cc.weight_bytes(work) + cc.activation_bytes(work);
  const auto dma_cycles =
      static_cast<Cycle>(static_cast<double>(bytes) / cfg.dram.bytes_per_cycle);
  const Cycle compute = cc.compute_cycles(work);
  const Cycle serial = dma_cycles + compute;
  const Cycle overlapped = std::max<Cycle>(dma_cycles, compute);
  EXPECT_LT(done_at, serial);
  // Within 25 % of the ideal overlap bound (pipeline fill + latency).
  EXPECT_LT(done_at, overlapped + overlapped / 4 + cfg.dram.latency * 4);
}

}  // namespace
}  // namespace edgemm::core
