#include "core/kernels.hpp"

#include <stdexcept>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "core/host_core.hpp"
#include "core/timing.hpp"
#include "isa/assembler.hpp"
#include "mem/dram.hpp"
#include "sim/simulator.hpp"

namespace edgemm::core {
namespace {

ChipConfig kernel_cfg() {
  ChipConfig cfg = tiny_chip_config();
  cfg.systolic = {4, 4};
  cfg.cim = {8, 4, 8, 8, 8};
  return cfg;
}

Tensor random_tensor(std::size_t r, std::size_t c, Rng& rng, double sigma = 0.5) {
  Tensor t(r, c);
  for (float& v : t.flat()) v = static_cast<float>(rng.gaussian(0.0, sigma));
  return t;
}

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

TEST(SaGemmKernel, MatchesReferenceOnOddShapes) {
  // 7×10 × 10×9 exercises padding on every tile edge.
  const ChipConfig cfg = kernel_cfg();
  Rng rng(3);
  const Tensor a = random_tensor(7, 10, rng);
  const Tensor w = random_tensor(10, 9, rng);
  const auto result = sa_gemm(cfg, a, w);
  const Tensor ref = matmul_reference(a, w);
  ASSERT_EQ(result.out.rows(), 7u);
  ASSERT_EQ(result.out.cols(), 9u);
  for (std::size_t r = 0; r < 7; ++r) {
    for (std::size_t c = 0; c < 9; ++c) {
      EXPECT_NEAR(result.out.at(r, c), ref.at(r, c), 0.08F) << r << "," << c;
    }
  }
}

TEST(SaGemmKernel, TilePassCountAndCycles) {
  const ChipConfig cfg = kernel_cfg();  // 4×4 array
  Rng rng(4);
  const Tensor a = random_tensor(5, 8, rng);
  const Tensor w = random_tensor(8, 12, rng);
  const auto result = sa_gemm(cfg, a, w);
  // ceil(8/4) × ceil(12/4) = 2 × 3 tiles.
  EXPECT_EQ(result.tile_passes, 6u);
  // Each pass: load (R) + stream (Eq. 2 remainder) at m = 5.
  EXPECT_EQ(result.cycles,
            6u * coproc::systolic_tile_cycles(cfg.systolic, 5));
}

TEST(SaGemmKernel, InnerMismatchThrows) {
  const ChipConfig cfg = kernel_cfg();
  EXPECT_THROW(sa_gemm(cfg, Tensor(2, 3), Tensor(4, 2)), std::invalid_argument);
}

TEST(CimGemvKernel, MatchesReferenceWithinQuantError) {
  const ChipConfig cfg = kernel_cfg();
  Rng rng(5);
  const Tensor w = random_tensor(16, 20, rng);  // K=16 > R·entries? 16/4=4 entries
  std::vector<float> act(16);
  for (float& v : act) v = static_cast<float>(rng.gaussian(0.0, 0.5));
  const auto result = cim_gemv(cfg, act, w);
  const auto ref = gemv_reference(act, w);
  ASSERT_EQ(result.out.size(), 20u);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(result.out[i], ref[i], 0.25F) << i;
  }
  // ceil(20/8) = 3 column groups, ceil(16/4) = 4 entries.
  EXPECT_EQ(result.column_groups, 3u);
  EXPECT_EQ(result.entries_used, 4u);
}

TEST(CimGemvKernel, StreamsWhenKExceedsMacroCapacity) {
  // K = 64 rows = 16 entries > 8 macro entries: two resident windows.
  const ChipConfig cfg = kernel_cfg();
  Rng rng(6);
  const Tensor w = random_tensor(64, 8, rng);
  std::vector<float> act(64);
  for (float& v : act) v = static_cast<float>(rng.gaussian(0.0, 0.3));
  const auto result = cim_gemv(cfg, act, w);
  const auto ref = gemv_reference(act, w);
  const double cos = cosine_similarity(result.out, ref);
  EXPECT_GT(cos, 0.995);
}

TEST(CimGemvKernel, LengthMismatchThrows) {
  const ChipConfig cfg = kernel_cfg();
  EXPECT_THROW(cim_gemv(cfg, std::vector<float>(3, 1.0F), Tensor(4, 4)),
               std::invalid_argument);
}

TEST(PrunedGemv, ValidatesArguments) {
  const ChipConfig cfg = kernel_cfg();
  const Tensor w(8, 4);
  const std::vector<float> act(8, 1.0F);
  EXPECT_THROW(cim_gemv_pruned(cfg, std::vector<float>(5, 1.0F), w, 4, 16.0, 2),
               std::invalid_argument);
  EXPECT_THROW(cim_gemv_pruned(cfg, act, w, 4, 0.0, 2), std::invalid_argument);
  EXPECT_THROW(cim_gemv_pruned(cfg, act, w, 4, 16.0, 0), std::invalid_argument);
}

TEST(PrunedGemv, FullBudgetReducesToDenseGemv) {
  const ChipConfig cfg = kernel_cfg();
  Rng rng(7);
  const Tensor w = random_tensor(16, 8, rng);
  std::vector<float> act(16);
  for (float& v : act) v = static_cast<float>(rng.gaussian());
  const auto pruned = cim_gemv_pruned(cfg, act, w, 16, 16.0, 2);
  EXPECT_EQ(pruned.channels_kept, 16u);
  EXPECT_EQ(pruned.pruning_ratio, 0.0);
  EXPECT_EQ(pruned.weight_bytes_fetched, pruned.weight_bytes_unpruned);
  const auto dense = cim_gemv(cfg, act, w);
  for (std::size_t i = 0; i < dense.out.size(); ++i) {
    EXPECT_NEAR(pruned.out[i], dense.out[i], 0.15F);
  }
}

TEST(PrunedGemv, OutlierDominatedVectorSurvivesHeavyPruning) {
  const ChipConfig cfg = kernel_cfg();
  Rng rng(8);
  const Tensor w = random_tensor(32, 8, rng);
  // Body ~0.02, four outliers at ±3: top-4 pruning keeps the signal.
  std::vector<float> act(32);
  for (float& v : act) v = static_cast<float>(rng.gaussian(0.0, 0.02));
  act[3] = 3.0F;
  act[11] = -2.5F;
  act[19] = 2.8F;
  act[27] = -3.2F;

  const auto pruned = cim_gemv_pruned(cfg, act, w, 4, 16.0, 2);
  EXPECT_EQ(pruned.channels_kept, 4u);
  EXPECT_NEAR(pruned.pruning_ratio, 1.0 - 4.0 / 32.0, 1e-9);
  EXPECT_LT(pruned.weight_bytes_fetched, pruned.weight_bytes_unpruned / 4);

  const auto ref = gemv_reference(act, w);
  EXPECT_GT(cosine_similarity(pruned.out, ref), 0.97);
}

TEST(PrunedGemv, BudgetSplitsAcrossCores) {
  // A budget of 8 over 4 cores. With 32 channels each core keeps 2 of
  // its 8. With 30 the slices are 8, 8, 8 and 6, and the core covering
  // [lo, hi) keeps floor(8·hi/30) − floor(8·lo/30): 2 + 2 + 2 + 2, not
  // ceil(8·len/30) = 3 + 3 + 3 + 2.
  const ChipConfig cfg = kernel_cfg();
  for (const std::size_t k : {32u, 30u}) {
    Rng rng(9);
    const Tensor w = random_tensor(k, 8, rng);
    std::vector<float> act(k);
    for (float& v : act) v = static_cast<float>(rng.gaussian());
    const auto pruned = cim_gemv_pruned(cfg, act, w, 8, 16.0, 4);
    EXPECT_EQ(pruned.channels_kept, 8u) << "k = " << k;
  }
}

TEST(PrunedGemv, ZeroBudgetYieldsZeroOutput) {
  const ChipConfig cfg = kernel_cfg();
  const Tensor w(8, 4);
  const std::vector<float> act(8, 1.0F);
  const auto pruned = cim_gemv_pruned(cfg, act, w, 0, 16.0, 2);
  EXPECT_EQ(pruned.channels_kept, 0u);
  for (const float v : pruned.out) EXPECT_EQ(v, 0.0F);
}

// Differential: the functional kernels and extension instructions
// against the Eq. 2/3 prices the timing plane charges for the same shape
// (`ClusterTimingModel::compute_cycles`), one core per cluster so no
// cross-core split enters. The systolic side agrees exactly. The CIM
// kernel drains the macro once per window of `cim.entries` entries where
// Eq. 3 charges one drain per column group (docs/PAPER_MAP.md).
TEST(KernelCycleDifferential, FunctionalCyclesMatchComputeCycles) {
  ChipConfig cfg = kernel_cfg();  // 4×4 array; CIM R = 4, C = 8, M = 8
  cfg.cc_cores_per_cluster = 1;
  cfg.mc_cores_per_cluster = 1;
  sim::Simulator sim;
  mem::DramController dram(sim, cfg.dram);
  const ClusterTimingModel cc(sim, dram, cfg, ClusterKind::kComputeCentric);
  const ClusterTimingModel mc(sim, dram, cfg, ClusterKind::kMemoryCentric);
  const std::size_t tree = cfg.cim.tree_inputs;
  const std::size_t columns = cfg.cim.columns;
  const std::size_t macro_rows = tree * cfg.cim.entries;  // R·M
  Rng rng(28);
  const auto draw = [&rng](std::size_t lo, std::size_t hi) {
    return static_cast<std::size_t>(rng.uniform_int(static_cast<std::int64_t>(lo),
                                                    static_cast<std::int64_t>(hi)));
  };

  std::size_t edge_tiles = 0;
  for (int i = 0; i < 60; ++i) {
    const std::size_t m = draw(1, 12);
    const std::size_t k = draw(1, 20);
    const std::size_t n = draw(1, 20);
    edge_tiles += (k % cfg.systolic.rows != 0 || n % cfg.systolic.cols != 0);
    const auto got = sa_gemm(cfg, random_tensor(m, k, rng), random_tensor(k, n, rng));
    EXPECT_EQ(got.cycles, cc.compute_cycles({m, k, n})) << m << "x" << k << "x" << n;
  }
  EXPECT_GT(edge_tiles, 0u);

  std::size_t multi_window = 0;
  for (int i = 0; i < 200; ++i) {
    const std::size_t k = draw(1, 3 * macro_rows);
    const std::size_t n = draw(1, 3 * columns);
    const std::size_t windows = ceil_div(ceil_div(k, tree), cfg.cim.entries);
    multi_window += windows > 1;
    const std::vector<float> act(k, 0.5F);
    const auto got = cim_gemv(cfg, act, random_tensor(k, n, rng));
    EXPECT_EQ(got.cycles,
              mc.compute_cycles({1, k, n}) + (windows - 1) * ceil_div(n, columns))
        << k << "x" << n;
  }
  EXPECT_GT(multi_window, 0u);

  // mm.mul on one R×R by R×C tile is one Eq. 2 tile pass at m = R.
  const std::size_t rows = cfg.systolic.rows;
  HostCore cc_core(cfg, CoreKind::kComputeCentric, 0, 0, 0, 0);
  EXPECT_EQ(cc_core.execute(isa::assemble_line("mm.mul m0, m1, m2")),
            cc.compute_cycles({rows, rows, cfg.systolic.cols}));

  // mv.ldw + mv.mul on a matrix that fits one macro window and one
  // column group is one Eq. 3 group with its entry writes.
  for (int i = 0; i < 20; ++i) {
    const std::size_t k = draw(1, macro_rows);
    const std::size_t n = draw(1, columns);
    HostCore mc_core(cfg, CoreKind::kMemoryCentric, 0, 0, 0, 0);
    const Tensor w = random_tensor(k, n, rng);
    mc_core.bind_matrix(0x100, &w);
    mc_core.set_xreg(1, 0x100);
    mc_core.set_vreg(2, std::vector<float>(k, 0.5F));
    const Cycle got = mc_core.execute(isa::assemble_line("mv.ldw (x1)")) +
                      mc_core.execute(isa::assemble_line("mv.mul v3, v2, (x1)"));
    EXPECT_EQ(got, mc.compute_cycles({1, k, n})) << k << "x" << n;
  }
}

}  // namespace
}  // namespace edgemm::core
