// Property tests on the timing plane: conservation and monotonicity
// invariants that must hold for any workload.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/chip.hpp"
#include "core/timing.hpp"
#include "mem/dram.hpp"
#include "sim/simulator.hpp"

namespace edgemm::core {
namespace {

std::vector<GemmWork> random_ops(Rng& rng, std::size_t count) {
  std::vector<GemmWork> ops;
  for (std::size_t i = 0; i < count; ++i) {
    GemmWork op;
    op.m = static_cast<std::size_t>(rng.uniform_int(1, 64));
    op.k = static_cast<std::size_t>(rng.uniform_int(32, 1024));
    op.n = static_cast<std::size_t>(rng.uniform_int(32, 1024));
    op.phase = rng.bernoulli(0.5) ? Phase::kPrefill : Phase::kDecode;
    op.prunable = rng.bernoulli(0.3);
    ops.push_back(op);
  }
  return ops;
}

class TimingPropertySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimingPropertySweep, FlopAndByteConservation) {
  // Whatever the op mix, the cluster must account exactly the FLOPs of
  // the ops it ran and DMA exactly weight+activation bytes.
  Rng rng(GetParam());
  const ChipConfig cfg = default_chip_config();
  sim::Simulator sim;
  mem::DramController dram(sim, cfg.dram);
  ClusterTimingModel cluster(sim, dram, cfg, ClusterKind::kComputeCentric);

  const auto ops = random_ops(rng, 6);
  Flops expected_flops = 0;
  Bytes expected_bytes = 0;
  for (const auto& op : ops) {
    expected_flops += op.flops();
    expected_bytes += cluster.weight_bytes(op) + cluster.activation_bytes(op);
  }
  bool done = false;
  cluster.run_ops(ops, [&] { done = true; });
  sim.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(cluster.stats().flops, expected_flops);
  EXPECT_EQ(cluster.dma().total_bytes(), expected_bytes);
  EXPECT_EQ(dram.bytes_served(), expected_bytes);
  EXPECT_EQ(cluster.stats().ops_executed, ops.size());
}

TEST_P(TimingPropertySweep, LatencyBoundedByComputeAndMemoryFloors) {
  // End-to-end latency can never beat either resource floor, and with
  // double buffering it should not exceed their sum by much.
  Rng rng(GetParam() ^ 0xABCD);
  const ChipConfig cfg = default_chip_config();
  sim::Simulator sim;
  mem::DramController dram(sim, cfg.dram);
  ClusterTimingModel cluster(sim, dram, cfg, ClusterKind::kMemoryCentric);

  const auto ops = random_ops(rng, 4);
  Cycle compute_floor = 0;
  double bytes = 0.0;
  for (const auto& op : ops) {
    compute_floor += cluster.compute_cycles(op);
    bytes += static_cast<double>(cluster.weight_bytes(op) +
                                 cluster.activation_bytes(op));
  }
  const auto memory_floor = static_cast<Cycle>(bytes / cfg.dram.bytes_per_cycle);

  Cycle done_at = 0;
  cluster.run_ops(ops, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_GE(done_at, compute_floor);
  EXPECT_GE(done_at, memory_floor);
  const Cycle slack = cfg.dram.latency * (2 + ops.size());
  EXPECT_LE(done_at, compute_floor + memory_floor + slack);
}

TEST_P(TimingPropertySweep, PartitionPreservesTotals) {
  Rng rng(GetParam() ^ 0x1234);
  const auto ops = random_ops(rng, 8);
  for (const auto& op : ops) {
    for (const std::size_t ways : {2u, 3u, 8u, 16u}) {
      const auto shards = ChipTimingModel::partition(op, ways);
      std::size_t n_total = 0;
      Flops flops_total = 0;
      for (const auto& s : shards) {
        n_total += s.n;
        flops_total += s.flops();
        EXPECT_EQ(s.m, op.m);
        EXPECT_EQ(s.k, op.k);
        EXPECT_EQ(s.prunable, op.prunable);
      }
      EXPECT_EQ(n_total, op.n);
      EXPECT_EQ(flops_total, op.flops());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimingPropertySweep,
                         ::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull, 13ull));

}  // namespace
}  // namespace edgemm::core
