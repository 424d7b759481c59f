#include "core/pipeline.hpp"

#include <stdexcept>

#include <gtest/gtest.h>

namespace edgemm::core {
namespace {

/// Small synthetic MLLM: enough work per stage to be measurable, small
/// enough for fast tests.
PhaseWorkload synthetic_workload() {
  PhaseWorkload w;
  for (int i = 0; i < 4; ++i) {
    w.encoder.push_back({256, 1024, 1024, Phase::kVisionEncoder, false, 0, false});
    w.prefill.push_back({256, 1024, 2048, Phase::kPrefill, false, 0, false});
    w.decode_token.push_back({1, 1024, 2048, Phase::kDecode, false, 0, true});
    w.decode_token.push_back({1, 2048, 1024, Phase::kDecode, false, 0, true});
  }
  return w;
}

ChipConfig small_cfg() {
  ChipConfig cfg = default_chip_config();
  cfg.groups = 1;  // 2 CC + 2 MC clusters: fast simulation
  return cfg;
}

TEST(PipelineHelpers, BatchedDecodeScalesM) {
  const auto ops = synthetic_workload().decode_token;
  const auto batched = batched_decode_ops(ops, 4);
  ASSERT_EQ(batched.size(), ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(batched[i].m, ops[i].m * 4);
    EXPECT_EQ(batched[i].k, ops[i].k);
  }
  EXPECT_EQ(batched_decode_ops(ops, 1)[0].m, ops[0].m);
}

TEST(PipelineHelpers, PrunedOpsScalesOnlyPrunableK) {
  std::vector<GemmWork> ops{
      {1, 1000, 64, Phase::kDecode, false, 0, true},
      {1, 1000, 64, Phase::kDecode, false, 0, false},
  };
  const auto pruned = pruned_ops(ops, 0.6);
  EXPECT_EQ(pruned[0].k, 600u);
  EXPECT_EQ(pruned[1].k, 1000u);
  EXPECT_THROW(pruned_ops(ops, 1.5), std::invalid_argument);
  EXPECT_THROW(pruned_ops(ops, -0.1), std::invalid_argument);
  // keep_fraction 0 must clamp to at least one channel.
  EXPECT_EQ(pruned_ops(ops, 0.0)[0].k, 1u);
}

TEST(Pipeline, ValidatesOptions) {
  MllmPipeline pipeline(small_cfg());
  const auto w = synthetic_workload();
  PipelineOptions opts;
  opts.output_tokens = 0;
  EXPECT_THROW(pipeline.run(w, opts), std::invalid_argument);

  PhaseWorkload empty_cc;
  empty_cc.decode_token = w.decode_token;
  opts.output_tokens = 4;
  EXPECT_THROW(pipeline.run(empty_cc, opts), std::invalid_argument);

  PhaseWorkload empty_decode;
  empty_decode.encoder = w.encoder;
  EXPECT_THROW(pipeline.run(empty_decode, opts), std::invalid_argument);
}

TEST(Pipeline, RunsToCompletionWithSaneMetrics) {
  MllmPipeline pipeline(small_cfg());
  PipelineOptions opts;
  opts.output_tokens = 8;
  opts.batches = 3;
  opts.manage_bandwidth = false;
  opts.enable_batching = false;
  const auto result = pipeline.run(synthetic_workload(), opts);
  EXPECT_GT(result.makespan, 0u);
  EXPECT_GT(result.cc_stage_cycles, 0u);
  EXPECT_GT(result.mc_stage_cycles, 0u);
  EXPECT_GT(result.tokens_per_second, 0.0);
  EXPECT_GT(result.request_latency_ms, 0.0);
  EXPECT_EQ(result.batch, 1u);
  EXPECT_EQ(result.total_tokens, 3u * 8u);
  EXPECT_GT(result.dram_utilization, 0.0);
  EXPECT_LE(result.dram_utilization, 1.0);
}

TEST(Pipeline, DecodeStageGrowsWithOutputLength) {
  MllmPipeline pipeline(small_cfg());
  PipelineOptions opts;
  opts.manage_bandwidth = false;
  opts.enable_batching = false;
  opts.output_tokens = 4;
  const auto short_run = pipeline.run(synthetic_workload(), opts);
  opts.output_tokens = 16;
  const auto long_run = pipeline.run(synthetic_workload(), opts);
  EXPECT_GT(long_run.mc_stage_cycles, 3 * short_run.mc_stage_cycles);
}

TEST(Pipeline, BandwidthManagementHelpsDecodeBoundRuns) {
  // At long output lengths the MC stage dominates; throttling CC must
  // shorten the steady-state round (higher throughput).
  MllmPipeline pipeline(small_cfg());
  PipelineOptions opts;
  opts.output_tokens = 64;
  opts.batches = 3;
  opts.enable_batching = false;
  // Policy tuned so l=64 sits beyond the ramp start.
  opts.policy.balance_length = 8;
  opts.policy.batch_length = 65;

  opts.manage_bandwidth = false;
  const auto unmanaged = pipeline.run(synthetic_workload(), opts);
  opts.manage_bandwidth = true;
  const auto managed = pipeline.run(synthetic_workload(), opts);

  EXPECT_GT(managed.mc_ratio, 1u);
  EXPECT_GT(managed.tokens_per_second, unmanaged.tokens_per_second);
  EXPECT_LT(managed.mc_stage_cycles, unmanaged.mc_stage_cycles);
}

TEST(Pipeline, BatchingBoostsThroughputAtLatencyCost) {
  // Fig. 9(c)/Fig. 13: batching multiplies throughput, adds latency.
  MllmPipeline pipeline(small_cfg());
  PipelineOptions opts;
  opts.output_tokens = 32;
  opts.batches = 3;
  opts.manage_bandwidth = false;
  // A policy whose batch ramp saturates at 8 well below l = 32.
  opts.policy.balance_length = 2;
  opts.policy.batch_length = 3;
  opts.policy.max_batch = 8;

  opts.enable_batching = false;
  const auto single = pipeline.run(synthetic_workload(), opts);
  opts.enable_batching = true;
  const auto batched = pipeline.run(synthetic_workload(), opts);

  EXPECT_EQ(batched.batch, 8u);
  EXPECT_GT(batched.tokens_per_second, 2.0 * single.tokens_per_second);
  EXPECT_GT(batched.request_latency_ms, single.request_latency_ms);
}

TEST(Pipeline, PruningShortensDecode) {
  MllmPipeline pipeline(small_cfg());
  PipelineOptions opts;
  opts.output_tokens = 16;
  opts.manage_bandwidth = false;
  opts.enable_batching = false;

  const auto dense = pipeline.run(synthetic_workload(), opts);
  opts.prune_keep_fraction = 0.5;
  const auto pruned = pipeline.run(synthetic_workload(), opts);

  EXPECT_LT(pruned.mc_stage_cycles, dense.mc_stage_cycles);
  EXPECT_GT(pruned.tokens_per_second, dense.tokens_per_second);
}

}  // namespace
}  // namespace edgemm::core
