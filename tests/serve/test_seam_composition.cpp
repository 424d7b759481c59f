// Generated seam-composition drain test: fixed-seed random small traces
// replayed under every cross of prefill planner (plain chunked vs
// weight-resident chunked under a tight residency budget), quality
// policy (static vs queue-depth) and offload (none vs a threshold
// policy with a fat backend), on both replay tiers; two traces group
// their requests into conversations that share an image and a prompt
// prefix, one of them with suffixes short enough for the MC lane.
// Every replay must drain without tripping the engine's drain asserts
// (CC backlog, KV pages, weight pins), finish or reject every request,
// and replay bit-identically a second time.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/gpu_model.hpp"
#include "serve/residency_tracker.hpp"
#include "serve/serving_engine.hpp"
#include "serve/sweep.hpp"
#include "serve/trace.hpp"

namespace edgemm::serve {
namespace {

core::ChipConfig small_cfg() {
  core::ChipConfig cfg = core::default_chip_config();
  cfg.groups = 1;
  return cfg;
}

std::vector<model::MllmConfig> zoo() {
  model::MllmConfig tiny;
  tiny.name = "tiny-mllm";
  tiny.encoders = {{"enc", 2, 256, 512, 4, 4, 0, false}};
  tiny.vision_tokens = 16;
  tiny.projector_params = 0;
  tiny.llm = {"llm", 2, 256, 512, 4, 4, 1024, true};
  model::MllmConfig deep = tiny;
  deep.name = "deep-mllm";
  deep.llm = {"llm", 4, 256, 512, 4, 4, 1024, true};
  return {tiny, deep};
}

/// A small two-model trace drawn from `seed`: request count, arrival
/// rate, burst size, prompt and output lengths all vary. With
/// `prefix_groups` > 0 the requests also fall into that many
/// conversations per model, sharing a 48-token prefix and their image;
/// `short_suffixes` then keeps each prompt within 16 tokens past it.
std::vector<Request> random_trace(std::uint64_t seed,
                                  std::size_t prefix_groups = 0,
                                  bool short_suffixes = false) {
  std::mt19937_64 rng(seed);
  TraceConfig cfg;
  cfg.requests = 8 + rng() % 9;
  cfg.arrival_rate_per_s = 2000.0 + 2000.0 * static_cast<double>(rng() % 4);
  cfg.burst = 1 + rng() % 4;
  cfg.model_weights = {1.0, 1.0};
  cfg.min_output_tokens = 1;
  cfg.max_output_tokens = 2 + rng() % 6;
  cfg.prefix_groups = prefix_groups;
  cfg.prefix_tokens = prefix_groups > 0 ? 48 : 0;
  cfg.seed = seed;
  std::vector<Request> trace = poisson_trace(cfg);
  for (Request& r : trace) {
    r.input_tokens = short_suffixes ? cfg.prefix_tokens + 1 + rng() % 16
                                    : 64 + 32 * (rng() % 16);
  }
  return trace;
}

struct Composition {
  bool resident = false;      ///< ResidentChunkedPrefill, tight budget
  bool queue_depth = false;   ///< QueueDepthQuality instead of static
  bool offload = false;       ///< ThresholdOffload with a fat backend
};

EngineConfig compose(const Composition& c, core::ReplayMode mode,
                     const core::ChipConfig& chip,
                     const std::vector<model::MllmConfig>& models) {
  EngineConfig config =
      EngineConfig()
          .scheduler(std::make_shared<ConcurrencyPolicy>(AdmissionLimits{4, 8}))
          .replay_mode(mode);
  if (c.resident) {
    // Room for the larger model's full layer-group set only: the two
    // models contend for the budget, so pins fall back, attach late and
    // riders hit the fill barrier.
    Bytes budget = 0;
    for (const model::MllmConfig& m : models) {
      budget = std::max(budget, llm_layer_group_bytes(m, chip) * m.llm.layers);
    }
    config.prefill_planner(std::make_shared<ResidentChunkedPrefill>(64))
        .weight_residency_bytes(budget);
  } else {
    config.prefill_planner(std::make_shared<ChunkedPrefill>(64));
  }
  if (c.queue_depth) {
    // A small proxy keeps the accuracy pricing of degraded requests cheap.
    TaskProxyPruningOptions proxy;
    proxy.proxy.tokens = 2;
    proxy.max_proxy_channels = 128;
    proxy.max_proxy_layers = 4;
    config.quality_policy(std::make_shared<QueueDepthQuality>(1, 4))
        .task_proxy_pruning(proxy);
  }
  if (c.offload) {
    config.fat_backend(baselines::GpuSpec{})
        .offload_policy(std::make_shared<ThresholdOffload>(2));
  }
  return config;
}

/// Replays every composition over every seed twice on `mode`, checking
/// drain and determinism, and sums the seam counters into `sum` so the
/// caller can check each path was actually exercised.
void replay_grid(core::ReplayMode mode, ServingResult& sum) {
  const core::ChipConfig chip = small_cfg();
  const std::vector<model::MllmConfig> models = zoo();
  // The last two traces group their requests into conversations, so the
  // encoder cache and prefix reuse run under every composition too; the
  // last one's later turns are short enough to prefill on the MC lane.
  const std::vector<std::vector<Request>> traces = {
      random_trace(11), random_trace(23), random_trace(37),
      random_trace(41, /*prefix_groups=*/3),
      random_trace(43, /*prefix_groups=*/3, /*short_suffixes=*/true)};
  for (std::size_t t = 0; t < traces.size(); ++t) {
    const std::vector<Request>& trace = traces[t];
    for (int bits = 0; bits < 8; ++bits) {
      const Composition c{(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0};
      SCOPED_TRACE(::testing::Message()
                   << "trace=" << t << " resident=" << c.resident
                   << " queue_depth=" << c.queue_depth
                   << " offload=" << c.offload);
      const ReplayOutcome first =
          replay_trace(chip, models, compose(c, mode, chip, models), trace);
      const ReplayOutcome second =
          replay_trace(chip, models, compose(c, mode, chip, models), trace);
      EXPECT_EQ(first.result.completed + first.result.rejected, trace.size());
      EXPECT_TRUE(results_identical(first.result, second.result));
      ASSERT_EQ(first.records.size(), second.records.size());
      for (std::size_t i = 0; i < first.records.size(); ++i) {
        EXPECT_TRUE(record_identical(first.records[i], second.records[i]))
            << "record " << i;
      }
      sum.quality_downgrades += first.result.quality_downgrades;
      sum.weight_pins += first.result.weight_pins;
      sum.rider_refetch_bytes += first.result.rider_refetch_bytes;
      sum.offloaded_chunks += first.result.offloaded_chunks;
      sum.encoder_cache_hits += first.result.encoder_cache_hits;
      sum.prefix_cache_hits += first.result.prefix_cache_hits;
      sum.mc_suffix_prefills += first.result.mc_suffix_prefills;
    }
  }
}

void expect_every_seam_exercised(core::ReplayMode mode) {
  ServingResult sum;
  replay_grid(mode, sum);
  EXPECT_GT(sum.quality_downgrades, 0u);   // quality re-pricing
  EXPECT_GT(sum.weight_pins, 0u);          // pin re-pricing
  EXPECT_GT(sum.rider_refetch_bytes, 0u);  // fill-barrier re-pricing
  EXPECT_GT(sum.offloaded_chunks, 0u);     // offload exit
  EXPECT_GT(sum.encoder_cache_hits, 0u);   // encode-once chunk 0s
  // 64-token chunk 0s cover the 48-token prefix: suffix-only plans.
  EXPECT_GT(sum.prefix_cache_hits, 0u);
  // Single-chunk suffixes cheaper as CIM compute: MC-lane prefills.
  EXPECT_GT(sum.mc_suffix_prefills, 0u);
}

TEST(SeamComposition, GeneratedTracesDrainOnTheFastTier) {
  expect_every_seam_exercised(core::ReplayMode::kFast);
}

TEST(SeamComposition, GeneratedTracesDrainOnTheDetailedTier) {
  expect_every_seam_exercised(core::ReplayMode::kDetailed);
}

}  // namespace
}  // namespace edgemm::serve
