// KV swap-refill DMA injection (EngineConfig::kv_swap_refill_dma): the
// bytes a swapped-out request re-fetches from DRAM on refill become a
// real MC-lane op in the decode step, so swap thrashing costs
// decode bandwidth in the timing plane instead of being ledgered for
// free.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "serve/serving_engine.hpp"
#include "serve/sweep.hpp"

namespace edgemm::serve {
namespace {

core::ChipConfig small_cfg() {
  core::ChipConfig cfg = core::default_chip_config();
  cfg.groups = 1;
  return cfg;
}

model::MllmConfig tiny_model() {
  model::MllmConfig m;
  m.name = "tiny-mllm";
  m.encoders = {{"enc", 2, 256, 512, 4, 4, 0, false}};
  m.vision_tokens = 16;
  m.projector_params = 0;
  m.llm = {"llm", 2, 256, 512, 4, 4, 1024, true};
  return m;
}

constexpr Bytes kTokenBytes = 2048;  // tiny_model() kv_bytes_per_token
constexpr Bytes kPage = 4 * kTokenBytes;

Request req(RequestId id, std::size_t input_tokens, std::size_t output_tokens,
            std::size_t prefix_id = 0, std::size_t prefix_tokens = 0) {
  Request r;
  r.id = id;
  r.arrival = 0;
  r.model = 0;
  r.input_tokens = input_tokens;
  r.output_tokens = output_tokens;
  r.crops = 1;
  r.prefix_id = prefix_id;
  r.prefix_tokens = prefix_tokens;
  return r;
}

EngineConfig fast_config() {
  return EngineConfig()
      .scheduler(
          std::make_shared<ConcurrencyPolicy>(AdmissionLimits{4, 8}))
      .manage_bandwidth(false);
}

/// Tight paged budget that forces two concurrent growers to preempt
/// each other's tails to DRAM and refill (the thrashing scenario).
EngineConfig thrash_config(bool refill_dma) {
  return fast_config()
      .kv_capacity_bytes(18 * kPage)
      .paged_kv(true)
      .kv_page_bytes(kPage)
      .kv_swap_refill_dma(refill_dma);
}

/// Two growers sharing one 64-token prefix run: both fit only by
/// preempting each other's private tails to DRAM and refilling.
std::vector<Request> thrash_trace() {
  return {req(0, 64, 8, 1, 64), req(1, 64, 8, 1, 64)};
}

TEST(SwapRefillDma, KnobIsInertWithoutPagedKv) {
  // With paged_kv off there is no swap machinery — the knob must leave
  // the legacy replay byte-identical.
  TraceConfig cfg;
  cfg.requests = 8;
  cfg.arrival_rate_per_s = 2000.0;
  cfg.input_tokens = 32;
  cfg.min_output_tokens = 2;
  cfg.max_output_tokens = 12;
  const auto trace = poisson_trace(cfg);

  const auto off =
      replay_trace(small_cfg(), {tiny_model()}, fast_config(), trace);
  const auto on = replay_trace(small_cfg(), {tiny_model()},
                               fast_config().kv_swap_refill_dma(true), trace);
  EXPECT_TRUE(results_identical(off.result, on.result));
  ASSERT_EQ(off.records.size(), on.records.size());
  for (std::size_t i = 0; i < off.records.size(); ++i) {
    EXPECT_TRUE(record_identical(off.records[i], on.records[i]));
  }
  EXPECT_EQ(on.result.kv_swap_dma_bytes, 0u);
}

TEST(SwapRefillDma, InjectedBytesMatchTheRefetchLedger) {
  // Every refilled byte the allocator charges shows up as injected DMA:
  // the two ledgers agree exactly within one run.
  const auto out = replay_trace(small_cfg(), {tiny_model()},
                                thrash_config(true), thrash_trace());
  EXPECT_EQ(out.result.completed, 2u);
  EXPECT_GT(out.result.kv_swap_refetch_bytes, 0u);
  EXPECT_EQ(out.result.kv_swap_dma_bytes, out.result.kv_swap_refetch_bytes);
}

TEST(SwapRefillDma, ThrashingNowCostsDecodeTime) {
  // Same trace, same swaps: pricing the refill traffic on the MC lane
  // must not speed anything up, and the off-run ledgers zero DMA.
  const auto off = replay_trace(small_cfg(), {tiny_model()},
                                thrash_config(false), thrash_trace());
  const auto on = replay_trace(small_cfg(), {tiny_model()},
                               thrash_config(true), thrash_trace());
  EXPECT_GT(off.result.kv_swap_refetch_bytes, 0u);
  EXPECT_EQ(off.result.kv_swap_dma_bytes, 0u);
  EXPECT_GT(on.result.kv_swap_dma_bytes, 0u);
  EXPECT_GE(on.result.makespan, off.result.makespan);
}

TEST(SwapRefillDma, FastTierTracksDetailedWithinDriftGate) {
  // The injected op prices consistently on both replay tiers: fast-tier
  // makespan drift stays under the same 1% gate the §7 bench enforces.
  const auto detailed = replay_trace(small_cfg(), {tiny_model()},
                                     thrash_config(true), thrash_trace());
  const auto fast = replay_trace(
      small_cfg(), {tiny_model()},
      thrash_config(true).replay_mode(core::ReplayMode::kFast),
      thrash_trace());
  EXPECT_EQ(fast.result.completed, detailed.result.completed);
  EXPECT_EQ(fast.result.kv_swap_dma_bytes, detailed.result.kv_swap_dma_bytes);
  const double drift =
      (fast.result.makespan_ms - detailed.result.makespan_ms) /
      detailed.result.makespan_ms;
  EXPECT_LT(drift < 0 ? -drift : drift, 0.01);
}

}  // namespace
}  // namespace edgemm::serve
