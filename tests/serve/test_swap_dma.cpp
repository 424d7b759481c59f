// KV swap-refill DMA: under paged KV, every byte the allocator
// re-fetches from DRAM on a refill becomes a real MC-lane op in a decode
// step, so swap thrashing costs decode bandwidth in the timing plane
// instead of being ledgered for free.
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
            std::size_t prefix_id = 0, std::size_t prefix_tokens = 0,
            Cycle arrival = 0) {
  Request r;
  r.id = id;
  r.arrival = arrival;
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
EngineConfig thrash_config() {
  return fast_config()
      .kv_capacity_bytes(18 * kPage)
      .paged_kv(true)
      .kv_page_bytes(kPage);
}

/// Two growers sharing one 64-token prefix run: both fit only by
/// preempting each other's private tails to DRAM and refilling.
std::vector<Request> thrash_trace() {
  return {req(0, 64, 8, 1, 64), req(1, 64, 8, 1, 64)};
}

TEST(SwapRefillDma, LedgersStayZeroWithoutPagedKv) {
  // Whole-footprint reservations never swap, so neither ledger moves —
  // with no KV budget at all, or under a budget tight enough to defer.
  TraceConfig cfg;
  cfg.requests = 8;
  cfg.arrival_rate_per_s = 2000.0;
  cfg.input_tokens = 32;
  cfg.min_output_tokens = 2;
  cfg.max_output_tokens = 12;
  const auto trace = poisson_trace(cfg);

  for (const Bytes budget : {Bytes{0}, Bytes{2 * 44 * kTokenBytes}}) {
    const auto out = replay_trace(small_cfg(), {tiny_model()},
                                  fast_config().kv_capacity_bytes(budget),
                                  trace);
    EXPECT_EQ(out.result.completed, cfg.requests);
    EXPECT_EQ(out.result.kv_swap_refetch_bytes, 0u);
    EXPECT_EQ(out.result.kv_swap_dma_bytes, 0u);
  }
}

TEST(SwapRefillDma, InjectedBytesMatchTheRefetchLedger) {
  // Every refilled byte the allocator charges shows up as injected DMA:
  // the two ledgers agree exactly within one run.
  const auto out = replay_trace(small_cfg(), {tiny_model()},
                                thrash_config(), thrash_trace());
  EXPECT_EQ(out.result.completed, 2u);
  EXPECT_GT(out.result.kv_swap_refetch_bytes, 0u);
  EXPECT_EQ(out.result.kv_swap_dma_bytes, out.result.kv_swap_refetch_bytes);
}

TEST(SwapRefillDma, JoinTimePrefixRunRefillIsPriced) {
  // Request 0 is the only holder of prefix run 1 (16 shared pages + 8
  // private). Request 1's growth fills the budget, so request 0 is
  // preempted and, as the run's last resident holder, takes the run to
  // DRAM with it. Its refill cannot fit while request 1 decodes, but
  // request 2 — same prefix, no private prompt pages — can join, and its
  // join refills the swapped run inside KvPageAllocator::try_join, after
  // the step's own refills ran. Those 16 pages must ride a decode step
  // like every other refill.
  auto replay = [](EnginePhase phase, std::size_t budget_pages,
                   Cycle request0_arrival, Cycle request2_arrival) {
    const EngineConfig config = fast_config()
                                    .kv_capacity_bytes(budget_pages * kPage)
                                    .paged_kv(true)
                                    .kv_page_bytes(kPage)
                                    .phase(phase);
    const std::vector<Request> trace = {
        req(0, 96, 64, 1, 64, request0_arrival), req(1, 64, 64),
        req(2, 64, 4, 1, 64, request2_arrival)};
    return replay_trace(small_cfg(), {tiny_model()}, config, trace).result;
  };
  const ServingResult full =
      replay(EnginePhase::kFull, 44, /*request0_arrival=*/0, 1'000'000);
  EXPECT_EQ(full.completed, 3u);
  EXPECT_EQ(full.kv_swap_preemptions, 1u);  // request 0 only
  EXPECT_EQ(full.kv_shared_attaches, 1u);   // request 2 rode the run
  // Request 2 refilled the run at join (16 pages); after it retired the
  // run swapped out again, and request 0's refill brought back its 11
  // private pages and the run's 16.
  EXPECT_EQ(full.kv_swap_refetch_bytes, (16 + 27) * kPage);
  EXPECT_EQ(full.kv_swap_dma_bytes, full.kv_swap_refetch_bytes);

  // A decode-only tier (a disaggregated cluster's decode chip) joins at
  // admission, so request 2's run refill lands between decode steps; it
  // rides the next one.
  const ServingResult decode =
      replay(EnginePhase::kDecodeOnly, 42, 100'000, 600'000);
  EXPECT_EQ(decode.completed, 3u);
  EXPECT_EQ(decode.kv_swap_preemptions, 1u);
  EXPECT_EQ(decode.kv_shared_attaches, 1u);
  EXPECT_EQ(decode.kv_swap_refetch_bytes, (16 + 25) * kPage);
  EXPECT_EQ(decode.kv_swap_dma_bytes, decode.kv_swap_refetch_bytes);
}

TEST(SwapRefillDma, FastTierTracksDetailedWithinDriftGate) {
  // The injected op prices consistently on both replay tiers: fast-tier
  // makespan drift stays under the same 1% gate the §7 bench enforces.
  const auto detailed = replay_trace(small_cfg(), {tiny_model()},
                                     thrash_config(), thrash_trace());
  const auto fast = replay_trace(
      small_cfg(), {tiny_model()},
      thrash_config().replay_mode(core::ReplayMode::kFast),
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
