// Chunked-prefill seam: equivalence with monolithic prefill and the
// head-of-line-blocking bound it buys on the CC lane.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "serve/serving_engine.hpp"

namespace edgemm::serve {
namespace {

core::ChipConfig small_cfg() {
  core::ChipConfig cfg = core::default_chip_config();
  cfg.groups = 1;  // 2 CC + 2 MC clusters: fast simulation
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

Request req(RequestId id, Cycle arrival, std::size_t output_tokens,
            std::size_t input_tokens = 128) {
  Request r;
  r.id = id;
  r.arrival = arrival;
  r.input_tokens = input_tokens;
  r.output_tokens = output_tokens;
  r.crops = 1;
  return r;
}

EngineConfig fast_config(std::shared_ptr<const PrefillPlanner> planner) {
  return EngineConfig()
      .scheduler(std::make_shared<ConcurrencyPolicy>(AdmissionLimits{4, 8}))
      .prefill_planner(std::move(planner))
      .manage_bandwidth(false);
}

TEST(ChunkedPrefillEngine, ChunkCountAndTokenSumMatchThePlan) {
  const auto outcome =
      replay_trace(small_cfg(), {tiny_model()},
                   fast_config(std::make_shared<ChunkedPrefill>(48)),
                   {req(0, 0, 4, 128), req(1, 0, 4, 100)});
  // 128 = 48 + 48 + 32 -> 3 chunks; 100 = 48 + 48 + 4 -> 3 chunks.
  EXPECT_EQ(outcome.records[0].prefill_chunks, 3u);
  EXPECT_EQ(outcome.records[1].prefill_chunks, 3u);
  EXPECT_EQ(outcome.result.prefill_jobs, 6u);
}

TEST(ChunkedPrefillEngine, EquivalentDecodeOutputToMonolithic) {
  const std::vector<Request> trace = {req(0, 0, 6, 128), req(1, 2000, 5, 96)};
  const auto mono = replay_trace(
      small_cfg(), {tiny_model()},
      fast_config(std::make_shared<MonolithicPrefill>()), trace);
  const auto chunked = replay_trace(
      small_cfg(), {tiny_model()},
      fast_config(std::make_shared<ChunkedPrefill>(32)), trace);

  // Chunking changes WHEN prefill work runs, never WHAT is decoded: the
  // same requests complete with bit-identical token counts and decode
  // step totals.
  ASSERT_EQ(mono.records.size(), chunked.records.size());
  for (std::size_t i = 0; i < mono.records.size(); ++i) {
    EXPECT_TRUE(chunked.records[i].done);
    EXPECT_EQ(chunked.records[i].tokens_generated,
              mono.records[i].tokens_generated);
  }
  EXPECT_EQ(chunked.result.completed, mono.result.completed);
  // The monolithic run is exactly one CC job per request.
  EXPECT_EQ(mono.result.prefill_jobs, trace.size());
  EXPECT_GT(chunked.result.prefill_jobs, trace.size());
}

TEST(ChunkedPrefillEngine, BoundsCcLaneHeadOfLineBlocking) {
  // A short request lands right after a long-prompt request was
  // admitted: monolithically it waits out the whole long prefill,
  // chunked it slips in after the current chunk.
  const std::vector<Request> trace = {req(0, 0, 4, 512), req(1, 100, 4, 16)};
  const auto mono = replay_trace(
      small_cfg(), {tiny_model()},
      fast_config(std::make_shared<MonolithicPrefill>()), trace);
  const auto chunked = replay_trace(
      small_cfg(), {tiny_model()},
      fast_config(std::make_shared<ChunkedPrefill>(64)), trace);

  EXPECT_LT(chunked.result.max_cc_queue_delay_ms,
            mono.result.max_cc_queue_delay_ms);
  // The short request's prefill dispatches strictly earlier when the
  // long prefill is chunked.
  EXPECT_LT(chunked.records[1].prefill_start, mono.records[1].prefill_start);
}

TEST(ChunkedPrefillEngine, InvalidPlannerPlanIsRejected) {
  // A planner that drops tokens violates the plan contract.
  class DropsTokens final : public PrefillPlanner {
   public:
    std::vector<std::size_t> plan(const Request& r) const override {
      return {r.input_tokens / 2};
    }
  };
  ServingEngine engine(small_cfg(), {tiny_model()},
                       fast_config(std::make_shared<DropsTokens>()));
  EXPECT_THROW(engine.run({req(0, 0, 2, 64)}), std::logic_error);
}

}  // namespace
}  // namespace edgemm::serve
