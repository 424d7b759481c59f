// Conversation cache: the turns of one (model, prefix_id) conversation
// share an image and a prompt prefix, so only the first local chunk 0
// runs the vision encoder + projector and prefills the prefix; later
// turns read its projected tokens and the prefix KV from DRAM and
// prefill only their suffix.
#include <cstddef>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/gpu_model.hpp"
#include "core/timing.hpp"
#include "model/workload.hpp"
#include "serve/serving_engine.hpp"
#include "serve/trace.hpp"

namespace edgemm::serve {
namespace {

using core::ClusterKind;

core::ChipConfig small_cfg() {
  core::ChipConfig cfg = core::default_chip_config();
  cfg.groups = 1;
  return cfg;
}

/// One CC cluster: the CC lane runs every job unsharded, so its DMA
/// bytes are exactly the jobs' estimated traffic.
core::ChipConfig one_cc_cfg() {
  core::ChipConfig cfg = small_cfg();
  cfg.cc_clusters_per_group = 1;
  return cfg;
}

model::MllmConfig tiny_model() {
  model::MllmConfig m;
  m.name = "tiny-mllm";
  m.encoders = {{"enc", 2, 256, 512, 4, 4, 0, false}};
  m.vision_tokens = 16;
  m.projector_params = 256 * 256;
  m.llm = {"llm", 2, 256, 512, 4, 4, 1024, true};
  return m;
}

Request turn(RequestId id, Cycle arrival, std::size_t prefix_id,
             std::size_t input_tokens = 64, std::size_t crops = 2) {
  Request r;
  r.id = id;
  r.arrival = arrival;
  r.input_tokens = input_tokens;
  r.output_tokens = 4;
  r.crops = crops;
  r.prefix_id = prefix_id;
  r.prefix_tokens = prefix_id != 0 ? 32 : 0;
  return r;
}

struct CcRun {
  ServingResult result;
  std::vector<RequestRecord> records;
  Bytes cc_dma_bytes = 0;
};

Bytes cc_dma_bytes(const ServingEngine& engine) {
  Bytes bytes = 0;
  for (const core::ClusterTimingModel* c :
       engine.chip().clusters(ClusterKind::kComputeCentric)) {
    bytes += c->stats().dma_bytes;
  }
  return bytes;
}

CcRun run_on_one_cc(std::vector<Request> trace) {
  ServingEngine engine(one_cc_cfg(), {tiny_model()}, EngineConfig());
  CcRun out;
  out.result = engine.run(std::move(trace));
  out.records = engine.records();
  out.cc_dma_bytes = cc_dma_bytes(engine);
  return out;
}

/// The one-CC chip's traffic estimate of `ops` after the engine's
/// aggregation.
Bytes one_cc_traffic(const std::vector<core::GemmWork>& ops) {
  ServingEngine probe(one_cc_cfg(), {tiny_model()}, EngineConfig());
  return core::estimated_traffic_bytes(
      *probe.chip().clusters(ClusterKind::kComputeCentric).front(),
      model::aggregate_ops(ops));
}

/// A whole turn's one CC job on the one-CC chip: the encoder pass and
/// the prefill of all `input_tokens`. The engine aggregates a chunk's
/// ops; encoder ops never merge with the LLM prefill's (their phase
/// differs), so the parts price separately.
Bytes turn_traffic(std::size_t input_tokens) {
  const Bytes encoder = one_cc_traffic(model::build_encoder_ops(tiny_model(), 2));
  EXPECT_GT(encoder, 0u);
  return encoder + one_cc_traffic(model::build_prefill_chunk(
                       tiny_model(), 0, input_tokens, input_tokens));
}

/// What a later turn of `input_tokens` saves on the one-CC chip when it
/// skips the encoder and prefills only the tokens after its `skip`-token
/// prefix on the CC lane.
Bytes reuse_saving(std::size_t input_tokens, std::size_t skip) {
  const Bytes suffix = one_cc_traffic(model::build_prefill_chunk(
      tiny_model(), skip, input_tokens - skip, input_tokens));
  EXPECT_LT(suffix, turn_traffic(input_tokens));
  return turn_traffic(input_tokens) - suffix;
}

TEST(EncoderCache, SecondTurnSkipsExactlyTheEncoderTraffic) {
  // Turns far apart: the second arrives after the first has retired.
  constexpr Cycle kGap = 200'000'000;
  const CcRun cached = run_on_one_cc({turn(0, 0, 1), turn(1, kGap, 1)});
  const CcRun plain = run_on_one_cc({turn(0, 0, 0), turn(1, kGap, 0)});
  EXPECT_EQ(cached.result.encoder_cache_hits, 1u);
  EXPECT_EQ(cached.result.prefix_cache_hits, 1u);
  EXPECT_EQ(plain.result.encoder_cache_hits, 0u);
  EXPECT_EQ(plain.result.prefix_cache_hits, 0u);
  // The second turn skips the encoder pass and the 32-token prefix: its
  // one chunk prefills the 32-token suffix, whose attention still reads
  // the whole 64-token context. The suffix is too long for the MC lane's
  // CIM compute to beat the chunk's DRAM time, so the CC lane runs it.
  EXPECT_EQ(cached.result.mc_suffix_prefills, 0u);
  EXPECT_EQ(plain.cc_dma_bytes - cached.cc_dma_bytes, reuse_saving(64, 32));

  // The first turn publishes at full price and is otherwise untouched.
  EXPECT_EQ(cached.records[0].prefill_end, plain.records[0].prefill_end);
  EXPECT_EQ(cached.records[0].finish, plain.records[0].finish);
  EXPECT_EQ(run_on_one_cc({turn(0, 0, 1)}).cc_dma_bytes,
            run_on_one_cc({turn(0, 0, 0)}).cc_dma_bytes);
  // The second turn's prefill is shorter by the encoder's run.
  EXPECT_LT(cached.records[1].prefill_end - cached.records[1].prefill_start,
            plain.records[1].prefill_end - plain.records[1].prefill_start);
}

TEST(EncoderCache, TiersAgreeOnHitsAndWeightFetch) {
  TraceConfig cfg;
  cfg.requests = 12;
  cfg.arrival_rate_per_s = 4000.0;
  cfg.input_tokens = 96;
  cfg.crops = 2;
  cfg.min_output_tokens = 1;
  cfg.max_output_tokens = 4;
  cfg.prefix_groups = 3;
  cfg.prefix_tokens = 48;
  const std::vector<Request> trace = poisson_trace(cfg);
  std::set<std::size_t> conversations;
  for (const Request& r : trace) conversations.insert(r.prefix_id);
  std::vector<Request> unshared = trace;
  for (Request& r : unshared) r.prefix_id = 0;

  auto replay = [](core::ReplayMode mode, const std::vector<Request>& t) {
    return replay_trace(small_cfg(), {tiny_model()},
                        EngineConfig()
                            .prefill_planner(std::make_shared<ChunkedPrefill>(32))
                            .replay_mode(mode),
                        t)
        .result;
  };
  const ServingResult detailed = replay(core::ReplayMode::kDetailed, trace);
  const ServingResult fast = replay(core::ReplayMode::kFast, trace);
  EXPECT_EQ(detailed.encoder_cache_hits, trace.size() - conversations.size());
  EXPECT_EQ(fast.encoder_cache_hits, detailed.encoder_cache_hits);
  EXPECT_EQ(fast.cc_weight_fetch_bytes, detailed.cc_weight_fetch_bytes);

  // Each hit skips exactly one encoder pass's weights (attention ops
  // stream activations, not weights).
  Bytes encoder_weights = 0;
  for (const core::GemmWork& op : model::build_encoder_ops(tiny_model(), 2)) {
    if (op.weight_elem_bytes_override != 0) continue;
    encoder_weights += static_cast<Bytes>(op.k) * op.n * small_cfg().cc_elem_bytes;
  }
  const ServingResult baseline =
      replay(core::ReplayMode::kFast, unshared);
  EXPECT_EQ(baseline.encoder_cache_hits, 0u);
  EXPECT_EQ(baseline.cc_weight_fetch_bytes - fast.cc_weight_fetch_bytes,
            fast.encoder_cache_hits * encoder_weights);
}

TEST(EncoderCache, TiersAgreeOnPrefixHitsUnderMonolithicPrefill) {
  TraceConfig cfg;
  cfg.requests = 12;
  cfg.arrival_rate_per_s = 4000.0;
  cfg.input_tokens = 96;
  cfg.crops = 2;
  cfg.min_output_tokens = 1;
  cfg.max_output_tokens = 4;
  cfg.prefix_groups = 3;
  cfg.prefix_tokens = 48;
  const std::vector<Request> trace = poisson_trace(cfg);
  std::set<std::size_t> conversations;
  for (const Request& r : trace) conversations.insert(r.prefix_id);
  auto replay = [&trace](core::ReplayMode mode) {
    return replay_trace(small_cfg(), {tiny_model()},
                        EngineConfig().replay_mode(mode), trace)
        .result;
  };
  const ServingResult detailed = replay(core::ReplayMode::kDetailed);
  const ServingResult fast = replay(core::ReplayMode::kFast);
  // Every chunk 0 is the whole 96-token prompt: the first turn of each
  // conversation publishes, every later one prefills its 48-token suffix.
  EXPECT_EQ(detailed.prefix_cache_hits, trace.size() - conversations.size());
  EXPECT_EQ(fast.prefix_cache_hits, detailed.prefix_cache_hits);
  EXPECT_EQ(fast.encoder_cache_hits, detailed.encoder_cache_hits);
}

TEST(EncoderCache, ChunkZeroShorterThanThePrefixNeverPublishes) {
  // 16-token chunks: chunk 0 ends inside the 32-token prefix, so a later
  // turn's chunk 0 could run before the rest of the prefix KV exists.
  constexpr Cycle kGap = 200'000'000;
  const ReplayOutcome out = replay_trace(
      small_cfg(), {tiny_model()},
      EngineConfig().prefill_planner(std::make_shared<ChunkedPrefill>(16)),
      {turn(0, 0, 1), turn(1, kGap, 1), turn(2, 2 * kGap, 1)});
  EXPECT_EQ(out.result.completed, 3u);
  EXPECT_EQ(out.result.prefix_cache_hits, 0u);
  EXPECT_EQ(out.result.encoder_cache_hits, 2u);
  for (const RequestRecord& rec : out.records) {
    EXPECT_EQ(rec.prefill_chunks, 4u);  // the whole 64-token prompt
  }
}

TEST(EncoderCache, WholePromptPrefixStillPrefillsOneToken) {
  constexpr Cycle kGap = 200'000'000;
  auto whole = [](Request r) {
    r.prefix_tokens = r.input_tokens;
    return r;
  };
  const CcRun cached =
      run_on_one_cc({whole(turn(0, 0, 1)), whole(turn(1, kGap, 1))});
  const CcRun plain = run_on_one_cc({turn(0, 0, 0), turn(1, kGap, 0)});
  EXPECT_EQ(cached.result.prefix_cache_hits, 1u);
  // The last prompt token is prefilled: it yields the first logits. It
  // rides the MC decode step as one row, so the second turn's whole CC
  // job is saved.
  EXPECT_EQ(cached.result.mc_suffix_prefills, 1u);
  EXPECT_EQ(plain.cc_dma_bytes - cached.cc_dma_bytes, turn_traffic(64));
}

/// Floating-point work the MC clusters executed over a replay.
Flops mc_flops(const ServingEngine& engine) {
  Flops flops = 0;
  for (const core::ClusterTimingModel* c :
       engine.chip().clusters(ClusterKind::kMemoryCentric)) {
    flops += c->stats().flops;
  }
  return flops;
}

/// The MC work of a replay's decode steps, from its records alone: every
/// generated token is one row of the weight-bearing ops and one LM-head
/// row and streams its request's KV at its context, except that the
/// first token of `suffix_request` is carried by `suffix_rows` rows that
/// each attend its whole prompt.
Flops decode_flops(const std::vector<RequestRecord>& records,
                   std::size_t suffix_request, std::size_t suffix_rows) {
  const model::TransformerShape& llm = tiny_model().llm;
  const Flops weights = model::llm_layer_weight_elems(tiny_model()) * llm.layers;
  const Flops kv_per_context = 2 * 2 * llm.layers * llm.kv_dim();
  Flops flops = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Request& r = records[i].request;
    for (std::size_t t = 0; t < records[i].tokens_generated; ++t) {
      const Flops rows = i == suffix_request && t == 0 ? suffix_rows : 1;
      flops += 2 * rows * weights + 2 * llm.d_model * llm.vocab +
               rows * kv_per_context * (r.input_tokens + t);
    }
  }
  return flops;
}

TEST(EncoderCache, ShortSuffixRidesTheDecodeStepInsteadOfTheCcLane) {
  // Turn 0 decodes long; turn 1 arrives after its prefill retired, with
  // an 8-token suffix behind the 32-token prefix.
  constexpr Cycle kGap = 5'000'000;
  auto shaped = [](Request r, std::size_t input, std::size_t output) {
    r.input_tokens = input;
    r.output_tokens = output;
    return r;
  };
  const std::vector<Request> trace = {shaped(turn(0, 0, 1), 64, 400),
                                      shaped(turn(1, kGap, 1), 40, 4)};
  ServingEngine engine(one_cc_cfg(), {tiny_model()}, EngineConfig());
  const ServingResult result = engine.run(trace);
  const std::vector<RequestRecord>& rec = engine.records();
  ASSERT_EQ(result.completed, 2u);
  ASSERT_LT(rec[0].prefill_end, trace[1].arrival);
  ASSERT_GT(rec[0].finish, trace[1].arrival);  // turn 1 joins a live batch
  EXPECT_EQ(result.mc_suffix_prefills, 1u);
  EXPECT_EQ(result.encoder_cache_hits, 1u);
  EXPECT_EQ(result.prefix_cache_hits, 1u);

  // Turn 1 never reaches the CC lane: the CC clusters moved exactly what
  // turn 0 moves alone.
  EXPECT_EQ(result.prefill_jobs, 1u);
  EXPECT_EQ(rec[1].prefill_chunks, 0u);
  EXPECT_EQ(cc_dma_bytes(engine), run_on_one_cc({trace[0]}).cc_dma_bytes);
  // One step carried its suffix: prefill brackets it, and it yields the
  // first token.
  EXPECT_GT(rec[1].prefill_start, rec[1].admitted);
  EXPECT_GT(rec[1].prefill_end, rec[1].prefill_start);
  EXPECT_EQ(rec[1].first_token, rec[1].prefill_end);
  // That step's weight-bearing ops ran turn 0's row plus the 8 suffix
  // rows, and its KV streams ran 8 rows over turn 1's 40-token prompt:
  // the MC work is every generated token's plus 7 extra rows.
  EXPECT_EQ(mc_flops(engine), decode_flops(rec, 1, 8));
}

TEST(EncoderCache, SuffixJoinsOnlyOnceItsPrefixChunkRetired) {
  // Turn 1 is admitted while turn 0's chunk 0 is still computing the
  // prefix KV it reads: it waits outside the batch and joins at the
  // cycle that chunk retires.
  auto short_suffix = [](Request r) {
    r.input_tokens = 40;
    return r;
  };
  ServingEngine engine(one_cc_cfg(), {tiny_model()}, EngineConfig());
  const ServingResult result =
      engine.run({short_suffix(turn(0, 0, 1)), short_suffix(turn(1, 10, 1))});
  const std::vector<RequestRecord>& rec = engine.records();
  ASSERT_EQ(result.completed, 2u);
  EXPECT_EQ(result.mc_suffix_prefills, 1u);
  EXPECT_EQ(rec[1].admitted, 10u);
  EXPECT_EQ(rec[1].prefill_start, rec[0].prefill_end);
  EXPECT_LT(rec[1].first_token, rec[0].first_token);
  EXPECT_EQ(mc_flops(engine), decode_flops(rec, 1, 8));
}

TEST(EncoderCache, TiersAgreeOnMcSuffixes) {
  TraceConfig cfg;
  cfg.requests = 12;
  cfg.arrival_rate_per_s = 4000.0;
  cfg.input_tokens = 96;
  cfg.crops = 2;
  cfg.min_output_tokens = 1;
  cfg.max_output_tokens = 4;
  cfg.prefix_groups = 3;
  cfg.prefix_tokens = 88;
  const std::vector<Request> trace = poisson_trace(cfg);
  std::set<std::size_t> conversations;
  for (const Request& r : trace) conversations.insert(r.prefix_id);
  auto replay = [&trace](core::ReplayMode mode) {
    return replay_trace(small_cfg(), {tiny_model()},
                        EngineConfig().replay_mode(mode), trace)
        .result;
  };
  const ServingResult detailed = replay(core::ReplayMode::kDetailed);
  const ServingResult fast = replay(core::ReplayMode::kFast);
  // Every later turn's 8-token suffix rides a decode step; only each
  // conversation's first turn runs on the CC lane.
  const std::size_t later_turns = trace.size() - conversations.size();
  EXPECT_EQ(detailed.completed, trace.size());
  EXPECT_EQ(detailed.mc_suffix_prefills, later_turns);
  EXPECT_EQ(detailed.prefill_jobs, conversations.size());
  EXPECT_EQ(fast.mc_suffix_prefills, detailed.mc_suffix_prefills);
  EXPECT_EQ(fast.prefix_cache_hits, detailed.prefix_cache_hits);
  EXPECT_EQ(fast.encoder_cache_hits, detailed.encoder_cache_hits);
  EXPECT_EQ(fast.cc_weight_fetch_bytes, detailed.cc_weight_fetch_bytes);
}

/// Serves request 0 at half its keep fraction, every other request at
/// its static one.
class DegradeFirstRequest final : public QualityPolicy {
 public:
  const char* name() const override { return "degrade-first"; }
  double keep_fraction(const Request& r,
                       const QualityContext& ctx) const override {
    return r.id == 0 ? 0.5 * ctx.base_keep : ctx.base_keep;
  }
};

TEST(EncoderCache, DegradedChunkZeroDoesNotPublishThePrefix) {
  // A pruned FFN computes different prefix KV than a full-keep turn
  // would read: the degraded first turn still publishes its image, but
  // not its prefix.
  constexpr Cycle kGap = 200'000'000;
  const ReplayOutcome out = replay_trace(
      small_cfg(), {tiny_model()},
      EngineConfig().quality_policy(std::make_shared<DegradeFirstRequest>()),
      {turn(0, 0, 1), turn(1, kGap, 1), turn(2, 2 * kGap, 1)});
  EXPECT_EQ(out.result.completed, 3u);
  EXPECT_EQ(out.result.quality_downgrades, 1u);
  EXPECT_EQ(out.result.encoder_cache_hits, 2u);
  // Turn 1 runs at full keep and publishes; only turn 2 reuses it.
  EXPECT_EQ(out.result.prefix_cache_hits, 1u);
}

TEST(EncoderCache, OffloadedChunkZeroNeitherHitsNorPublishes) {
  // PrefillToFat(512) ships the 640-token turns' whole prefill to the
  // GPU and keeps the 64-token turns local. Conversation 1 opens with a
  // fat turn, so its first local turn must still encode (a miss that
  // publishes) and only its second local turn hits. Conversation 2
  // opens locally, so its fat turn is a planned hit the offload
  // verdict turns back into a full-price encode on the GPU.
  constexpr Cycle kGap = 50'000'000;
  const std::vector<Request> trace = {
      turn(0, 0 * kGap, 1, 640), turn(1, 1 * kGap, 1), turn(2, 2 * kGap, 1),
      turn(3, 3 * kGap, 2),      turn(4, 4 * kGap, 2, 640)};
  std::vector<Request> unshared = trace;
  for (Request& r : unshared) r.prefix_id = 0;
  auto replay = [](const std::vector<Request>& t) {
    return replay_trace(small_cfg(), {tiny_model()},
                        EngineConfig()
                            .prefill_planner(std::make_shared<ChunkedPrefill>(128))
                            .fat_backend(baselines::GpuSpec{})
                            .offload_policy(std::make_shared<PrefillToFat>(512)),
                        t)
        .result;
  };
  const ServingResult cached = replay(trace);
  const ServingResult plain = replay(unshared);
  EXPECT_EQ(cached.offloaded_requests, 2u);
  EXPECT_EQ(cached.encoder_cache_hits, 1u);  // turn 2 only
  EXPECT_EQ(cached.prefix_cache_hits, 1u);   // turn 2 only
  // Both fat turns streamed the encoder and the whole prompt through the
  // GPU, in the same chunks as without the conversation.
  EXPECT_EQ(cached.fat_bytes_moved, plain.fat_bytes_moved);
  EXPECT_EQ(cached.offloaded_chunks, plain.offloaded_chunks);
  EXPECT_LT(cached.cc_weight_fetch_bytes, plain.cc_weight_fetch_bytes);
}

TEST(EncoderCache, MismatchedCropsInOneConversationThrow) {
  auto run = [](std::vector<Request> trace) {
    return replay_trace(small_cfg(), {tiny_model(), tiny_model()}, EngineConfig(),
                        std::move(trace));
  };
  EXPECT_THROW(run({turn(0, 0, 1, 64, 1), turn(1, 10, 1, 64, 2)}),
               std::invalid_argument);
  // One conversation has one shared prefix length.
  Request shorter_prefix = turn(1, 10, 1);
  shorter_prefix.prefix_tokens = 24;
  EXPECT_THROW(run({turn(0, 0, 1), shorter_prefix}), std::invalid_argument);
  // A prefix longer than the prompt is malformed in every KV mode.
  Request long_prefix = turn(0, 0, 1);
  long_prefix.prefix_tokens = 65;
  EXPECT_THROW(run({long_prefix}), std::invalid_argument);
  // Different conversations, different models or no conversation at all
  // may carry different images.
  std::vector<Request> ok = {turn(0, 0, 1, 64, 1), turn(1, 10, 2, 64, 2),
                             turn(2, 20, 1, 64, 1), turn(3, 30, 0, 64, 3),
                             turn(4, 40, 0, 64, 1)};
  Request other_model = turn(5, 50, 1, 64, 2);
  other_model.model = 1;
  ok.push_back(other_model);
  const ReplayOutcome out = run(ok);
  EXPECT_EQ(out.result.completed, ok.size());
  EXPECT_EQ(out.result.encoder_cache_hits, 1u);  // request 2 rides request 0
}

TEST(EncoderCache, NoSharedPrefixNeverHits) {
  std::vector<Request> trace = {turn(0, 0, 1), turn(1, 10, 1), turn(2, 20, 1)};
  for (Request& r : trace) r.prefix_tokens = 0;
  const ReplayOutcome out =
      replay_trace(small_cfg(), {tiny_model()}, EngineConfig(), trace);
  EXPECT_EQ(out.result.completed, trace.size());
  EXPECT_EQ(out.result.encoder_cache_hits, 0u);
  EXPECT_EQ(out.result.prefix_cache_hits, 0u);
}

/// Admits everything. The first request joins an empty batch; after
/// that, joins wait until the batch and the joiners number `kGate`, then
/// one request joins per step boundary.
class OneJoinPerStep final : public SchedulerPolicy {
 public:
  static constexpr std::size_t kGate = 5;
  const char* name() const override { return "one-join-per-step"; }
  AdmissionVerdict admit(const Request&, const AdmissionContext&) const override {
    return AdmissionVerdict::kAdmit;
  }
  std::size_t decode_join_count(std::size_t active,
                                std::size_t ready) const override {
    if (active == 0) return ready;
    return active + ready >= kGate ? 1 : 0;
  }
};

TEST(EncoderCache, JoinsRidingAHeldPrefixRunGoFirst) {
  // Request 0 opens conversation 1 and decodes long, holding its prefix
  // run. Requests 1-2 open conversation 2 (a fresh run), requests 3-4
  // ride conversation 1's. All four wait until one joins per step:
  // shortest-remaining-first alone would join 2 (10 tokens), 4, 3, 1.
  // Riders go first, each class in the policy's order: 4, 3, then 2,
  // and 1 last.
  auto decode = [](Request r, std::size_t output_tokens) {
    r.output_tokens = output_tokens;
    return r;
  };
  const std::vector<Request> trace = {
      decode(turn(0, 0, 1), 64),  decode(turn(1, 1, 2), 40),
      decode(turn(2, 2, 2), 10),  decode(turn(3, 3, 1), 30),
      decode(turn(4, 4, 1), 20)};
  const Bytes kPage = 4 * model::kv_bytes_per_token(tiny_model());
  const ReplayOutcome out = replay_trace(
      small_cfg(), {tiny_model()},
      EngineConfig()
          .scheduler(std::make_shared<OneJoinPerStep>())
          .batch_policy(std::make_shared<ShortestRemainingFirst>())
          .kv_capacity_bytes(256 * kPage)
          .paged_kv(true)
          .kv_page_bytes(kPage),
      trace);
  ASSERT_EQ(out.result.completed, trace.size());
  const std::vector<RequestRecord>& rec = out.records;
  EXPECT_LT(rec[0].first_token, rec[4].first_token);
  EXPECT_LT(rec[4].first_token, rec[3].first_token);
  EXPECT_LT(rec[3].first_token, rec[2].first_token);
  EXPECT_LT(rec[2].first_token, rec[1].first_token);
  // Requests 4 and 3 ride request 0's run, request 1 rides request 2's.
  EXPECT_EQ(out.result.kv_shared_attaches, 3u);
}

}  // namespace
}  // namespace edgemm::serve
