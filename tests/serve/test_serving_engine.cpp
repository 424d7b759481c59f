#include "serve/serving_engine.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "model/workload.hpp"
#include "serve/trace.hpp"

namespace edgemm::serve {
namespace {

// The engine owns its chip by value, and the chip is pinned in place.
static_assert(!std::is_copy_constructible_v<ServingEngine>);
static_assert(!std::is_move_constructible_v<ServingEngine>);
static_assert(!std::is_move_assignable_v<ServingEngine>);

core::ChipConfig small_cfg() {
  core::ChipConfig cfg = core::default_chip_config();
  cfg.groups = 1;  // 2 CC + 2 MC clusters: fast simulation
  return cfg;
}

/// Small synthetic MLLM, cheap enough for many engine runs per test.
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
            std::size_t input_tokens = 32, std::size_t model = 0) {
  Request r;
  r.id = id;
  r.arrival = arrival;
  r.model = model;
  r.input_tokens = input_tokens;
  r.output_tokens = output_tokens;
  r.crops = 1;
  return r;
}

EngineConfig fast_config(std::size_t max_batch = 4,
                         std::size_t max_inflight = 8) {
  return EngineConfig()
      .scheduler(std::make_shared<ConcurrencyPolicy>(
          AdmissionLimits{max_batch, max_inflight}))
      .manage_bandwidth(false);
}

TEST(ServingEngine, CompletesTraceWithOrderedLatencyPercentiles) {
  ServingEngine engine(small_cfg(), {tiny_model()}, fast_config());
  TraceConfig trace_cfg;
  trace_cfg.requests = 12;
  trace_cfg.arrival_rate_per_s = 2000.0;  // heavy contention on the tiny chip
  trace_cfg.input_tokens = 32;
  trace_cfg.min_output_tokens = 2;
  trace_cfg.max_output_tokens = 12;
  const auto result = engine.run(poisson_trace(trace_cfg));

  EXPECT_EQ(result.completed, 12u);
  EXPECT_EQ(result.rejected, 0u);
  EXPECT_GT(result.makespan, 0u);
  EXPECT_GT(result.tokens_per_second, 0.0);
  EXPECT_GT(result.dram_utilization, 0.0);
  EXPECT_LE(result.dram_utilization, 1.0);
  EXPECT_GT(result.p50_latency_ms, 0.0);
  // Tail ordering invariant: p99 >= p95 >= p50.
  EXPECT_GE(result.p95_latency_ms, result.p50_latency_ms);
  EXPECT_GE(result.p99_latency_ms, result.p95_latency_ms);
  EXPECT_GT(result.mean_decode_batch, 1.0);  // contention actually batched
  EXPECT_DOUBLE_EQ(result.slo_attainment, 1.0);  // no deadlines in the trace
  EXPECT_EQ(result.prefill_jobs, 12u);  // monolithic: one CC job per request

  for (const RequestRecord& rec : engine.records()) {
    EXPECT_TRUE(rec.done);
    EXPECT_FALSE(rec.rejected);
    EXPECT_EQ(rec.tokens_generated, rec.request.output_tokens);
    EXPECT_EQ(rec.prefill_chunks, 1u);
    EXPECT_GE(rec.prefill_start, rec.request.arrival);
    EXPECT_GT(rec.prefill_end, rec.prefill_start);
    EXPECT_GE(rec.first_token, rec.prefill_end);
    EXPECT_GE(rec.finish, rec.first_token);
  }
}

TEST(ServingEngine, RequestArrivingMidDecodePrefillsBeforeBatchDrains) {
  // Probe run: when does a lone long request decode?
  ServingEngine probe(small_cfg(), {tiny_model()}, fast_config());
  probe.run({req(0, 0, 48)});
  const RequestRecord lone = probe.records()[0];
  ASSERT_GT(lone.finish, lone.prefill_end);

  // Real run: a short request lands squarely inside the decode window.
  const Cycle mid_decode = lone.first_token + (lone.finish - lone.first_token) / 2;
  ServingEngine engine(small_cfg(), {tiny_model()}, fast_config());
  engine.run({req(0, 0, 48), req(1, mid_decode, 4)});
  const RequestRecord& first = engine.records()[0];
  const RequestRecord& joiner = engine.records()[1];

  // Continuous batching: the joiner's prefill runs on the CC lane while
  // the first request's decode batch is still draining on the MC lane,
  // and its decode starts before that batch finishes.
  EXPECT_GE(joiner.prefill_start, joiner.request.arrival);
  EXPECT_LT(joiner.prefill_start, first.finish);
  EXPECT_LT(joiner.first_token, first.finish);
}

TEST(ServingEngine, AdmissionDefersWhenBatchAndInflightAreFull) {
  // max_inflight == max_decode_batch == 2: a third simultaneous request
  // may only be admitted once one of the first two retires.
  ServingEngine engine(small_cfg(), {tiny_model()}, fast_config(2, 2));
  engine.run({req(0, 0, 24), req(1, 0, 24), req(2, 0, 4)});
  const auto& records = engine.records();
  const Cycle earliest_finish =
      std::min(records[0].finish, records[1].finish);
  EXPECT_GE(records[2].admitted, earliest_finish);
  EXPECT_GE(records[2].prefill_start, earliest_finish);
}

TEST(ServingEngine, ContinuousBatchingBeatsSequentialOnMakespan) {
  std::vector<Request> trace;
  for (std::size_t i = 0; i < 8; ++i) {
    trace.push_back(req(i, i * 1000, 12));
  }
  ServingEngine batched(small_cfg(), {tiny_model()}, fast_config(4, 8));
  const auto continuous = batched.run(trace);
  ServingEngine serial(small_cfg(), {tiny_model()}, fast_config(1, 1));
  const auto sequential = serial.run(trace);

  EXPECT_LT(continuous.makespan, sequential.makespan);
  EXPECT_GT(continuous.tokens_per_second, sequential.tokens_per_second);
  EXPECT_DOUBLE_EQ(sequential.mean_decode_batch, 1.0);
}

TEST(ServingEngine, ReplayIsDeterministic) {
  TraceConfig trace_cfg;
  trace_cfg.requests = 6;
  trace_cfg.arrival_rate_per_s = 1000.0;
  trace_cfg.input_tokens = 32;
  trace_cfg.min_output_tokens = 2;
  trace_cfg.max_output_tokens = 8;

  ServingEngine a(small_cfg(), {tiny_model()}, fast_config());
  const auto ra = a.run(poisson_trace(trace_cfg));
  ServingEngine b(small_cfg(), {tiny_model()}, fast_config());
  const auto rb = b.run(poisson_trace(trace_cfg));

  EXPECT_EQ(ra.makespan, rb.makespan);
  EXPECT_EQ(ra.decode_steps, rb.decode_steps);
  for (std::size_t i = 0; i < a.records().size(); ++i) {
    EXPECT_EQ(a.records()[i].finish, b.records()[i].finish);
  }
}

TEST(ServingEngine, BandwidthManagementRebalancesUnderLoad) {
  TraceConfig trace_cfg;
  trace_cfg.requests = 8;
  trace_cfg.arrival_rate_per_s = 2000.0;
  trace_cfg.input_tokens = 32;
  trace_cfg.min_output_tokens = 8;
  trace_cfg.max_output_tokens = 24;

  // The engine rebalances once per DMA throttle interval.
  core::ChipConfig cfg = small_cfg();
  cfg.dma.throttle_interval = 50'000;
  EngineConfig config = fast_config();
  config.manage_bandwidth(true);
  ServingEngine engine(cfg, {tiny_model()}, std::move(config));
  const auto result = engine.run(poisson_trace(trace_cfg));
  EXPECT_EQ(result.completed, 8u);
  EXPECT_GT(result.rebalances, 0u);
}

TEST(ServingEngine, ManagedDecodeTailRunsUnthrottled) {
  // Once the prompt's prefill retires, the CC backlog is empty: each
  // rebalance caps only the CC clusters, at the 1:max_mc_ratio slice,
  // and leaves the MC clusters running the decode tail unthrottled.
  core::ChipConfig cfg = small_cfg();
  cfg.dma.throttle_interval = 10'000;
  EngineConfig config = fast_config();
  config.manage_bandwidth(true);
  ServingEngine engine(cfg, {tiny_model()}, std::move(config));
  const core::BandwidthManager reference(cfg, core::BandwidthPolicy{});
  const Bytes cc_cap =
      reference.budgets_for_ratio(core::BandwidthPolicy{}.max_mc_ratio, 2, 2)
          .cc_budget_per_cluster;
  std::size_t checked = 0;
  engine.set_completion_callback([&](const RequestRecord& rec) {
    EXPECT_GT(rec.finish - rec.first_token, 2 * cfg.dma.throttle_interval);
    const core::ChipTimingModel& chip = engine.chip();
    for (auto* c : chip.clusters(core::ClusterKind::kComputeCentric)) {
      EXPECT_EQ(c->budget(), cc_cap);
    }
    for (auto* c : chip.clusters(core::ClusterKind::kMemoryCentric)) {
      EXPECT_EQ(c->budget(), mem::DmaEngine::kUnlimited);
      EXPECT_EQ(c->dma().budget(), mem::DmaEngine::kUnlimited);
    }
    ++checked;
  });
  const auto result = engine.run({req(0, 0, 64)});
  EXPECT_EQ(checked, 1u);
  EXPECT_GT(result.rebalances, 2u);
}

TEST(ServingEngine, FiresCompletionCallbacksInFinishOrder) {
  ServingEngine engine(small_cfg(), {tiny_model()}, fast_config());
  std::vector<RequestId> completions;
  Cycle last_finish = 0;
  engine.set_completion_callback([&](const RequestRecord& rec) {
    completions.push_back(rec.request.id);
    EXPECT_GE(rec.finish, last_finish);
    last_finish = rec.finish;
  });
  engine.run({req(0, 0, 16), req(1, 100, 2), req(2, 200, 6)});
  EXPECT_EQ(completions.size(), 3u);
}

TEST(ServingEngine, ServesMultipleModelsInOneBatchCycle) {
  model::MllmConfig second = tiny_model();
  second.name = "tiny-mllm-2";
  second.llm.d_ffn = 768;
  ServingEngine engine(small_cfg(), {tiny_model(), second}, fast_config());
  engine.run({req(0, 0, 8, 32, 0), req(1, 0, 8, 32, 1), req(2, 0, 6, 32, 0)});
  for (const RequestRecord& rec : engine.records()) {
    EXPECT_TRUE(rec.done);
  }
}

TEST(ServingEngine, ValidatesRequestsAndLifecycle) {
  EXPECT_THROW(ServingEngine(small_cfg(), {}, fast_config()),
               std::invalid_argument);

  ServingEngine engine(small_cfg(), {tiny_model()}, fast_config());
  EXPECT_THROW(engine.run({}), std::invalid_argument);

  ServingEngine dup(small_cfg(), {tiny_model()}, fast_config());
  EXPECT_THROW(dup.run({req(3, 0, 4), req(3, 10, 4)}), std::invalid_argument);

  ServingEngine zero(small_cfg(), {tiny_model()}, fast_config());
  EXPECT_THROW(zero.run({req(0, 0, 0)}), std::invalid_argument);

  ServingEngine oob(small_cfg(), {tiny_model()}, fast_config());
  EXPECT_THROW(oob.run({req(0, 0, 4, 32, /*model=*/5)}), std::invalid_argument);

  ServingEngine once(small_cfg(), {tiny_model()}, fast_config());
  once.run({req(0, 0, 2)});
  EXPECT_THROW(once.run({req(1, 0, 2)}), std::logic_error);
}

TEST(ServingEngine, ReplayTraceFactoryReturnsResultAndRecords) {
  std::size_t callbacks = 0;
  const auto outcome = replay_trace(
      small_cfg(), {tiny_model()}, fast_config(),
      {req(0, 0, 4), req(1, 100, 2)},
      [&callbacks](const RequestRecord&) { ++callbacks; });
  EXPECT_EQ(outcome.result.completed, 2u);
  EXPECT_EQ(outcome.records.size(), 2u);
  EXPECT_TRUE(outcome.records[0].done);
  EXPECT_EQ(callbacks, 2u);

  // The factory replay matches a manual one-shot engine exactly.
  ServingEngine manual(small_cfg(), {tiny_model()}, fast_config());
  const auto reference = manual.run({req(0, 0, 4), req(1, 100, 2)});
  EXPECT_EQ(outcome.result.makespan, reference.makespan);
}

TEST(ServingEngine, SloPolicyRejectsHopelessRequestsUnderBacklog) {
  // Request 1's deadline is one cycle after arrival; with request 0's
  // long prefill + decode backlog ahead of it, no estimate can fit, so
  // the SLO-aware scheduler rejects instead of serving it late.
  EngineConfig config =
      EngineConfig()
          .scheduler(std::make_shared<SloAwarePolicy>(AdmissionLimits{2, 4}))
          .manage_bandwidth(false);
  Request hopeless = req(1, 1000, 8, 256);
  hopeless.deadline = hopeless.arrival + 1;
  ServingEngine engine(small_cfg(), {tiny_model()}, std::move(config));
  const auto result = engine.run({req(0, 0, 32, 256), hopeless});

  EXPECT_EQ(result.completed, 1u);
  EXPECT_EQ(result.rejected, 1u);
  EXPECT_TRUE(engine.records()[1].rejected);
  EXPECT_FALSE(engine.records()[1].done);
  EXPECT_EQ(result.with_deadline, 1u);
  EXPECT_EQ(result.slo_attained, 0u);
  EXPECT_DOUBLE_EQ(result.slo_attainment, 0.0);
  EXPECT_TRUE(engine.records()[0].done);
}

TEST(ServingEngine, GenerousDeadlinesAreAttained) {
  EngineConfig config =
      EngineConfig()
          .scheduler(std::make_shared<SloAwarePolicy>(AdmissionLimits{2, 4}))
          .manage_bandwidth(false);
  Request relaxed = req(0, 0, 4);
  relaxed.deadline = 1'000'000'000;  // 1 s at 1 GHz: trivially feasible
  ServingEngine engine(small_cfg(), {tiny_model()}, std::move(config));
  const auto result = engine.run({relaxed});
  EXPECT_EQ(result.completed, 1u);
  EXPECT_EQ(result.rejected, 0u);
  EXPECT_EQ(result.slo_attained, 1u);
  EXPECT_DOUBLE_EQ(result.slo_attainment, 1.0);
  EXPECT_TRUE(engine.records()[0].deadline_met());
}

TEST(ServingEngine, KvCapacityDefersJoinsUntilReleased) {
  // Capacity fits exactly one request's KV cache: the second prefilled
  // request must wait for the first to retire before joining the batch.
  const model::MllmConfig m = tiny_model();
  const Bytes per_request = kv_footprint_bytes(req(0, 0, 8), m);
  EngineConfig config = fast_config().kv_capacity_bytes(per_request);
  ServingEngine engine(small_cfg(), {m}, std::move(config));
  const auto result = engine.run({req(0, 0, 8), req(1, 0, 8)});

  EXPECT_EQ(result.completed, 2u);
  EXPECT_GT(result.kv_deferrals, 0u);
  ASSERT_NE(engine.kv_pages(), nullptr);
  EXPECT_EQ(engine.kv_pages()->page_bytes(), 1u);  // byte-granular footprints
  EXPECT_EQ(engine.kv_pages()->resident_bytes(), 0u);  // all released at the end
  EXPECT_EQ(result.peak_kv_reserved_bytes, per_request);
  // Serialized decode: the second request's first token comes after the
  // first request fully retired.
  EXPECT_GE(engine.records()[1].first_token, engine.records()[0].finish);
  EXPECT_DOUBLE_EQ(result.mean_decode_batch, 1.0);
}

TEST(ServingEngine, OversizedKvRequestIsRejectedUpFront) {
  const model::MllmConfig m = tiny_model();
  const Bytes too_small = kv_footprint_bytes(req(0, 0, 8), m) - 1;
  ServingEngine engine(small_cfg(), {m},
                       fast_config().kv_capacity_bytes(too_small));
  EXPECT_THROW(engine.run({req(0, 0, 8)}), std::invalid_argument);
}

TEST(ServingEngine, TaskProxyPruningDerivesPerModelKeepFractions) {
  TaskProxyPruningOptions proxy;
  proxy.proxy.tokens = 2;
  proxy.max_proxy_channels = 128;
  proxy.max_proxy_layers = 4;
  EngineConfig config = fast_config().task_proxy_pruning(proxy);
  ServingEngine engine(small_cfg(), {tiny_model()}, std::move(config));
  const double keep = engine.keep_fraction(0);
  EXPECT_GE(keep, proxy.min_keep_fraction);
  EXPECT_LE(keep, 1.0);
  EXPECT_DOUBLE_EQ(keep, derive_keep_fraction(tiny_model(), proxy));

  const auto result = engine.run({req(0, 0, 6), req(1, 100, 4)});
  EXPECT_EQ(result.completed, 2u);
  for (const RequestRecord& rec : engine.records()) {
    EXPECT_DOUBLE_EQ(rec.prune_keep_fraction, keep);
  }
}

/// Test-only scheduler that records the FIRST estimated_service each
/// request is judged with (then admits everything). Not a real policy —
/// the out-pointer makes it impure on purpose.
class ServiceEstimateProbe final : public SchedulerPolicy {
 public:
  explicit ServiceEstimateProbe(std::map<RequestId, Cycle>* out) : out_(out) {}
  AdmissionVerdict admit(const Request& r,
                         const AdmissionContext& ctx) const override {
    out_->emplace(r.id, ctx.estimated_service);
    return AdmissionVerdict::kAdmit;
  }
  std::size_t decode_join_count(std::size_t,
                                std::size_t ready) const override {
    return ready;
  }

 private:
  std::map<RequestId, Cycle>* out_;
};

TEST(ServingEngine, PerModelEstimatorsIsolateLightModelFromHeavyCoTenant) {
  // The admission EWMAs are per model: a heavy co-tenant's measured
  // chunks and decode steps must not move a light model's
  // estimated_service. A light request judged after the heavy traffic
  // drained gets EXACTLY the estimate it would get in an engine that
  // never served the heavy model (engine-global estimators would have
  // folded the heavy measurements into it, inflating the estimate into
  // spurious SLO rejections).
  model::MllmConfig heavy = tiny_model();
  heavy.name = "heavy-mllm";
  heavy.llm.d_ffn = 4096;
  heavy.llm.layers = 4;
  const std::vector<model::MllmConfig> zoo = {tiny_model(), heavy};
  const Request h0 = req(0, 0, 16, 128, 1);
  const Request h1 = req(1, 0, 12, 128, 1);

  // Probe replay: when has the heavy traffic fully drained?
  ServingEngine drain_probe(small_cfg(), zoo, fast_config());
  drain_probe.run({h0, h1});
  Cycle drained = 0;
  for (const RequestRecord& rec : drain_probe.records()) {
    drained = std::max(drained, rec.finish);
  }
  const Request light = req(2, drained + 10'000, 8, 64, 0);

  std::map<RequestId, Cycle> mixed_estimates;
  ServingEngine mixed(small_cfg(), zoo,
                      EngineConfig()
                          .scheduler(std::make_shared<ServiceEstimateProbe>(
                              &mixed_estimates))
                          .manage_bandwidth(false));
  mixed.run({h0, h1, light});

  std::map<RequestId, Cycle> alone_estimates;
  ServingEngine alone(small_cfg(), zoo,
                      EngineConfig()
                          .scheduler(std::make_shared<ServiceEstimateProbe>(
                              &alone_estimates))
                          .manage_bandwidth(false));
  alone.run({light});

  ASSERT_TRUE(mixed_estimates.count(light.id));
  ASSERT_TRUE(alone_estimates.count(light.id));
  EXPECT_EQ(mixed_estimates.at(light.id), alone_estimates.at(light.id));
  // The heavy model really is heavier: its own estimate dwarfs the
  // light one (so the equality above is not vacuous).
  EXPECT_GT(mixed_estimates.at(h0.id), mixed_estimates.at(light.id));
}

}  // namespace
}  // namespace edgemm::serve
