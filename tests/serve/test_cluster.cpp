// ClusterEngine: multi-chip sharded serving (PR 6).
//
// Router level: the three RouterPolicy implementations judged against
// hand-built RouterContexts. Config level: ClusterConfig validation.
// Cluster level: 1-chip replica identity with the single engine,
// worker-count byte-identity in both modes, deterministic re-runs, the
// split-phase engines (prefill-only / decode-only), and exact KV-byte
// conservation across the disaggregated link.
#include "serve/cluster/cluster_engine.hpp"

#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "model/workload.hpp"
#include "serve/admission.hpp"
#include "serve/cluster/router.hpp"
#include "serve/sweep.hpp"
#include "serve/trace.hpp"

namespace edgemm::serve {
namespace {

core::ChipConfig small_cfg() {
  core::ChipConfig cfg = core::default_chip_config();
  cfg.groups = 1;
  return cfg;
}

model::MllmConfig tiny_model(const char* name = "tiny-mllm") {
  model::MllmConfig m;
  m.name = name;
  m.encoders = {{"enc", 2, 256, 512, 4, 4, 0, false}};
  m.vision_tokens = 16;
  m.projector_params = 0;
  m.llm = {"llm", 2, 256, 512, 4, 4, 1024, true};
  return m;
}

std::vector<Request> zoo_trace(std::size_t requests = 16) {
  TraceConfig cfg;
  cfg.requests = requests;
  cfg.arrival_rate_per_s = 2000.0;
  cfg.input_tokens = 48;
  cfg.min_output_tokens = 2;
  cfg.max_output_tokens = 8;
  cfg.model_weights = {2.0, 1.0};
  return poisson_trace(cfg);
}

EngineConfig fast_engine() {
  return EngineConfig()
      .scheduler(std::make_shared<ConcurrencyPolicy>(AdmissionLimits{4, 8}))
      .manage_bandwidth(false)
      .replay_mode(core::ReplayMode::kFast);
}

std::vector<model::MllmConfig> two_models() {
  return {tiny_model("model-a"), tiny_model("model-b")};
}

RouterContext ctx_with_costs(std::vector<double> costs) {
  RouterContext ctx;
  for (const double c : costs) {
    ChipLoad load;
    load.estimated_cost = c;
    load.per_model.assign(2, 0);
    ctx.chips.push_back(load);
  }
  return ctx;
}

// --- Routers ----------------------------------------------------------------

TEST(Routers, RoundRobinCyclesByTotalAssigned) {
  RoundRobinRouter router;
  RouterContext ctx = ctx_with_costs({0, 0, 0});
  Request r;
  EXPECT_EQ(router.route(r, ctx), 0u);
  ctx.chips[0].assigned_requests = 1;
  EXPECT_EQ(router.route(r, ctx), 1u);
  ctx.chips[1].assigned_requests = 1;
  EXPECT_EQ(router.route(r, ctx), 2u);
  ctx.chips[2].assigned_requests = 1;
  EXPECT_EQ(router.route(r, ctx), 0u);
}

TEST(Routers, LeastLoadedPicksTheCheapestChipTiesLowIndex) {
  LeastLoadedRouter router;
  Request r;
  EXPECT_EQ(router.route(r, ctx_with_costs({500, 100, 300})), 1u);
  EXPECT_EQ(router.route(r, ctx_with_costs({200, 200, 300})), 0u);
}

TEST(Routers, ModelAffinityHomesThenSpillsPastTheFactor)  {
  ModelAffinityRouter router(/*spill_factor=*/1.0);
  Request r;
  r.model = 1;
  r.input_tokens = 10;
  r.crops = 1;
  r.output_tokens = 10;  // route cost 20
  // Homeless model: fall through to least-loaded.
  RouterContext ctx = ctx_with_costs({300, 100, 200});
  EXPECT_EQ(router.route(r, ctx), 1u);
  // Homed on chip 0, backlog gap 200 > 1.0 x 20: spill to the cheapest.
  ctx.chips[0].per_model[1] = 3;
  EXPECT_EQ(router.route(r, ctx), 1u);
  // Within the spill allowance the home chip wins despite its backlog.
  ModelAffinityRouter tolerant(/*spill_factor=*/100.0);
  EXPECT_EQ(tolerant.route(r, ctx), 0u);
  // The chip with MORE of this model's requests is the home.
  ctx.chips[2].per_model[1] = 5;
  EXPECT_EQ(tolerant.route(r, ctx), 2u);
}

TEST(Routers, EmptyContextAndBadSpillFactorThrow) {
  RouterContext empty;
  Request r;
  EXPECT_THROW(RoundRobinRouter().route(r, empty), std::invalid_argument);
  EXPECT_THROW(LeastLoadedRouter().route(r, empty), std::invalid_argument);
  EXPECT_THROW(ModelAffinityRouter().route(r, empty), std::invalid_argument);
  EXPECT_THROW(ModelAffinityRouter(-0.5), std::invalid_argument);
}

// --- ClusterConfig ----------------------------------------------------------

TEST(ClusterConfig, ValidatesComposition) {
  EXPECT_THROW(ClusterConfig().chips(0), std::invalid_argument);
  EXPECT_THROW(ClusterConfig().prefill_chips(0), std::invalid_argument);
  EXPECT_THROW(ClusterConfig().router(nullptr), std::invalid_argument);
  ClusterConfig one_chip_disagg;
  one_chip_disagg.mode(ClusterMode::kDisaggregated);
  EXPECT_THROW(one_chip_disagg.validate(), std::invalid_argument);
  ClusterConfig all_prefill;
  all_prefill.chips(2).mode(ClusterMode::kDisaggregated).prefill_chips(2);
  EXPECT_THROW(all_prefill.validate(), std::invalid_argument);
  ClusterConfig good;
  good.chips(2).mode(ClusterMode::kDisaggregated).prefill_chips(1);
  EXPECT_NO_THROW(good.validate());
}

// --- Replica mode -----------------------------------------------------------

TEST(Cluster, OneChipReplicaIsTheSingleEngineBitForBit) {
  const auto trace = zoo_trace();
  const auto single =
      replay_trace(small_cfg(), two_models(), fast_engine(), trace);
  const ClusterOutcome cluster = run_cluster(
      small_cfg(), two_models(), fast_engine(), ClusterConfig{}, trace);

  ASSERT_EQ(cluster.result.per_chip.size(), 1u);
  EXPECT_TRUE(results_identical(cluster.result.per_chip[0], single.result));
  ASSERT_EQ(cluster.records.size(), single.records.size());
  for (std::size_t i = 0; i < single.records.size(); ++i) {
    EXPECT_TRUE(record_identical(cluster.records[i], single.records[i]));
  }
  // The aggregate recomputation lands on the very same numbers.
  EXPECT_EQ(cluster.result.completed, single.result.completed);
  EXPECT_EQ(cluster.result.makespan, single.result.makespan);
  EXPECT_EQ(cluster.result.p99_latency_ms, single.result.p99_latency_ms);
  EXPECT_EQ(cluster.result.tokens_per_second, single.result.tokens_per_second);
  EXPECT_EQ(cluster.result.mean_latency_ms, single.result.mean_latency_ms);
  EXPECT_EQ(cluster.result.routed_per_chip, (std::vector<std::size_t>{16}));
  // Replica mode never touches the link ledger.
  EXPECT_EQ(cluster.result.kv_transfers, 0u);
  EXPECT_EQ(cluster.result.kv_bytes_sent, 0u);
}

TEST(Cluster, ReplicaShardsServeTheWholeTraceOnce) {
  const auto trace = zoo_trace();
  ClusterConfig config;
  config.chips(3).router(std::make_shared<LeastLoadedRouter>());
  const ClusterOutcome out = run_cluster(small_cfg(), two_models(),
                                         fast_engine(), config, trace);
  EXPECT_EQ(out.result.chips, 3u);
  EXPECT_EQ(out.result.completed, trace.size());
  ASSERT_EQ(out.result.routed_per_chip.size(), 3u);
  std::size_t routed = 0;
  for (const std::size_t n : out.result.routed_per_chip) routed += n;
  EXPECT_EQ(routed, trace.size());
  // Every record came back merged, in original trace order.
  ASSERT_EQ(out.records.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(out.records[i].request.id, trace[i].id);
    EXPECT_EQ(out.records[i].request.arrival, trace[i].arrival);
    EXPECT_TRUE(out.records[i].done);
  }
}

TEST(Cluster, ReplicaOutcomeIsByteIdenticalAtAnyWorkerCount) {
  const auto trace = zoo_trace();
  auto run_with = [&](std::size_t workers, std::size_t chips) {
    ClusterConfig config;
    config.chips(chips)
        .router(std::make_shared<ModelAffinityRouter>())
        .workers(workers);
    return run_cluster(small_cfg(), two_models(), fast_engine(), config,
                       trace);
  };
  const ClusterOutcome sequential = run_with(1, 4);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
    EXPECT_TRUE(sequential == run_with(workers, 4))
        << workers << " workers diverged";
  }
  // And re-running the same composition reproduces it exactly.
  EXPECT_TRUE(sequential == run_with(1, 4));
}

// --- Split-phase engines ----------------------------------------------------

TEST(EnginePhases, PrefillOnlyRetiresAtPrefillEndWithNoDecode) {
  EngineConfig config = fast_engine();
  config.phase(EnginePhase::kPrefillOnly);
  const auto out =
      replay_trace(small_cfg(), two_models(), config, zoo_trace(8));
  EXPECT_EQ(out.result.completed, 8u);
  for (const RequestRecord& rec : out.records) {
    EXPECT_TRUE(rec.done);
    EXPECT_GT(rec.prefill_end, rec.prefill_start);
    EXPECT_EQ(rec.finish, rec.prefill_end);
    EXPECT_EQ(rec.tokens_generated, 0u);
  }
}

TEST(EnginePhases, DecodeOnlySkipsPrefillAndGeneratesEveryToken) {
  EngineConfig config = fast_engine();
  config.phase(EnginePhase::kDecodeOnly);
  const auto trace = zoo_trace(8);
  const auto out = replay_trace(small_cfg(), two_models(), config, trace);
  EXPECT_EQ(out.result.completed, 8u);
  for (std::size_t i = 0; i < out.records.size(); ++i) {
    const RequestRecord& rec = out.records[i];
    EXPECT_TRUE(rec.done);
    EXPECT_EQ(rec.prefill_start, rec.prefill_end);  // no prefill priced
    EXPECT_EQ(rec.prefill_chunks, 0u);
    EXPECT_EQ(rec.tokens_generated, trace[i].output_tokens);
    EXPECT_GT(rec.finish, rec.request.arrival);
  }
}

// --- Disaggregated mode -----------------------------------------------------

ClusterConfig disagg_config(std::size_t chips, std::size_t prefill,
                            std::size_t workers = 1) {
  ClusterConfig config;
  config.chips(chips)
      .mode(ClusterMode::kDisaggregated)
      .prefill_chips(prefill)
      .router(std::make_shared<LeastLoadedRouter>())
      .workers(workers);
  return config;
}

TEST(Cluster, DisaggregatedConservesKvBytesExactly) {
  const auto trace = zoo_trace();
  const auto models = two_models();
  const ClusterOutcome out = run_cluster(small_cfg(), models, fast_engine(),
                                         disagg_config(4, 2), trace);
  EXPECT_EQ(out.result.completed, trace.size());
  EXPECT_EQ(out.result.kv_transfers, trace.size());
  // Exact conservation at the drain probe: everything sent has landed.
  EXPECT_GT(out.result.kv_migration_bytes, 0u);
  EXPECT_EQ(out.result.kv_bytes_in_flight, 0u);
  EXPECT_EQ(out.result.kv_bytes_sent,
            out.result.kv_migration_bytes + out.result.kv_bytes_in_flight);
  // And the total is the sum of every shipped request's KV footprint.
  Bytes expected = 0;
  for (const Request& r : trace) {
    expected += static_cast<Bytes>(r.input_tokens) *
                model::kv_bytes_per_token(models[r.model]);
  }
  EXPECT_EQ(out.result.kv_bytes_sent, expected);
  EXPECT_GT(out.result.link_occupancy, 0.0);
}

TEST(Cluster, DecodeTierNeverRejectsAMigratedKv) {
  // Probe run (no deadlines) to learn each request's first-token time,
  // then replay with deadlines that land just past it: at decode-tier
  // admission the remaining budget cannot cover the estimated decode, so
  // an SLO policy would REJECT — stranding KV bytes the prefill chip and
  // the link already paid for. The hand-off contract forbids that: a
  // decode tier expresses backpressure by deferring, never rejecting.
  const auto models = two_models();
  TraceConfig trace_cfg;
  trace_cfg.requests = 8;
  trace_cfg.arrival_rate_per_s = 500.0;  // no prefill-side backlog
  trace_cfg.input_tokens = 48;
  trace_cfg.min_output_tokens = 4;
  trace_cfg.max_output_tokens = 8;
  trace_cfg.model_weights = {2.0, 1.0};
  auto trace = poisson_trace(trace_cfg);

  // Lenient slack keeps the prefill tier's bootstrap estimate (which
  // overshoots the true prefill latency) from rejecting up front; the
  // deadline is then pinned BEFORE the probed first token, so by the
  // time the KV lands on the decode chip the budget is provably blown
  // regardless of what the decode-side estimator says.
  EngineConfig slo_engine =
      fast_engine().scheduler(std::make_shared<SloAwarePolicy>(
          AdmissionLimits{4, 8}, SloAwarePolicy::Options{0.25}));
  const ClusterOutcome probe = run_cluster(small_cfg(), models, slo_engine,
                                           disagg_config(3, 1), trace);
  ASSERT_EQ(probe.result.completed, trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Cycle to_first = probe.records[i].first_token - trace[i].arrival;
    trace[i].deadline = trace[i].arrival + to_first - to_first / 4;
  }

  const ClusterOutcome out = run_cluster(small_cfg(), models, slo_engine,
                                         disagg_config(3, 1), trace);
  // Prefill admission (deadline comfortably past the prefill estimate)
  // lets every request through; the decode tier then finds the deadline
  // hopeless — and must serve it anyway.
  EXPECT_EQ(out.result.rejected, 0u);
  EXPECT_EQ(out.result.completed, trace.size());
  EXPECT_EQ(out.result.kv_transfers, trace.size());
  for (const RequestRecord& rec : out.records) EXPECT_TRUE(rec.done);
}

TEST(Cluster, HandoffReservationConservesKvBytesUnderBackpressure) {
  // Decode-tier KV budget below the concurrent hand-off demand: the
  // reservation made at admission (the hand-off charge) must defer
  // later arrivals instead of overcommitting, and every byte must drain
  // by the end — on the link AND in the decode chips' trackers.
  const auto models = two_models();
  const auto trace = zoo_trace(12);
  Bytes max_footprint = 0;
  for (const Request& r : trace) {
    max_footprint =
        std::max(max_footprint, kv_footprint_bytes(r, models[r.model]));
  }
  EngineConfig engine =
      fast_engine().kv_capacity_bytes(max_footprint + max_footprint / 2);
  const ClusterOutcome out = run_cluster(small_cfg(), models, engine,
                                         disagg_config(2, 1), trace);
  EXPECT_EQ(out.result.completed, trace.size());
  EXPECT_EQ(out.result.rejected, 0u);
  // Link conservation: everything sent has landed by the drain probe.
  EXPECT_EQ(out.result.kv_bytes_in_flight, 0u);
  EXPECT_EQ(out.result.kv_bytes_sent, out.result.kv_migration_bytes);
  // Chip 1 is the lone decode chip: its tracker was the contended one.
  ASSERT_EQ(out.result.per_chip.size(), 2u);
  EXPECT_GT(out.result.per_chip[1].kv_deferrals, 0u);  // backpressure, not rejects
  EXPECT_GT(out.result.per_chip[1].peak_kv_reserved_bytes, 0u);
  EXPECT_LE(out.result.per_chip[1].peak_kv_reserved_bytes,
            max_footprint + max_footprint / 2);
  // The prefill tier never touches KV accounting.
  EXPECT_EQ(out.result.per_chip[0].peak_kv_reserved_bytes, 0u);
}

TEST(Cluster, DisaggregatedPagedKvConservesPagesExactly) {
  // Paged mode across the chip link: prefix annotations survive the
  // hand-off, riders attach on the decode chip, and the decode chip's
  // page ledger conserves exactly through the replay.
  const auto models = two_models();
  TraceConfig trace_cfg;
  trace_cfg.requests = 10;
  trace_cfg.arrival_rate_per_s = 2000.0;
  trace_cfg.input_tokens = 48;
  trace_cfg.min_output_tokens = 4;
  trace_cfg.max_output_tokens = 8;
  trace_cfg.model_weights = {2.0, 1.0};
  trace_cfg.prefix_groups = 1;  // one conversation group: maximal sharing
  trace_cfg.prefix_tokens = 48;
  const auto trace = poisson_trace(trace_cfg);

  const Bytes page = 4 * model::kv_bytes_per_token(models[0]);
  EngineConfig engine = fast_engine()
                            .kv_capacity_bytes(64 * page)
                            .paged_kv(true)
                            .kv_page_bytes(page);
  const ClusterOutcome out = run_cluster(small_cfg(), models, engine,
                                         disagg_config(2, 1), trace);
  EXPECT_EQ(out.result.completed, trace.size());
  EXPECT_EQ(out.result.rejected, 0u);
  EXPECT_EQ(out.result.kv_bytes_in_flight, 0u);
  ASSERT_EQ(out.result.per_chip.size(), 2u);
  const ServingResult& decode_chip = out.result.per_chip[1];
  EXPECT_GT(decode_chip.kv_pages_allocated, 0u);
  EXPECT_EQ(decode_chip.kv_pages_allocated, decode_chip.kv_pages_freed);
  EXPECT_GT(decode_chip.kv_shared_attaches, 0u);  // prefix crossed the link
  EXPECT_GT(decode_chip.kv_shared_pages_saved, 0u);
  // The prefill tier allocates no pages at all.
  EXPECT_EQ(out.result.per_chip[0].kv_pages_allocated, 0u);
}

TEST(Cluster, DisaggregatedRecordsSpliceBothPhases) {
  const auto trace = zoo_trace();
  const ClusterOutcome out = run_cluster(small_cfg(), two_models(),
                                         fast_engine(), disagg_config(3, 1),
                                         trace);
  const core::ChipConfig cfg = small_cfg();
  ASSERT_EQ(out.records.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const RequestRecord& rec = out.records[i];
    // Original arrival preserved: latency spans prefill + link + decode.
    EXPECT_EQ(rec.request.arrival, trace[i].arrival);
    EXPECT_TRUE(rec.done);
    EXPECT_GT(rec.prefill_end, 0u);
    // The decode side cannot start before the KV crossed the link.
    EXPECT_GE(rec.finish, rec.prefill_end + cfg.chip_link_latency);
    EXPECT_EQ(rec.tokens_generated, trace[i].output_tokens);
  }
  // Tier layout: prefill chip then decode chips.
  ASSERT_EQ(out.result.routed_per_chip.size(), 3u);
  EXPECT_EQ(out.result.routed_per_chip[0], trace.size());
  EXPECT_EQ(out.result.routed_per_chip[1] + out.result.routed_per_chip[2],
            trace.size());
}

TEST(Cluster, DisaggregatedOutcomeIsByteIdenticalAtAnyWorkerCount) {
  const auto trace = zoo_trace();
  auto run_with = [&](std::size_t workers) {
    return run_cluster(small_cfg(), two_models(), fast_engine(),
                       disagg_config(4, 2, workers), trace);
  };
  const ClusterOutcome sequential = run_with(1);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
    EXPECT_TRUE(sequential == run_with(workers))
        << workers << " workers diverged";
  }
}

TEST(Cluster, RunsUnmodifiedOnTheDetailedTier) {
  // Same composition, detailed replay tier: the cluster only replicates
  // the engine config, so ReplayMode::kDetailed flows through.
  EngineConfig detailed = fast_engine();
  detailed.replay_mode(core::ReplayMode::kDetailed);
  const auto trace = zoo_trace(6);
  const ClusterOutcome replica = run_cluster(
      small_cfg(), two_models(), detailed, ClusterConfig{}.chips(2), trace);
  EXPECT_EQ(replica.result.completed, 6u);
  const ClusterOutcome disagg = run_cluster(
      small_cfg(), two_models(), detailed, disagg_config(2, 1), trace);
  EXPECT_EQ(disagg.result.completed, 6u);
  EXPECT_EQ(disagg.result.kv_bytes_in_flight, 0u);
}

// --- Argument validation ----------------------------------------------------

TEST(Cluster, RejectsBadArguments) {
  const auto models = two_models();
  EXPECT_THROW(run_cluster(small_cfg(), models, fast_engine(),
                           ClusterConfig{}, {}),
               std::invalid_argument);
  // The cluster owns the phase split.
  EngineConfig split = fast_engine();
  split.phase(EnginePhase::kPrefillOnly);
  EXPECT_THROW(run_cluster(small_cfg(), models, split, ClusterConfig{},
                           zoo_trace(4)),
               std::invalid_argument);
  // A request naming a model the cluster does not serve.
  auto trace = zoo_trace(4);
  trace[2].model = 7;
  EXPECT_THROW(run_cluster(small_cfg(), models, fast_engine(),
                           ClusterConfig{}, trace),
               std::invalid_argument);
}

}  // namespace
}  // namespace edgemm::serve
