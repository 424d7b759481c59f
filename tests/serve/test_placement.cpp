// Residency-aware model placement + the shared-pin fill barrier (PR 5).
//
// Tracker level: fill state (mark_filled / filled), keep-warm detach,
// warm revival, idle eviction. Policy level: the three shipped
// PlacementPolicy implementations judged against hand-built
// PlacementContexts. Engine level: the fill-barrier edges (rider
// attaching before / across / after the owner's fill chunk retires,
// owner exemption, fallback-not-stall composition), each checked against
// the no-residency ChunkedPrefill replay of the same trace, keep-current
// byte-identity with the placement-oblivious default, keep-warm reuse
// across request gaps, and pressure eviction.
#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "model/workload.hpp"
#include "serve/residency_tracker.hpp"
#include "serve/serving_engine.hpp"

namespace edgemm::serve {
namespace {

core::ChipConfig small_cfg() {
  core::ChipConfig cfg = core::default_chip_config();
  cfg.groups = 1;  // 2 CC + 2 MC clusters: fast simulation
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

Request req(RequestId id, Cycle arrival, std::size_t output_tokens,
            std::size_t input_tokens = 128, std::size_t model = 0) {
  Request r;
  r.id = id;
  r.arrival = arrival;
  r.model = model;
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

Bytes full_weight_set(const model::MllmConfig& m, const core::ChipConfig& cfg) {
  return llm_layer_group_bytes(m, cfg) * m.llm.layers;
}

EngineConfig resident_config(Bytes budget) {
  return fast_config(std::make_shared<ResidentChunkedPrefill>(48))
      .weight_residency_bytes(budget);
}

/// The no-residency reference: every chunk re-fetches every weight.
ReplayOutcome chunked_replay(const core::ChipConfig& cfg,
                             const std::vector<model::MllmConfig>& models,
                             const std::vector<Request>& trace) {
  return replay_trace(cfg, models,
                      fast_config(std::make_shared<ChunkedPrefill>(48)), trace);
}

/// Residency and the fill barrier only move weight bytes between fetched
/// and saved: their sum is exactly the chunked replay's fetch.
void expect_weight_bytes_conserved(const ServingResult& resident,
                                   const ServingResult& chunked) {
  EXPECT_EQ(resident.cc_weight_fetch_bytes + resident.cc_weight_bytes_saved,
            chunked.cc_weight_fetch_bytes);
}

ModelDemand demand(std::size_t queued, std::size_t inflight,
                   std::size_t resident_layers, std::size_t refcount,
                   Bytes layer_group_bytes, std::size_t total_layers) {
  ModelDemand d;
  d.queued = queued;
  d.inflight = inflight;
  d.resident_layers = resident_layers;
  d.idle_resident = resident_layers > 0 && refcount == 0;
  d.pinned_bytes = static_cast<Bytes>(resident_layers) * layer_group_bytes;
  d.layer_group_bytes = layer_group_bytes;
  d.total_layers = total_layers;
  return d;
}

// --- Tracker: fill state and keep-warm lifecycle ----------------------------

TEST(FillBarrierTracker, FreshPinIsUnfilledUntilMarked) {
  WeightResidencyTracker tracker(1000);
  EXPECT_FALSE(tracker.filled(7));  // no pin at all: nothing to ride
  ASSERT_EQ(tracker.attach_layers(7, 250, 4).layers, 4u);
  EXPECT_FALSE(tracker.filled(7));
  tracker.mark_filled(7);
  EXPECT_TRUE(tracker.filled(7));
  // Fill state dies with the pin: a later fresh pin fills anew.
  tracker.detach(7);
  EXPECT_FALSE(tracker.filled(7));
  ASSERT_EQ(tracker.attach_layers(7, 250, 4).layers, 4u);
  EXPECT_FALSE(tracker.filled(7));
  tracker.detach(7);
  EXPECT_THROW(tracker.mark_filled(7), std::logic_error);
}

TEST(FillBarrierTracker, KeepResidentDetachRetainsBytesAndFillState) {
  WeightResidencyTracker tracker(1000);
  ASSERT_EQ(tracker.attach_layers(3, 250, 4).layers, 4u);
  tracker.mark_filled(3);
  tracker.detach(3, /*keep_resident=*/true);
  // Idle pin: zero refcount, bytes still charged, fill preserved.
  EXPECT_EQ(tracker.refcount(3), 0u);
  EXPECT_EQ(tracker.resident_layers(3), 4u);
  EXPECT_EQ(tracker.pinned(), 1000u);  // all of it idle
  EXPECT_EQ(tracker.idle_pins(), 1u);
  EXPECT_TRUE(tracker.filled(3));
  // Detaching an idle pin is a logic error (revive it via attach).
  EXPECT_THROW(tracker.detach(3), std::logic_error);

  // Warm revival: refcount 0 -> 1, no budget charge, no new pin, and
  // the warm/shared counters split (a warm attach is not a live ride).
  const auto warm = tracker.attach_layers(3, 250, 4);
  EXPECT_TRUE(warm.shared);
  EXPECT_TRUE(warm.warm);
  EXPECT_EQ(warm.layers, 4u);
  EXPECT_EQ(tracker.warm_attaches(), 1u);
  EXPECT_EQ(tracker.shared_attaches(), 0u);
  EXPECT_EQ(tracker.pins(), 1u);
  EXPECT_EQ(tracker.idle_pins(), 0u);
  EXPECT_TRUE(tracker.filled(3));
  // A second attach on the revived pin is an ordinary live ride.
  EXPECT_FALSE(tracker.attach_layers(3, 250, 4).warm);
  EXPECT_EQ(tracker.shared_attaches(), 1u);
  tracker.detach(3);
  tracker.detach(3);  // refcount 0, not kept: evicted for real
  EXPECT_EQ(tracker.pinned(), 0u);
}

TEST(FillBarrierTracker, EvictIdleReclaimsOnlyIdlePins) {
  WeightResidencyTracker tracker(1000);
  ASSERT_EQ(tracker.attach_layers(1, 300, 2).layers, 2u);
  EXPECT_THROW(tracker.evict_idle(1), std::logic_error);  // live holders
  EXPECT_THROW(tracker.evict_idle(9), std::logic_error);  // no such pin
  tracker.detach(1, /*keep_resident=*/true);
  EXPECT_EQ(tracker.pinned(), 600u);
  tracker.evict_idle(1);
  EXPECT_EQ(tracker.idle_evictions(), 1u);
  EXPECT_EQ(tracker.pinned(), 0u);
  EXPECT_EQ(tracker.resident_layers(1), 0u);

  // evict_all_idle is the end-of-replay flush: it reclaims every idle
  // pin but is NOT a placement eviction.
  ASSERT_EQ(tracker.attach_layers(2, 300, 1).layers, 1u);
  ASSERT_EQ(tracker.attach_layers(3, 300, 1).layers, 1u);
  tracker.detach(2, true);
  tracker.detach(3, true);
  EXPECT_EQ(tracker.evict_all_idle(), 2u);
  EXPECT_EQ(tracker.idle_evictions(), 1u);  // unchanged
  EXPECT_EQ(tracker.pinned(), 0u);
  EXPECT_EQ(tracker.holders(), 0u);
}

// --- Placement policies against hand-built contexts -------------------------

TEST(PlacementPolicies, KeepCurrentIsTheObliviousBaseline) {
  KeepCurrentPlacement policy;
  PlacementContext ctx;
  ctx.capacity = 1000;
  ctx.models = {demand(0, 0, 4, 0, 100, 4), demand(3, 2, 0, 0, 100, 4)};
  ctx.models[0].idle_resident = true;
  EXPECT_TRUE(policy.may_acquire(1, ctx));
  EXPECT_FALSE(policy.retain_idle(0, ctx));
  EXPECT_TRUE(policy.evict_victims(1, 1000, ctx).empty());
}

TEST(PlacementPolicies, DemandWeightedGrantsFullSetsHottestFirst) {
  DemandWeightedPlacement policy;
  PlacementContext ctx;
  ctx.capacity = 1000;
  // Model 0: demand 1, set 600. Model 1: demand 3, set 500. Model 2:
  // demand 2, set 400. Greedy by demand: 1 (500) + 2 (400) fit, 0 does
  // not (600 > 100 remaining).
  ctx.models = {demand(1, 0, 0, 0, 150, 4), demand(2, 1, 0, 0, 125, 4),
                demand(1, 1, 0, 0, 100, 4)};
  EXPECT_EQ(policy.target_set(ctx), (std::vector<std::size_t>{1, 2}));
  EXPECT_TRUE(policy.may_acquire(1, ctx));
  EXPECT_TRUE(policy.may_acquire(2, ctx));
  EXPECT_FALSE(policy.may_acquire(0, ctx));
  EXPECT_TRUE(policy.retain_idle(2, ctx));
  EXPECT_FALSE(policy.retain_idle(0, ctx));

  // A zero-demand model stays ranked only while resident: warm bytes
  // are free to keep until a demanded model wants them.
  PlacementContext quiet;
  quiet.capacity = 1000;
  quiet.models = {demand(0, 0, 4, 0, 150, 4), demand(0, 0, 0, 0, 125, 4),
                  demand(1, 0, 0, 0, 100, 4)};
  // Model 2 (demanded) first, then resident model 0; model 1 (cold,
  // not resident) is not ranked at all.
  EXPECT_EQ(policy.target_set(quiet), (std::vector<std::size_t>{2, 0}));

  // Victims: only idle pins OUTSIDE the target set, and an asker
  // outside the set gets none (it may not acquire anyway).
  PlacementContext pressure;
  pressure.capacity = 1000;
  pressure.models = {demand(2, 0, 4, 0, 150, 4),   // hot, idle-resident
                     demand(0, 0, 4, 0, 100, 4),   // cold, idle-resident
                     demand(1, 0, 0, 0, 100, 4)};  // asking
  EXPECT_EQ(policy.target_set(pressure), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(policy.evict_victims(2, 100, pressure),
            (std::vector<std::size_t>{1}));
  EXPECT_TRUE(policy.evict_victims(1, 100, pressure).empty());
}

TEST(PlacementPolicies, EvictIdleOrdersVictimsColdestAndLargestFirst) {
  EvictIdleOnPressure policy;
  PlacementContext ctx;
  ctx.capacity = 10000;
  ctx.models = {demand(0, 0, 4, 0, 100, 4),   // idle, 400 B, demand 0
                demand(0, 0, 4, 0, 200, 4),   // idle, 800 B, demand 0
                demand(1, 1, 4, 0, 100, 4),   // idle but demanded
                demand(0, 1, 0, 0, 100, 4)};  // the asker
  EXPECT_TRUE(policy.may_acquire(3, ctx));
  EXPECT_TRUE(policy.retain_idle(0, ctx));
  // Coldest first; within equal demand the larger pin goes first (one
  // eviction covers the need, the rest stay resident). The cutoff stops
  // as soon as the freed bytes cover the request.
  EXPECT_EQ(policy.evict_victims(3, 700, ctx),
            (std::vector<std::size_t>{1}));
  EXPECT_EQ(policy.evict_victims(3, 900, ctx),
            (std::vector<std::size_t>{1, 0}));
  EXPECT_EQ(policy.evict_victims(3, 2000, ctx),
            (std::vector<std::size_t>{1, 0, 2}));
  // The asker's own idle pin is never pulled out from under it.
  ctx.models[3] = demand(0, 1, 4, 0, 100, 4);
  const auto victims = policy.evict_victims(3, 2000, ctx);
  EXPECT_TRUE(std::find(victims.begin(), victims.end(), 3u) == victims.end());
}

// --- Engine: fill-barrier edges ---------------------------------------------

TEST(FillBarrierEngine, RiderBeforeFillRefetchesExactlyTheUnlandedBytes) {
  const core::ChipConfig cfg = small_cfg();
  const model::MllmConfig m = tiny_model();
  const Bytes set = full_weight_set(m, cfg);
  // Both requests admitted at cycle 0: the rider attaches before the
  // owner's fill chunk (chunk 0) has retired, so its chunk 0 re-fetches
  // the whole pin. The serial CC lane retires the fill before the
  // rider's chunk 0, so its later chunks ride.
  const std::vector<Request> trace = {req(0, 0, 4, 192), req(1, 0, 4, 192)};
  const auto on = replay_trace(cfg, {m}, resident_config(2 * set), trace);
  const auto chunked = chunked_replay(cfg, {m}, trace);

  EXPECT_EQ(on.result.rider_refetch_bytes, set);
  // Owner rides chunks 1..3, rider rides chunks 1..3: 6 sets saved.
  EXPECT_EQ(on.result.cc_weight_bytes_saved, 6u * set);
  expect_weight_bytes_conserved(on.result, chunked.result);
  // The pin topology: one owner, one rider.
  EXPECT_EQ(on.result.weight_pins, 1u);
  EXPECT_EQ(on.result.weight_shared_attaches, 1u);
}

TEST(FillBarrierEngine, RiderSweepAcrossTheFillBoundaryConservesBytes) {
  // Sweep the rider's arrival across the owner's whole prefill window:
  // wherever the fill-chunk retirement falls, residency and the barrier
  // may only move bytes between fetched and saved (before/at/after the
  // boundary alike), and the replay always drains.
  const core::ChipConfig cfg = small_cfg();
  const model::MllmConfig m = tiny_model();
  const Bytes budget = 2 * full_weight_set(m, cfg);
  const auto probe =
      replay_trace(cfg, {m}, resident_config(budget), {req(0, 0, 4, 192)});
  const Cycle prefill_span =
      probe.records[0].prefill_end - probe.records[0].prefill_start;
  for (int i = 0; i <= 4; ++i) {
    const Cycle arrival = prefill_span * static_cast<Cycle>(i) / 4;
    const std::vector<Request> trace = {req(0, 0, 4, 192),
                                        req(1, arrival, 4, 192)};
    const auto on = replay_trace(cfg, {m}, resident_config(budget), trace);
    const auto chunked = chunked_replay(cfg, {m}, trace);
    SCOPED_TRACE(testing::Message()
                 << "arrival offset " << i << "/4 through the owner's prefill");
    EXPECT_EQ(on.result.completed, 2u);
    expect_weight_bytes_conserved(on.result, chunked.result);
    EXPECT_LE(on.result.rider_refetch_bytes, on.result.cc_weight_fetch_bytes);
  }
}

TEST(FillBarrierEngine, RiderAfterFillLandedRidesBarrierFree) {
  // The rider arrives 2 cycles before the owner's LAST chunk retires:
  // the fill (chunk 0) landed long ago, so no re-fetch is ledgered and
  // the rider rides every one of its chunks.
  const core::ChipConfig cfg = small_cfg();
  const model::MllmConfig m = tiny_model();
  const Bytes set = full_weight_set(m, cfg);
  const auto probe =
      replay_trace(cfg, {m}, resident_config(2 * set), {req(0, 0, 4, 192)});
  const Cycle late = probe.records[0].prefill_end - 2;
  const std::vector<Request> trace = {req(0, 0, 4, 192), req(1, late, 4, 192)};
  const auto on = replay_trace(cfg, {m}, resident_config(2 * set), trace);
  const auto chunked = chunked_replay(cfg, {m}, trace);

  EXPECT_EQ(on.result.weight_shared_attaches, 1u);  // it really did ride
  EXPECT_EQ(on.result.rider_refetch_bytes, 0u);
  // Owner rides chunks 1..3, rider all 4 chunks.
  EXPECT_EQ(on.result.cc_weight_bytes_saved, 7u * set);
  expect_weight_bytes_conserved(on.result, chunked.result);
}

TEST(FillBarrierEngine, OwnersAndPerRequestPinsAreExempt) {
  // A pin owner's chunks are ordered behind its own fill chunk, so a
  // request that owns its pin never re-fetches — whether it is the only
  // request or shares the chip with another model's pin owner.
  const core::ChipConfig cfg = small_cfg();
  const model::MllmConfig a = tiny_model();
  const model::MllmConfig b = tiny_model("tiny-mllm-b");
  const Bytes set = full_weight_set(a, cfg);
  // One pin per model, both fit: every attach is an owner.
  const std::vector<Request> trace = {req(0, 0, 4, 192, 0),
                                      req(1, 0, 4, 144, 1)};
  const auto owners = replay_trace(cfg, {a, b}, resident_config(2 * set), trace);
  const auto owners_chunked = chunked_replay(cfg, {a, b}, trace);
  EXPECT_EQ(owners.result.weight_pins, 2u);
  EXPECT_EQ(owners.result.weight_shared_attaches, 0u);
  EXPECT_EQ(owners.result.rider_refetch_bytes, 0u);
  expect_weight_bytes_conserved(owners.result, owners_chunked.result);
  // Single request: the owner is the only attach and rides chunks 1..3.
  const std::vector<Request> single = {req(0, 0, 4, 192)};
  const auto alone = replay_trace(cfg, {a}, resident_config(2 * set), single);
  EXPECT_EQ(alone.result.rider_refetch_bytes, 0u);
  EXPECT_EQ(alone.result.cc_weight_bytes_saved, 3u * set);
  expect_weight_bytes_conserved(alone.result,
                                chunked_replay(cfg, {a}, single).result);
}

TEST(FillBarrierEngine, FallbackNotStallSurvivesTheBarrier) {
  // Budget for ONE set, two different models at once: model B falls
  // back (never stalls) exactly as without the barrier, and the barrier
  // adds no phantom re-fetch for a request that holds no pin.
  const core::ChipConfig cfg = small_cfg();
  const model::MllmConfig a = tiny_model();
  const model::MllmConfig b = tiny_model("tiny-mllm-b");
  const Bytes budget = full_weight_set(a, cfg);
  const std::vector<Request> trace = {req(0, 0, 4, 192, 0),
                                      req(1, 0, 4, 192, 1)};
  const auto outcome =
      replay_trace(cfg, {a, b}, resident_config(budget), trace);
  EXPECT_EQ(outcome.result.completed, 2u);
  EXPECT_GE(outcome.result.weight_pin_fallbacks, 1u);
  EXPECT_EQ(outcome.result.rider_refetch_bytes, 0u);  // no riders at all
  EXPECT_EQ(outcome.result.peak_pinned_bytes, budget);
}

// --- Engine: placement policies ---------------------------------------------

TEST(PlacementEngine, KeepCurrentIsByteIdenticalToTheDefaultComposition) {
  // Explicit KeepCurrentPlacement IS the placement-oblivious engine: the
  // same multi-rider shared-pin trace replays bit-for-bit against the
  // default-placement config, with every placement counter at zero.
  const core::ChipConfig cfg = small_cfg();
  const model::MllmConfig m = tiny_model();
  const Bytes budget = full_weight_set(m, cfg);
  const std::vector<Request> trace = {req(0, 0, 4, 192), req(1, 0, 4, 192),
                                      req(2, 50, 4, 144)};
  const auto expl = replay_trace(
      cfg, {m},
      resident_config(budget).placement_policy(
          std::make_shared<KeepCurrentPlacement>()),
      trace);
  const auto dflt = replay_trace(cfg, {m}, resident_config(budget), trace);
  EXPECT_EQ(expl.result, dflt.result);
  EXPECT_EQ(expl.records, dflt.records);
  expect_weight_bytes_conserved(expl.result,
                                chunked_replay(cfg, {m}, trace).result);
  EXPECT_GT(expl.result.weight_shared_attaches, 0u);
  EXPECT_EQ(expl.result.weight_warm_attaches, 0u);
  EXPECT_EQ(expl.result.placement_denials, 0u);
  EXPECT_EQ(expl.result.placement_evictions, 0u);
}

TEST(PlacementEngine, KeepWarmConvertsTheSecondFillIntoAFreeRide) {
  // Two same-model requests with a gap between them (the second arrives
  // after the first fully retires). Keep-current pays a second fill;
  // demand-weighted keeps the idle pin warm and the second request
  // rides EVERY chunk — exactly one extra chunk's layer-group set saved.
  const core::ChipConfig cfg = small_cfg();
  const model::MllmConfig m = tiny_model();
  const Bytes set = full_weight_set(m, cfg);
  const auto probe = replay_trace(
      cfg, {m},
      fast_config(std::make_shared<ResidentChunkedPrefill>(48))
          .weight_residency_bytes(2 * set),
      {req(0, 0, 4, 192)});
  const Cycle after = probe.records[0].finish + 1000;
  const std::vector<Request> trace = {req(0, 0, 4, 192),
                                      req(1, after, 4, 192)};
  auto config = [&](std::shared_ptr<const PlacementPolicy> placement) {
    return fast_config(std::make_shared<ResidentChunkedPrefill>(48))
        .weight_residency_bytes(2 * set)
        .placement_policy(std::move(placement));
  };
  const auto keep = replay_trace(
      cfg, {m}, config(std::make_shared<KeepCurrentPlacement>()), trace);
  const auto warm = replay_trace(
      cfg, {m}, config(std::make_shared<DemandWeightedPlacement>()), trace);

  EXPECT_EQ(keep.result.weight_pins, 2u);
  EXPECT_EQ(keep.result.weight_warm_attaches, 0u);
  EXPECT_EQ(warm.result.weight_pins, 1u);
  EXPECT_EQ(warm.result.weight_warm_attaches, 1u);
  // Warm ride: request 1 skips the fill chunk's weight DMA too (4 chunks
  // ride instead of 3) — one extra full layer-group set saved, and the
  // warm pin is filled so the barrier (on by default) never re-fetches.
  EXPECT_EQ(warm.result.cc_weight_bytes_saved,
            keep.result.cc_weight_bytes_saved + set);
  EXPECT_EQ(warm.result.rider_refetch_bytes, 0u);
  EXPECT_EQ(warm.records[1].weight_pinned_layers, m.llm.layers);
}

TEST(PlacementEngine, DemandWeightedDeniesTheColdOverBudgetModel) {
  // Budget = one set; the hot model has standing demand when the cold
  // model asks, so demand-weighted denies the cold acquisition (it
  // would evict nothing — the hot pin is live) and the cold request
  // honestly re-fetches every chunk.
  const core::ChipConfig cfg = small_cfg();
  const model::MllmConfig hot = tiny_model("tiny-hot");
  const model::MllmConfig cold = tiny_model("tiny-cold");
  const Bytes budget = full_weight_set(hot, cfg);
  const std::vector<Request> trace = {req(0, 0, 8, 192, 0),
                                      req(1, 10, 8, 192, 1),
                                      req(2, 20, 8, 192, 0)};
  const auto outcome = replay_trace(
      cfg, {hot, cold},
      fast_config(std::make_shared<ResidentChunkedPrefill>(48))
          .weight_residency_bytes(budget)
          .placement_policy(std::make_shared<DemandWeightedPlacement>()),
      trace);
  EXPECT_EQ(outcome.result.completed, 3u);
  EXPECT_GT(outcome.result.placement_denials, 0u);
  EXPECT_EQ(outcome.records[1].weight_pinned_layers, 0u);
  EXPECT_EQ(outcome.records[0].weight_pinned_layers, hot.llm.layers);
}

TEST(PlacementEngine, EvictIdleReclaimsAWarmPinUnderPressure) {
  // Model A's pin is kept warm past its retirement; model B's later
  // acquisition needs the room, evicts it (a placement eviction, not a
  // refcount release) and pins. Keep-current on the same trace evicts
  // A at retirement and records no placement activity.
  const core::ChipConfig cfg = small_cfg();
  const model::MllmConfig a = tiny_model();
  const model::MllmConfig b = tiny_model("tiny-mllm-b");
  const Bytes budget = full_weight_set(a, cfg);
  const auto probe = replay_trace(
      cfg, {a, b},
      fast_config(std::make_shared<ResidentChunkedPrefill>(48))
          .weight_residency_bytes(budget),
      {req(0, 0, 4, 192, 0)});
  const Cycle after = probe.records[0].finish + 1000;
  const std::vector<Request> trace = {req(0, 0, 4, 192, 0),
                                      req(1, after, 4, 192, 1)};
  const auto evict = replay_trace(
      cfg, {a, b},
      fast_config(std::make_shared<ResidentChunkedPrefill>(48))
          .weight_residency_bytes(budget)
          .placement_policy(std::make_shared<EvictIdleOnPressure>()),
      trace);
  const auto keep = replay_trace(
      cfg, {a, b},
      fast_config(std::make_shared<ResidentChunkedPrefill>(48))
          .weight_residency_bytes(budget),
      trace);

  EXPECT_EQ(evict.result.placement_evictions, 1u);
  EXPECT_EQ(evict.records[1].weight_pinned_layers, b.llm.layers);
  EXPECT_EQ(keep.result.placement_evictions, 0u);
  EXPECT_EQ(keep.records[1].weight_pinned_layers, b.llm.layers);
  // Either way the replay drains: no idle pin survives the flush.
  EXPECT_EQ(evict.result.completed, 2u);
}

TEST(PlacementEngine, RetainedPinsAreFlushedBeforeTheDrainAssert) {
  // An evict-idle replay ends with pins retained warm; run() flushes
  // them after the trace drains, so the tracker reports no holders and
  // no bytes, and the flush is NOT counted as a placement eviction.
  const core::ChipConfig cfg = small_cfg();
  const model::MllmConfig m = tiny_model();
  EngineConfig config =
      fast_config(std::make_shared<ResidentChunkedPrefill>(48))
          .weight_residency_bytes(2 * full_weight_set(m, cfg))
          .placement_policy(std::make_shared<EvictIdleOnPressure>());
  ServingEngine engine(cfg, {m}, std::move(config));
  const auto result = engine.run({req(0, 0, 4, 192), req(1, 0, 4, 144)});
  EXPECT_EQ(result.completed, 2u);
  EXPECT_EQ(result.placement_evictions, 0u);
  ASSERT_NE(engine.residency_tracker(), nullptr);
  EXPECT_EQ(engine.residency_tracker()->holders(), 0u);
  EXPECT_EQ(engine.residency_tracker()->pinned(), 0u);
  EXPECT_EQ(engine.residency_tracker()->idle_pins(), 0u);
}

}  // namespace
}  // namespace edgemm::serve
