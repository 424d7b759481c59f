// Shared refcounted model-level weight pins: one pin per model charged
// once against the residency budget, refcounted across that model's
// in-flight requests. Covers the tracker's attach/detach ledger
// semantics, the engine-level sharing seam (budget charged once, riders
// skip weight DMA once the fill lands, release on the LAST detach only),
// the different-model fallback edge, the capacity-0 determinism anchor,
// and the drained-engine pin-leak regression.
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

// --- Tracker: refcounted attach/detach ledger -------------------------------

TEST(SharedPinTracker, AttachChargesOnceAndRefcounts) {
  WeightResidencyTracker tracker(1000);
  const auto first = tracker.attach_layers(7, 300, 3);
  EXPECT_EQ(first.layers, 3u);
  EXPECT_FALSE(first.shared);
  EXPECT_EQ(tracker.pinned(), 900u);
  EXPECT_EQ(tracker.pins(), 1u);
  EXPECT_EQ(tracker.refcount(7), 1u);
  EXPECT_EQ(tracker.resident_layers(7), 3u);

  // Second attach under the same key: free ride, no bytes charged.
  const auto second = tracker.attach_layers(7, 300, 3);
  EXPECT_EQ(second.layers, 3u);
  EXPECT_TRUE(second.shared);
  EXPECT_EQ(tracker.pinned(), 900u);  // unchanged
  EXPECT_EQ(tracker.pins(), 1u);      // still one budget charge
  EXPECT_EQ(tracker.shared_attaches(), 1u);
  EXPECT_EQ(tracker.refcount(7), 2u);

  // Bytes are held until the LAST detach.
  tracker.detach(7);
  EXPECT_EQ(tracker.pinned(), 900u);
  EXPECT_EQ(tracker.refcount(7), 1u);
  tracker.detach(7);
  EXPECT_EQ(tracker.pinned(), 0u);
  EXPECT_EQ(tracker.refcount(7), 0u);
  EXPECT_EQ(tracker.resident_layers(7), 0u);
  EXPECT_THROW(tracker.detach(7), std::logic_error);
}

TEST(SharedPinTracker, FailedAttachHoldsNothingAndCountsOneFallback) {
  WeightResidencyTracker tracker(1000);
  ASSERT_EQ(tracker.attach_layers(1, 1000, 1).layers, 1u);
  // A different key cannot fit a single group: fallback, no refcount
  // entry, detach on it is a logic error.
  const auto losing = tracker.attach_layers(2, 1000, 1);
  EXPECT_EQ(losing.layers, 0u);
  EXPECT_FALSE(losing.shared);
  EXPECT_EQ(tracker.fallbacks(), 1u);
  EXPECT_EQ(tracker.refcount(2), 0u);
  EXPECT_THROW(tracker.detach(2), std::logic_error);
  // The loser may still ride key 1's pin once it shares the key (a
  // same-model request would).
  EXPECT_TRUE(tracker.attach_layers(1, 1000, 1).shared);
  EXPECT_EQ(tracker.shared_attaches(), 1u);
}

TEST(SharedPinTracker, RiderInheritsPartialPinAndPeakTracksSharedBytes) {
  WeightResidencyTracker tracker(1000);
  // Only 3 of 8 requested groups fit; a rider inherits exactly those 3.
  EXPECT_EQ(tracker.attach_layers(5, 300, 8).layers, 3u);
  const auto rider = tracker.attach_layers(5, 300, 8);
  EXPECT_TRUE(rider.shared);
  EXPECT_EQ(rider.layers, 3u);
  // Shared attaches never move the high-water mark: bytes exist once.
  EXPECT_EQ(tracker.peak_pinned(), 900u);
  EXPECT_EQ(tracker.attach_layers(5, 300, 8).layers, 3u);  // third rider
  EXPECT_EQ(tracker.peak_pinned(), 900u);
  EXPECT_EQ(tracker.refcount(5), 3u);
  EXPECT_THROW(tracker.attach_layers(5, 0, 8), std::invalid_argument);
  EXPECT_THROW(tracker.attach_layers(5, 300, 0), std::invalid_argument);
}

// --- Engine: one pin per model across in-flight requests --------------------

TEST(SharedPinEngine, SameModelRequestsChargeBudgetOnce) {
  const core::ChipConfig cfg = small_cfg();
  const model::MllmConfig m = tiny_model();
  const Bytes set = full_weight_set(m, cfg);
  // Room for TWO full layer-group sets — but sharing must charge one.
  const Bytes budget = 2 * set;
  // 192 = 4 x 48: both requests chunk into 4; request 1 is admitted while
  // request 0 is mid-prefill, so it attaches to the existing pin.
  const std::vector<Request> trace = {req(0, 0, 4, 192), req(1, 100, 4, 192)};
  const auto chunked = replay_trace(
      cfg, {m}, fast_config(std::make_shared<ChunkedPrefill>(48)), trace);
  const auto shared = replay_trace(
      cfg, {m},
      fast_config(std::make_shared<ResidentChunkedPrefill>(48))
          .weight_residency_bytes(budget),
      trace);

  EXPECT_EQ(shared.result.completed, 2u);
  EXPECT_EQ(shared.result.weight_pins, 1u);  // one budget charge...
  EXPECT_EQ(shared.result.weight_shared_attaches, 1u);  // ...one free ride
  EXPECT_EQ(shared.result.weight_pin_fallbacks, 0u);
  // Budget had room for two sets; the shared pin never charged twice.
  EXPECT_EQ(shared.result.peak_pinned_bytes, set);
  for (const RequestRecord& rec : shared.records) {
    EXPECT_EQ(rec.weight_pinned_layers, m.llm.layers);
    ASSERT_EQ(rec.prefill_chunks, 4u);
  }
  // Exact saved-bytes accounting: the owner fetches chunk 0 and rides
  // chunks 1..3 (3 sets); the rider rides all 4 of its chunks (4 sets),
  // minus the whole sets the fill barrier re-fetched for rider chunks
  // dispatched before the owner's fill landed. Riding the chunks it runs
  // after the owner's prefill retired proves the refcount held the bytes
  // until the last detach.
  EXPECT_EQ(shared.result.rider_refetch_bytes % set, 0u);
  EXPECT_EQ(shared.result.cc_weight_bytes_saved +
                shared.result.rider_refetch_bytes,
            7u * set);
  EXPECT_EQ(chunked.result.cc_weight_fetch_bytes -
                shared.result.cc_weight_fetch_bytes,
            shared.result.cc_weight_bytes_saved);
}

TEST(SharedPinEngine, DifferentModelFallsBackWhenSharedBudgetIsFull) {
  const core::ChipConfig cfg = small_cfg();
  const model::MllmConfig a = tiny_model();
  model::MllmConfig b = tiny_model();
  b.name = "tiny-mllm-b";
  // Budget fits exactly model A's layer groups; while A's shared pin is
  // held, a model-B request has nothing to attach to and no room to pin.
  const Bytes budget = full_weight_set(a, cfg);
  const std::vector<Request> trace = {req(0, 0, 4, 192, 0),
                                      req(1, 0, 4, 192, 0),
                                      req(2, 100, 4, 192, 1)};
  const auto outcome = replay_trace(
      cfg, {a, b},
      fast_config(std::make_shared<ResidentChunkedPrefill>(48))
          .weight_residency_bytes(budget),
      trace);

  EXPECT_EQ(outcome.result.completed, 3u);
  // A charged once, A's second request rode, B fell back at least once
  // while the budget was genuinely full.
  EXPECT_GE(outcome.result.weight_pin_fallbacks, 1u);
  EXPECT_EQ(outcome.result.weight_shared_attaches, 1u);
  // Never more than one model's set resident at a time: B only ever pins
  // AFTER model A's last rider detached (sets are equal-sized here).
  EXPECT_EQ(outcome.result.peak_pinned_bytes, budget);
}

// --- Determinism anchors ----------------------------------------------------

TEST(SharedPinEngine, CapacityZeroStillDegradesToChunkedByteForByte) {
  // A residency-capable planner with no budget must replay EXACTLY as
  // ChunkedPrefill.
  const std::vector<Request> trace = {req(0, 0, 6, 144), req(1, 500, 5, 96)};
  const auto chunked = replay_trace(
      small_cfg(), {tiny_model()},
      fast_config(std::make_shared<ChunkedPrefill>(48)), trace);
  const auto shared = replay_trace(
      small_cfg(), {tiny_model()},
      fast_config(std::make_shared<ResidentChunkedPrefill>(48)), trace);
  ASSERT_EQ(shared.records.size(), chunked.records.size());
  for (std::size_t i = 0; i < chunked.records.size(); ++i) {
    EXPECT_EQ(shared.records[i].finish, chunked.records[i].finish);
    EXPECT_EQ(shared.records[i].prefill_end, chunked.records[i].prefill_end);
    EXPECT_EQ(shared.records[i].weight_pinned_layers, 0u);
  }
  EXPECT_EQ(shared.result.cc_weight_fetch_bytes,
            chunked.result.cc_weight_fetch_bytes);
  EXPECT_EQ(shared.result.weight_shared_attaches, 0u);
}

// --- Pin lifetime on every exit path ----------------------------------------

TEST(SharedPinEngine, DrainedEngineHoldsNoPinsOnAnyExitPath) {
  // Exercise every way a request leaves the system in one replay —
  // prefill retirement (shared riders included), SLO rejection of a
  // judged-and-planned queue head, and KV-deferral churn on the decode
  // side — then assert the residency ledger is completely drained.
  const core::ChipConfig cfg = small_cfg();
  const model::MllmConfig m = tiny_model();
  const Bytes budget = full_weight_set(m, cfg);
  Request hopeless = req(5, 200, 8, 192);
  hopeless.deadline = hopeless.arrival + 1;  // always rejected
  const std::vector<Request> trace = {req(0, 0, 8, 192), req(1, 0, 8, 192),
                                      hopeless, req(3, 300, 8, 144)};
  EngineConfig config =
      EngineConfig()
          .scheduler(std::make_shared<SloAwarePolicy>(AdmissionLimits{4, 8}))
          .prefill_planner(std::make_shared<ResidentChunkedPrefill>(48))
          .manage_bandwidth(false)
          .weight_residency_bytes(budget)
          .kv_capacity_bytes(kv_footprint_bytes(req(0, 0, 8, 192), m));
  ServingEngine engine(cfg, {m}, std::move(config));
  const auto result = engine.run(trace);

  EXPECT_EQ(result.completed + result.rejected, trace.size());
  EXPECT_GE(result.rejected, 1u);
  EXPECT_GT(result.kv_deferrals, 0u);
  EXPECT_GT(result.weight_pins + result.weight_shared_attaches, 0u);
  ASSERT_NE(engine.residency_tracker(), nullptr);
  EXPECT_EQ(engine.residency_tracker()->pinned(), 0u);
  EXPECT_EQ(engine.residency_tracker()->holders(), 0u);
  ASSERT_NE(engine.kv_pages(), nullptr);
  EXPECT_EQ(engine.kv_pages()->resident_bytes(), 0u);
}

}  // namespace
}  // namespace edgemm::serve
