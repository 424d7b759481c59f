// Weight-resident chunk chaining: the WeightResidencyTracker ledger
// edge cases and the engine-level seam — a zero budget degrades
// byte-for-byte to ChunkedPrefill, a funded budget strictly cuts CC
// weight traffic, contention between models falls back to re-fetch
// instead of stalling.
#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
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

// --- Tracker ledger ---------------------------------------------------------

TEST(WeightResidencyTracker, ExactCapacityPinSucceeds) {
  WeightResidencyTracker tracker(1024);
  EXPECT_EQ(tracker.attach_layers(1, 1024, 1).layers, 1u);
  EXPECT_EQ(tracker.pinned(), 1024u);
  EXPECT_EQ(tracker.available(), 0u);
  EXPECT_EQ(tracker.pins(), 1u);
  EXPECT_EQ(tracker.fallbacks(), 0u);
  EXPECT_EQ(tracker.peak_pinned(), 1024u);
}

TEST(WeightResidencyTracker, OneByteOverFallsBackToRefetch) {
  WeightResidencyTracker tracker(1024);
  ASSERT_EQ(tracker.attach_layers(1, 1024, 1).layers, 1u);
  EXPECT_EQ(tracker.attach_layers(2, 1, 1).layers, 0u);
  EXPECT_EQ(tracker.fallbacks(), 1u);
  EXPECT_EQ(tracker.holders(), 1u);  // the loser holds nothing
}

TEST(WeightResidencyTracker, ReleaseOnCompletionFreesBytes) {
  WeightResidencyTracker tracker(1024);
  ASSERT_EQ(tracker.attach_layers(1, 1000, 1).layers, 1u);
  ASSERT_EQ(tracker.attach_layers(2, 512, 1).layers, 0u);
  tracker.detach(1);  // eviction when the owning request retires
  EXPECT_EQ(tracker.pinned(), 0u);
  EXPECT_EQ(tracker.attach_layers(2, 512, 1).layers, 1u);
  EXPECT_EQ(tracker.peak_pinned(), 1000u);  // high-water mark survives
}

TEST(WeightResidencyTracker, DuplicateAndUnknownAreLogicErrors) {
  WeightResidencyTracker tracker(1024);
  ASSERT_EQ(tracker.attach_layers(1, 10, 1).layers, 1u);
  // A second attach under a held key rides the pin: no duplicate hold.
  EXPECT_TRUE(tracker.attach_layers(1, 10, 1).shared);
  EXPECT_EQ(tracker.pinned(), 10u);
  EXPECT_EQ(tracker.holders(), 1u);
  EXPECT_THROW(tracker.detach(7), std::logic_error);
  EXPECT_THROW(tracker.evict_idle(7), std::logic_error);
  EXPECT_THROW(WeightResidencyTracker(0), std::invalid_argument);
}

TEST(WeightResidencyTracker, PinsWholeLayerGroupsPartially) {
  WeightResidencyTracker tracker(1000);
  // 3 groups of 300 fit a 1000-byte budget; the 4th would not.
  EXPECT_EQ(tracker.attach_layers(1, 300, 8).layers, 3u);
  EXPECT_EQ(tracker.pinned(), 900u);
  // No whole group left: fallback, counted.
  EXPECT_EQ(tracker.attach_layers(2, 300, 8).layers, 0u);
  EXPECT_EQ(tracker.fallbacks(), 1u);
  EXPECT_THROW(tracker.attach_layers(3, 0, 8), std::invalid_argument);
  EXPECT_THROW(tracker.attach_layers(3, 300, 0), std::invalid_argument);
}

TEST(WeightResidencyTracker, PartialPinPathUpdatesPeakAndPinCounters) {
  // peak_pinned_ must track the PARTIAL-pin path too, not just pins that
  // take whole budget-sized bites.
  WeightResidencyTracker tracker(1000);
  EXPECT_EQ(tracker.attach_layers(1, 300, 2).layers, 2u);  // capped by max_layers
  EXPECT_EQ(tracker.pinned(), 600u);
  EXPECT_EQ(tracker.peak_pinned(), 600u);
  EXPECT_EQ(tracker.pins(), 1u);
  EXPECT_EQ(tracker.attach_layers(2, 300, 8).layers, 1u);  // capped by the budget
  EXPECT_EQ(tracker.pinned(), 900u);
  EXPECT_EQ(tracker.peak_pinned(), 900u);
  EXPECT_EQ(tracker.pins(), 2u);
  tracker.detach(1);
  EXPECT_EQ(tracker.pinned(), 300u);
  EXPECT_EQ(tracker.peak_pinned(), 900u);  // high-water mark survives
}

TEST(WeightResidencyTracker, ZeroLayerPartialResultCountsExactlyOneFallback) {
  // A budget that cannot fit one layer group is ONE fallback — not one
  // per candidate layer, and not a pin with zero layers.
  WeightResidencyTracker tracker(100);
  EXPECT_EQ(tracker.attach_layers(1, 300, 8).layers, 0u);
  EXPECT_EQ(tracker.fallbacks(), 1u);
  EXPECT_EQ(tracker.pins(), 0u);
  EXPECT_EQ(tracker.holders(), 0u);
  EXPECT_EQ(tracker.peak_pinned(), 0u);
  EXPECT_EQ(tracker.attach_layers(2, 101, 1).layers, 0u);
  EXPECT_EQ(tracker.fallbacks(), 2u);  // exactly one more
}

TEST(WeightResidencyTracker, ConservesBytesUnderRandomLifecycles) {
  // Seeded random attach / detach (keep or evict) / mark_filled /
  // evict_idle / evict_all_idle sequences over three keys of different
  // group sizes on a budget of a few groups, checked after every
  // operation against an independent model of each pin's layers,
  // refcount and fill state. Illegal operations must throw and change
  // nothing.
  struct ModelPin {
    std::size_t layers = 0;
    std::size_t refs = 0;
    bool filled = false;
  };
  constexpr Bytes kCapacity = 1000;
  const std::array<Bytes, 3> group = {300, 250, 400};
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    WeightResidencyTracker tracker(kCapacity);
    std::map<PinKey, ModelPin> model;
    Bytes last_peak = 0;
    for (std::size_t op = 0; op < 300; ++op) {
      const PinKey key = rng() % group.size();
      const auto it = model.find(key);
      switch (rng() % 6) {
        case 0:
        case 1: {
          const std::size_t max_layers = 1 + rng() % 4;
          Bytes held = 0;
          for (const auto& [k, pin] : model) held += pin.layers * group[k];
          const auto result = tracker.attach_layers(key, group[key], max_layers);
          if (it != model.end()) {
            EXPECT_TRUE(result.shared);
            EXPECT_EQ(result.warm, it->second.refs == 0);
            EXPECT_EQ(result.layers, it->second.layers);
            ++it->second.refs;
          } else {
            const std::size_t fit = std::min<std::size_t>(
                max_layers, (kCapacity - held) / group[key]);
            EXPECT_FALSE(result.shared);
            EXPECT_EQ(result.layers, fit);
            if (fit > 0) model[key] = {fit, 1, false};
          }
          break;
        }
        case 2: {
          const bool keep = rng() % 2 == 0;
          if (it == model.end() || it->second.refs == 0) {
            EXPECT_THROW(tracker.detach(key, keep), std::logic_error);
            break;
          }
          tracker.detach(key, keep);
          if (--it->second.refs == 0 && !keep) model.erase(it);
          break;
        }
        case 3:
          if (it == model.end()) {
            EXPECT_THROW(tracker.mark_filled(key), std::logic_error);
            break;
          }
          tracker.mark_filled(key);
          it->second.filled = true;
          break;
        case 4:
          if (it == model.end() || it->second.refs > 0) {
            EXPECT_THROW(tracker.evict_idle(key), std::logic_error);
            break;
          }
          tracker.evict_idle(key);
          model.erase(it);
          break;
        default: {
          std::size_t idle = 0;
          for (auto m = model.begin(); m != model.end();) {
            if (m->second.refs == 0) {
              m = model.erase(m);
              ++idle;
            } else {
              ++m;
            }
          }
          EXPECT_EQ(tracker.evict_all_idle(), idle);
          break;
        }
      }
      Bytes expected = 0;
      std::size_t idle_pins = 0;
      for (PinKey k = 0; k < group.size(); ++k) {
        const auto m = model.find(k);
        const ModelPin pin = m == model.end() ? ModelPin{} : m->second;
        ASSERT_EQ(tracker.resident_layers(k), pin.layers) << "op " << op;
        ASSERT_EQ(tracker.refcount(k), pin.refs) << "op " << op;
        ASSERT_EQ(tracker.filled(k), pin.filled) << "op " << op;
        expected += tracker.resident_layers(k) * group[k];
        if (m != model.end() && pin.refs == 0) ++idle_pins;
      }
      ASSERT_EQ(tracker.pinned(), expected) << "op " << op;
      ASSERT_EQ(tracker.available(), tracker.capacity() - tracker.pinned());
      ASSERT_EQ(tracker.holders(), model.size()) << "op " << op;
      ASSERT_EQ(tracker.idle_pins(), idle_pins) << "op " << op;
      ASSERT_GE(tracker.peak_pinned(), last_peak) << "op " << op;
      ASSERT_GE(tracker.peak_pinned(), tracker.pinned()) << "op " << op;
      last_peak = tracker.peak_pinned();
    }
  }
}

TEST(WeightResidencyCapacity, ScalesWithTcdmAndOversubscription) {
  const core::ChipConfig cfg = small_cfg();
  const Bytes base = chip_weight_residency_capacity(cfg);
  EXPECT_EQ(base, cfg.total_cc_clusters() * cfg.cc_cluster_tcdm_bytes);
  EXPECT_EQ(chip_weight_residency_capacity(cfg, 4.0), 4 * base);
  EXPECT_THROW(chip_weight_residency_capacity(cfg, 0.0),
               std::invalid_argument);
}

// --- Engine seam ------------------------------------------------------------

TEST(ResidentChunkedPrefillEngine, CapacityZeroReproducesChunkedByteForByte) {
  // The determinism anchor: ResidentChunkedPrefill with no residency
  // budget must replay EXACTLY as ChunkedPrefill — same chunks, same
  // timestamps, same traffic.
  const std::vector<Request> trace = {req(0, 0, 6, 128), req(1, 500, 5, 96),
                                      req(2, 900, 4, 200)};
  const auto chunked = replay_trace(
      small_cfg(), {tiny_model()},
      fast_config(std::make_shared<ChunkedPrefill>(48)), trace);
  const auto resident = replay_trace(
      small_cfg(), {tiny_model()},
      fast_config(std::make_shared<ResidentChunkedPrefill>(48)), trace);

  ASSERT_EQ(resident.records.size(), chunked.records.size());
  for (std::size_t i = 0; i < chunked.records.size(); ++i) {
    const RequestRecord& a = chunked.records[i];
    const RequestRecord& b = resident.records[i];
    EXPECT_EQ(b.admitted, a.admitted);
    EXPECT_EQ(b.prefill_start, a.prefill_start);
    EXPECT_EQ(b.prefill_end, a.prefill_end);
    EXPECT_EQ(b.first_token, a.first_token);
    EXPECT_EQ(b.finish, a.finish);
    EXPECT_EQ(b.tokens_generated, a.tokens_generated);
    EXPECT_EQ(b.prefill_chunks, a.prefill_chunks);
    EXPECT_EQ(b.weight_pinned_layers, 0u);
  }
  EXPECT_EQ(resident.result.makespan, chunked.result.makespan);
  EXPECT_EQ(resident.result.cc_weight_fetch_bytes,
            chunked.result.cc_weight_fetch_bytes);
  EXPECT_EQ(resident.result.cc_weight_bytes_saved, 0u);
  EXPECT_EQ(resident.result.weight_pins, 0u);
}

TEST(ResidentChunkedPrefillEngine, FundedBudgetStrictlyCutsWeightTraffic) {
  // Two models, one request each: each request charges and rides its own
  // model's pin, with no riders to share it. The shared-pin accounting
  // lives in test_shared_pins.cpp.
  const core::ChipConfig cfg = small_cfg();
  const std::vector<model::MllmConfig> models = {tiny_model(),
                                                 tiny_model("tiny-mllm-b")};
  const std::vector<Request> trace = {req(0, 0, 4, 192, 0),
                                      req(1, 100, 4, 192, 1)};
  const Bytes budget = 2 * full_weight_set(tiny_model(), cfg);
  const auto chunked = replay_trace(
      cfg, models, fast_config(std::make_shared<ChunkedPrefill>(48)), trace);
  const auto resident = replay_trace(
      cfg, models,
      fast_config(std::make_shared<ResidentChunkedPrefill>(48))
          .weight_residency_bytes(budget),
      trace);

  EXPECT_LT(resident.result.cc_weight_fetch_bytes,
            chunked.result.cc_weight_fetch_bytes);
  EXPECT_GT(resident.result.cc_weight_bytes_saved, 0u);
  EXPECT_LE(resident.result.makespan, chunked.result.makespan);
  // Both requests fit the budget: both pinned every layer group, and
  // the saved bytes are exactly the re-fetches chunking would have paid
  // (chunks beyond the first, all layers pinned).
  EXPECT_EQ(resident.result.weight_pins, 2u);
  for (const RequestRecord& rec : resident.records) {
    EXPECT_EQ(rec.weight_pinned_layers, tiny_model().llm.layers);
    ASSERT_EQ(rec.prefill_chunks, 4u);  // 192 = 4 x 48
  }
  EXPECT_EQ(resident.result.cc_weight_bytes_saved,
            2u * 3u * full_weight_set(tiny_model(), cfg));
  // What chunking re-fetched is exactly what residency saved.
  EXPECT_EQ(chunked.result.cc_weight_fetch_bytes -
                resident.result.cc_weight_fetch_bytes,
            resident.result.cc_weight_bytes_saved);
  EXPECT_EQ(resident.result.weight_shared_attaches, 0u);
}

TEST(ResidentChunkedPrefillEngine, ContentionFallsBackAndNeverStalls) {
  const core::ChipConfig cfg = small_cfg();
  // Budget for ONE model's layer groups; requests of two models prefill
  // concurrently — the loser re-fetches every chunk but still completes.
  // (Same-model requests would not contend: the second rides the first's
  // pin; see test_shared_pins.cpp.)
  const Bytes budget = full_weight_set(tiny_model(), cfg);
  const std::vector<Request> trace = {req(0, 0, 4, 192, 0),
                                      req(1, 0, 4, 192, 1)};
  const auto outcome = replay_trace(
      cfg, {tiny_model(), tiny_model("tiny-mllm-b")},
      fast_config(std::make_shared<ResidentChunkedPrefill>(48))
          .weight_residency_bytes(budget),
      trace);

  EXPECT_EQ(outcome.result.completed, 2u);
  EXPECT_GE(outcome.result.weight_pin_fallbacks, 1u);
  EXPECT_GE(outcome.result.weight_pins, 1u);
  EXPECT_EQ(outcome.result.peak_pinned_bytes, budget);
  // Exactly one of the two overlapping requests held the budget first;
  // the other may still pin late (after the winner's prefill retires).
  EXPECT_EQ(outcome.records[0].weight_pinned_layers,
            tiny_model().llm.layers);
}

TEST(ResidentChunkedPrefillEngine, SingleChunkPlanNeverPins) {
  const core::ChipConfig cfg = small_cfg();
  const auto outcome = replay_trace(
      cfg, {tiny_model()},
      fast_config(std::make_shared<ResidentChunkedPrefill>(256))
          .weight_residency_bytes(4 * full_weight_set(tiny_model(), cfg)),
      {req(0, 0, 4, 128)});  // 128 <= 256: one chunk, nothing to chain
  EXPECT_EQ(outcome.result.weight_pins, 0u);
  EXPECT_EQ(outcome.result.cc_weight_bytes_saved, 0u);
  EXPECT_EQ(outcome.records[0].weight_pinned_layers, 0u);
}

TEST(ResidentChunkedPrefillEngine, LaneChainingVariantStillCompletes) {
  const core::ChipConfig cfg = small_cfg();
  const Bytes budget = full_weight_set(tiny_model(), cfg);
  const std::vector<Request> trace = {req(0, 0, 4, 192), req(1, 50, 4, 192),
                                      req(2, 80, 4, 96)};
  const auto outcome = replay_trace(
      cfg, {tiny_model()},
      fast_config(std::make_shared<ResidentChunkedPrefill>(
                      48, /*chain_lane_affinity=*/true))
          .weight_residency_bytes(budget),
      trace);
  EXPECT_EQ(outcome.result.completed, 3u);
  EXPECT_GE(outcome.result.weight_pins, 1u);
}

TEST(ResidentChunkedPrefillEngine, MiswiredCompositionIsRejected) {
  // A residency budget without a residency-capable planner is a config
  // bug, not a silent no-op.
  EXPECT_THROW(ServingEngine(small_cfg(), {tiny_model()},
                             fast_config(std::make_shared<ChunkedPrefill>(48))
                                 .weight_residency_bytes(1024)),
               std::invalid_argument);
  // A budget beyond the modeled oversubscription of the physical TCDM
  // is rejected against the ChipConfig at engine construction.
  const Bytes too_big =
      chip_weight_residency_capacity(small_cfg(),
                                     kMaxWeightResidencyOversubscription) +
      1;
  EXPECT_THROW(
      ServingEngine(small_cfg(), {tiny_model()},
                    fast_config(std::make_shared<ResidentChunkedPrefill>(48))
                        .weight_residency_bytes(too_big)),
      std::invalid_argument);
}

}  // namespace
}  // namespace edgemm::serve
