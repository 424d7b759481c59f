// Property suite for the QualityPolicy seam: band clamping, hysteresis,
// monotonicity, StaticQuality byte-identity, quality-ledger conservation,
// pinned-byte invariance under mid-request degradation, and determinism
// across replay tiers, sweep workers, and cluster chips.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/gpu_model.hpp"
#include "core/pipeline.hpp"
#include "model/workload.hpp"
#include "serve/cluster/cluster_engine.hpp"
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

model::MllmConfig tiny_model() {
  model::MllmConfig m;
  m.name = "tiny-mllm";
  m.encoders = {{"enc", 2, 256, 512, 4, 4, 0, false}};
  m.vision_tokens = 16;
  m.projector_params = 0;
  m.llm = {"llm", 2, 256, 512, 4, 4, 1024, true};
  return m;
}

model::MllmConfig heavy_model() {
  model::MllmConfig m = tiny_model();
  m.name = "heavy-mllm";
  m.llm = {"llm", 4, 512, 1024, 8, 8, 1024, true};
  return m;
}

EngineConfig base_config() {
  return EngineConfig()
      .scheduler(std::make_shared<ConcurrencyPolicy>(AdmissionLimits{4, 8}))
      .prefill_planner(std::make_shared<ChunkedPrefill>(128))
      .manage_bandwidth(false);
}

/// Overloaded bursty trace: arrivals outrun the chip so the queue deepens
/// and deadline pressure builds — the regime dynamic quality exists for.
std::vector<Request> bursty_trace(std::size_t requests = 24,
                                  bool deadlines = false) {
  TraceConfig cfg;
  cfg.requests = requests;
  cfg.arrival_rate_per_s = 2000.0;
  cfg.burst = 4;
  cfg.input_tokens = 640;
  cfg.min_output_tokens = 2;
  cfg.max_output_tokens = 8;
  if (deadlines) {
    cfg.slo_base_ms = 30.0;
    cfg.slo_per_token_ms = 3.0;
  }
  cfg.seed = 77;
  return poisson_trace(cfg);
}

/// Test double: always returns the same raw fraction — what a degraded
/// steady state looks like, and a probe for the engine's band clamp.
class FixedQuality final : public QualityPolicy {
 public:
  explicit FixedQuality(double fraction) : fraction_(fraction) {}
  const char* name() const override { return "fixed-quality"; }
  double keep_fraction(const Request&, const QualityContext&) const override {
    return fraction_;
  }

 private:
  double fraction_;
};

/// Test double: degrades exactly one model's requests, co-tenants keep
/// their base — isolates per-request/per-model quality bookkeeping.
class DegradeModelQuality final : public QualityPolicy {
 public:
  DegradeModelQuality(std::size_t model, double fraction)
      : model_(model), fraction_(fraction) {}
  const char* name() const override { return "degrade-model"; }
  double keep_fraction(const Request& r,
                       const QualityContext& ctx) const override {
    return r.model == model_ ? fraction_ : ctx.base_keep;
  }

 private:
  std::size_t model_;
  double fraction_;
};

/// Test double: QueueDepthQuality at admission, but once a request is
/// degraded it HOLDS its fraction — every later judgment is a pure
/// function of arrival/admission ORDER, never of sub-percent timing
/// drift between replay tiers (what the cross-tier fidelity test needs).
class StickyQueueDepthQuality final : public QualityPolicy {
 public:
  StickyQueueDepthQuality(std::size_t low_depth, std::size_t high_depth)
      : inner_(low_depth, high_depth) {}
  const char* name() const override { return "sticky-queue-depth"; }
  double keep_fraction(const Request& r,
                       const QualityContext& ctx) const override {
    if (ctx.current_keep < ctx.base_keep) return ctx.current_keep;
    return inner_.keep_fraction(r, ctx);
  }

 private:
  QueueDepthQuality inner_;
};

/// Test double: degrades exactly one request id.
class DegradeRequestQuality final : public QualityPolicy {
 public:
  DegradeRequestQuality(RequestId id, double fraction)
      : id_(id), fraction_(fraction) {}
  const char* name() const override { return "degrade-request"; }
  double keep_fraction(const Request& r,
                       const QualityContext& ctx) const override {
    return r.id == id_ ? fraction_ : ctx.base_keep;
  }

 private:
  RequestId id_;
  double fraction_;
};

/// Test double: holds every request at its current fraction and logs
/// each judgment's context, in judgment order.
class RecordingQuality final : public QualityPolicy {
 public:
  const char* name() const override { return "recording-quality"; }
  double keep_fraction(const Request&,
                       const QualityContext& ctx) const override {
    judgments.push_back(ctx);
    return ctx.current_keep;
  }

  mutable std::vector<QualityContext> judgments;
};

/// Test double: admits everything, joins every ready request, and logs
/// each admission context.
class RecordingScheduler final : public SchedulerPolicy {
 public:
  const char* name() const override { return "recording-scheduler"; }
  AdmissionVerdict admit(const Request&,
                         const AdmissionContext& ctx) const override {
    admissions.push_back(ctx);
    return AdmissionVerdict::kAdmit;
  }
  std::size_t decode_join_count(std::size_t, std::size_t ready) const override {
    return ready;
  }

  mutable std::vector<AdmissionContext> admissions;
};

/// One request alone on the chip: 640 prompt tokens, 4 output tokens,
/// arriving at cycle 0 with an absolute `deadline` (0 = none).
std::vector<Request> lone_request(Cycle deadline = 0) {
  Request r;
  r.input_tokens = 640;
  r.output_tokens = 4;
  r.deadline = deadline;
  return {r};
}

QualityContext pressured_ctx(Cycle deadline, Cycle estimated_finish,
                             double current = 1.0) {
  QualityContext ctx;
  ctx.now = 1000;
  ctx.deadline = deadline;
  ctx.estimated_finish = estimated_finish;
  ctx.base_keep = 1.0;
  ctx.current_keep = current;
  return ctx;
}

// --- Policy unit properties -------------------------------------------------

TEST(QualityPolicy, StaticReturnsBaseKeepUnderAnyPressure) {
  StaticQuality policy;
  Request r;
  QualityContext ctx = pressured_ctx(10, 1'000'000, 0.5);
  ctx.base_keep = 0.7;
  ctx.queue_depth = 99;
  EXPECT_EQ(policy.keep_fraction(r, ctx), 0.7);
  ctx.base_keep = 1.0;
  EXPECT_EQ(policy.keep_fraction(r, ctx), 1.0);
}

TEST(QualityPolicy, SloPressureTightensOnPredictedMiss) {
  SloPressureQuality policy(0.125, 0.25);
  Request r;
  r.arrival = 0;
  const double got =
      policy.keep_fraction(r, pressured_ctx(/*deadline=*/5000,
                                            /*estimated_finish=*/6000, 1.0));
  EXPECT_DOUBLE_EQ(got, 1.0 - 0.125);
}

TEST(QualityPolicy, SloPressureRelaxesOnlyPastTheMargin) {
  SloPressureQuality policy(0.125, 0.25);
  Request r;
  r.arrival = 0;
  // Window = 10000; relax needs slack >= 2500.
  EXPECT_DOUBLE_EQ(
      policy.keep_fraction(r, pressured_ctx(10000, 7000, 0.5)),  // slack 3000
      0.5 + 0.125);
  EXPECT_DOUBLE_EQ(
      policy.keep_fraction(r, pressured_ctx(10000, 8000, 0.5)),  // slack 2000
      0.5);  // dead band: meets the deadline but not the margin
}

TEST(QualityPolicy, SloPressureHoldsWithoutADeadline) {
  SloPressureQuality policy;
  Request r;
  EXPECT_DOUBLE_EQ(policy.keep_fraction(r, pressured_ctx(0, 1'000'000, 0.625)),
                   0.625);
}

TEST(QualityPolicy, SloPressureIsMonotoneInPressure) {
  // At a fixed current fraction, a later estimated finish never yields a
  // HIGHER fraction.
  SloPressureQuality policy(0.125, 0.25);
  Request r;
  r.arrival = 0;
  double prev = 2.0;
  for (Cycle finish = 1000; finish <= 20000; finish += 500) {
    const double got = policy.keep_fraction(r, pressured_ctx(10000, finish, 0.5));
    EXPECT_LE(got, prev) << "finish=" << finish;
    prev = got;
  }
}

TEST(QualityPolicy, SloPressureDeadBandCannotOscillate) {
  // Iterate the controller at CONSTANT pressure inside the dead band
  // (meets the deadline, misses the relax margin): the fraction must be
  // a fixed point, not a limit cycle.
  SloPressureQuality policy(0.125, 0.25);
  Request r;
  r.arrival = 0;
  double keep = 0.5;
  for (int i = 0; i < 32; ++i) {
    const double next =
        policy.keep_fraction(r, pressured_ctx(10000, 8000, keep));
    EXPECT_DOUBLE_EQ(next, keep) << "iteration " << i;
    keep = next;
  }
}

TEST(QualityPolicy, SloPressureValidatesParameters) {
  EXPECT_THROW(SloPressureQuality(0.0), std::invalid_argument);
  EXPECT_THROW(SloPressureQuality(1.5), std::invalid_argument);
  EXPECT_THROW(SloPressureQuality(0.125, -0.1), std::invalid_argument);
  // A NaN margin fails no ordered comparison: the policy would never relax.
  EXPECT_THROW(
      SloPressureQuality(0.125, std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
  EXPECT_NO_THROW(SloPressureQuality(1.0, 0.0));
}

TEST(QualityPolicy, QueueDepthServesTheBandEndpoints) {
  QueueDepthQuality policy(2, 8);
  Request r;
  QualityContext ctx;
  ctx.min_keep = 0.25;
  ctx.max_keep = 1.0;
  ctx.queue_depth = 0;
  EXPECT_DOUBLE_EQ(policy.keep_fraction(r, ctx), 1.0);
  ctx.queue_depth = 2;
  EXPECT_DOUBLE_EQ(policy.keep_fraction(r, ctx), 1.0);
  ctx.queue_depth = 8;
  EXPECT_DOUBLE_EQ(policy.keep_fraction(r, ctx), 0.25);
  ctx.queue_depth = 50;
  EXPECT_DOUBLE_EQ(policy.keep_fraction(r, ctx), 0.25);
}

TEST(QualityPolicy, QueueDepthInterpolatesMonotonically) {
  QueueDepthQuality policy(2, 8);
  Request r;
  QualityContext ctx;
  ctx.min_keep = 0.25;
  ctx.max_keep = 1.0;
  double prev = 2.0;
  for (std::size_t depth = 0; depth <= 12; ++depth) {
    ctx.queue_depth = depth;
    const double got = policy.keep_fraction(r, ctx);
    EXPECT_LE(got, prev) << "depth=" << depth;
    EXPECT_GE(got, ctx.min_keep);
    EXPECT_LE(got, ctx.max_keep);
    prev = got;
  }
}

TEST(QualityPolicy, QueueDepthValidatesThresholds) {
  EXPECT_THROW(QueueDepthQuality(8, 8), std::invalid_argument);
  EXPECT_THROW(QueueDepthQuality(9, 8), std::invalid_argument);
  EXPECT_NO_THROW(QueueDepthQuality(0, 1));
}

TEST(QualityPolicy, PolicyNamesAreStable) {
  EXPECT_STREQ(StaticQuality{}.name(), "static-quality");
  EXPECT_STREQ(SloPressureQuality{}.name(), "slo-pressure");
  EXPECT_STREQ(QueueDepthQuality{}.name(), "queue-depth-quality");
}

// --- Config + accuracy proxy ------------------------------------------------

TEST(QualityPolicy, ConfigValidationGuardsTheSeam) {
  EXPECT_THROW(base_config().quality_policy(nullptr), std::invalid_argument);
  EXPECT_THROW(base_config().quality_band(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(base_config().quality_band(0.5, 0.25), std::invalid_argument);
  EXPECT_THROW(base_config().quality_band(0.5, 1.5), std::invalid_argument);
  // A NaN ceiling fails no ordered comparison: judgments would be served
  // unclamped.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(base_config().quality_band(0.5, nan), std::invalid_argument);
  EXPECT_THROW(base_config().quality_band(nan, 1.0), std::invalid_argument);
  EXPECT_NO_THROW(base_config().quality_band(0.25, 1.0).validate());
  EXPECT_NO_THROW(
      base_config()
          .quality_policy(std::make_shared<SloPressureQuality>())
          .validate());
}

TEST(QualityPolicy, AccuracyProxyIsExactAtFullKeepAndBoundedBelow) {
  const model::MllmConfig m = tiny_model();
  EXPECT_DOUBLE_EQ(quality_accuracy_proxy(m, 1.0), 1.0);
  const double half = quality_accuracy_proxy(m, 0.5);
  EXPECT_GE(half, 0.0);
  EXPECT_LE(half, 1.0);
  // Deterministic: same model + fraction prices identically.
  EXPECT_EQ(quality_accuracy_proxy(m, 0.5), half);
  EXPECT_THROW(quality_accuracy_proxy(m, 0.0), std::invalid_argument);
  EXPECT_THROW(quality_accuracy_proxy(m, -0.5), std::invalid_argument);
}

// --- Workload builder properties --------------------------------------------

TEST(QualityPolicy, PrefillChunkAtFullKeepIsBitIdentical) {
  const model::MllmConfig m = tiny_model();
  const auto plain = model::build_prefill_chunk(m, 0, 128, 640);
  const auto keep1 = model::build_prefill_chunk(m, 0, 128, 640, 0, 1.0, 0);
  ASSERT_EQ(plain.size(), keep1.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].m, keep1[i].m);
    EXPECT_EQ(plain[i].k, keep1[i].k);
    EXPECT_EQ(plain[i].n, keep1[i].n);
  }
}

TEST(QualityPolicy, PrefillFfnKeepShrinksOnlyStreamedFfnLayers) {
  const model::MllmConfig m = tiny_model();  // 2 LLM layers, gated MLP
  const auto full = model::build_prefill_chunk(m, 0, 128, 640);
  // Layer 0 protected (pinned-at-full), layer 1 pruned to 0.5.
  const auto pruned =
      model::build_prefill_chunk(m, 0, 128, 640, 0, 0.5, /*full_keep=*/1);
  ASSERT_EQ(full.size(), pruned.size());
  const std::size_t per_layer = full.size() / 2;
  std::size_t shrunk = 0;
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i].m, pruned[i].m);
    EXPECT_EQ(full[i].n, pruned[i].n);
    if (i < per_layer) {
      EXPECT_EQ(full[i].k, pruned[i].k) << "protected layer op " << i;
    } else if (pruned[i].k != full[i].k) {
      // Only FFN k dims shrink, with pruned_ops' ceil-floor-1 rounding.
      const auto want = std::max<std::size_t>(
          static_cast<std::size_t>(
              std::ceil(static_cast<double>(full[i].k) * 0.5)),
          1);
      EXPECT_EQ(pruned[i].k, want);
      ++shrunk;
    }
  }
  EXPECT_EQ(shrunk, 3u);  // up + gate + down of the one unprotected layer
}

TEST(QualityPolicy, DecodeStepKeepOverloadMatchesPrunedOps) {
  const model::MllmConfig m = tiny_model();
  const std::vector<model::DecodeSlot> batch{{300}, {512, 7}};
  const auto direct = model::build_decode_step(m, batch, 0.5);
  const auto via_pruned =
      core::pruned_ops(model::build_decode_step(m, batch), 0.5);
  ASSERT_EQ(direct.size(), via_pruned.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(direct[i].m, via_pruned[i].m);
    EXPECT_EQ(direct[i].k, via_pruned[i].k);
    EXPECT_EQ(direct[i].n, via_pruned[i].n);
  }
}

TEST(QualityPolicy, PrefillChunkValidatesQualityArguments) {
  const model::MllmConfig m = tiny_model();
  EXPECT_THROW(model::build_prefill_chunk(m, 0, 128, 640, 0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(model::build_prefill_chunk(m, 0, 128, 640, 0, 1.5),
               std::invalid_argument);
  EXPECT_THROW(model::build_prefill_chunk(m, 0, 128, 640, 0, 1.0,
                                          m.llm.layers + 1),
               std::invalid_argument);
}

// --- Engine integration: StaticQuality bit-identity -------------------------

TEST(QualityPolicy, DefaultEngineIsByteIdenticalToExplicitStatic) {
  const auto trace = bursty_trace();
  const auto implicit =
      replay_trace(small_cfg(), {tiny_model()}, base_config(), trace);
  const auto explicit_static = replay_trace(
      small_cfg(), {tiny_model()},
      base_config()
          .quality_policy(std::make_shared<StaticQuality>())
          .quality_band(0.25, 1.0),
      trace);
  EXPECT_TRUE(results_identical(implicit.result, explicit_static.result));
  ASSERT_EQ(implicit.records.size(), explicit_static.records.size());
  for (std::size_t i = 0; i < implicit.records.size(); ++i) {
    EXPECT_TRUE(
        record_identical(implicit.records[i], explicit_static.records[i]));
  }
  EXPECT_EQ(implicit.result.quality_downgrades, 0u);
  EXPECT_EQ(implicit.result.quality_restores, 0u);
  EXPECT_EQ(implicit.result.tokens_at_degraded_quality, 0u);
  EXPECT_DOUBLE_EQ(implicit.result.accuracy_proxy_mean, 1.0);
  EXPECT_DOUBLE_EQ(implicit.result.accuracy_proxy_min, 1.0);
}

TEST(QualityPolicy, StaticWithBasePruningIsNotADowngrade) {
  // A static per-model fraction below 1.0 is the configured operating
  // point, not a quality downgrade: the ledger stays clean, and the
  // accuracy proxy prices the derived fraction for every request.
  TaskProxyPruningOptions proxy;
  proxy.proxy.tokens = 2;
  proxy.max_proxy_channels = 128;
  proxy.max_proxy_layers = 4;
  const double base = derive_keep_fraction(heavy_model(), proxy);
  ASSERT_LT(base, 1.0);  // the proxy must actually prune this model
  const auto trace = bursty_trace(12);
  const auto out = replay_trace(small_cfg(), {heavy_model()},
                                base_config().task_proxy_pruning(proxy), trace);
  EXPECT_EQ(out.result.quality_downgrades, 0u);
  EXPECT_EQ(out.result.tokens_at_degraded_quality, 0u);
  for (const RequestRecord& rec : out.records) {
    if (rec.rejected) continue;
    EXPECT_DOUBLE_EQ(rec.keep_fraction_served, base);
    EXPECT_DOUBLE_EQ(rec.keep_fraction_served, rec.prune_keep_fraction);
  }
  const double priced = quality_accuracy_proxy(heavy_model(), base, proxy);
  EXPECT_DOUBLE_EQ(out.result.accuracy_proxy_mean, priced);
  EXPECT_DOUBLE_EQ(out.result.accuracy_proxy_min, priced);
}

// --- Engine integration: dynamic quality -------------------------------------

TEST(QualityPolicy, EngineClampsJudgmentsIntoTheBand) {
  const auto trace = bursty_trace(8);
  // A policy demanding 0.01 is clamped to the band floor ...
  const auto floor_run = replay_trace(
      small_cfg(), {tiny_model()},
      base_config()
          .quality_policy(std::make_shared<FixedQuality>(0.01))
          .quality_band(0.25, 1.0),
      trace);
  for (const RequestRecord& rec : floor_run.records) {
    if (rec.rejected) continue;
    EXPECT_DOUBLE_EQ(rec.keep_fraction_served, 0.25);
  }
  // ... and one demanding 5.0 to the band ceiling (no "super quality").
  const auto ceil_run = replay_trace(
      small_cfg(), {tiny_model()},
      base_config()
          .quality_policy(std::make_shared<FixedQuality>(5.0))
          .quality_band(0.25, 1.0),
      trace);
  for (const RequestRecord& rec : ceil_run.records) {
    if (rec.rejected) continue;
    EXPECT_DOUBLE_EQ(rec.keep_fraction_served, 1.0);
  }
  EXPECT_EQ(ceil_run.result.quality_downgrades, 0u);
}

TEST(QualityPolicy, QueueDepthDegradesUnderBurstsAndLedgerConserves) {
  const auto trace = bursty_trace();
  const auto out = replay_trace(
      small_cfg(), {tiny_model()},
      base_config().quality_policy(std::make_shared<QueueDepthQuality>(1, 6)),
      trace);
  const ServingResult& r = out.result;
  EXPECT_GT(r.quality_downgrades, 0u);
  // Conservation: every downgrade either restored or drained degraded.
  std::size_t still_degraded = 0;
  for (const RequestRecord& rec : out.records) {
    if (rec.done && rec.keep_fraction_served < rec.prune_keep_fraction) {
      ++still_degraded;
    }
    if (rec.rejected) {
      EXPECT_DOUBLE_EQ(rec.keep_fraction_served, 1.0);  // never judged
    }
  }
  EXPECT_EQ(r.quality_downgrades, r.quality_restores + still_degraded);
}

TEST(QualityPolicy, DegradedTokensAreCountedPerGeneratedToken) {
  const auto trace = bursty_trace(12);
  const auto degraded = replay_trace(
      small_cfg(), {tiny_model()},
      base_config().quality_policy(std::make_shared<FixedQuality>(0.5)), trace);
  std::size_t generated = 0;
  for (const RequestRecord& rec : degraded.records) {
    generated += rec.tokens_generated;
  }
  // Every request is served at 0.5 < base 1.0 from admission on, so
  // EVERY generated token was degraded.
  EXPECT_EQ(degraded.result.tokens_at_degraded_quality, generated);
  EXPECT_GT(generated, 0u);
}

TEST(QualityPolicy, AccuracyLedgerPricesTheServedFraction) {
  const auto trace = bursty_trace(12);
  const auto out = replay_trace(
      small_cfg(), {tiny_model()},
      base_config().quality_policy(std::make_shared<FixedQuality>(0.5)), trace);
  const double priced = quality_accuracy_proxy(tiny_model(), 0.5);
  EXPECT_LT(priced, 1.0);
  EXPECT_DOUBLE_EQ(out.result.accuracy_proxy_mean, priced);
  EXPECT_DOUBLE_EQ(out.result.accuracy_proxy_min, priced);
}

TEST(QualityPolicy, DegradedPrefillShrinksStreamedWeightBytes) {
  const auto trace = bursty_trace(12);
  const auto full = replay_trace(small_cfg(), {tiny_model()}, base_config(),
                                 trace);
  const auto degraded = replay_trace(
      small_cfg(), {tiny_model()},
      base_config().quality_policy(std::make_shared<FixedQuality>(0.5)), trace);
  EXPECT_LT(degraded.result.cc_weight_fetch_bytes,
            full.result.cc_weight_fetch_bytes);
  EXPECT_EQ(degraded.result.completed + degraded.result.rejected, trace.size());
}

TEST(QualityPolicy, PinnedLayerBytesAreInvariantUnderDegradation) {
  // The pin holds FULL weights whatever the quality seam judges: peak
  // pinned bytes must not move when every request is degraded — only
  // the streamed (unpinned) bytes shrink.
  const auto trace = bursty_trace(12);
  // Budget for ONE of the model's two layer groups: the other layer
  // streams every chunk — and is what the quality seam prunes.
  const Bytes one_layer = llm_layer_group_bytes(tiny_model(), small_cfg());
  auto pin_config = [one_layer] {
    return base_config()
        .prefill_planner(std::make_shared<ResidentChunkedPrefill>(128))
        .weight_residency_bytes(one_layer);
  };
  const auto full =
      replay_trace(small_cfg(), {tiny_model()}, pin_config(), trace);
  const auto degraded = replay_trace(
      small_cfg(), {tiny_model()},
      pin_config().quality_policy(std::make_shared<FixedQuality>(0.5)), trace);
  ASSERT_GT(full.result.weight_pins, 0u);
  EXPECT_GT(degraded.result.weight_pins, 0u);
  EXPECT_EQ(degraded.result.peak_pinned_bytes, full.result.peak_pinned_bytes);
  EXPECT_LT(degraded.result.cc_weight_fetch_bytes,
            full.result.cc_weight_fetch_bytes);
}

TEST(QualityPolicy, MidPrefillRestoreHappensAtChunkBoundaries) {
  // QueueDepthQuality with a floor the burst clears: requests degraded
  // while the queue is deep are re-judged at each chunk submit and
  // restored once the queue drains — restores must actually fire.
  const auto trace = bursty_trace();
  const auto out = replay_trace(
      small_cfg(), {tiny_model()},
      base_config()
          .prefill_planner(std::make_shared<ChunkedPrefill>(64))
          .quality_policy(std::make_shared<QueueDepthQuality>(0, 2)),
      trace);
  EXPECT_GT(out.result.quality_downgrades, 0u);
  EXPECT_GT(out.result.quality_restores, 0u);
  std::size_t still_degraded = 0;
  for (const RequestRecord& rec : out.records) {
    if (rec.done && rec.keep_fraction_served < rec.prune_keep_fraction) {
      ++still_degraded;
    }
  }
  EXPECT_EQ(out.result.quality_downgrades,
            out.result.quality_restores + still_degraded);
}

TEST(QualityPolicy, SloPressureStepsDownOnceAtAdmission) {
  // A monolithic prefill is one chunk, so admission is one judgment: a
  // hopeless deadline costs one step, not two (the chunk-0 judgment is
  // the admission judgment, and its estimate does not count the plan in
  // the CC backlog a second time).
  const SloPressureQuality policy;
  const auto out = replay_trace(
      small_cfg(), {tiny_model()},
      base_config()
          .prefill_planner(std::make_shared<MonolithicPrefill>())
          .quality_policy(std::make_shared<SloPressureQuality>(policy)),
      lone_request(/*deadline=*/1));
  ASSERT_TRUE(out.records[0].done);
  EXPECT_DOUBLE_EQ(out.records[0].keep_fraction_served, 1.0 - policy.step());
  EXPECT_EQ(out.result.quality_downgrades, 1u);
}

TEST(QualityPolicy, ChunkedRequestIsJudgedOncePerChunk) {
  const auto quality = std::make_shared<RecordingQuality>();
  const auto out = replay_trace(small_cfg(), {tiny_model()},
                                base_config().quality_policy(quality),
                                lone_request());
  ASSERT_EQ(out.records[0].prefill_chunks, 5u);  // 640 tokens / 128
  EXPECT_EQ(quality->judgments.size(), out.records[0].prefill_chunks);
}

TEST(QualityPolicy, ChunkZeroEstimateMatchesTheAdmissionEstimate) {
  // Alone on the chip, the chunk-0 judgment's estimated finish is the
  // admission estimate: queue delay plus the request's own service.
  const auto quality = std::make_shared<RecordingQuality>();
  const auto scheduler = std::make_shared<RecordingScheduler>();
  const auto out = replay_trace(
      small_cfg(), {tiny_model()},
      base_config().scheduler(scheduler).quality_policy(quality),
      lone_request());
  ASSERT_EQ(scheduler->admissions.size(), 1u);
  const AdmissionContext& admission = scheduler->admissions.front();
  // Chunk 0 is submitted in the admission event: its judgment is the
  // last one made at the admission cycle.
  const QualityContext* chunk0 = nullptr;
  for (const QualityContext& ctx : quality->judgments) {
    if (ctx.now == out.records[0].admitted) chunk0 = &ctx;
  }
  ASSERT_NE(chunk0, nullptr);
  const double judged =
      static_cast<double>(chunk0->estimated_finish - chunk0->now);
  const double admitted = static_cast<double>(admission.estimated_queue_delay +
                                              admission.estimated_service);
  EXPECT_GT(admitted, 0.0);
  EXPECT_NEAR(judged, admitted, 1.0);
}

// --- Seam interactions -------------------------------------------------------

TEST(QualityPolicy, OffloadedChunksRestreamAtTheCurrentFraction) {
  // A degraded request's offloaded chunks carry the PRUNED ops to the
  // fat backend, so its GDDR traffic shrinks with the keep fraction.
  const auto trace = bursty_trace(12);
  auto fat_config = [] {
    return base_config()
        .fat_backend(baselines::GpuSpec{})
        .offload_policy(std::make_shared<PrefillToFat>(512));
  };
  const auto full =
      replay_trace(small_cfg(), {tiny_model()}, fat_config(), trace);
  const auto degraded = replay_trace(
      small_cfg(), {tiny_model()},
      fat_config().quality_policy(std::make_shared<FixedQuality>(0.5)), trace);
  ASSERT_GT(full.result.offloaded_chunks, 0u);
  EXPECT_GT(degraded.result.offloaded_chunks, 0u);
  EXPECT_LT(degraded.result.fat_bytes_moved, full.result.fat_bytes_moved);
}

TEST(QualityPolicy, SharedPinRiderNeverInheritsTheOwnersFraction) {
  // Quality is per REQUEST: degrading the pin owner must not leak its
  // fraction onto riders sharing the same model pin (and must not move
  // the pinned bytes either).
  const auto trace = bursty_trace(12);
  auto shared_config = [] {
    return base_config()
        .prefill_planner(std::make_shared<ResidentChunkedPrefill>(128))
        .weight_residency_bytes(Bytes{1} << 30);
  };
  const auto plain =
      replay_trace(small_cfg(), {tiny_model()}, shared_config(), trace);
  const auto out = replay_trace(
      small_cfg(), {tiny_model()},
      shared_config().quality_policy(
          std::make_shared<DegradeRequestQuality>(trace.front().id, 0.5)),
      trace);
  ASSERT_GT(out.result.weight_shared_attaches, 0u);
  for (const RequestRecord& rec : out.records) {
    if (rec.rejected) continue;
    if (rec.request.id == trace.front().id) {
      EXPECT_DOUBLE_EQ(rec.keep_fraction_served, 0.5);
    } else {
      EXPECT_DOUBLE_EQ(rec.keep_fraction_served, rec.prune_keep_fraction);
    }
  }
  EXPECT_EQ(out.result.quality_downgrades, 1u);
  EXPECT_EQ(out.result.peak_pinned_bytes, plain.result.peak_pinned_bytes);
}

TEST(QualityPolicy, StaleEstimatorRegressionDegradedCoTenant) {
  // Regression for the stale-EWMA edge: the CC throughput estimator is
  // normalized to full-precision-equivalent bytes, so a degraded heavy
  // co-tenant's (fewer bytes, fewer cycles) chunks cannot teach the
  // admission judgment that the lane got faster. The light model's
  // admission outcomes must not get WORSE when the heavy co-tenant is
  // degraded — same load, strictly less heavy traffic.
  TraceConfig cfg;
  cfg.requests = 24;
  cfg.arrival_rate_per_s = 1200.0;
  cfg.burst = 2;
  cfg.input_tokens = 512;
  cfg.min_output_tokens = 2;
  cfg.max_output_tokens = 8;
  cfg.model_weights = {1.0, 1.0};
  cfg.slo_base_ms = 40.0;
  cfg.slo_per_token_ms = 4.0;
  cfg.seed = 99;
  const auto trace = poisson_trace(cfg);
  auto slo_config = [] {
    return base_config().scheduler(
        std::make_shared<SloAwarePolicy>(AdmissionLimits{4, 8}));
  };
  const std::vector<model::MllmConfig> zoo{tiny_model(), heavy_model()};
  const auto baseline = replay_trace(small_cfg(), zoo, slo_config(), trace);
  const auto degraded_heavy = replay_trace(
      small_cfg(), zoo,
      slo_config().quality_policy(
          std::make_shared<DegradeModelQuality>(1, 0.5)),
      trace);
  auto light_rejections = [](const std::vector<RequestRecord>& records) {
    std::size_t n = 0;
    for (const RequestRecord& rec : records) {
      if (rec.request.model == 0 && rec.rejected) ++n;
    }
    return n;
  };
  EXPECT_LE(light_rejections(degraded_heavy.records),
            light_rejections(baseline.records));
  EXPECT_EQ(degraded_heavy.result.completed + degraded_heavy.result.rejected,
            trace.size());
}

// --- Determinism: tiers, workers, cluster ------------------------------------

TEST(QualityPolicy, FastTierMatchesDetailedQualityDecisions) {
  // Cross-tier fidelity on a degrading trace: the fast tier must make
  // IDENTICAL quality decisions (downgrades, restores, per-record served
  // fractions) and drift under 1% on the makespan. A front-loaded burst
  // plus a sticky policy pins every judgment to arrival/admission ORDER
  // — which both tiers share — not to the cost models' timing drift.
  TraceConfig tcfg;
  tcfg.requests = 24;
  tcfg.arrival_rate_per_s = 1e6;
  tcfg.burst = 4;
  tcfg.input_tokens = 256;
  tcfg.min_output_tokens = 2;
  tcfg.max_output_tokens = 8;
  tcfg.seed = 77;
  const auto trace = poisson_trace(tcfg);
  auto config = [] {
    return base_config().quality_policy(
        std::make_shared<StickyQueueDepthQuality>(1, 6));
  };
  const auto detailed =
      replay_trace(small_cfg(), {tiny_model()}, config(), trace);
  const auto fast = replay_trace(
      small_cfg(), {tiny_model()},
      config().replay_mode(core::ReplayMode::kFast), trace);
  ASSERT_GT(detailed.result.quality_downgrades, 0u);
  EXPECT_EQ(fast.result.quality_downgrades, detailed.result.quality_downgrades);
  EXPECT_EQ(fast.result.quality_restores, detailed.result.quality_restores);
  ASSERT_EQ(fast.records.size(), detailed.records.size());
  for (std::size_t i = 0; i < fast.records.size(); ++i) {
    EXPECT_DOUBLE_EQ(fast.records[i].keep_fraction_served,
                     detailed.records[i].keep_fraction_served);
  }
  const double drift =
      std::abs(fast.result.makespan_ms - detailed.result.makespan_ms) /
      detailed.result.makespan_ms;
  EXPECT_LT(drift, 0.01);
}

TEST(QualityPolicy, SweepIsByteIdenticalAcrossWorkerCounts) {
  const auto trace = bursty_trace(16, /*deadlines=*/true);
  std::vector<SweepCase> cases;
  const std::vector<std::shared_ptr<const QualityPolicy>> policies{
      std::make_shared<StaticQuality>(),
      std::make_shared<SloPressureQuality>(),
      std::make_shared<QueueDepthQuality>(1, 6)};
  for (const auto& policy : policies) {
    SweepCase c;
    c.label = policy->name();
    c.chip = small_cfg();
    c.models = {tiny_model()};
    c.engine = base_config().quality_policy(policy);
    c.requests = trace;
    cases.push_back(std::move(c));
  }
  const auto seq = run_sweep(cases, SweepOptions{1});
  const auto par = run_sweep(cases, SweepOptions{4});
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_TRUE(outcomes_identical(seq[i], par[i]));
  }
}

TEST(QualityPolicy, ClusterSumsPerChipQualityLedgers) {
  // Twice the single-chip burst: each of the two shards must still see a
  // deep enough queue to degrade.
  TraceConfig cfg;
  cfg.requests = 48;
  cfg.arrival_rate_per_s = 4000.0;
  cfg.burst = 8;
  cfg.input_tokens = 640;
  cfg.min_output_tokens = 2;
  cfg.max_output_tokens = 8;
  cfg.seed = 77;
  const auto trace = poisson_trace(cfg);
  ClusterConfig cluster;
  cluster.chips(2).workers(2);
  const ClusterOutcome out = run_cluster(
      small_cfg(), {tiny_model()},
      base_config().quality_policy(std::make_shared<QueueDepthQuality>(0, 4)),
      cluster, trace);
  std::size_t downgrades = 0, restores = 0, degraded_tokens = 0;
  std::size_t completed = 0;
  double weighted = 0.0, min_acc = 1.0;
  for (const ServingResult& r : out.result.per_chip) {
    downgrades += r.quality_downgrades;
    restores += r.quality_restores;
    degraded_tokens += r.tokens_at_degraded_quality;
    if (r.completed > 0) {
      completed += r.completed;
      weighted += r.accuracy_proxy_mean * static_cast<double>(r.completed);
      min_acc = std::min(min_acc, r.accuracy_proxy_min);
    }
  }
  ASSERT_GT(downgrades, 0u);
  EXPECT_EQ(out.result.quality_downgrades, downgrades);
  EXPECT_EQ(out.result.quality_restores, restores);
  EXPECT_EQ(out.result.tokens_at_degraded_quality, degraded_tokens);
  ASSERT_GT(completed, 0u);
  EXPECT_DOUBLE_EQ(out.result.accuracy_proxy_mean,
                   weighted / static_cast<double>(completed));
  EXPECT_DOUBLE_EQ(out.result.accuracy_proxy_min, min_acc);
}

TEST(QualityPolicy, DynamicReplayIsDeterministic) {
  const auto trace = bursty_trace(16, /*deadlines=*/true);
  auto config = [] {
    return base_config()
        .scheduler(std::make_shared<SloAwarePolicy>(AdmissionLimits{4, 8}))
        .quality_policy(std::make_shared<SloPressureQuality>());
  };
  const auto a = replay_trace(small_cfg(), {tiny_model()}, config(), trace);
  const auto b = replay_trace(small_cfg(), {tiny_model()}, config(), trace);
  EXPECT_TRUE(results_identical(a.result, b.result));
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_TRUE(record_identical(a.records[i], b.records[i]));
  }
}

}  // namespace
}  // namespace edgemm::serve
