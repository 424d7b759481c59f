#include "serve/engine_config.hpp"

#include <limits>
#include <memory>
#include <stdexcept>
#include <typeinfo>

#include <gtest/gtest.h>

#include "model/mllm_config.hpp"

namespace edgemm::serve {
namespace {

/// True when `policy`'s dynamic type is exactly `Expected`.
template <typename Expected, typename Policy>
bool is_exactly(const Policy& policy) {
  return typeid(policy) == typeid(Expected);
}

TEST(EngineConfig, DefaultsReproducePr1Composition) {
  const EngineConfig config;
  EXPECT_NO_THROW(config.validate());
  EXPECT_TRUE(is_exactly<ConcurrencyPolicy>(config.scheduler()));
  EXPECT_TRUE(is_exactly<MonolithicPrefill>(config.prefill_planner()));
  EXPECT_TRUE(is_exactly<FifoBatch>(config.batch_policy()));
  EXPECT_TRUE(config.manage_bandwidth());
  EXPECT_EQ(config.kv_capacity(), 0u);  // accounting off
  EXPECT_EQ(config.weight_residency(), 0u);  // residency off
  EXPECT_FALSE(config.task_proxy_pruning().has_value());
  // Residency-placement default: the placement-oblivious baseline.
  EXPECT_TRUE(is_exactly<KeepCurrentPlacement>(config.placement()));
  // Detailed tier by default.
  EXPECT_EQ(config.replay_mode(), core::ReplayMode::kDetailed);
}

TEST(EngineConfig, ReplayAndQueueKnobsCompose) {
  // The fast tier composes with the admission limits that drain the
  // arrival-ordered request queue.
  AdmissionLimits limits;
  limits.max_decode_batch = 2;
  limits.max_inflight = 2;
  const EngineConfig config =
      EngineConfig()
          .replay_mode(core::ReplayMode::kFast)
          .scheduler(std::make_shared<ConcurrencyPolicy>(limits));
  EXPECT_NO_THROW(config.validate());
  EXPECT_EQ(config.replay_mode(), core::ReplayMode::kFast);
  EXPECT_TRUE(is_exactly<ConcurrencyPolicy>(config.scheduler()));
}

TEST(EngineConfig, PlacementAndBarrierKnobsCompose) {
  const EngineConfig config =
      EngineConfig()
          .prefill_planner(std::make_shared<ResidentChunkedPrefill>(64))
          .weight_residency_bytes(1 << 24)
          .placement_policy(std::make_shared<DemandWeightedPlacement>());
  EXPECT_NO_THROW(config.validate());
  EXPECT_TRUE(is_exactly<DemandWeightedPlacement>(config.placement()));
}

TEST(EngineConfig, WeightResidencyRequiresAResidencyCapablePlanner) {
  // The budget composes with ResidentChunkedPrefill ...
  const EngineConfig resident =
      EngineConfig()
          .prefill_planner(std::make_shared<ResidentChunkedPrefill>(64))
          .weight_residency_bytes(1 << 20);
  EXPECT_NO_THROW(resident.validate());
  EXPECT_TRUE(is_exactly<ResidentChunkedPrefill>(resident.prefill_planner()));
  EXPECT_TRUE(resident.prefill_planner().chains_weight_residency());
  EXPECT_FALSE(resident.prefill_planner().prefers_lane_affinity());
  EXPECT_EQ(resident.weight_residency(), Bytes{1 << 20});
  // ... but a budget on a planner that re-fetches every chunk is a
  // composition error caught by validate().
  const EngineConfig miswired =
      EngineConfig()
          .prefill_planner(std::make_shared<ChunkedPrefill>(64))
          .weight_residency_bytes(1 << 20);
  EXPECT_THROW(miswired.validate(), std::invalid_argument);
  // Zero budget disables residency for any planner (the determinism
  // fallback), and the lane-affinity variant carries its flag.
  EXPECT_NO_THROW(EngineConfig()
                      .prefill_planner(std::make_shared<ChunkedPrefill>(64))
                      .validate());
  const ResidentChunkedPrefill chained(64, /*chain_lane_affinity=*/true);
  EXPECT_TRUE(chained.prefers_lane_affinity());
}

TEST(EngineConfig, BuilderComposesPolicies) {
  const EngineConfig config =
      EngineConfig()
          .scheduler(std::make_shared<SloAwarePolicy>(AdmissionLimits{4, 8}))
          .prefill_planner(std::make_shared<ChunkedPrefill>(64))
          .batch_policy(std::make_shared<ShortestRemainingFirst>())
          .manage_bandwidth(false)
          .kv_capacity_bytes(1 << 20);
  EXPECT_NO_THROW(config.validate());
  EXPECT_TRUE(is_exactly<SloAwarePolicy>(config.scheduler()));
  EXPECT_TRUE(is_exactly<ChunkedPrefill>(config.prefill_planner()));
  EXPECT_TRUE(is_exactly<ShortestRemainingFirst>(config.batch_policy()));
  EXPECT_FALSE(config.manage_bandwidth());
  EXPECT_EQ(config.kv_capacity(), Bytes{1 << 20});
}

TEST(EngineConfig, SettersValidateEagerly) {
  EngineConfig config;
  EXPECT_THROW(config.scheduler(nullptr), std::invalid_argument);
  EXPECT_THROW(config.prefill_planner(nullptr), std::invalid_argument);
  EXPECT_THROW(config.batch_policy(nullptr), std::invalid_argument);
  EXPECT_THROW(config.placement_policy(nullptr), std::invalid_argument);
  TaskProxyPruningOptions bad;
  bad.min_agreement = 1.5;
  EXPECT_THROW(config.task_proxy_pruning(bad), std::invalid_argument);
  bad.min_agreement = 0.9;
  bad.min_keep_fraction = 0.0;
  EXPECT_THROW(config.task_proxy_pruning(bad), std::invalid_argument);
  // A NaN min_agreement used to pass the range check and silently turn
  // pruning off (no agreement compares >= NaN).
  bad = TaskProxyPruningOptions{};
  for (const double agreement : {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity()}) {
    bad.min_agreement = agreement;
    EXPECT_THROW(config.task_proxy_pruning(bad), std::invalid_argument)
        << agreement;
  }
}

TEST(EngineConfig, PagedKvDefaultsKeepLegacyAccounting) {
  const EngineConfig config;
  EXPECT_FALSE(config.paged_kv());  // whole-footprint reservations by default
  EXPECT_EQ(config.kv_page_bytes(), kDefaultKvPageBytes);
  EXPECT_TRUE(config.kv_prefix_sharing());  // engaged only once paged_kv on
}

TEST(EngineConfig, PagedKvKnobsCompose) {
  const EngineConfig config = EngineConfig()
                                  .kv_capacity_bytes(1 << 20)
                                  .paged_kv(true)
                                  .kv_page_bytes(4096)
                                  .kv_prefix_sharing(false);
  EXPECT_NO_THROW(config.validate());
  EXPECT_TRUE(config.paged_kv());
  EXPECT_EQ(config.kv_page_bytes(), 4096u);
  EXPECT_FALSE(config.kv_prefix_sharing());
}

TEST(EngineConfig, PagedKvSettersValidateEagerly) {
  EngineConfig config;
  EXPECT_THROW(config.kv_page_bytes(0), std::invalid_argument);
  // A paged budget smaller than one page cannot hold anything.
  EngineConfig tiny = EngineConfig()
                          .kv_capacity_bytes(1024)
                          .paged_kv(true)
                          .kv_page_bytes(4096);
  EXPECT_THROW(tiny.validate(), std::invalid_argument);
  // The same budget is fine in whole-footprint mode or with a smaller page.
  EXPECT_NO_THROW(tiny.paged_kv(false).validate());
  EXPECT_NO_THROW(tiny.paged_kv(true).kv_page_bytes(1024).validate());
}

TEST(DeriveKeepFraction, IsDeterministicAndBounded) {
  const model::MllmConfig model = model::sphinx_tiny();
  TaskProxyPruningOptions options;
  options.proxy.tokens = 2;  // keep the test fast
  options.max_proxy_channels = 128;
  options.max_proxy_layers = 4;
  const double a = derive_keep_fraction(model, options);
  const double b = derive_keep_fraction(model, options);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_GE(a, options.min_keep_fraction);
  EXPECT_LE(a, 1.0);
}

TEST(DeriveKeepFraction, DiffersAcrossModels) {
  TaskProxyPruningOptions options;
  options.proxy.tokens = 2;
  options.max_proxy_channels = 128;
  options.max_proxy_layers = 4;
  // Different model names perturb the proxy seed, so the §IV-A accuracy
  // model is evaluated per model rather than once globally.
  const double sphinx = derive_keep_fraction(model::sphinx_tiny(), options);
  const double karma = derive_keep_fraction(model::karmavlm(), options);
  // Both are valid fractions; equality would only happen if the proxy
  // ignored the model, so assert the plumbing keeps them distinct.
  EXPECT_NE(sphinx, karma);
}

TEST(DeriveKeepFraction, ImpossibleAgreementDisablesPruning) {
  const model::MllmConfig model = model::sphinx_tiny();
  TaskProxyPruningOptions options;
  options.proxy.tokens = 2;
  options.proxy.fixed_ratios = {0.99};  // agreement will not survive this
  options.min_agreement = 1.1;  // validated by the EngineConfig setter...
  EXPECT_THROW(derive_keep_fraction(model, options), std::invalid_argument);
  options.min_agreement = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(derive_keep_fraction(model, options), std::invalid_argument);
  options.min_agreement = 1.0;  // ...but 1.0 is legal and nearly unreachable
  options.max_proxy_channels = 128;
  options.max_proxy_layers = 4;
  const double keep = derive_keep_fraction(model, options);
  EXPECT_GE(keep, options.min_keep_fraction);
}

}  // namespace
}  // namespace edgemm::serve
