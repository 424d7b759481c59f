// EngineConfig: composes the serving engine's policies and knobs.
//
// A config is built fluently and validated once by the engine:
//
//   auto cfg = EngineConfig()
//                  .scheduler(std::make_shared<SloAwarePolicy>(limits))
//                  .prefill_planner(std::make_shared<ChunkedPrefill>(128))
//                  .batch_policy(std::make_shared<ShortestRemainingFirst>())
//                  .kv_capacity_bytes(chip_kv_capacity(chip, 256.0));
#ifndef EDGEMM_SERVE_ENGINE_CONFIG_HPP
#define EDGEMM_SERVE_ENGINE_CONFIG_HPP

#include <cstdint>
#include <memory>
#include <optional>

#include "baselines/gpu_model.hpp"
#include "core/fast_replay.hpp"
#include "model/mllm_config.hpp"
#include "pruning/task_proxy.hpp"
#include "serve/admission.hpp"
#include "serve/kv_pages.hpp"
#include "serve/policy.hpp"

namespace edgemm::serve {

/// Wires the §IV-A task-proxy accuracy model into the engine: instead of
/// serving unpruned (keep fraction 1.0), each request's keep fraction is
/// derived from a proxy evaluation of its model (see
/// derive_keep_fraction).
struct TaskProxyPruningOptions {
  /// Proxy harness parameters (answer head, tokens sampled, FFN width).
  pruning::TaskProxyConfig proxy{};
  /// A pruning ratio is only adopted while the proxy's answer-agreement
  /// stays at or above this.
  double min_agreement = 0.85;
  /// Floor on the derived keep fraction (never prune more than 1-floor).
  double min_keep_fraction = 0.1;
  /// Caps on the derived activation profile, so the proxy stays cheap
  /// for big zoo models (it is an accuracy model, not a simulation).
  std::size_t max_proxy_channels = 512;
  std::size_t max_proxy_layers = 8;
};

/// Derives the decode keep fraction for `model` from the task proxy: the
/// dynamic Top-k ratio when its agreement clears min_agreement, else the
/// most aggressive fixed ratio that does, else 1.0 (pruning off).
/// Deterministic per (model name, options).
double derive_keep_fraction(const model::MllmConfig& model,
                            const TaskProxyPruningOptions& options);

/// Prices one keep fraction with the task-proxy accuracy model: the
/// proxy's answer-agreement when `model`'s FFN is pruned to exactly
/// `keep_fraction` (fixed ratio 1 - keep_fraction over the same capped
/// activation profile derive_keep_fraction uses). keep_fraction >= 1 is
/// exactly 1.0 (no pruning, no proxy run). Deterministic per
/// (model name, keep_fraction, options); throws std::invalid_argument
/// for a non-positive fraction, or for zero proxy caps when
/// keep_fraction < 1.
double quality_accuracy_proxy(const model::MllmConfig& model,
                              double keep_fraction,
                              const TaskProxyPruningOptions& options = {});

/// Which serving stages this engine executes (disaggregated clusters).
/// kFull is the single-chip default; the split phases are how a
/// ClusterEngine turns one chip into a dedicated prefill or decode tier:
/// a kPrefillOnly engine retires each request when its prefill ends (the
/// finished KV is the product, streamed to a decode chip), a kDecodeOnly
/// engine treats each request's arrival as "its KV just landed" and goes
/// straight to the decode batch.
enum class EnginePhase : std::uint8_t {
  kFull,         ///< prefill + decode on this chip (the single-chip engine)
  kPrefillOnly,  ///< encoder + prefill only; retires at prefill end
  kDecodeOnly,   ///< decode only; prefill is assumed done elsewhere
};

/// Policy composition + engine knobs for one trace replay.
class EngineConfig {
 public:
  /// Defaults reproduce PR-1 behavior: ConcurrencyPolicy with default
  /// AdmissionLimits, monolithic prefill, FIFO decode joins, bandwidth
  /// management on, pruning and KV accounting off.
  EngineConfig();

  // --- Builder setters (each validates its argument eagerly) -------------
  EngineConfig& scheduler(std::shared_ptr<const SchedulerPolicy> policy);
  EngineConfig& prefill_planner(std::shared_ptr<const PrefillPlanner> planner);
  EngineConfig& batch_policy(std::shared_ptr<const BatchPolicy> policy);
  /// Adaptive CC:MC budget rebalancing, once per DMA throttle interval
  /// (ChipConfig::dma.throttle_interval); false = static equal sharing
  /// (the §IV-B baseline, PMC throttles still armed).
  EngineConfig& manage_bandwidth(bool enabled);
  /// Derives each model's static decode keep fraction from the task
  /// proxy (without it every model serves at 1.0). Throws
  /// std::invalid_argument.
  EngineConfig& task_proxy_pruning(TaskProxyPruningOptions options);
  /// KV byte budget for the decode batch; 0 (default) disables
  /// accounting — the Fig. 10 chip's raw CIM capacity is smaller than a
  /// single request's KV cache, so a meaningful budget must be chosen
  /// explicitly (see chip_kv_capacity's oversubscription parameter).
  EngineConfig& kv_capacity_bytes(Bytes bytes);
  /// Page-granular KV accounting (default: false — whole-footprint
  /// reservations: each request reserves its full final KV footprint at
  /// decode join). When on (and a KV budget is set), the engine
  /// reserves only the pages a request's PROMPT occupies at decode join
  /// and grows the reservation one page per generated-token page
  /// boundary; when the budget fills mid-decode it preempts the active
  /// request with the least-recent page-table touch to DRAM and refills
  /// it later (see KvPageAllocator); every refilled byte rides the next
  /// decode step as MC-lane DMA. No effect without kv_capacity_bytes.
  EngineConfig& paged_kv(bool enabled);
  /// KV page size for paged_kv (default kDefaultKvPageBytes = 64 KiB).
  /// Throws std::invalid_argument on zero; validate() requires the KV
  /// budget to hold at least one page, and the engine requires a page
  /// to hold at least one token's K+V of every served model.
  EngineConfig& kv_page_bytes(Bytes bytes);
  /// Copy-on-write prefix sharing under paged_kv (default: true):
  /// requests with the same (model, Request::prefix_id) share their
  /// prefix's full pages under one refcounted run; each request CoW-
  /// forks the partial boundary page privately at join (its first
  /// divergent token writes there). false charges every request its
  /// whole prompt privately — the A/B baseline. No effect on traces
  /// without prefix ids.
  EngineConfig& kv_prefix_sharing(bool enabled);
  /// Byte budget for weight-resident chunk chaining (the
  /// WeightResidencyTracker's capacity); 0 (default) disables residency
  /// — a residency-capable planner then degrades to per-chunk re-fetch,
  /// byte-for-byte the ChunkedPrefill behavior. Requires a planner with
  /// chains_weight_residency() (the engine validates against the chip's
  /// scratchpad at construction: the budget must stay within
  /// kMaxWeightResidencyOversubscription x the CC TCDM; see
  /// chip_weight_residency_capacity for sizing).
  ///
  /// Pins are keyed by MODEL: a model's layer-group weights are the same
  /// bytes whichever request streams them, so the first attaching
  /// request fetches and charges the budget and later same-model
  /// requests ride the one refcounted pin until the last attached
  /// request's prefill retires. A fresh pin only counts as on chip once
  /// its owner's fill chunk retires: a rider chunk dispatched before
  /// that re-fetches the whole pin (the fill barrier, ledgered as
  /// ServingResult::rider_refetch_bytes).
  EngineConfig& weight_residency_bytes(Bytes bytes);
  /// Residency-aware model placement: which models' pins to hold,
  /// acquire or evict against the shared budget (see PlacementPolicy).
  /// Default KeepCurrentPlacement — first-come pinning, eviction at
  /// refcount zero — which reproduces the placement-oblivious engine
  /// bit-for-bit. Only consulted when weight residency is active.
  /// Throws std::invalid_argument on null.
  EngineConfig& placement_policy(std::shared_ptr<const PlacementPolicy> policy);
  /// Execution tier for the replay (default kDetailed): kFast prices op
  /// batches analytically with core::FastMemoryModel instead of walking
  /// every DMA burst through the event-driven memory hierarchy —
  /// typically >=10x faster at <1% makespan drift (the serving_trace
  /// bench gates both). Policies, admission and scheduling decisions run
  /// identically on either tier; only memory timing is approximated.
  EngineConfig& replay_mode(core::ReplayMode mode);
  /// Serving stage split for disaggregated clusters (default kFull: the
  /// single-chip engine, byte-identical to every prior PR). kPrefillOnly
  /// retires each request at prefill end — zero tokens generated, the
  /// finished KV is the product; kDecodeOnly skips prefill entirely and
  /// treats each arrival as its KV landing on this chip. Set by
  /// ClusterEngine; composable with any policy set.
  EngineConfig& phase(EnginePhase phase);
  /// Pairs a fat backend (a GpuBackend over this spec, sharing the
  /// EdgeMM chip's simulator) with the engine, so an OffloadPolicy can
  /// route prefill chunks to it. Validates the spec eagerly (throws
  /// std::invalid_argument). Without this, no fat backend exists and
  /// the offload policy is never consulted.
  EngineConfig& fat_backend(const baselines::GpuSpec& spec);
  /// WHERE each prefill chunk executes in a heterogeneous EdgeMM+GPU
  /// pair (the fifth seam; see OffloadPolicy). Default NoOffload —
  /// byte-identical to a fat-backend-less engine even when one is
  /// configured. Throws std::invalid_argument on null; validate()
  /// rejects a non-NoOffload policy without a fat backend to route to.
  EngineConfig& offload_policy(std::shared_ptr<const OffloadPolicy> policy);
  /// At WHAT quality (FFN keep fraction) each request is served (the
  /// sixth seam; see QualityPolicy). Default StaticQuality — every
  /// request serves at its static per-model fraction, byte-identical to
  /// an engine with no quality seam. Throws std::invalid_argument on
  /// null.
  EngineConfig& quality_policy(std::shared_ptr<const QualityPolicy> policy);
  /// The validated [min_keep, max_keep] band dynamic quality judgments
  /// are clamped into (default [0.25, 1.0]); the engine widens the
  /// effective band to always include the static per-model fraction, so
  /// StaticQuality passes through whatever the band. Throws
  /// std::invalid_argument unless 0 < min_keep <= max_keep <= 1.
  EngineConfig& quality_band(double min_keep, double max_keep);

  // --- Getters ------------------------------------------------------------
  const SchedulerPolicy& scheduler() const { return *scheduler_; }
  const PrefillPlanner& prefill_planner() const { return *planner_; }
  const BatchPolicy& batch_policy() const { return *batcher_; }
  bool manage_bandwidth() const { return manage_bandwidth_; }
  const std::optional<TaskProxyPruningOptions>& task_proxy_pruning() const {
    return task_proxy_;
  }
  Bytes kv_capacity() const { return kv_capacity_bytes_; }
  bool paged_kv() const { return paged_kv_; }
  Bytes kv_page_bytes() const { return kv_page_bytes_; }
  bool kv_prefix_sharing() const { return kv_prefix_sharing_; }
  Bytes weight_residency() const { return weight_residency_bytes_; }
  const PlacementPolicy& placement() const { return *placement_; }
  core::ReplayMode replay_mode() const { return replay_mode_; }
  EnginePhase phase() const { return phase_; }
  const std::optional<baselines::GpuSpec>& fat_backend() const {
    return fat_backend_;
  }
  const OffloadPolicy& offload_policy() const { return *offload_; }
  const QualityPolicy& quality() const { return *quality_; }
  double quality_min_keep() const { return quality_min_keep_; }
  double quality_max_keep() const { return quality_max_keep_; }

  /// Re-checks the composed whole (policies present, fractions sane).
  /// The engine calls this once at construction; throws
  /// std::invalid_argument with the violated condition.
  void validate() const;

 private:
  std::shared_ptr<const SchedulerPolicy> scheduler_;
  std::shared_ptr<const PrefillPlanner> planner_;
  std::shared_ptr<const BatchPolicy> batcher_;
  std::shared_ptr<const PlacementPolicy> placement_;
  bool manage_bandwidth_ = true;
  std::optional<TaskProxyPruningOptions> task_proxy_;
  Bytes kv_capacity_bytes_ = 0;
  bool paged_kv_ = false;
  Bytes kv_page_bytes_ = kDefaultKvPageBytes;
  bool kv_prefix_sharing_ = true;
  Bytes weight_residency_bytes_ = 0;
  core::ReplayMode replay_mode_ = core::ReplayMode::kDetailed;
  EnginePhase phase_ = EnginePhase::kFull;
  std::optional<baselines::GpuSpec> fat_backend_;
  std::shared_ptr<const OffloadPolicy> offload_;
  std::shared_ptr<const QualityPolicy> quality_;
  double quality_min_keep_ = 0.25;
  double quality_max_keep_ = 1.0;
};

}  // namespace edgemm::serve

#endif  // EDGEMM_SERVE_ENGINE_CONFIG_HPP
