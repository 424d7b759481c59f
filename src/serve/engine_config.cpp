#include "serve/engine_config.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "model/activation_gen.hpp"

namespace edgemm::serve {

namespace {

/// FNV-1a over the model name: a stable per-model seed perturbation so
/// different zoo entries draw different proxy instances.
std::uint64_t name_hash(const std::string& name) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

double derive_keep_fraction(const model::MllmConfig& model,
                            const TaskProxyPruningOptions& options) {
  if (!(options.min_agreement >= 0.0 && options.min_agreement <= 1.0)) {
    throw std::invalid_argument(
        "derive_keep_fraction: min_agreement must be in [0, 1]");
  }
  if (!(options.min_keep_fraction > 0.0) || options.min_keep_fraction > 1.0) {
    throw std::invalid_argument(
        "derive_keep_fraction: min_keep_fraction must be in (0, 1]");
  }
  if (options.max_proxy_channels == 0 || options.max_proxy_layers == 0) {
    throw std::invalid_argument(
        "derive_keep_fraction: proxy caps must be > 0");
  }

  model::ActivationProfile profile;
  profile.channels = std::min(model.llm.d_model, options.max_proxy_channels);
  profile.layers = std::max<std::size_t>(
      std::min(model.llm.layers, options.max_proxy_layers), 2);
  const model::ActivationGenerator gen(
      profile, options.proxy.seed ^ name_hash(model.name));
  const pruning::TaskProxyResult result =
      pruning::evaluate_task_proxy(gen, options.proxy);

  double keep = 1.0;  // pruning off unless the proxy clears the bar
  if (result.agreement_dynamic >= options.min_agreement) {
    keep = 1.0 - result.mean_pruning_ratio;
  } else {
    // Fall back to the most aggressive fixed ratio that still agrees.
    double best_ratio = 0.0;
    for (std::size_t f = 0; f < options.proxy.fixed_ratios.size(); ++f) {
      if (result.agreement_fixed[f] >= options.min_agreement) {
        best_ratio = std::max(best_ratio, options.proxy.fixed_ratios[f]);
      }
    }
    keep = 1.0 - best_ratio;
  }
  return std::clamp(keep, options.min_keep_fraction, 1.0);
}

double quality_accuracy_proxy(const model::MllmConfig& model,
                              double keep_fraction,
                              const TaskProxyPruningOptions& options) {
  if (!(keep_fraction > 0.0)) {
    throw std::invalid_argument(
        "quality_accuracy_proxy: keep_fraction must be positive");
  }
  if (keep_fraction >= 1.0) return 1.0;  // no pruning, agreement exact
  if (options.max_proxy_channels == 0 || options.max_proxy_layers == 0) {
    throw std::invalid_argument(
        "quality_accuracy_proxy: proxy caps must be > 0");
  }

  // Same capped profile and per-model seed as derive_keep_fraction, so
  // the static derivation and the quality ledger price the same proxy.
  model::ActivationProfile profile;
  profile.channels = std::min(model.llm.d_model, options.max_proxy_channels);
  profile.layers = std::max<std::size_t>(
      std::min(model.llm.layers, options.max_proxy_layers), 2);
  const model::ActivationGenerator gen(
      profile, options.proxy.seed ^ name_hash(model.name));
  pruning::TaskProxyConfig proxy = options.proxy;
  proxy.fixed_ratios = {1.0 - keep_fraction};
  const pruning::TaskProxyResult result =
      pruning::evaluate_task_proxy(gen, proxy);
  return result.agreement_fixed[0];
}

EngineConfig::EngineConfig()
    : scheduler_(std::make_shared<ConcurrencyPolicy>(AdmissionLimits{})),
      planner_(std::make_shared<MonolithicPrefill>()),
      batcher_(std::make_shared<FifoBatch>()),
      placement_(std::make_shared<KeepCurrentPlacement>()),
      offload_(std::make_shared<NoOffload>()),
      quality_(std::make_shared<StaticQuality>()) {}

EngineConfig& EngineConfig::scheduler(
    std::shared_ptr<const SchedulerPolicy> policy) {
  if (!policy) {
    throw std::invalid_argument("EngineConfig: null SchedulerPolicy");
  }
  scheduler_ = std::move(policy);
  return *this;
}

EngineConfig& EngineConfig::prefill_planner(
    std::shared_ptr<const PrefillPlanner> planner) {
  if (!planner) {
    throw std::invalid_argument("EngineConfig: null PrefillPlanner");
  }
  planner_ = std::move(planner);
  return *this;
}

EngineConfig& EngineConfig::batch_policy(
    std::shared_ptr<const BatchPolicy> policy) {
  if (!policy) {
    throw std::invalid_argument("EngineConfig: null BatchPolicy");
  }
  batcher_ = std::move(policy);
  return *this;
}

EngineConfig& EngineConfig::manage_bandwidth(bool enabled) {
  manage_bandwidth_ = enabled;
  return *this;
}

EngineConfig& EngineConfig::task_proxy_pruning(TaskProxyPruningOptions options) {
  if (!(options.min_agreement >= 0.0 && options.min_agreement <= 1.0)) {
    throw std::invalid_argument(
        "EngineConfig: task-proxy min_agreement must be in [0, 1]");
  }
  if (!(options.min_keep_fraction > 0.0) || options.min_keep_fraction > 1.0) {
    throw std::invalid_argument(
        "EngineConfig: task-proxy min_keep_fraction must be in (0, 1]");
  }
  task_proxy_ = std::move(options);
  return *this;
}

EngineConfig& EngineConfig::kv_capacity_bytes(Bytes bytes) {
  kv_capacity_bytes_ = bytes;
  return *this;
}

EngineConfig& EngineConfig::paged_kv(bool enabled) {
  paged_kv_ = enabled;
  return *this;
}

EngineConfig& EngineConfig::kv_page_bytes(Bytes bytes) {
  if (bytes == 0) {
    throw std::invalid_argument("EngineConfig: kv_page_bytes must be > 0");
  }
  kv_page_bytes_ = bytes;
  return *this;
}

EngineConfig& EngineConfig::kv_prefix_sharing(bool enabled) {
  kv_prefix_sharing_ = enabled;
  return *this;
}

EngineConfig& EngineConfig::weight_residency_bytes(Bytes bytes) {
  weight_residency_bytes_ = bytes;
  return *this;
}

EngineConfig& EngineConfig::placement_policy(
    std::shared_ptr<const PlacementPolicy> policy) {
  if (!policy) {
    throw std::invalid_argument("EngineConfig: null PlacementPolicy");
  }
  placement_ = std::move(policy);
  return *this;
}

EngineConfig& EngineConfig::replay_mode(core::ReplayMode mode) {
  replay_mode_ = mode;
  return *this;
}

EngineConfig& EngineConfig::phase(EnginePhase phase) {
  phase_ = phase;
  return *this;
}

EngineConfig& EngineConfig::fat_backend(const baselines::GpuSpec& spec) {
  spec.validate();  // eager, so the error names the bad field here
  fat_backend_ = spec;
  return *this;
}

EngineConfig& EngineConfig::offload_policy(
    std::shared_ptr<const OffloadPolicy> policy) {
  if (!policy) {
    throw std::invalid_argument("EngineConfig: null OffloadPolicy");
  }
  offload_ = std::move(policy);
  return *this;
}

EngineConfig& EngineConfig::quality_policy(
    std::shared_ptr<const QualityPolicy> policy) {
  if (!policy) {
    throw std::invalid_argument("EngineConfig: null QualityPolicy");
  }
  quality_ = std::move(policy);
  return *this;
}

EngineConfig& EngineConfig::quality_band(double min_keep, double max_keep) {
  if (!(min_keep > 0.0) || min_keep > max_keep || !(max_keep <= 1.0)) {
    throw std::invalid_argument(
        "EngineConfig: quality_band needs 0 < min_keep <= max_keep <= 1");
  }
  quality_min_keep_ = min_keep;
  quality_max_keep_ = max_keep;
  return *this;
}

void EngineConfig::validate() const {
  if (!scheduler_ || !planner_ || !batcher_ || !placement_ || !quality_) {
    throw std::invalid_argument("EngineConfig: missing policy");
  }
  if (!(quality_min_keep_ > 0.0) || quality_min_keep_ > quality_max_keep_ ||
      !(quality_max_keep_ <= 1.0)) {
    throw std::invalid_argument(
        "EngineConfig: quality band needs 0 < min_keep <= max_keep <= 1");
  }
  if (paged_kv_ && kv_capacity_bytes_ > 0 &&
      kv_capacity_bytes_ < kv_page_bytes_) {
    throw std::invalid_argument(
        "EngineConfig: the KV budget must hold at least one kv_page_bytes "
        "page under paged_kv");
  }
  if (weight_residency_bytes_ > 0 && !planner_->chains_weight_residency()) {
    throw std::invalid_argument(
        "EngineConfig: weight_residency_bytes set but the PrefillPlanner "
        "does not chain weight residency (use ResidentChunkedPrefill)");
  }
  if (!fat_backend_ && !dynamic_cast<const NoOffload*>(offload_.get())) {
    throw std::invalid_argument(
        "EngineConfig: an offloading OffloadPolicy needs a fat_backend to "
        "route chunks to (set fat_backend or keep NoOffload)");
  }
  if (fat_backend_) {
    fat_backend_->validate();
  }
}

}  // namespace edgemm::serve
