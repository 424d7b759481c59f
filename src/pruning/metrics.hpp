// Evaluation harness for activation-aware pruning — regenerates the
// quantities plotted in Fig. 12:
//   (a) per-layer kurtosis and achieved pruning ratio of the dynamic
//       Top-k scheme over a token generation;
//   (b) per-layer cosine similarity between pruned and unpruned FFN
//       outputs, for dynamic pruning and for fixed ratios.
#ifndef EDGEMM_PRUNING_METRICS_HPP
#define EDGEMM_PRUNING_METRICS_HPP

#include <cstddef>
#include <vector>

#include "model/activation_gen.hpp"
#include "pruning/dynamic_topk.hpp"

namespace edgemm::pruning {

/// Experiment parameters (scaled-down FFN shapes keep the functional
/// evaluation fast; accuracy depends on activation statistics, not
/// absolute width — docs/PAPER_MAP.md, "Substitutions").
struct PruningEvalConfig {
  std::size_t d_ffn = 1024;       ///< hidden width of the evaluated FFN
  std::size_t tokens = 8;         ///< generated tokens averaged per layer
  std::uint64_t seed = 42;
  DynamicTopKConfig dynamic{};
  std::vector<double> fixed_ratios{0.1, 0.7};  ///< Fig. 12(b) baselines
};

/// One layer's measurements, averaged over the generated tokens.
struct LayerPruningStats {
  std::size_t layer = 0;
  double kurtosis = 0.0;            ///< channel-distribution outlier metric
  double pruning_ratio = 0.0;       ///< 1 − kept/d under dynamic Top-k
  std::size_t k_used = 0;           ///< dynamic budget at this layer (last token)
  double cosine_dynamic = 0.0;      ///< pruned-vs-dense FFN output similarity
  std::vector<double> cosine_fixed; ///< one per PruningEvalConfig::fixed_ratios
};

/// Whole-sweep result.
struct PruningEvalResult {
  std::vector<LayerPruningStats> layers;
  double mean_pruning_ratio = 0.0;   ///< across layers & tokens
  double mean_cosine_dynamic = 0.0;
  std::vector<double> mean_cosine_fixed;
};

/// Runs the Fig. 12 experiment on synthetic activations from `gen`
/// against per-layer random gated-MLP weights.
PruningEvalResult evaluate_pruning(const model::ActivationGenerator& gen,
                                   const PruningEvalConfig& config);

}  // namespace edgemm::pruning

#endif  // EDGEMM_PRUNING_METRICS_HPP
