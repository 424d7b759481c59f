// Task-level accuracy proxy for pruning — the stand-in for the paper's
// "minimal score reduction in VQA" claim (§V-C).
//
// We cannot score VQA without the trained checkpoint (docs/PAPER_MAP.md,
// "Substitutions"), so the proxy measures what a downstream head would
// see: a fixed random linear "answer head" maps the FFN output to answer
// logits, and the score is the fraction of tokens whose argmax answer is
// unchanged by pruning. Unlike cosine similarity this metric is
// sensitive exactly to the errors that flip decisions.
#ifndef EDGEMM_PRUNING_TASK_PROXY_HPP
#define EDGEMM_PRUNING_TASK_PROXY_HPP

#include <cstdint>
#include <vector>

#include "model/activation_gen.hpp"
#include "pruning/dynamic_topk.hpp"

namespace edgemm::pruning {

/// Proxy-task parameters.
struct TaskProxyConfig {
  std::size_t answer_classes = 64;  ///< rows of the answer head
  std::size_t d_ffn = 512;          ///< hidden width of the evaluated FFN
  std::size_t tokens = 6;           ///< decisions sampled per layer
  std::uint64_t seed = 7;
  DynamicTopKConfig dynamic{};
  std::vector<double> fixed_ratios{0.1, 0.7};
};

/// Agreement scores in [0, 1]; 1 = pruning never flips the answer.
struct TaskProxyResult {
  double agreement_dynamic = 0.0;
  std::vector<double> agreement_fixed;   ///< aligned with fixed_ratios
  double mean_pruning_ratio = 0.0;       ///< achieved by the dynamic scheme
  std::size_t decisions = 0;             ///< total (layer, token) samples
};

/// Runs the proxy over every (stable) layer of `gen`.
TaskProxyResult evaluate_task_proxy(const model::ActivationGenerator& gen,
                                    const TaskProxyConfig& config);

}  // namespace edgemm::pruning

#endif  // EDGEMM_PRUNING_TASK_PROXY_HPP
