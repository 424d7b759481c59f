// Fig. 12 — Evaluation of activation-aware dynamic Top-k weight pruning:
//  (a) kurtosis and per-core pruning ratio vs decoder layer,
//  (b) cosine similarity of pruned vs unpruned FFN outputs (dynamic vs
//      fixed ratios 0.1 / 0.7),
// plus the §V-C anchor: decode latency reduced 42 % on average.
#include <cstdio>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "core/pipeline.hpp"
#include "model/activation_gen.hpp"
#include "model/workload.hpp"
#include "pruning/metrics.hpp"
#include "pruning/task_proxy.hpp"

int main() {
  using namespace edgemm;
  edgemm::bench::print_header(
      "Fig. 12 (dynamic Top-k pruning)",
      "pruning ratio grows with layer depth (kurtosis-driven); dynamic pruning "
      "matches fixed-0.1 accuracy while fixed-0.7 collapses in shallow layers; "
      "decode latency cut by 42 % on average");

  // --- (a)+(b): layer-wise evaluation on the synthetic SPHINX activations --
  // Scaled-width FFN (512 x 1408, same 2048:5632 aspect as TinyLlama)
  // keeps the functional evaluation fast; accuracy depends on channel
  // statistics, not absolute width (docs/PAPER_MAP.md, "Substitutions").
  model::ActivationProfile profile;
  profile.channels = 512;
  profile.layers = 22;
  model::ActivationGenerator gen(profile, 2025);

  pruning::PruningEvalConfig cfg;
  cfg.d_ffn = 1408;
  cfg.tokens = 4;
  cfg.fixed_ratios = {0.1, 0.7};
  const auto result = pruning::evaluate_pruning(gen, cfg);

  Table t("Fig. 12(a)+(b) — per-layer pruning behaviour (SPHINX-Tiny shape, scaled)");
  t.set_header({"layer", "kurtosis", "dyn. pruning ratio", "cos(dynamic)",
                "cos(fixed 0.1)", "cos(fixed 0.7)"});
  for (const auto& layer : result.layers) {
    if (layer.layer % 2 != 0 && layer.layer != 1 && layer.layer != 21) continue;
    t.add_row({std::to_string(layer.layer), fmt_double(layer.kurtosis, 1),
               fmt_percent(layer.pruning_ratio, 1), fmt_double(layer.cosine_dynamic, 4),
               fmt_double(layer.cosine_fixed[0], 4), fmt_double(layer.cosine_fixed[1], 4)});
  }
  t.print();

  edgemm::bench::print_paper_vs_measured(
      "dynamic vs fixed-0.1 accuracy", "comparable",
      fmt_double(result.mean_cosine_dynamic, 4) + " vs " +
          fmt_double(result.mean_cosine_fixed[0], 4));
  edgemm::bench::print_paper_vs_measured(
      "fixed-0.7 shallow-layer damage", "irreversible loss",
      "cos = " + fmt_double(result.layers[1].cosine_fixed[1], 4) + " at layer 1");
  edgemm::bench::print_paper_vs_measured("mean dynamic pruning ratio", "(drives 42 %)",
                                         fmt_percent(result.mean_pruning_ratio, 1));

  // Task-level proxy for the "minimal score reduction in VQA" claim: the
  // fraction of downstream argmax answers unchanged by pruning.
  pruning::TaskProxyConfig proxy_cfg;
  proxy_cfg.d_ffn = 512;
  proxy_cfg.tokens = 4;
  model::ActivationProfile proxy_profile = profile;
  proxy_profile.channels = 256;
  model::ActivationGenerator proxy_gen(proxy_profile, 2025);
  const auto proxy = pruning::evaluate_task_proxy(proxy_gen, proxy_cfg);
  edgemm::bench::print_paper_vs_measured(
      "task-score retention (VQA proxy)", "minimal reduction",
      fmt_percent(proxy.agreement_dynamic, 1) + " answers unchanged (fixed-0.7: " +
          fmt_percent(proxy.agreement_fixed[1], 1) + ")");

  // --- §V-C anchor: decode-latency reduction through the pipeline ---------
  const auto mllm = model::sphinx_tiny();
  auto workload = model::aggregate_workload(
      model::build_phase_workload(mllm, model::default_params_for_output(300, 64)));

  core::ChipConfig chip_cfg = core::default_chip_config();
  chip_cfg.timing_block_scale = 4.0;  // coarser events for the 64-token runs
  core::MllmPipeline pipeline(chip_cfg);
  core::PipelineOptions opts;
  opts.output_tokens = 64;
  opts.batches = 3;
  opts.manage_bandwidth = false;
  opts.enable_batching = false;

  const auto dense = pipeline.run(workload, opts);
  opts.prune_keep_fraction = 1.0 - result.mean_pruning_ratio;
  const auto pruned = pipeline.run(workload, opts);
  const double cut = 1.0 - static_cast<double>(pruned.mc_stage_cycles) /
                               static_cast<double>(dense.mc_stage_cycles);
  edgemm::bench::print_paper_vs_measured("LLM-decode latency reduction", "42 %",
                                         fmt_percent(cut, 1));
  return 0;
}
