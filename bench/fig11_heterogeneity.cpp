// Fig. 11 — Performance of homogeneous and heterogeneous designs over
// the Snitch SIMD baseline, per phase and for the entire MLLM.
//
// Paper anchors: CC-cluster 4.3x MC-cluster on GEMM; MC-cluster 2.42x
// CC-cluster on GEMV; heterogeneous EdgeMM 1.79x homo-CC and 2.65x
// homo-MC on the entire MLLM (SPHINX-Tiny, averaged token lengths).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "core/chip.hpp"
#include "core/pipeline.hpp"
#include "model/workload.hpp"

namespace {

using namespace edgemm;
using core::ChipComposition;
using core::ChipTimingModel;
using core::GemmWork;

Cycle run_on_fresh_chip(const core::ChipConfig& cfg, ChipComposition comp,
                        const std::vector<GemmWork>& ops) {
  ChipTimingModel chip(cfg, comp);
  return chip.run_phase(ops);
}

/// Single-cluster kernel comparison (the 4.3x / 2.42x text anchors).
Cycle run_single_cluster(const core::ChipConfig& cfg, core::ClusterKind kind,
                         const GemmWork& op) {
  sim::Simulator sim;
  mem::DramController dram(sim, cfg.dram);
  core::ClusterTimingModel cluster(sim, dram, cfg, kind);
  Cycle done = 0;
  cluster.run_ops({op}, [&] { done = sim.now(); });
  sim.run();
  return done;
}

}  // namespace

int main() {
  edgemm::bench::print_header(
      "Fig. 11 (homogeneous vs heterogeneous designs)",
      "CC 4.3x MC on GEMM; MC 2.42x CC on GEMV; EdgeMM 1.79x homo-CC and "
      "2.65x homo-MC on the entire MLLM");

  const auto cfg = core::default_chip_config();
  const auto llm = model::sphinx_tiny();

  // --- Single-cluster kernel anchors --------------------------------------
  const GemmWork gemm{300, 2048, 2048, Phase::kPrefill, false, 0, false};
  const GemmWork gemv{1, 2048, 2048, Phase::kDecode, false, 0, false};
  const Cycle cc_gemm = run_single_cluster(cfg, core::ClusterKind::kComputeCentric, gemm);
  const Cycle mc_gemm = run_single_cluster(cfg, core::ClusterKind::kMemoryCentric, gemm);
  const Cycle cc_gemv = run_single_cluster(cfg, core::ClusterKind::kComputeCentric, gemv);
  const Cycle mc_gemv = run_single_cluster(cfg, core::ClusterKind::kMemoryCentric, gemv);

  edgemm::bench::print_paper_vs_measured(
      "CC-cluster vs MC-cluster, GEMM (300x2048x2048)", "4.3x",
      fmt_speedup(static_cast<double>(mc_gemm) / static_cast<double>(cc_gemm)));
  edgemm::bench::print_paper_vs_measured(
      "MC-cluster vs CC-cluster, GEMV (2048x2048)", "2.42x",
      fmt_speedup(static_cast<double>(cc_gemv) / static_cast<double>(mc_gemv)));

  // --- Whole-chip comparison across phases ---------------------------------
  // Averaged token lengths (§V-B): multi-crop visual input (SPHINX uses
  // five sub-images) and short VQA-style answers.
  const std::size_t out_tokens = 8;
  const auto params = model::default_params_for_output(300, out_tokens, /*crops=*/5);
  const auto workload =
      model::aggregate_workload(model::build_phase_workload(llm, params));

  std::vector<GemmWork> decode_all;
  for (std::size_t t = 0; t < out_tokens; ++t) {
    decode_all.insert(decode_all.end(), workload.decode_token.begin(),
                      workload.decode_token.end());
  }
  std::vector<GemmWork> entire;
  entire.insert(entire.end(), workload.encoder.begin(), workload.encoder.end());
  entire.insert(entire.end(), workload.prefill.begin(), workload.prefill.end());
  entire.insert(entire.end(), decode_all.begin(), decode_all.end());

  struct Row {
    const char* name;
    const std::vector<GemmWork>& ops;
  };
  const Row rows[] = {{"vision encoder (GEMM)", workload.encoder},
                      {"LLM prefill (GEMM)", workload.prefill},
                      {"LLM decode x8 (GEMV)", decode_all}};

  Table t("Fig. 11 — speedup over Snitch SIMD baseline (SPHINX-Tiny, 5 crops, out 8)");
  t.set_header({"phase", "baseline", "homo-CC", "homo-MC", "EdgeMM hetero"});
  for (const Row& row : rows) {
    const Cycle base = run_on_fresh_chip(cfg, ChipComposition::kBaselineSnitch, row.ops);
    const Cycle cc = run_on_fresh_chip(cfg, ChipComposition::kHomoCc, row.ops);
    const Cycle mc = run_on_fresh_chip(cfg, ChipComposition::kHomoMc, row.ops);
    const Cycle het = run_on_fresh_chip(cfg, ChipComposition::kHeterogeneous, row.ops);
    auto speedup = [base](Cycle c) {
      return fmt_speedup(static_cast<double>(base) / static_cast<double>(c));
    };
    t.add_row({row.name, "1.00x", speedup(cc), speedup(mc), speedup(het)});
  }

  // Entire MLLM: homogeneous designs execute the phases back-to-back on
  // all clusters; the heterogeneous chip additionally streams — the CC
  // side encodes/prefills the next request while the MC side decodes the
  // current one (§IV-B). Per-request steady-state period is the metric.
  const Cycle entire_base =
      run_on_fresh_chip(cfg, ChipComposition::kBaselineSnitch, entire);
  const Cycle entire_cc = run_on_fresh_chip(cfg, ChipComposition::kHomoCc, entire);
  const Cycle entire_mc = run_on_fresh_chip(cfg, ChipComposition::kHomoMc, entire);
  core::MllmPipeline pipeline(cfg);
  core::PipelineOptions opts;
  opts.output_tokens = out_tokens;
  opts.batches = 4;
  opts.manage_bandwidth = true;
  opts.enable_batching = false;
  opts.policy = core::derive_policy(cfg, workload);
  const auto het_pipe = pipeline.run(workload, opts);
  const auto entire_het = static_cast<Cycle>(
      static_cast<double>(out_tokens) / het_pipe.tokens_per_second * cfg.clock_hz);
  auto entire_speedup = [entire_base](Cycle c) {
    return fmt_speedup(static_cast<double>(entire_base) / static_cast<double>(c));
  };
  t.add_row({"entire MLLM (streaming)", "1.00x", entire_speedup(entire_cc),
             entire_speedup(entire_mc), entire_speedup(entire_het)});
  t.print();

  edgemm::bench::print_paper_vs_measured(
      "EdgeMM vs homo-CC (entire MLLM)", "1.79x",
      fmt_speedup(static_cast<double>(entire_cc) / static_cast<double>(entire_het)));
  edgemm::bench::print_paper_vs_measured(
      "EdgeMM vs homo-MC (entire MLLM)", "2.65x",
      fmt_speedup(static_cast<double>(entire_mc) / static_cast<double>(entire_het)));
  return 0;
}
