// Table II — Comparison of EdgeMM and the RTX 3060 laptop GPU.
//
// Paper anchors: EdgeMM 2.15x GPU; +activation-aware pruning: 2.84x,
// reaching 138 tokens/s; energy efficiency quoted as 0.217 token/J
// (abstract) / 0.28 token/J (§V-C) — see EXPERIMENTS.md for the
// inconsistency discussion; we report our derivation.
#include <cstdio>
#include <vector>

#include "baselines/energy_model.hpp"
#include "baselines/gpu_backend.hpp"
#include "baselines/gpu_model.hpp"
#include "bench_common.hpp"
#include "sim/simulator.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/pipeline.hpp"
#include "model/workload.hpp"
#include "pruning/metrics.hpp"

namespace {

using namespace edgemm;

core::PipelineResult run_edgemm(const core::ChipConfig& cfg,
                                const core::PhaseWorkload& workload, std::size_t l,
                                double keep_fraction) {
  core::MllmPipeline pipeline(cfg);
  core::PipelineOptions opts;
  opts.output_tokens = l;
  opts.batches = 3;
  opts.manage_bandwidth = true;
  opts.enable_batching = true;
  opts.prune_keep_fraction = keep_fraction;
  opts.policy = core::derive_policy(cfg, workload);
  // Interactive streaming cap: deeper batches would multiply the
  // per-request queueing latency beyond what AR/VR tolerates (§IV-B
  // accepts a 42 % latency increment; batch 4 stays within it here).
  opts.policy.max_batch = 4;
  return pipeline.run(workload, opts);
}

}  // namespace

int main() {
  edgemm::bench::print_header(
      "Table II (EdgeMM vs RTX 3060 laptop)",
      "EdgeMM 2.15x GPU; with weight pruning 2.84x and 138 tokens/s");

  const auto mllm = model::sphinx_tiny();
  const std::size_t l = 256;  // streaming operating point with batching active
  const auto params = model::default_params_for_output(300, l, /*crops=*/5);
  const auto workload =
      model::aggregate_workload(model::build_phase_workload(mllm, params));

  // GPU baseline: serial per-request inference, priced through the
  // schedulable GpuBackend (the heterogeneous-offload target). Its
  // job_seconds sums the same roofline-plus-overheads op costs as
  // evaluate_gpu, so the Table II numbers are bit-identical to the
  // pre-backend derivation — gated below, plus a FIFO dispatch check
  // that one stream really serializes the three phases.
  const baselines::GpuSpec gpu_spec;
  sim::Simulator gpu_sim;
  baselines::GpuBackend gpu_backend(gpu_sim, gpu_spec, kChipClockHz);
  baselines::GpuMllmTiming gpu;
  gpu.encoder_seconds = gpu_backend.job_seconds(workload.encoder);
  gpu.prefill_seconds = gpu_backend.job_seconds(workload.prefill);
  gpu.decode_token_seconds = gpu_backend.job_seconds(workload.decode_token);
  const double gpu_tps = gpu.tokens_per_second(l);

  const auto reference = baselines::evaluate_gpu(gpu_spec, workload);
  const bool backend_identical =
      gpu.encoder_seconds == reference.encoder_seconds &&
      gpu.prefill_seconds == reference.prefill_seconds &&
      gpu.decode_token_seconds == reference.decode_token_seconds;

  // FIFO check: the three phases submitted back-to-back on one stream
  // retire serially at the sum of their per-job cycle costs.
  const Cycle expected_retire = gpu_backend.job_cycles(workload.encoder) +
                                gpu_backend.job_cycles(workload.prefill) +
                                gpu_backend.job_cycles(workload.decode_token);
  Cycle last_retire = 0;
  auto record_retire = [&last_retire, &gpu_sim] { last_retire = gpu_sim.now(); };
  gpu_backend.submit(core::Lane::kCcStage,
                     {workload.encoder.begin(), workload.encoder.end()},
                     record_retire);
  gpu_backend.submit(core::Lane::kCcStage,
                     {workload.prefill.begin(), workload.prefill.end()},
                     record_retire);
  gpu_backend.submit(core::Lane::kCcStage,
                     {workload.decode_token.begin(), workload.decode_token.end()},
                     record_retire);
  gpu_sim.run();

  // Measured dynamic pruning depth (same harness as Fig. 12).
  model::ActivationProfile profile;
  profile.channels = 512;
  profile.layers = mllm.llm.layers;
  model::ActivationGenerator gen(profile, 2025);
  pruning::PruningEvalConfig eval_cfg;
  eval_cfg.d_ffn = 1408;
  eval_cfg.tokens = 3;
  const auto eval = pruning::evaluate_pruning(gen, eval_cfg);
  const double keep = 1.0 - eval.mean_pruning_ratio;

  core::ChipConfig cfg = core::default_chip_config();
  cfg.timing_block_scale = 8.0;
  const auto dense = run_edgemm(cfg, workload, l, 1.0);
  const auto pruned = run_edgemm(cfg, workload, l, keep);

  Table t("Table II — EdgeMM vs RTX 3060 laptop (SPHINX-Tiny, streaming, l = " +
          std::to_string(l) + ")");
  t.set_header({"design", "compute", "bandwidth", "tokens/s", "MLLM perf."});
  t.add_row({gpu_spec.name, "13 TFLOP/s (FP32)", "GDDR6 336 GB/s",
             fmt_double(gpu_tps, 1), "1.00x"});
  t.add_row({"EdgeMM", fmt_si(cfg.peak_flops(), 0) + "FLOP/s (BF16)",
             fmt_double(bytes_per_cycle_to_gbps(cfg.dram.bytes_per_cycle), 1) + " GB/s",
             fmt_double(dense.tokens_per_second, 1),
             fmt_speedup(dense.tokens_per_second / gpu_tps)});
  t.add_row({"EdgeMM + weight pruning", fmt_si(cfg.peak_flops(), 0) + "FLOP/s (BF16)",
             fmt_double(bytes_per_cycle_to_gbps(cfg.dram.bytes_per_cycle), 1) + " GB/s",
             fmt_double(pruned.tokens_per_second, 1),
             fmt_speedup(pruned.tokens_per_second / gpu_tps)});
  t.print();

  edgemm::bench::print_paper_vs_measured(
      "EdgeMM vs GPU", "2.15x", fmt_speedup(dense.tokens_per_second / gpu_tps));
  edgemm::bench::print_paper_vs_measured(
      "EdgeMM + pruning vs GPU", "2.84x",
      fmt_speedup(pruned.tokens_per_second / gpu_tps));
  edgemm::bench::print_paper_vs_measured("EdgeMM + pruning throughput", "138 tokens/s",
                                         fmt_double(pruned.tokens_per_second, 1));

  // Energy derivation (published constants; see EXPERIMENTS.md).
  const double seconds_per_token = 1.0 / pruned.tokens_per_second;
  const auto decode_bytes =
      static_cast<Bytes>(static_cast<double>(mllm.llm.total_params()) * keep /
                         static_cast<double>(pruned.batch));
  const auto energy = baselines::edgemm_energy(cfg, seconds_per_token, decode_bytes);
  std::printf(
      "\nEnergy: %.3f mJ/token chip + %.3f mJ/token DRAM -> %.2f tokens/J\n"
      "(paper quotes 0.217 token/J in the abstract and 0.28 token/J in §V-C;\n"
      " both are inconsistent with 138 tokens/s at 112 mW — see EXPERIMENTS.md)\n",
      energy.chip_joules * 1e3, energy.dram_joules * 1e3,
      baselines::tokens_per_joule(1.0, energy));

  // Where the joules go at the decode operating point (per token).
  const double cim_macs_per_token =
      static_cast<double>(mllm.llm.total_params()) * keep;  // one MAC per weight
  const auto breakdown = baselines::energy_breakdown(
      cfg, /*sa_macs=*/0.0, cim_macs_per_token, decode_bytes, seconds_per_token);
  Table e("Energy breakdown per decoded token (batch " + std::to_string(pruned.batch) +
          ")");
  e.set_header({"component", "mJ/token", "share"});
  const double total = breakdown.total_joules();
  e.add_row({"CIM MACs (INT8 in-SRAM)", fmt_double(breakdown.cim_joules * 1e3, 3),
             fmt_percent(breakdown.cim_joules / total, 1)});
  e.add_row({"DRAM traffic", fmt_double(breakdown.dram_joules * 1e3, 3),
             fmt_percent(breakdown.dram_joules / total, 1)});
  e.add_row({"static + clocks", fmt_double(breakdown.static_joules * 1e3, 3),
             fmt_percent(breakdown.static_joules / total, 1)});
  e.print();

  edgemm::bench::CheckRegistry checks;
  checks.add("backend_identical", backend_identical,
             "\nGpuBackend phase costs bit-identical to evaluate_gpu: ");
  checks.add("fifo_serializes", last_retire == expected_retire,
             "GpuBackend FIFO stream serializes the three phases "
             "(retire at %llu cycles): ",
             static_cast<unsigned long long>(expected_retire));
  return checks.exit_code();
}
