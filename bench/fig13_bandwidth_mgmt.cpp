// Fig. 13 — Latency and throughput gains from token-length-driven
// bandwidth management and stream-based batch decoding.
//
// Paper anchors: stages balance at l_e = 36 under equal sharing; the
// Bc:Bm ratio ramps to 1:7; at l = 128 management cuts latency 40.3 %
// and lifts throughput 2.14x; at l_b = 131 batching takes over; at
// l = 1024 batching adds 42 % latency for 13.98x throughput.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "core/pipeline.hpp"
#include "model/workload.hpp"

namespace {

using namespace edgemm;

core::PipelineResult run_point(const core::ChipConfig& cfg,
                               const core::PhaseWorkload& workload, std::size_t l,
                               bool manage, bool batching,
                               const core::BandwidthPolicy& policy) {
  core::MllmPipeline pipeline(cfg);
  core::PipelineOptions opts;
  opts.output_tokens = l;
  opts.batches = 3;
  opts.manage_bandwidth = manage;
  opts.enable_batching = batching;
  opts.policy = policy;
  return pipeline.run(workload, opts);
}

}  // namespace

int main() {
  edgemm::bench::print_header(
      "Fig. 13 (bandwidth & workload management)",
      "latency flat below l_e; management cuts latency ~40 % / lifts throughput "
      "~2.1x near l = 128; batching beyond l_b trades ~42 % latency for ~14x "
      "throughput at l = 1024");

  // Real-time streaming scenario of §IV-B (multi-crop visual input keeps
  // the CC stage busy, as in SPHINX's five sub-images per frame).
  const auto mllm = model::sphinx_tiny();
  core::ChipConfig cfg = core::default_chip_config();
  cfg.timing_block_scale = 8.0;  // coarse event granularity for long sweeps

  // Platform-calibrated policy: the paper's l_e = 36 / l_b = 131 hold on
  // their testbed; ours is derived from the same balance definition.
  const auto probe_workload = model::aggregate_workload(model::build_phase_workload(
      mllm, model::default_params_for_output(300, 36, /*crops=*/5)));
  const auto policy = core::derive_policy(cfg, probe_workload);
  edgemm::bench::print_paper_vs_measured("balance length l_e", "36",
                                         std::to_string(policy.balance_length));
  edgemm::bench::print_paper_vs_measured("batch threshold l_b", "131",
                                         std::to_string(policy.batch_length));

  Table t("Fig. 13 — latency & throughput vs output length l (SPHINX-Tiny, 5 crops)");
  t.set_header({"l", "Bc:Bm", "batch", "latency eq-share", "latency managed",
                "latency change", "tokens/s eq-share", "tokens/s managed+batch",
                "throughput gain"});

  for (const std::size_t l : {8u, 16u, 36u, 64u, 128u, 256u, 512u, 1024u}) {
    const auto params = model::default_params_for_output(300, l, /*crops=*/5);
    const auto workload =
        model::aggregate_workload(model::build_phase_workload(mllm, params));

    const auto baseline = run_point(cfg, workload, l, /*manage=*/false,
                                    /*batching=*/false, policy);
    const auto managed = run_point(cfg, workload, l, /*manage=*/true,
                                   /*batching=*/true, policy);

    const double lat_change = managed.request_latency_ms / baseline.request_latency_ms - 1.0;
    const double gain = managed.tokens_per_second / baseline.tokens_per_second;
    t.add_row({std::to_string(l), "1:" + std::to_string(managed.mc_ratio),
               std::to_string(managed.batch),
               fmt_double(baseline.request_latency_ms, 1) + " ms",
               fmt_double(managed.request_latency_ms, 1) + " ms",
               fmt_percent(lat_change, 1), fmt_double(baseline.tokens_per_second, 1),
               fmt_double(managed.tokens_per_second, 1), fmt_speedup(gain)});
  }
  t.print();

  // Anchor points.
  {
    const std::size_t l = 128;
    const auto params = model::default_params_for_output(300, l, 5);
    const auto workload =
        model::aggregate_workload(model::build_phase_workload(mllm, params));
    const auto baseline = run_point(cfg, workload, l, false, false, policy);
    const auto managed = run_point(cfg, workload, l, true, false, policy);  // mgmt only
    edgemm::bench::print_paper_vs_measured(
        "latency reduction @ l=128 (mgmt only)", "40.3 %",
        fmt_percent(1.0 - managed.request_latency_ms / baseline.request_latency_ms, 1));
    edgemm::bench::print_paper_vs_measured(
        "throughput gain @ l=128 (mgmt only)", "2.14x",
        fmt_speedup(managed.tokens_per_second / baseline.tokens_per_second));
  }
  {
    const std::size_t l = 1024;
    const auto params = model::default_params_for_output(300, l, 5);
    const auto workload =
        model::aggregate_workload(model::build_phase_workload(mllm, params));
    const auto managed_unbatched = run_point(cfg, workload, l, true, false, policy);
    const auto managed_batched = run_point(cfg, workload, l, true, true, policy);
    edgemm::bench::print_paper_vs_measured(
        "batching latency cost @ l=1024", "+42 %",
        fmt_percent(managed_batched.request_latency_ms /
                            managed_unbatched.request_latency_ms -
                        1.0,
                    1));
    edgemm::bench::print_paper_vs_measured(
        "batching throughput gain @ l=1024", "13.98x",
        fmt_speedup(managed_batched.tokens_per_second /
                    managed_unbatched.tokens_per_second));
  }
  std::printf("\nNote: l_e and l_b are policy constants from the paper (36 / 131); the\n"
              "crossover emerging from this simulator is explained in docs/PAPER_MAP.md.\n");
  return 0;
}
