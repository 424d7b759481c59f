// Serving-trace bench: replays deterministic request traces on the
// heterogeneous chip through the policy-driven ServingEngine.
//
// Every section's replay grid runs through serve::run_sweep — the
// thread-parallel sweep harness — which returns outcomes in case order,
// byte-identical to a sequential run regardless of worker count (§7
// gates exactly that), so the printed numbers do not depend on the host.
//
// Sections:
//   1. headline — the PR-1 reproduction (sequential vs continuous
//      batching vs + bandwidth management) via default-policy
//      EngineConfigs; self-checked against sequential replay.
//   2. policy comparison — FIFO vs shortest-remaining-first vs
//      SLO-aware admission on a bursty deadline trace (tail latency +
//      SLO attainment), plus KV-capacity accounting on the same trace.
//   3. prefill planners on a long-prefill trace: monolithic vs chunked
//      vs weight-resident chunk chaining (CC weight traffic, makespan,
//      worst-case CC-lane queueing delay, pin/fallback accounting). One
//      refcounted pin per model charges the budget once and riders skip
//      weight DMA; every resident row's fetched + saved weight bytes are
//      gated exactly equal to the chunked row's fetch.
//   (4 is unused: the section numbers stay stable for docs and CI.)
//   5. fidelity sweep — makespan drift across burst/block coarsening
//      factors (8x/4x/2x/1x).
//   6. multi-model zoo — residency-aware placement policies
//      (keep-current vs demand-weighted vs evict-idle-on-pressure) over
//      one shared budget, with the rider fill barrier keeping the
//      savings fill-timing-honest; every row's fetched + saved weight
//      bytes are gated exactly equal.
//   7. fast/detailed execution tiers — every §1–§6 case re-replayed on
//      the fast tier (ReplayMode::kFast): per-case makespan drift gated
//      under 1%, completion counts equal, single-replay and policy-sweep
//      speedups gated, and worker-count byte-identity of the parallel
//      sweep. Emits BENCH_serving_trace.json.
//   8. cluster — the §6 zoo scenario sharded across {1,2,4,8} chips via
//      run_cluster: a 1-chip replica cluster gated bit-identical to the
//      single-engine §6 replay, near-linear replica tokens/s scaling at
//      fixed traffic, and a disaggregated prefill/decode split whose KV
//      migration bytes are exactly conserved on the chip-to-chip link.
//   9. paged KV — whole-footprint reservation vs page-granular KV with
//      CoW prefix sharing and DRAM swap at one equal byte budget:
//      paged + prefix gated to sustain strictly more concurrent decodes
//      (or equal throughput on fewer peak KV bytes), page ledgers gated
//      exactly conserved, and a tight-budget row that completes the
//      trace by paying DRAM re-fetches. Every row also encodes each
//      conversation's image once (encoder-cache hits gated to requests
//      - conversations) and prefills every request once, as a CC job or
//      as rows of an MC decode step (CC jobs + MC suffixes gated to
//      requests). §1–§8 replay with paged_kv off and carry no
//      prefix_id, so their numbers are untouched.
//  10. heterogeneous offload — the §6 long-prefill zoo trace on one
//      EdgeMM + fat-GPU chip pair (fast tier), sweeping OffloadPolicy
//      backend mixes: NoOffload with the GPU configured gated
//      bit-identical to no GPU at all, PrefillToFat gated to improve
//      makespan or tokens/s at no decode-p99 regression (KV shipped
//      back over an exactly-conserved return link), and a queue-depth
//      threshold policy splitting at chunk granularity.
//  11. load-adaptive quality — the §6 zoo trace pushed into overload
//      (48 requests in bursts of 4, per-request deadlines) behind
//      SLO-aware admission, sweeping the QualityPolicy seam:
//      SloPressureQuality gated to strictly improve SLO attainment AND
//      strictly cut rejections vs StaticQuality at a bounded
//      accuracy-proxy cost, degradations gated live on both pressure
//      policies, and the §10 edgemm-only case replayed with the default
//      quality config spelled out explicitly gated bit-identical (the
//      seam is free when static).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baselines/gpu_model.hpp"
#include "bench/bench_common.hpp"
#include "common/statistics.hpp"
#include "common/units.hpp"
#include "core/config.hpp"
#include "model/mllm_config.hpp"
#include "model/workload.hpp"
#include "serve/cluster/cluster_engine.hpp"
#include "serve/kv_tracker.hpp"
#include "serve/residency_tracker.hpp"
#include "serve/serving_engine.hpp"
#include "serve/sweep.hpp"
#include "serve/trace.hpp"

namespace {

using namespace edgemm;

/// Coarsened event granularity for multi-second traces: larger
/// double-buffer blocks and DMA bursts (with the throttle interval
/// scaled to keep per-interval budgets well above one burst). Total
/// traffic and compute are unchanged. factor 8 is the PR-1 operating
/// point; factor 1 is architectural fidelity.
core::ChipConfig coarsened_chip(double factor) {
  core::ChipConfig cfg = core::default_chip_config();
  cfg.timing_block_scale = factor;
  const auto dma_scale = static_cast<std::size_t>(factor > 2.0 ? factor / 2.0 : 1.0);
  cfg.dma.burst_bytes *= dma_scale;
  cfg.dma.throttle_interval *= dma_scale;
  return cfg;
}

serve::EngineConfig continuous_config(bool manage_bandwidth) {
  return serve::EngineConfig()
      .scheduler(std::make_shared<serve::ConcurrencyPolicy>(
          serve::AdmissionLimits{8, 16}))
      .manage_bandwidth(manage_bandwidth);
}

std::size_t default_workers(std::size_t cases) {
  const std::size_t hw = std::thread::hardware_concurrency();
  return std::min(cases, std::max<std::size_t>(hw, 1));
}

/// One section's grid priced by the sweep harness. Outcomes arrive in
/// case order whatever the worker count, so the section prints exactly
/// the sequential numbers.
struct SectionRun {
  std::vector<serve::SweepOutcome> outcomes;
  double wall_ms = 0.0;
  std::size_t workers = 1;
};

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

SectionRun run_section(const std::vector<serve::SweepCase>& cases) {
  serve::SweepOptions opts;
  opts.workers = default_workers(cases.size());
  const auto t0 = Clock::now();
  SectionRun run;
  run.outcomes = serve::run_sweep(cases, opts);
  run.wall_ms = ms_since(t0);
  run.workers = opts.workers;
  return run;
}

/// One §1–§6 case queued for the §7 fast-tier re-replay: the same
/// SweepCase with the engine flipped to ReplayMode::kFast, next to the
/// detailed result it must reproduce.
struct FidelityCase {
  serve::SweepCase fast_case;
  serve::ServingResult detailed;
  double detailed_wall_ms = 0.0;
};

void print_result(const char* label, const serve::ServingResult& r) {
  std::printf("  %-28s %4zu req  p50 %8.1f ms  p95 %8.1f ms  p99 %8.1f ms\n",
              label, r.completed, r.p50_latency_ms, r.p95_latency_ms,
              r.p99_latency_ms);
  std::printf("  %-28s makespan %8.1f ms  %8.1f tok/s  DRAM util %4.1f %%  "
              "mean batch %.2f\n",
              "", r.makespan_ms, r.tokens_per_second,
              100.0 * r.dram_utilization, r.mean_decode_batch);
}

void print_slo_result(const char* label, const serve::ServingResult& r) {
  std::printf("  %-28s %4zu served %3zu rejected  p99 %8.1f ms  "
              "SLO attainment %5.1f %%\n",
              label, r.completed, r.rejected, r.p99_latency_ms,
              100.0 * r.slo_attainment);
}

void print_section_wall(const SectionRun& run) {
  std::printf("  [section wall %.1f ms, %zu cases, %zu worker%s]\n",
              run.wall_ms, run.outcomes.size(), run.workers,
              run.workers == 1 ? "" : "s");
}

/// Wall time of a section that is not one sweep (§7, §8).
void print_section_wall(double wall_ms) {
  std::printf("  [section wall %.1f ms]\n", wall_ms);
}

}  // namespace

int main(int argc, char** argv) {
  // --fast: skip the expensive 1x/2x fidelity points (CI smoke mode).
  // --json=PATH: where to write the BENCH artifact (default: cwd).
  // Anything else is a usage error (exit 2): a mistyped flag must not
  // silently run the full sweep or write to the default path.
  bool fast = false;
  std::string json_path = "BENCH_serving_trace.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      fast = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "serving_trace: unknown argument '%s'\n"
                           "usage: serving_trace [--fast] [--json=PATH]\n",
                   argv[i]);
      return 2;
    }
  }

  bench::print_header(
      "serving trace (policy-driven engine)",
      "continuous batching amortizes weight traffic and overlaps prefill "
      "with decode; scheduling policies trade tail latency, SLO "
      "attainment and lane blocking on top");

  std::vector<FidelityCase> fidelity;
  // Tags cases for §7 and the JSON: copies each case with the engine
  // flipped to the fast tier, keyed to its just-computed detailed result.
  auto track = [&fidelity](const std::vector<serve::SweepCase>& cases,
                           const SectionRun& run) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      FidelityCase f;
      f.fast_case = cases[i];
      f.fast_case.engine.replay_mode(core::ReplayMode::kFast);
      f.detailed = run.outcomes[i].result;
      f.detailed_wall_ms = run.outcomes[i].wall_ms;
      fidelity.push_back(std::move(f));
    }
  };

  bench::CheckRegistry checks;
  bench::JsonWriter json;
  json.begin_object();
  json.field("bench", "serving_trace");
  json.field("mode", fast ? "fast" : "full");
  json.field("hardware_threads",
             static_cast<std::size_t>(std::thread::hardware_concurrency()));
  json.begin_array("sections");
  auto json_section = [&json](const char* name,
                              const std::vector<serve::SweepCase>& cases,
                              const SectionRun& run) {
    json.begin_object();
    json.field("name", name);
    json.field("wall_ms", run.wall_ms);
    json.field("workers", run.workers);
    json.begin_array("cases");
    for (std::size_t i = 0; i < cases.size(); ++i) {
      json.begin_object();
      json.field("label", cases[i].label);
      json.field("makespan_ms", run.outcomes[i].result.makespan_ms);
      json.field("wall_ms", run.outcomes[i].wall_ms);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  };

  // --- 1. Headline: the PR-1 reproduction --------------------------------
  serve::TraceConfig trace_cfg;
  trace_cfg.requests = 32;
  trace_cfg.arrival_rate_per_s = 12.0;
  trace_cfg.input_tokens = 300;
  trace_cfg.min_output_tokens = 32;
  trace_cfg.max_output_tokens = 256;
  trace_cfg.seed = 42;

  std::printf("model: SPHINX-Tiny   trace: %zu requests, Poisson %.1f req/s, "
              "l ~ U[%zu, %zu], seed %llu\n\n",
              trace_cfg.requests, trace_cfg.arrival_rate_per_s,
              trace_cfg.min_output_tokens, trace_cfg.max_output_tokens,
              static_cast<unsigned long long>(trace_cfg.seed));

  const core::ChipConfig chip8 = coarsened_chip(8.0);
  const std::vector<model::MllmConfig> sphinx_models = {model::sphinx_tiny()};
  const auto headline_trace = serve::poisson_trace(trace_cfg);

  const std::vector<serve::SweepCase> s1_cases = {
      {"s1 sequential", chip8, sphinx_models,
       serve::EngineConfig()
           .scheduler(std::make_shared<serve::ConcurrencyPolicy>(
               serve::AdmissionLimits{1, 1}))
           .manage_bandwidth(false),
       headline_trace},
      {"s1 continuous equal-bw", chip8, sphinx_models, continuous_config(false),
       headline_trace},
      {"s1 continuous bw-mgmt", chip8, sphinx_models, continuous_config(true),
       headline_trace},
  };
  const SectionRun s1 = run_section(s1_cases);
  track(s1_cases, s1);
  json_section("headline", s1_cases, s1);
  const auto& sequential = s1.outcomes[0].result;
  const auto& unmanaged = s1.outcomes[1].result;
  const auto& continuous = s1.outcomes[2].result;
  print_result("sequential (batch=1)", sequential);
  std::printf("\n");
  print_result("continuous, equal BW", unmanaged);
  std::printf("\n");
  print_result("continuous + BW mgmt", continuous);

  std::printf("\nmakespan speedup over sequential: %.2fx (continuous), "
              "%.2fx (+BW mgmt)\n",
              sequential.makespan_ms / unmanaged.makespan_ms,
              sequential.makespan_ms / continuous.makespan_ms);
  checks.add("continuous_beats_sequential",
             continuous.makespan < sequential.makespan,
             "continuous batching beats sequential on makespan: ");
  print_section_wall(s1);

  // --- 2. Policy comparison on a bursty SLO trace ------------------------
  std::printf("\n--- policy comparison (bursty trace, SLO deadlines) ---\n");
  serve::TraceConfig bursty = trace_cfg;
  bursty.requests = 24;
  bursty.arrival_rate_per_s = 24.0;
  bursty.burst = 8;  // 8-request bursts: deep backlog spikes
  bursty.min_output_tokens = 16;
  bursty.max_output_tokens = 128;
  bursty.slo_base_ms = 2500.0;
  bursty.slo_per_token_ms = 40.0;
  std::printf("trace: %zu requests in bursts of %zu, %.1f req/s, "
              "SLO = %.0f ms + %.0f ms/token\n\n",
              bursty.requests, bursty.burst, bursty.arrival_rate_per_s,
              bursty.slo_base_ms, bursty.slo_per_token_ms);

  auto policy_config = [](std::shared_ptr<const serve::SchedulerPolicy> sched,
                          std::shared_ptr<const serve::BatchPolicy> batch) {
    return serve::EngineConfig()
        .scheduler(std::move(sched))
        .batch_policy(std::move(batch))
        .manage_bandwidth(true);
  };
  const serve::AdmissionLimits limits{8, 16};
  // KV-capacity row rides the same grid: a tight budget (~4 full KV
  // caches) forces deferred joins and shrinks the batch.
  serve::Request worst_case;
  worst_case.input_tokens = bursty.input_tokens;
  worst_case.output_tokens = bursty.max_output_tokens;
  const Bytes kv_budget =
      4 * serve::kv_footprint_bytes(worst_case, model::sphinx_tiny());
  const auto bursty_trace = serve::poisson_trace(bursty);
  const std::vector<serve::SweepCase> s2_cases = {
      {"s2 fifo", chip8, sphinx_models,
       policy_config(std::make_shared<serve::ConcurrencyPolicy>(limits),
                     std::make_shared<serve::FifoBatch>()),
       bursty_trace},
      {"s2 srf", chip8, sphinx_models,
       policy_config(std::make_shared<serve::ConcurrencyPolicy>(limits),
                     std::make_shared<serve::ShortestRemainingFirst>()),
       bursty_trace},
      {"s2 slo-aware", chip8, sphinx_models,
       policy_config(std::make_shared<serve::SloAwarePolicy>(limits),
                     std::make_shared<serve::FifoBatch>()),
       bursty_trace},
      {"s2 kv-bounded", chip8, sphinx_models,
       policy_config(std::make_shared<serve::ConcurrencyPolicy>(limits),
                     std::make_shared<serve::FifoBatch>())
           .kv_capacity_bytes(kv_budget),
       bursty_trace},
  };
  const SectionRun s2 = run_section(s2_cases);
  track(s2_cases, s2);
  json_section("policy", s2_cases, s2);
  const auto& fifo = s2.outcomes[0].result;
  const auto& srf = s2.outcomes[1].result;
  const auto& slo = s2.outcomes[2].result;
  const auto& kv_bounded = s2.outcomes[3].result;
  print_slo_result("FIFO", fifo);
  print_slo_result("shortest-remaining-first", srf);
  print_slo_result("SLO-aware admission", slo);

  // Note p99 covers served requests only, and SLO-aware admission sheds
  // exactly the tail — so a p99 win alone would be near-tautological.
  // The gate demands load-shedding pay for itself: better served tail
  // WITHOUT giving up any SLO attainment.
  checks.add("slo_wins",
             slo.slo_attainment >= fifo.slo_attainment &&
                 slo.p99_latency_ms < fifo.p99_latency_ms,
             "\nSLO-aware improves served p99 without losing attainment: ");

  const double oversub = static_cast<double>(kv_budget) /
                         static_cast<double>(serve::chip_kv_capacity(chip8));
  std::printf("\nKV budget %.1f MiB (%.0fx the on-chip CIM capacity): "
              "%zu deferred joins, mean batch %.2f (vs %.2f unbounded)\n",
              static_cast<double>(kv_budget) / (1024.0 * 1024.0), oversub,
              kv_bounded.kv_deferrals, kv_bounded.mean_decode_batch,
              fifo.mean_decode_batch);
  print_section_wall(s2);

  // --- 3. Prefill planners: monolithic vs chunked vs weight-resident -----
  std::printf("\n--- prefill planners: resident vs re-fetch vs monolithic "
              "(long-prefill trace) ---\n");
  serve::TraceConfig long_prefill = trace_cfg;
  long_prefill.requests = 12;
  long_prefill.arrival_rate_per_s = 16.0;
  long_prefill.input_tokens = 900;  // long multimodal prompt
  long_prefill.crops = 3;
  long_prefill.min_output_tokens = 8;
  long_prefill.max_output_tokens = 48;
  std::printf("trace: %zu requests, %zu prompt tokens, %zu crops each\n",
              long_prefill.requests, long_prefill.input_tokens,
              long_prefill.crops);

  // Residency budget: two full LLM layer-group sets. The trace serves one
  // model, so its single refcounted pin charges at most one set. Like the
  // KV budget, this oversubscribes the physical TCDM — it models the
  // near-memory / enlarged-scratchpad design point, and the printed
  // multiple keeps that honest.
  const model::MllmConfig sphinx = model::sphinx_tiny();
  const Bytes layer_group = serve::llm_layer_group_bytes(sphinx, chip8);
  const Bytes full_set = layer_group * sphinx.llm.layers;
  const Bytes resid_budget = 2 * full_set;
  const double resid_oversub =
      static_cast<double>(resid_budget) /
      static_cast<double>(serve::chip_weight_residency_capacity(chip8));
  std::printf("residency budget: %.2f GiB = 2 full layer-group sets "
              "(%zu layers x %.1f MiB; %.0fx the physical CC TCDM)\n\n",
              static_cast<double>(resid_budget) / (1024.0 * 1024.0 * 1024.0),
              sphinx.llm.layers,
              static_cast<double>(layer_group) / (1024.0 * 1024.0),
              resid_oversub);

  const auto prefill_trace = serve::poisson_trace(long_prefill);
  const std::vector<serve::SweepCase> s3_cases = {
      {"s3 mono", chip8, sphinx_models, continuous_config(true), prefill_trace},
      {"s3 chunked", chip8, sphinx_models,
       continuous_config(true).prefill_planner(
           std::make_shared<serve::ChunkedPrefill>(128)),
       prefill_trace},
      {"s3 resident", chip8, sphinx_models,
       continuous_config(true)
           .prefill_planner(std::make_shared<serve::ResidentChunkedPrefill>(128))
           .weight_residency_bytes(resid_budget),
       prefill_trace},
      {"s3 chained", chip8, sphinx_models,
       continuous_config(true)
           .prefill_planner(std::make_shared<serve::ResidentChunkedPrefill>(
               128, /*chain_lane_affinity=*/true))
           .weight_residency_bytes(resid_budget),
       prefill_trace},
  };
  const SectionRun s3 = run_section(s3_cases);
  track(s3_cases, s3);
  json_section("planners", s3_cases, s3);
  const auto& mono = s3.outcomes[0].result;
  const auto& chunked = s3.outcomes[1].result;
  const auto& resident = s3.outcomes[2].result;
  const auto& chained = s3.outcomes[3].result;

  auto print_planner = [](const char* label, const serve::ServingResult& r) {
    std::printf("  %-28s CC weight fetch %7.1f GiB  makespan %8.1f ms  "
                "max CC queue delay %7.1f ms  (%zu CC jobs)\n",
                label,
                static_cast<double>(r.cc_weight_fetch_bytes) /
                    (1024.0 * 1024.0 * 1024.0),
                r.makespan_ms, r.max_cc_queue_delay_ms, r.prefill_jobs);
  };
  print_planner("monolithic prefill", mono);
  print_planner("chunked prefill (128 tok)", chunked);
  print_planner("resident-chunked (128 tok)", resident);
  print_planner("resident + lane chaining", chained);
  std::printf("\n  residency: %zu pins, %zu fallbacks, peak pinned %.2f GiB, "
              "%.1f GiB weight DMA avoided\n",
              resident.weight_pins, resident.weight_pin_fallbacks,
              static_cast<double>(resident.peak_pinned_bytes) /
                  (1024.0 * 1024.0 * 1024.0),
              static_cast<double>(resident.cc_weight_bytes_saved) /
                  (1024.0 * 1024.0 * 1024.0));
  std::printf("  + chaining: %zu pins, %zu fallbacks, %.1f GiB avoided\n",
              chained.weight_pins, chained.weight_pin_fallbacks,
              static_cast<double>(chained.cc_weight_bytes_saved) /
                  (1024.0 * 1024.0 * 1024.0));

  checks.add("chunk_wins",
             chunked.max_cc_queue_delay_ms < mono.max_cc_queue_delay_ms,
             "\nchunked prefill reduces worst-case CC-lane queueing: ");
  checks.add("resident_wins",
             resident.cc_weight_fetch_bytes < chunked.cc_weight_fetch_bytes &&
                 resident.makespan <= chunked.makespan,
             "resident chaining cuts CC weight traffic at equal chunk size "
             "without makespan cost: ");
  // The trace serves a single model: its one refcounted pin charges the
  // budget at most one layer-group set, and later requests ride it.
  checks.add("charged_once",
             resident.peak_pinned_bytes <= full_set &&
                 resident.weight_shared_attaches > 0,
             "budget charged once per model (peak <= one layer-group set, "
             "riders attach free): ");
  // Residency only relabels weight bytes: a pinned op's bytes move from
  // fetched to saved and a barrier re-fetch stays fetched, so fetch +
  // saved is exactly the chunked row's fetch on both resident rows.
  const auto conserves_weight_bytes = [&chunked](const serve::ServingResult& r) {
    return r.cc_weight_fetch_bytes + r.cc_weight_bytes_saved ==
           chunked.cc_weight_fetch_bytes;
  };
  checks.add("planner_bytes_conserved",
             conserves_weight_bytes(resident) && conserves_weight_bytes(chained),
             "resident rows conserve weight bytes (fetch + saved == chunked "
             "fetch, %.1f GiB): ",
             static_cast<double>(chunked.cc_weight_fetch_bytes) /
                 (1024.0 * 1024.0 * 1024.0));
  std::printf("remaining makespan gap to monolithic: %+.1f %% (chunked was "
              "%+.1f %%)\n",
              100.0 * (resident.makespan_ms - mono.makespan_ms) /
                  mono.makespan_ms,
              100.0 * (chunked.makespan_ms - mono.makespan_ms) /
                  mono.makespan_ms);
  print_section_wall(s3);

  // --- 5. Fidelity sweep --------------------------------------------------
  std::printf("\n--- fidelity sweep (burst/block coarsening) ---\n");
  serve::TraceConfig sweep_cfg = trace_cfg;
  sweep_cfg.requests = 6;
  sweep_cfg.arrival_rate_per_s = 16.0;
  sweep_cfg.min_output_tokens = 8;
  sweep_cfg.max_output_tokens = 48;
  std::printf("trace: %zu requests (reduced so 1x stays affordable)%s\n\n",
              sweep_cfg.requests,
              fast ? "; --fast skips the 2x/1x points" : "");
  const double factors[] = {8.0, 4.0, 2.0, 1.0};
  const char* factor_labels[] = {"s5 8x", "s5 4x", "s5 2x", "s5 1x"};
  const int points = fast ? 2 : 4;
  const auto coarsen_trace = serve::poisson_trace(sweep_cfg);
  std::vector<serve::SweepCase> s5_cases;
  for (int i = 0; i < points; ++i) {
    s5_cases.push_back({factor_labels[i], coarsened_chip(factors[i]),
                        sphinx_models, continuous_config(true), coarsen_trace});
  }
  const SectionRun s5 = run_section(s5_cases);
  track(s5_cases, s5);
  json_section("coarsening", s5_cases, s5);
  const double reference_ms = s5.outcomes.back().result.makespan_ms;
  for (int i = 0; i < points; ++i) {
    const double ms = s5.outcomes[i].result.makespan_ms;
    std::printf("  %.0fx coarsening: makespan %8.1f ms  drift vs %s %+.2f %%\n",
                factors[i], ms, fast ? "4x" : "1x",
                100.0 * (ms - reference_ms) / reference_ms);
  }
  print_section_wall(s5);

  // --- 6. Multi-model zoo: residency-aware placement + fill barrier -------
  // Three zoo models share one residency budget that cannot hold all of
  // them. Placement decides whose layer groups live near compute:
  // keep-current (the PR 4 baseline: first-come pins, eviction the
  // moment a model's last in-flight request retires) refetches every
  // model's fill again and again, while demand-weighted keeps the
  // hottest models' pins warm across their request gaps and
  // evict-idle-on-pressure keeps everything warm until someone needs
  // the room. The fill barrier holds on every row — riders dispatched
  // before a pin's fill lands re-fetch (rider_refetch_bytes) — so the
  // savings are fill-timing-honest.
  std::printf("\n--- multi-model zoo: placement policies x fill barrier ---\n");
  // The Table I zoo scenario lives in bench_common.hpp so §8 shards the
  // exact same models/trace/budget across the cluster.
  const bench::ZooScenario zoo_scenario =
      bench::make_zoo_scenario(trace_cfg, chip8);
  const serve::TraceConfig& zoo_cfg = zoo_scenario.trace;
  const std::vector<model::MllmConfig>& zoo = zoo_scenario.models;
  const std::vector<Bytes>& zoo_sets = zoo_scenario.set_bytes;
  const Bytes zoo_budget = zoo_scenario.residency_budget;
  std::printf("zoo: %s / %s / %s, traffic mix 4:1:1\n",
              zoo[0].name.c_str(), zoo[1].name.c_str(), zoo[2].name.c_str());
  std::printf("trace: %zu requests in bursts of %zu, Poisson %.1f req/s, "
              "%zu prompt tokens, %zu crops\n",
              zoo_cfg.requests, zoo_cfg.burst, zoo_cfg.arrival_rate_per_s,
              zoo_cfg.input_tokens, zoo_cfg.crops);
  std::printf("residency budget %.2f GiB = full sets %.2f + %.2f GiB "
              "(third set %.2f GiB does NOT also fit)\n\n",
              static_cast<double>(zoo_budget) / (1024.0 * 1024.0 * 1024.0),
              static_cast<double>(zoo_sets[0]) / (1024.0 * 1024.0 * 1024.0),
              static_cast<double>(zoo_sets[1]) / (1024.0 * 1024.0 * 1024.0),
              static_cast<double>(zoo_sets[2]) / (1024.0 * 1024.0 * 1024.0));

  auto zoo_config = [&](std::shared_ptr<const serve::PlacementPolicy> placement) {
    return continuous_config(true)
        .prefill_planner(std::make_shared<serve::ResidentChunkedPrefill>(128))
        .weight_residency_bytes(zoo_budget)
        .placement_policy(std::move(placement));
  };
  const auto zoo_trace = serve::poisson_trace(zoo_cfg);
  const std::vector<serve::SweepCase> s6_cases = {
      {"s6 keep-current", chip8, zoo,
       zoo_config(std::make_shared<serve::KeepCurrentPlacement>()), zoo_trace},
      {"s6 demand-weighted", chip8, zoo,
       zoo_config(std::make_shared<serve::DemandWeightedPlacement>()),
       zoo_trace},
      {"s6 evict-idle", chip8, zoo,
       zoo_config(std::make_shared<serve::EvictIdleOnPressure>()), zoo_trace},
  };
  const SectionRun s6 = run_section(s6_cases);
  track(s6_cases, s6);
  json_section("zoo", s6_cases, s6);
  const auto& zoo_keep = s6.outcomes[0].result;
  const auto& zoo_demand = s6.outcomes[1].result;
  const auto& zoo_evict = s6.outcomes[2].result;

  auto print_zoo = [](const char* label, const serve::ServingResult& r) {
    std::printf("  %-28s CC weight fetch %7.1f GiB  makespan %8.1f ms\n",
                label,
                static_cast<double>(r.cc_weight_fetch_bytes) /
                    (1024.0 * 1024.0 * 1024.0),
                r.makespan_ms);
    std::printf("  %-28s %zu pins %zu rides %zu warm %zu fallbacks "
                "%zu denials %zu evictions  rider refetch %.1f GiB\n",
                "", r.weight_pins, r.weight_shared_attaches,
                r.weight_warm_attaches, r.weight_pin_fallbacks,
                r.placement_denials, r.placement_evictions,
                static_cast<double>(r.rider_refetch_bytes) /
                    (1024.0 * 1024.0 * 1024.0));
  };
  print_zoo("keep-current, barrier on", zoo_keep);
  print_zoo("demand-weighted, barrier on", zoo_demand);
  print_zoo("evict-idle, barrier on", zoo_evict);

  // The placement gates: demand-weighted must strictly cut the honest
  // (barrier-on) CC weight traffic vs the keep-current baseline by
  // turning refetched fills into warm rides, and evict-idle must have
  // actually exercised pressure eviction (idle pins reclaimed, not
  // drained). The barrier gate demands riders really did dispatch
  // before fills landed on this trace and paid the re-fetch.
  checks.add("placement_wins",
             zoo_demand.cc_weight_fetch_bytes < zoo_keep.cc_weight_fetch_bytes &&
                 zoo_demand.weight_warm_attaches > 0,
             "\ndemand-weighted placement fetches strictly less than "
             "keep-current (barrier on): ");
  checks.add("barrier_honest", zoo_keep.rider_refetch_bytes > 0,
             "fill barrier prices rider re-fetches (> 0 bytes): ");
  checks.add("eviction_exercised",
             zoo_evict.placement_evictions > 0 &&
                 zoo_evict.weight_warm_attaches > 0,
             "evict-idle keeps pins warm and reclaims them under pressure: ");
  // Placement and the barrier only move bytes between fetched and saved:
  // every row streams the same trace's weights, so fetch + saved is one
  // exact total across the rows.
  const auto zoo_weight_bytes = [](const serve::ServingResult& r) {
    return r.cc_weight_fetch_bytes + r.cc_weight_bytes_saved;
  };
  checks.add("zoo_bytes_conserved",
             zoo_weight_bytes(zoo_demand) == zoo_weight_bytes(zoo_keep) &&
                 zoo_weight_bytes(zoo_evict) == zoo_weight_bytes(zoo_keep),
             "every placement row conserves weight bytes (fetch + saved "
             "== %llu B): ",
             static_cast<unsigned long long>(zoo_weight_bytes(zoo_keep)));
  print_section_wall(s6);

  // --- 7. Fast/detailed execution tiers -----------------------------------
  // Every §1–§6 case re-replayed on the fast tier: same chip, same trace,
  // same policies — only the memory-time integrator differs
  // (ReplayMode::kFast prices each op batch analytically instead of
  // walking its DMA bursts event-by-event). The gates demand the fast
  // tier earn its keep: per-case makespan drift under 1% with identical
  // completion counts, order-of-magnitude single-replay speedup, and a
  // parallel sweep that is byte-identical whatever the worker count.
  std::printf("\n--- fast/detailed execution tiers (ReplayMode::kFast) ---\n\n");
  const auto s7_t0 = Clock::now();
  std::vector<serve::SweepCase> fast_cases;
  fast_cases.reserve(fidelity.size());
  for (const FidelityCase& f : fidelity) fast_cases.push_back(f.fast_case);

  const auto fast_t0 = Clock::now();
  const auto fast_seq = serve::run_sweep(fast_cases, {/*workers=*/1});
  const double fast_seq_wall_ms = ms_since(fast_t0);

  bool fidelity_ok = true;
  double worst_drift = 0.0;
  double det_total_wall = 0.0;
  double fast_total_wall = 0.0;
  double s2_det_wall = 0.0;
  double s2_fast_wall = 0.0;
  double zoo_speedup = 0.0;
  json.end_array();  // sections
  json.begin_array("fidelity");
  for (std::size_t i = 0; i < fidelity.size(); ++i) {
    const FidelityCase& f = fidelity[i];
    const serve::ServingResult& d = f.detailed;
    const serve::ServingResult& r = fast_seq[i].result;
    const double drift =
        100.0 * (r.makespan_ms - d.makespan_ms) / d.makespan_ms;
    const bool counts_equal =
        r.completed == d.completed && r.rejected == d.rejected;
    const double speedup =
        f.detailed_wall_ms / std::max(fast_seq[i].wall_ms, 1e-9);
    const bool case_ok = std::fabs(drift) < 1.0 && counts_equal;
    fidelity_ok = fidelity_ok && case_ok;
    if (std::fabs(drift) > std::fabs(worst_drift)) worst_drift = drift;
    det_total_wall += f.detailed_wall_ms;
    fast_total_wall += fast_seq[i].wall_ms;
    if (f.fast_case.label.rfind("s2 ", 0) == 0) {
      s2_det_wall += f.detailed_wall_ms;
      s2_fast_wall += fast_seq[i].wall_ms;
    }
    if (f.fast_case.label == "s6 demand-weighted") zoo_speedup = speedup;
    std::printf("  %-28s det %9.1f ms  fast %9.1f ms  drift %+5.2f %%  "
                "speedup %6.1fx%s\n",
                f.fast_case.label.c_str(), d.makespan_ms, r.makespan_ms, drift,
                speedup, case_ok ? "" : "  <-- FAIL");
    json.begin_object();
    json.field("label", f.fast_case.label);
    json.field("detailed_makespan_ms", d.makespan_ms);
    json.field("fast_makespan_ms", r.makespan_ms);
    json.field("drift_pct", drift);
    json.field("detailed_wall_ms", f.detailed_wall_ms);
    json.field("fast_wall_ms", fast_seq[i].wall_ms);
    json.field("speedup", speedup);
    json.field("counts_equal", counts_equal);
    json.end_object();
  }
  json.end_array();

  checks.add("fidelity_ok", fidelity_ok,
             "\nfast tier drifts under 1%% on every section "
             "(worst %+.2f %%, counts equal): ",
             worst_drift);
  checks.add("zoo_speedup_ok", zoo_speedup >= 10.0,
             "single-replay speedup on the §6 zoo trace >= 10x: %.1fx  ",
             zoo_speedup);
  const double s2_sweep_speedup = s2_det_wall / std::max(s2_fast_wall, 1e-9);
  checks.add("policy_sweep_speedup_ok", s2_sweep_speedup >= 5.0,
             "fast-tier speedup on the §2 policy sweep >= 5x: %.1fx  ",
             s2_sweep_speedup);
  std::printf("aggregate: detailed %.1f ms -> fast %.1f ms over %zu cases "
              "(%.0fx)\n",
              det_total_wall, fast_total_wall, fidelity.size(),
              det_total_wall / std::max(fast_total_wall, 1e-9));

  // Worker-count byte-identity: the whole fast grid under 2 and 8 workers
  // must deposit outcomes identical to the sequential run — result order
  // and every field, floats included. Unconditional (threads oversubscribe
  // harmlessly on small hosts); only the THROUGHPUT gate needs real cores.
  const auto par2_t0 = Clock::now();
  const auto fast_par2 = serve::run_sweep(fast_cases, {/*workers=*/2});
  const double fast_par2_wall_ms = ms_since(par2_t0);
  const auto par8_t0 = Clock::now();
  const auto fast_par8 = serve::run_sweep(fast_cases, {/*workers=*/8});
  const double fast_par8_wall_ms = ms_since(par8_t0);
  bool identical = fast_par2.size() == fast_seq.size() &&
                   fast_par8.size() == fast_seq.size();
  for (std::size_t i = 0; identical && i < fast_seq.size(); ++i) {
    identical = serve::outcomes_identical(fast_seq[i], fast_par2[i]) &&
                serve::outcomes_identical(fast_seq[i], fast_par8[i]);
  }
  const bool identity_ok = checks.add(
      "sweep_identity_ok", identical,
      "parallel sweep byte-identical to sequential (1/2/8 workers, "
      "%zu cases): ",
      fast_cases.size());

  const std::size_t hw = std::thread::hardware_concurrency();
  const double sweep_throughput =
      fast_seq_wall_ms / std::max(fast_par8_wall_ms, 1e-9);
  if (hw >= 8) {
    checks.add("throughput_ok", sweep_throughput >= 4.0,
               "sweep throughput at 8 workers >= 4x sequential: %.1fx  ",
               sweep_throughput);
  } else {
    checks.skip("throughput_ok",
                "sweep throughput at 8 workers: %.1fx (gate skipped: %zu "
                "hardware thread%s)",
                sweep_throughput, hw, hw == 1 ? "" : "s");
  }

  const double s7_wall_ms = ms_since(s7_t0);
  print_section_wall(s7_wall_ms);

  json.begin_object("fast_sweep");
  json.field("wall_ms", s7_wall_ms);
  json.field("cases", fast_cases.size());
  json.field("sequential_wall_ms", fast_seq_wall_ms);
  json.field("workers2_wall_ms", fast_par2_wall_ms);
  json.field("workers8_wall_ms", fast_par8_wall_ms);
  json.field("throughput_8_workers", sweep_throughput);
  json.field("throughput_gated", hw >= 8);
  json.field("identity_1_2_8", identity_ok);
  json.field("zoo_single_replay_speedup", zoo_speedup);
  json.field("policy_sweep_speedup", s2_sweep_speedup);
  json.field("worst_drift_pct", worst_drift);
  json.end_object();

  // --- 8. Cluster: replica scaling + disaggregated prefill/decode ---------
  // The §6 zoo scenario sharded across a multi-chip cluster. Three gates:
  // (a) a 1-chip replica cluster IS the single engine — the §6
  // demand-weighted replay reproduced bit-for-bit through run_cluster;
  // (b) replica tokens/s scales near-linearly at fixed zoo traffic
  // (>= 3x from 1 -> 4 chips); (c) the disaggregated split ships real KV
  // over the chip-to-chip link with the byte ledger exactly conserved.
  std::printf("\n--- cluster: replica scaling + disaggregated "
              "prefill/decode (zoo traffic) ---\n\n");
  const auto s8_t0 = Clock::now();

  const serve::SweepCase& s6_demand_case = s6_cases[1];  // "s6 demand-weighted"
  const serve::ClusterOutcome one_chip = serve::run_cluster(
      chip8, zoo, s6_demand_case.engine, serve::ClusterConfig{}, zoo_trace);
  const auto& s6_demand = s6.outcomes[1];
  bool one_chip_identical =
      one_chip.result.per_chip.size() == 1 &&
      serve::results_identical(one_chip.result.per_chip[0], s6_demand.result) &&
      one_chip.result.completed == s6_demand.result.completed &&
      one_chip.result.makespan == s6_demand.result.makespan &&
      one_chip.result.p99_latency_ms == s6_demand.result.p99_latency_ms &&
      one_chip.result.tokens_per_second == s6_demand.result.tokens_per_second &&
      one_chip.records.size() == s6_demand.records.size();
  for (std::size_t i = 0; one_chip_identical && i < one_chip.records.size();
       ++i) {
    one_chip_identical =
        serve::record_identical(one_chip.records[i], s6_demand.records[i]);
  }
  const bool cluster_identity_ok = checks.add(
      "cluster_identity_ok", one_chip_identical,
      "  1-chip cluster bit-identical to the single-engine §6 "
      "replay (result + all records): ");

  // Denser zoo traffic for the scaling rows (fast tier): one chip is
  // saturated, so added chips convert to throughput until the fixed
  // arrival window caps the win. Routing is model-affinity — the router
  // reads the same per-model demand the placement policy does, so each
  // model's weight pins stay warm on its home chips.
  serve::TraceConfig dense_cfg = zoo_scenario.trace;
  dense_cfg.requests = 96;
  dense_cfg.arrival_rate_per_s = 24.0;
  const auto dense_trace = serve::poisson_trace(dense_cfg);
  serve::EngineConfig cluster_engine_cfg = s6_demand_case.engine;
  cluster_engine_cfg.replay_mode(core::ReplayMode::kFast);
  std::printf("\n  scaling trace: %zu requests in bursts of %zu, Poisson "
              "%.1f req/s, mix 4:1:1 (fast tier, model-affinity routing)\n",
              dense_cfg.requests, dense_cfg.burst,
              dense_cfg.arrival_rate_per_s);

  const std::size_t chip_counts[] = {1, 2, 4, 8};
  std::vector<serve::ClusterOutcome> scaling;
  for (const std::size_t chips : chip_counts) {
    serve::ClusterConfig replica_cfg;
    replica_cfg.chips(chips)
        .router(std::make_shared<serve::ModelAffinityRouter>())
        .workers(default_workers(chips));
    scaling.push_back(serve::run_cluster(chip8, zoo, cluster_engine_cfg,
                                         replica_cfg, dense_trace));
  }
  const double tps_1chip = scaling[0].result.tokens_per_second;
  bool all_served = true;
  for (std::size_t k = 0; k < scaling.size(); ++k) {
    const serve::ClusterResult& r = scaling[k].result;
    all_served = all_served && r.completed == dense_cfg.requests;
    std::printf("  %zu chip%s  %3zu done  makespan %9.1f ms  p99 %9.1f ms  "
                "%8.1f tok/s  (%.2fx)\n",
                r.chips, r.chips == 1 ? " " : "s", r.completed, r.makespan_ms,
                r.p99_latency_ms, r.tokens_per_second,
                r.tokens_per_second / tps_1chip);
  }
  const double scaling_1_to_4 =
      scaling[2].result.tokens_per_second / tps_1chip;
  checks.add("replica_scaling_ok", all_served && scaling_1_to_4 >= 3.0,
             "\nreplica tokens/s scales >= 3x from 1 to 4 chips "
             "(all requests served): %.2fx  ",
             scaling_1_to_4);

  // Round-robin at 4 chips for comparison: model-blind sharding spreads
  // every model over every chip, so each chip's residency budget thrashes
  // across the zoo (reported, not gated — the win is traffic).
  serve::ClusterConfig rr_cfg;
  rr_cfg.chips(4).workers(default_workers(4));
  const serve::ClusterOutcome round_robin = serve::run_cluster(
      chip8, zoo, cluster_engine_cfg, rr_cfg, dense_trace);
  std::printf("model-affinity @ 4 chips: CC weight fetch %.1f GiB, %zu pins "
              "(round-robin: %.1f GiB, %zu pins, %.1f tok/s)\n",
              static_cast<double>(scaling[2].result.cc_weight_fetch_bytes) /
                  (1024.0 * 1024.0 * 1024.0),
              scaling[2].result.weight_pins,
              static_cast<double>(round_robin.result.cc_weight_fetch_bytes) /
                  (1024.0 * 1024.0 * 1024.0),
              round_robin.result.weight_pins,
              round_robin.result.tokens_per_second);

  // Disaggregated split: 2 prefill chips stream KV to 2 decode chips.
  serve::ClusterConfig disagg_cfg;
  disagg_cfg.chips(4)
      .mode(serve::ClusterMode::kDisaggregated)
      .prefill_chips(2)
      .router(std::make_shared<serve::LeastLoadedRouter>())
      .workers(default_workers(4));
  const serve::ClusterOutcome disagg = serve::run_cluster(
      chip8, zoo, cluster_engine_cfg, disagg_cfg, dense_trace);
  const serve::ClusterResult& dis = disagg.result;
  std::printf("\ndisaggregated 2 prefill + 2 decode: %zu done  "
              "p99 %9.1f ms  %8.1f tok/s\n",
              dis.completed, dis.p99_latency_ms, dis.tokens_per_second);
  std::printf("  KV migration: %zu transfers, %.1f MiB sent, %.1f MiB "
              "landed, %zu B in flight at drain\n",
              dis.kv_transfers,
              static_cast<double>(dis.kv_bytes_sent) / (1024.0 * 1024.0),
              static_cast<double>(dis.kv_migration_bytes) / (1024.0 * 1024.0),
              static_cast<std::size_t>(dis.kv_bytes_in_flight));
  std::printf("  link: occupancy %4.1f %%, worst KV queue wait %.2f ms\n",
              100.0 * dis.link_occupancy, dis.max_link_queue_ms);
  checks.add("kv_conservation_ok",
             dis.kv_transfers > 0 && dis.kv_migration_bytes > 0 &&
                 dis.kv_bytes_in_flight == 0 &&
                 dis.kv_bytes_sent ==
                     dis.kv_migration_bytes + dis.kv_bytes_in_flight,
             "KV ledger exactly conserved (sent == landed + in-flight, "
             "drained to 0): ");
  const double s8_wall_ms = ms_since(s8_t0);
  print_section_wall(s8_wall_ms);

  json.begin_object("cluster");
  json.field("wall_ms", s8_wall_ms);
  json.field("identity_1chip", cluster_identity_ok);
  json.begin_array("replica_scaling");
  for (const serve::ClusterOutcome& o : scaling) {
    const serve::ClusterResult& r = o.result;
    json.begin_object();
    json.field("chips", r.chips);
    json.field("completed", r.completed);
    json.field("makespan_ms", r.makespan_ms);
    json.field("p99_latency_ms", r.p99_latency_ms);
    json.field("tokens_per_second", r.tokens_per_second);
    json.field("speedup_vs_1chip", r.tokens_per_second / tps_1chip);
    json.end_object();
  }
  json.end_array();
  json.field("scaling_1_to_4", scaling_1_to_4);
  json.begin_object("routing_4chips");
  json.field("affinity_cc_weight_fetch_bytes",
             static_cast<std::size_t>(scaling[2].result.cc_weight_fetch_bytes));
  json.field("round_robin_cc_weight_fetch_bytes",
             static_cast<std::size_t>(round_robin.result.cc_weight_fetch_bytes));
  json.field("round_robin_tokens_per_second",
             round_robin.result.tokens_per_second);
  json.end_object();
  json.begin_object("disaggregated");
  json.field("chips", dis.chips);
  json.field("prefill_chips", static_cast<std::size_t>(2));
  json.field("completed", dis.completed);
  json.field("p99_latency_ms", dis.p99_latency_ms);
  json.field("tokens_per_second", dis.tokens_per_second);
  json.field("kv_transfers", dis.kv_transfers);
  json.field("kv_bytes_sent", static_cast<std::size_t>(dis.kv_bytes_sent));
  json.field("kv_migration_bytes",
             static_cast<std::size_t>(dis.kv_migration_bytes));
  json.field("kv_bytes_in_flight",
             static_cast<std::size_t>(dis.kv_bytes_in_flight));
  json.field("link_occupancy", dis.link_occupancy);
  json.field("max_link_queue_ms", dis.max_link_queue_ms);
  json.end_object();
  json.end_object();

  // --- 9. Paged KV: prefix sharing + DRAM swap at equal budget ------------
  // Four rows over ONE shared-prefix trace and ONE KV byte budget (fast
  // tier). Whole-footprint reserves every request's final footprint up
  // front; paged mode charges pages as tokens are generated, shares full
  // prefix pages copy-on-write across a conversation group, and preempts
  // cold requests to DRAM instead of deferring joins. The tight row
  // halves the budget to price the swap churn. Every row, whatever its
  // KV mode, encodes each conversation's image once and prefills its
  // shared prefix once: later turns prefill only their suffix, reading
  // the prefix KV from DRAM, and a short suffix rides the MC decode step
  // as extra rows instead of a CC job. §1–§8 never see any
  // of this: paged_kv defaults off and their traces carry no prefix_id,
  // so their replays stay byte-identical.
  std::printf("\n--- paged KV: CoW prefix sharing + DRAM swap "
              "(equal byte budget) ---\n\n");
  serve::TraceConfig paged_cfg;
  paged_cfg.requests = 48;
  paged_cfg.arrival_rate_per_s = 24.0;
  paged_cfg.input_tokens = 300;
  paged_cfg.min_output_tokens = 32;
  paged_cfg.max_output_tokens = 128;
  paged_cfg.prefix_groups = 4;
  paged_cfg.prefix_tokens = 256;
  paged_cfg.seed = 42;
  const auto paged_trace = serve::poisson_trace(paged_cfg);
  const Bytes kv_page =
      16 * model::kv_bytes_per_token(sphinx_models[0]);
  Bytes worst_footprint = 0;
  for (const serve::Request& r : paged_trace) {
    worst_footprint = std::max(
        worst_footprint, serve::kv_footprint_bytes(r, sphinx_models[0]));
  }
  const Bytes equal_budget = 3 * worst_footprint;
  const Bytes tight_budget = worst_footprint + worst_footprint / 2;
  std::printf("  trace: %zu requests, %zu prefix groups x %zu shared "
              "tokens; page %zu KiB, budget %.1f MiB (tight %.1f MiB)\n\n",
              paged_cfg.requests, paged_cfg.prefix_groups,
              paged_cfg.prefix_tokens, kv_page >> 10,
              static_cast<double>(equal_budget) / (1024.0 * 1024.0),
              static_cast<double>(tight_budget) / (1024.0 * 1024.0));
  auto paged_base = [&] {
    return continuous_config(false).replay_mode(core::ReplayMode::kFast);
  };
  const std::vector<serve::SweepCase> s9_cases = {
      {"s9 whole-footprint", chip8, sphinx_models,
       paged_base().kv_capacity_bytes(equal_budget), paged_trace},
      {"s9 paged no-share", chip8, sphinx_models,
       paged_base()
           .kv_capacity_bytes(equal_budget)
           .paged_kv(true)
           .kv_page_bytes(kv_page)
           .kv_prefix_sharing(false),
       paged_trace},
      {"s9 paged+prefix", chip8, sphinx_models,
       paged_base()
           .kv_capacity_bytes(equal_budget)
           .paged_kv(true)
           .kv_page_bytes(kv_page),
       paged_trace},
      {"s9 paged+prefix tight", chip8, sphinx_models,
       paged_base()
           .kv_capacity_bytes(tight_budget)
           .paged_kv(true)
           .kv_page_bytes(kv_page),
       paged_trace},
  };
  const SectionRun s9 = run_section(s9_cases);
  const auto& whole_kv = s9.outcomes[0].result;
  const auto& paged_noshare = s9.outcomes[1].result;
  const auto& paged_prefix = s9.outcomes[2].result;
  const auto& paged_tight = s9.outcomes[3].result;
  for (std::size_t i = 0; i < s9_cases.size(); ++i) {
    const serve::ServingResult& r = s9.outcomes[i].result;
    std::printf("  %-24s %3zu done  makespan %8.1f ms  %7.1f tok/s  "
                "peak batch %zu  peak KV %5.1f MiB  encoder hits %zu  "
                "prefix hits %zu  mc suffixes %zu\n",
                s9_cases[i].label.c_str(), r.completed, r.makespan_ms,
                r.tokens_per_second, r.peak_decode_batch,
                static_cast<double>(r.peak_kv_reserved_bytes) /
                    (1024.0 * 1024.0),
                r.encoder_cache_hits, r.prefix_cache_hits,
                r.mc_suffix_prefills);
    if (r.kv_pages_allocated > 0) {
      std::printf("  %-24s pages %zu alloc / %zu freed  shared attach %zu "
                  "(saved %zu)  swap out %zu  refetch %.1f MiB  "
                  "refill DMA %.1f MiB\n",
                  "", r.kv_pages_allocated, r.kv_pages_freed,
                  r.kv_shared_attaches, r.kv_shared_pages_saved,
                  r.kv_pages_swapped_out,
                  static_cast<double>(r.kv_swap_refetch_bytes) /
                      (1024.0 * 1024.0),
                  static_cast<double>(r.kv_swap_dma_bytes) /
                      (1024.0 * 1024.0));
    }
  }

  // Gate (a): at the SAME byte budget, paged + prefix sharing sustains
  // strictly more concurrent decodes — or matches throughput on strictly
  // fewer peak KV bytes.
  const bool paged_concurrency_ok = checks.add(
      "paged_concurrency_ok",
      paged_prefix.peak_decode_batch > whole_kv.peak_decode_batch ||
          (paged_prefix.tokens_per_second >= whole_kv.tokens_per_second &&
           paged_prefix.peak_kv_reserved_bytes <
               whole_kv.peak_kv_reserved_bytes),
      "\npaged+prefix sustains more concurrency at the same "
      "budget (peak batch %zu vs %zu): ",
      paged_prefix.peak_decode_batch, whole_kv.peak_decode_batch);
  // Gate (b): every paged row drains its ledger exactly and serves the
  // whole trace.
  bool ledgers_drained = true;
  for (std::size_t i = 1; i < s9.outcomes.size(); ++i) {
    const serve::ServingResult& r = s9.outcomes[i].result;
    ledgers_drained = ledgers_drained && r.completed == paged_cfg.requests &&
                      r.kv_pages_allocated > 0 &&
                      r.kv_pages_allocated == r.kv_pages_freed;
  }
  const bool paged_conservation_ok = checks.add(
      "paged_conservation_ok", ledgers_drained,
      "page ledger exactly conserved on every paged row "
      "(alloc == freed > 0, all served): ");
  // Gate (c): the sharing row actually shared (riders attached and pages
  // were saved), and switching sharing off removes every attach.
  const bool prefix_sharing_ok = checks.add(
      "prefix_sharing_ok",
      paged_prefix.kv_shared_attaches > 0 &&
          paged_prefix.kv_shared_pages_saved > 0 &&
          paged_noshare.kv_shared_attaches == 0,
      "prefix sharing engaged (%zu attaches, %zu pages saved; 0 "
      "with sharing off): ",
      paged_prefix.kv_shared_attaches, paged_prefix.kv_shared_pages_saved);
  // Gate (d): the tight row survives on a fraction of the budget by
  // actually paying DRAM re-fetches (swap exercised, nothing rejected).
  const bool paged_swap_ok = checks.add(
      "paged_swap_ok",
      paged_tight.kv_swap_refetch_bytes > 0 &&
          paged_tight.completed == paged_cfg.requests &&
          paged_tight.peak_kv_reserved_bytes < whole_kv.peak_kv_reserved_bytes,
      "tight budget completes via DRAM swap (%.1f MiB re-fetched, "
      "peak KV %.1f vs %.1f MiB): ",
      static_cast<double>(paged_tight.kv_swap_refetch_bytes) /
          (1024.0 * 1024.0),
      static_cast<double>(paged_tight.peak_kv_reserved_bytes) /
          (1024.0 * 1024.0),
      static_cast<double>(whole_kv.peak_kv_reserved_bytes) /
          (1024.0 * 1024.0));
  // Gate (e): every re-fetched byte rode a decode step as MC-lane DMA
  // (the two ledgers agree on every paged row), and the tight row
  // actually priced some.
  bool refills_priced = paged_tight.kv_swap_dma_bytes > 0;
  for (std::size_t i = 1; i < s9.outcomes.size(); ++i) {
    const serve::ServingResult& r = s9.outcomes[i].result;
    refills_priced =
        refills_priced && r.kv_swap_dma_bytes == r.kv_swap_refetch_bytes;
  }
  const bool paged_refill_priced_ok = checks.add(
      "paged_refill_priced_ok", refills_priced,
      "every re-fetched byte priced as refill DMA (tight row %.1f "
      "MiB injected == re-fetched): ",
      static_cast<double>(paged_tight.kv_swap_dma_bytes) / (1024.0 * 1024.0));
  // Gate (f): every row encodes each conversation's image once — every
  // request but a conversation's first turn hits the encoder cache,
  // whatever the KV mode.
  std::set<std::size_t> conversations;
  for (const serve::Request& r : paged_trace) conversations.insert(r.prefix_id);
  const std::size_t expected_hits = paged_trace.size() - conversations.size();
  bool hits_expected = true;
  bool prefix_hits_expected = true;
  bool one_prefill_each = true;
  for (const auto& outcome : s9.outcomes) {
    const serve::ServingResult& r = outcome.result;
    hits_expected = hits_expected && r.encoder_cache_hits == expected_hits;
    prefix_hits_expected =
        prefix_hits_expected && r.prefix_cache_hits == expected_hits;
    one_prefill_each = one_prefill_each &&
                       r.prefill_jobs + r.mc_suffix_prefills == paged_cfg.requests;
  }
  const bool encoder_cache_ok = checks.add(
      "encoder_cache_ok", hits_expected,
      "each conversation's image encoded once on every row (%zu "
      "encoder-cache hits = %zu requests - %zu conversations): ",
      expected_hits, paged_trace.size(), conversations.size());
  // Gate (g): every row prefills each conversation's shared prefix once
  // (monolithic full-keep chunk 0s cover it), whatever the KV mode.
  checks.add("prefix_reuse_ok", prefix_hits_expected,
             "each conversation's prefix prefilled once on every row (%zu "
             "prefix-cache hits = %zu requests - %zu conversations): ",
             expected_hits, paged_trace.size(), conversations.size());
  // Gate (h): every request's prompt is prefilled exactly once, either
  // as one monolithic CC-lane job or as rows of an MC decode step.
  checks.add("mc_suffix_ok", one_prefill_each,
             "every request prefilled once on every row (CC jobs + MC "
             "suffixes = %zu requests; paged+prefix: %zu + %zu): ",
             paged_cfg.requests, paged_prefix.prefill_jobs,
             paged_prefix.mc_suffix_prefills);
  print_section_wall(s9);

  json.begin_object("paged_kv");
  json.field("wall_ms", s9.wall_ms);
  json.field("page_bytes", static_cast<std::size_t>(kv_page));
  json.field("equal_budget_bytes", static_cast<std::size_t>(equal_budget));
  json.field("tight_budget_bytes", static_cast<std::size_t>(tight_budget));
  json.begin_array("cases");
  for (std::size_t i = 0; i < s9_cases.size(); ++i) {
    const serve::ServingResult& r = s9.outcomes[i].result;
    json.begin_object();
    json.field("label", s9_cases[i].label);
    json.field("completed", r.completed);
    json.field("makespan_ms", r.makespan_ms);
    json.field("tokens_per_second", r.tokens_per_second);
    json.field("peak_decode_batch", r.peak_decode_batch);
    json.field("peak_kv_reserved_bytes",
               static_cast<std::size_t>(r.peak_kv_reserved_bytes));
    json.field("kv_deferrals", r.kv_deferrals);
    json.field("kv_pages_allocated", r.kv_pages_allocated);
    json.field("kv_pages_freed", r.kv_pages_freed);
    json.field("kv_shared_attaches", r.kv_shared_attaches);
    json.field("kv_shared_pages_saved", r.kv_shared_pages_saved);
    json.field("kv_pages_swapped_out", r.kv_pages_swapped_out);
    json.field("kv_swap_refetch_bytes",
               static_cast<std::size_t>(r.kv_swap_refetch_bytes));
    json.field("kv_swap_dma_bytes",
               static_cast<std::size_t>(r.kv_swap_dma_bytes));
    json.field("encoder_cache_hits", r.encoder_cache_hits);
    json.field("prefix_cache_hits", r.prefix_cache_hits);
    json.field("mc_suffix_prefills", r.mc_suffix_prefills);
    json.end_object();
  }
  json.end_array();
  json.field("concurrency_ok", paged_concurrency_ok);
  json.field("conservation_ok", paged_conservation_ok);
  json.field("prefix_sharing_ok", prefix_sharing_ok);
  json.field("swap_ok", paged_swap_ok);
  json.field("refill_priced_ok", paged_refill_priced_ok);
  json.field("encoder_cache_ok", encoder_cache_ok);
  json.end_object();

  // --- 10. Heterogeneous offload: EdgeMM + fat-GPU backend mixes ----------
  // The §6 long-prefill zoo trace (900-token prompts, 2 crops) replayed
  // on one chip that is now an EdgeMM + RTX-3060-class pair (fast tier,
  // chunked prefill so the threshold policy can split mid-request). The
  // OffloadPolicy decides WHERE each prefill chunk executes: NoOffload
  // keeps everything local and must be bit-identical to a config with no
  // fat backend at all; PrefillToFat ships every long prompt's prefill
  // (encoder included) to the GPU and the finished KV back over a
  // ledgered ChipLink-style return link while decode stays on EdgeMM;
  // the threshold policy offloads chunks only under CC queue pressure.
  std::printf("\n--- heterogeneous offload: EdgeMM + fat backend mixes "
              "(zoo trace) ---\n\n");
  const baselines::GpuSpec fat_spec;  // the Table II RTX 3060 laptop model
  std::printf("fat backend: %s (%.0f TFLOP/s, %.0f GB/s, launch %.0f us); "
              "KV returns over the chip link\n",
              fat_spec.name.c_str(), fat_spec.peak_flops / 1e12,
              fat_spec.memory_bandwidth / 1e9,
              fat_spec.kernel_launch_seconds * 1e6);
  auto hetero_base = [&] {
    return continuous_config(true)
        .prefill_planner(std::make_shared<serve::ChunkedPrefill>(256))
        .replay_mode(core::ReplayMode::kFast);
  };
  const std::vector<serve::SweepCase> s10_cases = {
      {"s10 edgemm-only", chip8, zoo, hetero_base(), zoo_trace},
      {"s10 no-offload+gpu", chip8, zoo, hetero_base().fat_backend(fat_spec),
       zoo_trace},
      {"s10 prefill-to-fat", chip8, zoo,
       hetero_base().fat_backend(fat_spec).offload_policy(
           std::make_shared<serve::PrefillToFat>(512)),
       zoo_trace},
      {"s10 threshold", chip8, zoo,
       hetero_base().fat_backend(fat_spec).offload_policy(
           std::make_shared<serve::ThresholdOffload>(2)),
       zoo_trace},
  };
  const SectionRun s10 = run_section(s10_cases);
  const auto& het_local = s10.outcomes[0].result;
  const auto& het_noop = s10.outcomes[1].result;
  const auto& het_ptf = s10.outcomes[2].result;

  // Decode-phase p99 (last-token retire minus prefill end, which for an
  // offloaded request includes the KV return shipment): the guardrail
  // that the prefill win was not bought with decode tail latency.
  auto decode_p99_ms = [&](const std::vector<serve::RequestRecord>& records) {
    std::vector<double> decode_ms;
    for (const serve::RequestRecord& rec : records) {
      if (!rec.done) continue;
      decode_ms.push_back(
          cycles_to_ms(rec.finish - rec.prefill_end, chip8.clock_hz));
    }
    return percentile(decode_ms, 99.0);
  };
  std::vector<double> s10_decode_p99;
  for (const serve::SweepOutcome& o : s10.outcomes) {
    s10_decode_p99.push_back(decode_p99_ms(o.records));
  }
  for (std::size_t i = 0; i < s10_cases.size(); ++i) {
    const serve::ServingResult& r = s10.outcomes[i].result;
    std::printf("  %-20s %3zu done  makespan %8.1f ms  %6.1f tok/s  "
                "decode p99 %7.1f ms\n",
                s10_cases[i].label.c_str(), r.completed, r.makespan_ms,
                r.tokens_per_second, s10_decode_p99[i]);
    if (r.offloaded_chunks > 0) {
      std::printf("  %-20s offloaded %zu req / %zu chunks  GPU busy %4.1f %%  "
                  "moved %.2f GiB  KV back %.1f MiB (%zu B in flight)\n",
                  "", r.offloaded_requests, r.offloaded_chunks,
                  100.0 * r.fat_busy_fraction,
                  static_cast<double>(r.fat_bytes_moved) /
                      (1024.0 * 1024.0 * 1024.0),
                  static_cast<double>(r.kv_return_bytes_landed) /
                      (1024.0 * 1024.0),
                  static_cast<std::size_t>(r.kv_return_bytes_in_flight));
    }
  }

  // Gate (a): an idle fat backend is free — NoOffload with the GPU
  // configured replays byte-identically (result AND every record) to
  // the EdgeMM-only config.
  bool noop_identical =
      serve::results_identical(het_local, het_noop) &&
      s10.outcomes[0].records.size() == s10.outcomes[1].records.size();
  if (noop_identical) {
    for (std::size_t i = 0; i < s10.outcomes[0].records.size(); ++i) {
      noop_identical = noop_identical &&
                       serve::record_identical(s10.outcomes[0].records[i],
                                               s10.outcomes[1].records[i]);
    }
  }
  const bool s10_identity_ok = checks.add(
      "offload_identity_ok", noop_identical,
      "\nidle fat backend is free (NoOffload+gpu bit-identical to "
      "edgemm-only): ");
  // Gate (b): shipping the long prefills to the fat backend wins on
  // makespan or sustained tokens/s — and it actually offloaded.
  const bool s10_offload_win = checks.add(
      "offload_win_ok",
      het_ptf.offloaded_requests > 0 &&
          (het_ptf.makespan < het_local.makespan ||
           het_ptf.tokens_per_second > het_local.tokens_per_second),
      "prefill-to-fat wins makespan or tokens/s (%.1f -> %.1f ms, "
      "%.1f -> %.1f tok/s): ",
      het_local.makespan_ms, het_ptf.makespan_ms, het_local.tokens_per_second,
      het_ptf.tokens_per_second);
  // Gate (c): the win is not bought with decode tail latency (equal
  // decode p99, up to 5% measurement slack on the zoo trace).
  const bool s10_decode_p99_ok = checks.add(
      "offload_decode_p99_ok", s10_decode_p99[2] <= s10_decode_p99[0] * 1.05,
      "decode p99 holds at the offloaded operating point "
      "(%.1f vs %.1f ms): ",
      s10_decode_p99[2], s10_decode_p99[0]);
  // Gate (d): the KV return ledger is exactly conserved on every
  // offloading row — sent == landed + in-flight, drained to 0 in flight
  // — and the PrefillToFat row really shipped KV back.
  bool links_conserved = het_ptf.kv_return_transfers > 0;
  for (const serve::SweepOutcome& o : s10.outcomes) {
    const serve::ServingResult& r = o.result;
    links_conserved =
        links_conserved && r.kv_return_bytes_in_flight == 0 &&
        r.kv_return_bytes_sent ==
            r.kv_return_bytes_landed + r.kv_return_bytes_in_flight;
  }
  const bool s10_link_ok = checks.add(
      "offload_link_ok", links_conserved,
      "KV return ledger exactly conserved (sent == landed + "
      "in-flight == landed): ");
  print_section_wall(s10);

  json.begin_object("backend_mix");
  json.field("wall_ms", s10.wall_ms);
  json.field("fat_backend", fat_spec.name);
  json.begin_array("cases");
  for (std::size_t i = 0; i < s10_cases.size(); ++i) {
    const serve::ServingResult& r = s10.outcomes[i].result;
    json.begin_object();
    json.field("label", s10_cases[i].label);
    json.field("completed", r.completed);
    json.field("makespan_ms", r.makespan_ms);
    json.field("tokens_per_second", r.tokens_per_second);
    json.field("decode_p99_ms", s10_decode_p99[i]);
    json.field("offloaded_requests", r.offloaded_requests);
    json.field("offloaded_chunks", r.offloaded_chunks);
    json.field("fat_bytes_moved", static_cast<std::size_t>(r.fat_bytes_moved));
    json.field("fat_kernel_launches", r.fat_kernel_launches);
    json.field("fat_busy_fraction", r.fat_busy_fraction);
    json.field("kv_return_transfers", r.kv_return_transfers);
    json.field("kv_return_bytes_sent",
               static_cast<std::size_t>(r.kv_return_bytes_sent));
    json.field("kv_return_bytes_landed",
               static_cast<std::size_t>(r.kv_return_bytes_landed));
    json.field("kv_return_bytes_in_flight",
               static_cast<std::size_t>(r.kv_return_bytes_in_flight));
    json.end_object();
  }
  json.end_array();
  json.field("identity_ok", s10_identity_ok);
  json.field("offload_win", s10_offload_win);
  json.field("decode_p99_ok", s10_decode_p99_ok);
  json.field("link_ok", s10_link_ok);
  json.end_object();

  // --- 11. Load-adaptive quality: QualityPolicy under SLO pressure --------
  // The §6 zoo trace pushed into overload (48 requests in bursts of 4 at
  // 6 req/s, per-request deadlines) behind SLO-aware admission. The
  // QualityPolicy seam judges each request's FFN keep fraction once per
  // prefill chunk, chunk 0's judgment being the admission one: StaticQuality
  // serves everything at full keep and can only shed load by rejecting;
  // SloPressureQuality prunes when a request's estimated finish misses
  // its deadline (relaxing only past a hysteresis margin, so constant
  // load cannot make it oscillate); QueueDepthQuality prunes in
  // proportion to queue depth. The bet the gates check: trading FFN
  // columns for schedule slack keeps requests admitted AND inside their
  // deadlines at a bounded task-proxy accuracy cost.
  std::printf("\n--- load-adaptive quality: dynamic pruning under SLO "
              "pressure (overloaded zoo trace) ---\n\n");
  serve::TraceConfig q_cfg = zoo_cfg;
  q_cfg.requests = 48;
  q_cfg.arrival_rate_per_s = 4.0;
  q_cfg.burst = 4;
  q_cfg.slo_base_ms = 4000.0;
  q_cfg.slo_per_token_ms = 100.0;
  q_cfg.seed = 77;
  const auto q_trace = serve::poisson_trace(q_cfg);
  std::printf("trace: %zu requests in bursts of %zu, Poisson %.1f req/s, "
              "SLO %.0f ms + %.0f ms/token, SLO-aware admission\n\n",
              q_cfg.requests, q_cfg.burst, q_cfg.arrival_rate_per_s,
              q_cfg.slo_base_ms, q_cfg.slo_per_token_ms);
  auto quality_base = [&] {
    return serve::EngineConfig()
        .scheduler(std::make_shared<serve::SloAwarePolicy>(
            serve::AdmissionLimits{8, 16}))
        .manage_bandwidth(true)
        .prefill_planner(std::make_shared<serve::ChunkedPrefill>(256))
        .replay_mode(core::ReplayMode::kFast);
  };
  const std::vector<serve::SweepCase> s11_cases = {
      {"s11 static-quality", chip8, zoo, quality_base(), q_trace},
      {"s11 slo-pressure", chip8, zoo,
       quality_base()
           .quality_policy(std::make_shared<serve::SloPressureQuality>())
           .quality_band(0.5, 1.0),
       q_trace},
      {"s11 queue-depth", chip8, zoo,
       quality_base()
           .quality_policy(std::make_shared<serve::QueueDepthQuality>(1, 6))
           .quality_band(0.5, 1.0),
       q_trace},
  };
  const SectionRun s11 = run_section(s11_cases);
  const auto& q_static = s11.outcomes[0].result;
  const auto& q_slo = s11.outcomes[1].result;
  const auto& q_depth = s11.outcomes[2].result;
  for (std::size_t i = 0; i < s11_cases.size(); ++i) {
    const serve::ServingResult& r = s11.outcomes[i].result;
    std::printf("  %-20s %3zu done %3zu rejected  SLO attainment %5.1f %%  "
                "p99 %8.1f ms\n",
                s11_cases[i].label.c_str(), r.completed, r.rejected,
                100.0 * r.slo_attainment, r.p99_latency_ms);
    std::printf("  %-20s %zu downgrades %zu restores  %zu degraded tokens  "
                "accuracy proxy mean %.4f / min %.4f\n",
                "", r.quality_downgrades, r.quality_restores,
                r.tokens_at_degraded_quality, r.accuracy_proxy_mean,
                r.accuracy_proxy_min);
  }

  // Gate (a): the pressure policies actually degraded on this trace and
  // StaticQuality never did — the ledger is live, not vacuous.
  const bool s11_degrade_ok = checks.add(
      "quality_degrade_ok",
      q_static.quality_downgrades == 0 && q_slo.quality_downgrades > 0 &&
          q_depth.quality_downgrades > 0,
      "\npressure policies degrade, static never does: ");
  // Gate (b): trading quality for schedule slack wins the SLO — the
  // slo-pressure row strictly improves attainment over static full
  // quality on the same trace.
  const bool s11_slo_ok = checks.add(
      "quality_slo_ok", q_slo.slo_attainment > q_static.slo_attainment,
      "slo-pressure strictly improves SLO attainment (%.1f %% -> %.1f %%): ",
      100.0 * q_static.slo_attainment, 100.0 * q_slo.slo_attainment);
  // Gate (c): degradation substitutes for shedding — strictly fewer
  // rejections than the static row.
  const bool s11_reject_ok = checks.add(
      "quality_reject_ok", q_slo.rejected < q_static.rejected,
      "degradation substitutes for shedding (%zu -> %zu rejected): ",
      q_static.rejected, q_slo.rejected);
  // Gate (d): the quality cost is bounded — the static row is exactly
  // 1.0 (nothing was ever pruned below its base), every degrading row's
  // worst-served request stays at or above the accuracy the band floor
  // prices (the engine really clamped every judgment into [0.5, 1]),
  // and the mean task-proxy accuracy holds 0.75.
  double s11_proxy_floor = 1.0;
  for (const model::MllmConfig& m : zoo) {
    s11_proxy_floor =
        std::min(s11_proxy_floor, serve::quality_accuracy_proxy(m, 0.5));
  }
  const bool s11_accuracy_ok = checks.add(
      "quality_accuracy_ok",
      q_static.accuracy_proxy_mean == 1.0 &&
          q_slo.accuracy_proxy_min >= s11_proxy_floor &&
          q_depth.accuracy_proxy_min >= s11_proxy_floor &&
          q_slo.accuracy_proxy_mean >= 0.75 &&
          q_depth.accuracy_proxy_mean >= 0.75,
      "accuracy cost bounded (mean proxy %.4f / %.4f >= 0.75, "
      "min >= band floor %.4f): ",
      q_slo.accuracy_proxy_mean, q_depth.accuracy_proxy_mean,
      s11_proxy_floor);
  // Gate (e): the seam is free when static — the §10 edgemm-only case
  // replayed with the default quality config spelled out explicitly
  // (StaticQuality + the [0.25, 1] band) is bit-identical, result and
  // every record.
  const std::vector<serve::SweepCase> s11_identity_cases = {
      {s10_cases[0].label, chip8, zoo,
       hetero_base()
           .quality_policy(std::make_shared<serve::StaticQuality>())
           .quality_band(0.25, 1.0),
       zoo_trace},
  };
  const SectionRun s11_id = run_section(s11_identity_cases);
  const bool s11_identity_ok = checks.add(
      "quality_identity_ok",
      serve::outcomes_identical(s11_id.outcomes[0], s10.outcomes[0]),
      "explicit StaticQuality + default band is bit-identical to "
      "the default config: ");
  print_section_wall(s11);

  json.begin_object("quality");
  json.field("wall_ms", s11.wall_ms);
  json.begin_array("cases");
  for (std::size_t i = 0; i < s11_cases.size(); ++i) {
    const serve::ServingResult& r = s11.outcomes[i].result;
    json.begin_object();
    json.field("label", s11_cases[i].label);
    json.field("completed", r.completed);
    json.field("rejected", r.rejected);
    json.field("makespan_ms", r.makespan_ms);
    json.field("slo_attainment", r.slo_attainment);
    json.field("p99_latency_ms", r.p99_latency_ms);
    json.field("quality_downgrades", r.quality_downgrades);
    json.field("quality_restores", r.quality_restores);
    json.field("tokens_at_degraded_quality", r.tokens_at_degraded_quality);
    json.field("accuracy_proxy_mean", r.accuracy_proxy_mean);
    json.field("accuracy_proxy_min", r.accuracy_proxy_min);
    json.end_object();
  }
  json.end_array();
  json.field("degrade_ok", s11_degrade_ok);
  json.field("slo_ok", s11_slo_ok);
  json.field("reject_ok", s11_reject_ok);
  json.field("accuracy_ok", s11_accuracy_ok);
  json.field("identity_ok", s11_identity_ok);
  json.end_object();

  checks.write_json(json);
  json.end_object();
  if (json.write(json_path)) {
    std::printf("\nBENCH artifact written: %s\n", json_path.c_str());
  } else {
    std::printf("\nBENCH artifact NOT written (cannot open %s)\n",
                json_path.c_str());
  }

  std::printf("\nall self-checks passed: %s\n",
              checks.all_passed() ? "yes" : "NO");
  return checks.exit_code();
}
