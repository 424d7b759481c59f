#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "common/assert.hpp"
#include "common/units.hpp"
#include "core/phase_scheduler.hpp"

namespace edgemm::core {

std::vector<GemmWork> batched_decode_ops(const std::vector<GemmWork>& ops,
                                         std::size_t batch) {
  std::vector<GemmWork> out = ops;
  if (batch <= 1) return out;
  for (GemmWork& op : out) op.m *= batch;
  return out;
}

std::vector<GemmWork> pruned_ops(const std::vector<GemmWork>& ops,
                                 double keep_fraction) {
  if (keep_fraction < 0.0 || keep_fraction > 1.0) {
    throw std::invalid_argument("pruned_ops: keep_fraction must be in [0, 1]");
  }
  std::vector<GemmWork> out = ops;
  for (GemmWork& op : out) {
    if (!op.prunable) continue;
    const auto kept = static_cast<std::size_t>(
        std::ceil(static_cast<double>(op.k) * keep_fraction));
    op.k = std::max<std::size_t>(kept, 1);
  }
  return out;
}

MllmPipeline::MllmPipeline(const ChipConfig& config) : config_(config) {
  config_.validate();
}

BandwidthPolicy derive_policy(const ChipConfig& config,
                              const PhaseWorkload& workload) {
  // Throwaway models to evaluate the analytic per-op costs.
  sim::Simulator sim;
  mem::DramController dram(sim, config.dram);
  ClusterTimingModel cc(sim, dram, config, ClusterKind::kComputeCentric);
  ClusterTimingModel mc(sim, dram, config, ClusterKind::kMemoryCentric);

  const double half_bw = config.dram.bytes_per_cycle / 2.0;
  const std::size_t n_cc = std::max<std::size_t>(config.total_cc_clusters(), 1);
  const std::size_t n_mc = std::max<std::size_t>(config.total_mc_clusters(), 1);

  auto stage_cycles = [&](ClusterTimingModel& cluster, std::size_t ways,
                          const std::vector<GemmWork>& ops) {
    double compute = 0.0;
    double bytes = 0.0;
    for (const GemmWork& op : ops) {
      const auto shards = ChipTimingModel::partition(op, ways);
      if (shards.empty()) continue;
      compute += static_cast<double>(cluster.compute_cycles(shards.front()));
      for (const GemmWork& shard : shards) {
        bytes += static_cast<double>(cluster.weight_bytes(shard) +
                                     cluster.activation_bytes(shard));
      }
    }
    return std::max(compute, bytes / half_bw);
  };

  std::vector<GemmWork> cc_ops = workload.encoder;
  cc_ops.insert(cc_ops.end(), workload.prefill.begin(), workload.prefill.end());
  const double cc_stage = stage_cycles(cc, n_cc, cc_ops);
  const double decode_token = stage_cycles(mc, n_mc, workload.decode_token);

  BandwidthPolicy policy;  // published ramp shape and batch ceiling
  const double le = decode_token > 0.0 ? cc_stage / decode_token : 1.0;
  policy.balance_length = std::max<std::size_t>(1, static_cast<std::size_t>(le + 0.5));
  // The paper's proportion l_b / l_e = 131 / 36.
  policy.batch_length = std::max<std::size_t>(
      policy.balance_length + 1,
      static_cast<std::size_t>(le * 131.0 / 36.0 + 0.5));
  return policy;
}

PipelineResult MllmPipeline::run(const PhaseWorkload& workload,
                                 const PipelineOptions& options) {
  if (options.output_tokens == 0) {
    throw std::invalid_argument("MllmPipeline::run: output_tokens must be > 0");
  }
  if (workload.encoder.empty() && workload.prefill.empty()) {
    throw std::invalid_argument("MllmPipeline::run: empty CC-stage workload");
  }
  if (workload.decode_token.empty()) {
    throw std::invalid_argument("MllmPipeline::run: empty decode workload");
  }
  const std::size_t l = options.output_tokens;
  const std::size_t n_batches = std::max<std::size_t>(options.batches, 2);

  BandwidthManager manager(config_, options.policy);
  std::size_t batch = 1;
  if (options.forced_batch > 0) {
    batch = options.forced_batch;
  } else if (options.enable_batching) {
    batch = manager.batch_for_length(l);
  }

  ChipTimingModel chip(config_, ChipComposition::kHeterogeneous);
  const auto& cc_set = chip.clusters(ClusterKind::kComputeCentric);
  const auto& mc_set = chip.clusters(ClusterKind::kMemoryCentric);
  EDGEMM_ASSERT_MSG(!cc_set.empty() && !mc_set.empty(),
                    "pipeline requires a heterogeneous chip");

  // One CC round encodes+prefills a whole batch of requests (Fig. 9(c)).
  std::vector<GemmWork> cc_round;
  for (std::size_t b = 0; b < batch; ++b) {
    cc_round.insert(cc_round.end(), workload.encoder.begin(), workload.encoder.end());
    cc_round.insert(cc_round.end(), workload.prefill.begin(), workload.prefill.end());
  }
  // One decode step serves the whole batch off a single weight fetch.
  const std::vector<GemmWork> decode_step =
      batched_decode_ops(pruned_ops(workload.decode_token, options.prune_keep_fraction),
                         batch);

  std::size_t applied_ratio = 1;
  if (options.manage_bandwidth) {
    if (batch > 1) {
      // Batch decoding rebalances the pipeline (Fig. 9(c)): size Bc:Bm
      // from the actual per-round byte ratio instead of the l-schedule.
      const double cc_bytes =
          static_cast<double>(estimated_traffic_bytes(*cc_set.front(), cc_round));
      const double mc_bytes =
          static_cast<double>(estimated_traffic_bytes(*mc_set.front(), decode_step)) *
          static_cast<double>(l);
      const double raw_ratio = cc_bytes > 0.0 ? mc_bytes / cc_bytes : 1.0;
      applied_ratio = std::clamp<std::size_t>(
          static_cast<std::size_t>(raw_ratio + 0.5), 1, options.policy.max_mc_ratio);
      manager.apply_ratio(chip, applied_ratio);
    } else {
      applied_ratio = manager.mc_ratio_for_length(l);
      manager.apply(chip, l);
    }
  } else {
    // §IV-B baseline: the PMC throttles are always armed, with the
    // default equal hard partition across clusters.
    manager.apply_equal_sharing(chip);
  }

  // --- Event-driven pipeline driver --------------------------------------
  // The lane mechanics (cluster sets, FIFO dispatch, overlap between the
  // CC stage and MC decode) live in PhaseScheduler; what remains here is
  // the fixed-workload round structure of the original experiment.
  struct BatchTimes {
    Cycle cc_start = 0, cc_end = 0, mc_start = 0, mc_end = 0;
    bool cc_done = false;
  };
  struct Driver {
    PhaseScheduler& sched;
    PhaseScheduler::OpsRef cc_round;    ///< shared: one submission per batch
    PhaseScheduler::OpsRef decode_step; ///< shared: one submission per token
    std::size_t l;
    std::size_t n_batches;
    std::vector<BatchTimes> times;
    std::size_t mc_next = 0;
    bool mc_busy = false;

    void start_cc(std::size_t j) {
      if (j >= n_batches) return;
      sched.submit(
          Lane::kCcStage, cc_round,
          [this, j] {
            times[j].cc_end = sched.sim().now();
            times[j].cc_done = true;
            try_start_mc();
            start_cc(j + 1);  // streaming input: next batch is always waiting
          },
          [this, j] { times[j].cc_start = sched.sim().now(); });
    }

    void try_start_mc() {
      if (mc_busy || mc_next >= n_batches || !times[mc_next].cc_done) return;
      mc_busy = true;
      times[mc_next].mc_start = sched.sim().now();
      decode_token(mc_next, 0);
    }

    void decode_token(std::size_t j, std::size_t t) {
      sched.submit(Lane::kMcDecode, decode_step, [this, j, t] {
        if (t + 1 < l) {
          decode_token(j, t + 1);
          return;
        }
        times[j].mc_end = sched.sim().now();
        mc_busy = false;
        ++mc_next;
        try_start_mc();
      });
    }
  };

  PhaseScheduler scheduler(chip);
  Driver driver{scheduler,
                std::make_shared<const std::vector<GemmWork>>(std::move(cc_round)),
                std::make_shared<const std::vector<GemmWork>>(decode_step),
                l,
                n_batches,
                std::vector<BatchTimes>(n_batches)};
  driver.start_cc(0);
  chip.simulator().run();

  // --- Metrics -------------------------------------------------------------
  PipelineResult result;
  result.batch = batch;
  result.mc_ratio = applied_ratio;
  result.makespan = chip.simulator().now();
  result.total_tokens = n_batches * batch * l;

  // Steady-state batch: the last one still overlapped by upstream CC work.
  const std::size_t steady = n_batches >= 3 ? n_batches - 2 : n_batches - 1;
  const BatchTimes& s = driver.times[steady];
  result.cc_stage_cycles = s.cc_end - s.cc_start;
  result.mc_stage_cycles = s.mc_end - s.mc_start;
  result.request_latency_ms =
      cycles_to_ms(s.mc_end - s.cc_start, config_.clock_hz);

  // Steady-state throughput: tokens of one pipeline round over the round
  // interval (completion-to-completion of consecutive batches).
  const BatchTimes& last = driver.times[n_batches - 1];
  const BatchTimes& prev = driver.times[n_batches - 2];
  const Cycle round = last.mc_end > prev.mc_end ? last.mc_end - prev.mc_end : 1;
  result.tokens_per_second = static_cast<double>(batch * l) /
                             cycles_to_seconds(round, config_.clock_hz);
  result.dram_utilization = chip.dram().utilization();
  return result;
}

}  // namespace edgemm::core
