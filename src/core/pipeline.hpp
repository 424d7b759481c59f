// Streaming MLLM pipeline across the heterogeneous clusters (Fig. 9).
//
// Continuous streaming input lets the vision encoder + LLM-prefill of the
// next request run on the CC-clusters while the MC-clusters decode the
// current one. Bandwidth throttling rebalances the two stages as the
// output length grows, and stream-based batch decoding amortizes weight
// traffic across a batch of requests beyond l_b.
#ifndef EDGEMM_CORE_PIPELINE_HPP
#define EDGEMM_CORE_PIPELINE_HPP

#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "core/bandwidth_manager.hpp"
#include "core/chip.hpp"
#include "core/config.hpp"
#include "core/timing.hpp"

namespace edgemm::core {

/// Per-phase operation lists for one request of a given MLLM
/// (built by model::build_phase_workload).
struct PhaseWorkload {
  std::vector<GemmWork> encoder;       ///< vision encoder, GEMM (m = tokens)
  std::vector<GemmWork> prefill;       ///< LLM prefill, GEMM
  std::vector<GemmWork> decode_token;  ///< ONE decode iteration, GEMV (m = 1)
};

/// Knobs for one pipeline experiment.
struct PipelineOptions {
  std::size_t output_tokens = 128;  ///< l
  std::size_t batches = 3;          ///< pipeline rounds simulated (≥2 for steady state)
  bool manage_bandwidth = true;     ///< §IV-B throttling
  bool enable_batching = true;      ///< Fig. 9(c) stream-based batch decode
  /// Average fraction of prunable (FFN) weight rows *kept* by the
  /// activation-aware pruner; 1.0 = pruning off. Applied to the k
  /// dimension of prunable decode ops.
  double prune_keep_fraction = 1.0;
  BandwidthPolicy policy{};
};

/// Measured outcome of a pipeline run.
struct PipelineResult {
  Cycle makespan = 0;                ///< all batches, first CC op to last token
  Cycle cc_stage_cycles = 0;         ///< steady-state CC stage duration
  Cycle mc_stage_cycles = 0;         ///< steady-state decode stage duration
  double request_latency_ms = 0.0;   ///< arrival-to-last-token, steady batch
  double tokens_per_second = 0.0;    ///< generated tokens / makespan
  std::size_t batch = 1;
  std::size_t mc_ratio = 1;          ///< applied Bc:Bm
  std::size_t total_tokens = 0;
  double dram_utilization = 0.0;
};

/// Runs the streaming pipeline experiment on a fresh heterogeneous chip.
class MllmPipeline {
 public:
  explicit MllmPipeline(const ChipConfig& config);

  /// Simulates `options.batches` pipeline rounds of `workload` and
  /// reports latency/throughput. Throws std::invalid_argument for an
  /// empty workload or zero output_tokens.
  PipelineResult run(const PhaseWorkload& workload, const PipelineOptions& options);

 private:
  ChipConfig config_;
};

/// Returns `ops` with the batch dimension applied (m *= batch) — batch
/// decoding reuses each fetched weight block across the whole batch.
std::vector<GemmWork> batched_decode_ops(const std::vector<GemmWork>& ops,
                                         std::size_t batch);

/// Returns `ops` with prunable k dimensions scaled by `keep_fraction`.
std::vector<GemmWork> pruned_ops(const std::vector<GemmWork>& ops,
                                 double keep_fraction);

/// Derives the bandwidth policy for THIS platform and workload: l_e is
/// the output length at which the CC stage and the decode stage balance
/// under equal bandwidth sharing (the paper's definition of l_e, which
/// evaluates to 36 on their testbed), and l_b keeps the paper's
/// l_b : l_e proportion (131 : 36). The ratio ramp and batch ceiling
/// stay at the published values.
BandwidthPolicy derive_policy(const ChipConfig& config, const PhaseWorkload& workload);

}  // namespace edgemm::core

#endif  // EDGEMM_CORE_PIPELINE_HPP
