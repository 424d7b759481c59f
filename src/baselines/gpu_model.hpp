// Analytic model of the RTX 3060 laptop GPU baseline of Table II.
//
// We do not have the authors' GPU testbed; as a substitution
// (docs/PAPER_MAP.md) the baseline is a roofline-plus-overheads model built
// from the published specification (13 TFLOP/s FP32, 336 GB/s GDDR6)
// and the utilization pathologies the paper attributes to GPUs on edge
// MLLMs: "SM cores ... often remain underutilized" for short-sequence
// GEMM, batch-1 GEMV leaves bandwidth on the table, and every layer op
// pays a kernel-launch overhead.
#ifndef EDGEMM_BASELINES_GPU_MODEL_HPP
#define EDGEMM_BASELINES_GPU_MODEL_HPP

#include <string>

#include "core/pipeline.hpp"
#include "core/timing.hpp"

namespace edgemm::baselines {

/// Published + calibration parameters of the GPU baseline.
///
/// Fields stay public aggregates for brace-init in benches; the fluent
/// `with_*` setters reject bad values eagerly (EngineConfig builder
/// idiom) and validate() re-checks a hand-built spec before use.
struct GpuSpec {
  std::string name = "RTX 3060 Laptop";
  double peak_flops = 13.0e12;        ///< FP32 (Table II)
  double memory_bandwidth = 336.0e9;  ///< GDDR6 B/s (Table II)
  /// Achieved fraction of peak compute on short-sequence GEMM
  /// (occupancy + tensor-core feeding limits at m ≈ 300).
  double gemm_efficiency = 0.55;
  /// Achieved fraction of peak bandwidth at batch-1 decode GEMV.
  double gemv_bandwidth_efficiency = 0.52;
  /// Per-kernel launch + framework dispatch overhead.
  double kernel_launch_seconds = 8.0e-6;
  std::size_t elem_bytes = 2;  ///< FP16 weights/activations
  double board_power_w = 80.0; ///< laptop TGP class, for tokens/J

  GpuSpec& with_peak_flops(double v);
  GpuSpec& with_memory_bandwidth(double v);
  GpuSpec& with_gemm_efficiency(double v);
  GpuSpec& with_gemv_bandwidth_efficiency(double v);
  GpuSpec& with_kernel_launch_seconds(double v);
  GpuSpec& with_elem_bytes(std::size_t v);
  GpuSpec& with_board_power_w(double v);

  /// Throws std::invalid_argument on a physically meaningless spec
  /// (non-positive flops/bandwidth/efficiencies, efficiencies above 1,
  /// zero element size, negative launch overhead).
  void validate() const;
};

/// Weights + activations traffic of one dense op on the GPU: every
/// launch streams the full weight tile (no TCDM residency) plus the
/// activation in/out tiles, all in `elem_bytes` precision.
Bytes gpu_op_bytes(const GpuSpec& spec, const core::GemmWork& work);

/// Wall-clock of one dense op on the GPU: roofline max of compute and
/// memory time plus the launch overhead.
double gpu_op_seconds(const GpuSpec& spec, const core::GemmWork& work);

/// Phase latencies for one request (phases run serially on one stream,
/// the standard single-request inference flow the paper compares against).
struct GpuMllmTiming {
  double encoder_seconds = 0.0;
  double prefill_seconds = 0.0;
  double decode_token_seconds = 0.0;  ///< per generated token

  double request_seconds(std::size_t output_tokens) const {
    return encoder_seconds + prefill_seconds +
           decode_token_seconds * static_cast<double>(output_tokens);
  }
  double tokens_per_second(std::size_t output_tokens) const {
    const double s = request_seconds(output_tokens);
    return s > 0.0 ? static_cast<double>(output_tokens) / s : 0.0;
  }
};

/// Evaluates a PhaseWorkload on the GPU model.
GpuMllmTiming evaluate_gpu(const GpuSpec& spec, const core::PhaseWorkload& workload);

}  // namespace edgemm::baselines

#endif  // EDGEMM_BASELINES_GPU_MODEL_HPP
