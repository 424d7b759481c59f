// Fundamental scalar types shared across the EdgeMM libraries.
#ifndef EDGEMM_COMMON_TYPES_HPP
#define EDGEMM_COMMON_TYPES_HPP

#include <cstddef>
#include <cstdint>

namespace edgemm {

/// Simulation time in core clock cycles (1 GHz nominal, see ChipConfig).
using Cycle = std::uint64_t;

/// Byte counts for memory traffic accounting.
using Bytes = std::uint64_t;

/// Floating-point operation counts for workload analytics.
using Flops = std::uint64_t;

/// Identifies a cluster within the chip (global, 0-based).
using ClusterId = std::uint32_t;

/// Identifies a core within the chip (global, 0-based).
using CoreId = std::uint32_t;

/// The two heterogeneous core flavours of EdgeMM (paper §III-A).
enum class CoreKind : std::uint8_t {
  kComputeCentric,  ///< RV host + weight-stationary systolic array (GEMM).
  kMemoryCentric,   ///< RV host + digital CIM macro + act-aware pruner (GEMV).
};

/// Inference phases of an MLLM (paper Fig. 1(a), Fig. 2).
enum class Phase : std::uint8_t {
  kVisionEncoder,  ///< Compute-intensive GEMM over ~300 vision tokens.
  kProjector,      ///< Negligible MLP aligning vision tokens.
  kPrefill,        ///< GEMM over prompt+vision tokens; builds KV cache.
  kDecode,         ///< Autoregressive, memory-bound GEMV per token.
};

}  // namespace edgemm

#endif  // EDGEMM_COMMON_TYPES_HPP
