// Builds the per-phase operation lists (core::PhaseWorkload) that the
// timing plane executes for a given MLLM.
#ifndef EDGEMM_MODEL_WORKLOAD_HPP
#define EDGEMM_MODEL_WORKLOAD_HPP

#include <span>

#include "core/pipeline.hpp"
#include "model/mllm_config.hpp"

namespace edgemm::model {

/// Scenario parameters for one request.
struct WorkloadParams {
  /// Tokens entering the LLM (vision + prompt). The paper profiles with
  /// ~300, "primarily made up of vision tokens" (§II-B).
  std::size_t input_tokens = 300;
  /// Encoder passes per request: sub-image crops (SPHINX-style) or
  /// streamed camera frames in the real-time scenarios of §IV-B.
  std::size_t crops = 1;
  /// Average attention context during decode (input + generated/2).
  std::size_t decode_context = 364;
};

/// Expands `model` into encoder / prefill / per-token-decode op lists.
/// The decode list is build_decode_step for one request attending
/// `decode_context` positions: FFN projections are marked prunable
/// (§IV-A) and KV-cache traffic carries the BF16 element override.
/// Throws std::invalid_argument for zero tokens, crops or decode
/// context.
core::PhaseWorkload build_phase_workload(const MllmConfig& model,
                                         const WorkloadParams& params);

/// Convenience: decode_context consistent with `output_tokens`.
WorkloadParams default_params_for_output(std::size_t input_tokens,
                                         std::size_t output_tokens,
                                         std::size_t crops = 1);

/// Vision-encoder (+ projector) ops for one request with `crops` encoder
/// passes — the front of every prefill plan. Throws std::invalid_argument
/// for zero crops.
std::vector<core::GemmWork> build_encoder_ops(const MllmConfig& model,
                                              std::size_t crops);

/// One chunk of a chunked prefill: LLM-prefill ops for prompt tokens
/// [start, start + tokens) of a `prompt_tokens`-long prompt. Attention
/// is charged at the same rectangle convention as the monolithic
/// prefill of build_phase_workload (every row attends the full
/// `prompt_tokens` context), so a plan whose chunk sizes sum to the
/// prompt length models EXACTLY the monolithic op totals — planners
/// differ only in how the work is sliced into lane jobs (and in the
/// per-chunk weight re-fetch). Chunk (0, prompt_tokens, prompt_tokens)
/// IS the monolithic prefill.
///
/// `resident_layers` is the weight-resident chunk-chaining seam: the
/// weight-bearing ops (QKV/O/MLP) of the first `resident_layers` LLM
/// layers are emitted with GemmWork::weights_resident set, zeroing
/// their weight-stream rectangle — those layer groups are pinned
/// on-chip by an earlier chunk of the same request (see
/// serve::WeightResidencyTracker). KV-stream attention ops always keep
/// their traffic: the KV cache is per-request context, not weights, and
/// is never pinned. 0 (the default) re-fetches everything, byte-
/// identical to the PR 2 behavior.
///
/// `ffn_keep` is the serving-quality seam: the FFN projections (up/gate/
/// down) of layers at or beyond `full_keep_layers` are emitted with
/// their k dimension shrunk to ceil(k * ffn_keep) (floor 1) — the same
/// rounding core::pruned_ops applies to prunable decode ops — so a
/// degraded request's streamed weight bytes actually shrink. The first
/// `full_keep_layers` layers always keep full shapes: pinned resident
/// layer groups hold the FULL weights on-chip, so their ledger math
/// (pin bytes, fill-barrier re-fetch) must stay exact whatever fraction
/// the request is served at. 1.0 (the default) emits today's ops
/// bit-identically.
///
/// Throws std::invalid_argument for zero tokens, start + tokens >
/// prompt_tokens, resident_layers or full_keep_layers > the model's LLM
/// layer count, or ffn_keep outside (0, 1].
std::vector<core::GemmWork> build_prefill_chunk(
    const MllmConfig& model, std::size_t start, std::size_t tokens,
    std::size_t prompt_tokens, std::size_t resident_layers = 0,
    double ffn_keep = 1.0, std::size_t full_keep_layers = 0);

/// Weight elements (summed k x n rectangles of the QKV/O/MLP
/// projections, KV streams excluded) of ONE LLM layer — the layer-group
/// granularity weight residency pins at. Multiply by the fetching
/// cluster's weight element size (ChipConfig::cc_elem_bytes on the CC
/// lane) for bytes.
std::size_t llm_layer_weight_elems(const MllmConfig& model);

/// Bytes one generated token appends to a request's KV cache: K and V
/// rows of kv_dim across all LLM layers, stored BF16 (the same element
/// override the decode KV-stream ops carry).
std::size_t kv_bytes_per_token(const MllmConfig& model);

/// One request's share of a continuous-batching decode step: `rows`
/// tokens attending `context` positions. A decoding request feeds one
/// row; a prompt suffix prefilled inside the step feeds its suffix
/// tokens, each attending the whole prompt (the rectangle convention of
/// build_prefill_chunk), and only its last row yields a token.
struct DecodeSlot {
  std::size_t context = 1;
  std::size_t rows = 1;
};

/// One continuous-batching decode iteration for a batch of in-flight
/// requests. Weight-bearing ops (QKV/O/FFN) are batched to m = the sum
/// of the slots' rows, amortizing a single weight fetch across the batch
/// (Fig. 9(c)); each request's two KV-stream ops stay private with
/// m = its rows and its own context — unlike weights, KV caches cannot
/// share a fetch. The LM head has m = batch.size(): one token per
/// request. The prunable FFN ops are pruned to `keep_fraction` with
/// core::pruned_ops' rounding, so the result is exactly
/// pruned_ops(build_decode_step(model, batch), keep_fraction). Throws
/// std::invalid_argument for an empty batch, a zero context or row
/// count, or keep_fraction outside [0, 1].
std::vector<core::GemmWork> build_decode_step(const MllmConfig& model,
                                              std::span<const DecodeSlot> batch,
                                              double keep_fraction = 1.0);

/// DRAM bytes of one pruned decode step, split the way continuous
/// batching shares them (Fig. 9(c)). A step of build_decode_step(model,
/// batch, keep_fraction) whose slots all feed one row, priced with
/// weight element size `weight_elem_bytes`, moves
///   shared + sum_i (per_request + kv_slope * batch[i].context)
/// bytes:
/// - `shared`: the weight fetch, once per step whatever the batch;
/// - `per_request`: one row of BF16 activations (inputs + outputs) plus
///   the context-independent part of the KV-stream ops;
/// - `kv_slope`: per context token, its K and V rows (4·L·kv_dim) and
///   its attention score in and out (4·L).
/// The closed form of core::estimated_traffic_bytes over those ops on a
/// cluster fetching weights at `weight_elem_bytes`. Throws
/// std::invalid_argument for keep_fraction outside [0, 1].
struct DecodeStepTraffic {
  Bytes shared = 0;
  Bytes per_request = 0;
  Bytes kv_slope = 0;
};
DecodeStepTraffic decode_step_traffic(const MllmConfig& model, double keep_fraction,
                                      std::size_t weight_elem_bytes);

/// Merges ops that share (k, phase, prunable, element override, residency)
/// by summing their n dimensions. Total weight bytes, FLOPs, and — thanks
/// to the linear tiling of both coprocessor cycle models — compute cycles
/// are preserved, while the op count (and hence event count in long
/// pipeline sweeps) drops by ~an order of magnitude.
std::vector<core::GemmWork> aggregate_ops(const std::vector<core::GemmWork>& ops);

/// aggregate_ops applied to every phase list of `workload`.
core::PhaseWorkload aggregate_workload(const core::PhaseWorkload& workload);

}  // namespace edgemm::model

#endif  // EDGEMM_MODEL_WORKLOAD_HPP
