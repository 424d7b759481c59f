#include "model/workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace edgemm::model {

namespace {

using core::GemmWork;

/// core::pruned_ops' rounding, applied at emission time: the quality
/// seam must price a directly-emitted pruned prefill op and a
/// pruned_ops-transformed decode op identically.
std::size_t pruned_dim(std::size_t k, double keep) {
  if (keep >= 1.0) return k;
  const auto kept =
      static_cast<std::size_t>(std::ceil(static_cast<double>(k) * keep));
  return std::max<std::size_t>(kept, 1);
}

/// Appends the projection + attention ops of one transformer layer.
/// Weight-bearing ops (QKV/O/MLP) process `m_weights` rows; the KV-cache
/// stream ops are emitted once per entry of `attn`, with that entry's
/// rows and context — one entry for a single request, one per batched
/// request for a continuous-batching decode step (private KV caches
/// cannot share a fetch the way weights do).
void append_layer_ops(std::vector<GemmWork>& ops, const TransformerShape& s,
                      std::size_t m_weights, std::span<const DecodeSlot> attn,
                      Phase phase, bool mark_ffn_prunable,
                      bool weights_resident = false, double ffn_keep = 1.0) {
  const std::size_t d = s.d_model;
  const std::size_t kv = s.kv_dim();

  // Fused QKV projection.
  ops.push_back({m_weights, d, d + 2 * kv, phase, weights_resident, 0, false});
  // Attention score and value contractions stream the KV cache (BF16)
  // rather than weights — per-request context, never resident.
  for (const DecodeSlot& slot : attn) {
    ops.push_back({slot.rows, kv, slot.context, phase, false, 2, false});
    ops.push_back({slot.rows, slot.context, kv, phase, false, 2, false});
  }
  // Output projection.
  ops.push_back({m_weights, d, d, phase, weights_resident, 0, false});
  // MLP. Gated blocks have up + gate + down (Eq. 1); classic blocks have
  // up + down. Decode-phase FFN rows are what the activation-aware
  // pruner drops (§IV-A); ffn_keep applies the same drop to the emitted
  // shapes directly (the quality seam's pre-pruned prefill).
  const std::size_t up_k = pruned_dim(d, ffn_keep);
  const std::size_t down_k = pruned_dim(s.d_ffn, ffn_keep);
  if (s.gated_mlp) {
    ops.push_back({m_weights, up_k, s.d_ffn, phase, weights_resident, 0,
                   mark_ffn_prunable});  // up
    ops.push_back({m_weights, up_k, s.d_ffn, phase, weights_resident, 0,
                   mark_ffn_prunable});  // gate
  } else {
    ops.push_back({m_weights, up_k, s.d_ffn, phase, weights_resident, 0,
                   mark_ffn_prunable});  // up
  }
  ops.push_back({m_weights, down_k, d, phase, weights_resident, 0,
                 mark_ffn_prunable});  // down
}

/// The single-request form: `m` tokens attending `context` positions.
void append_layer_ops(std::vector<GemmWork>& ops, const TransformerShape& s,
                      std::size_t m, std::size_t context, Phase phase,
                      bool mark_ffn_prunable, bool weights_resident = false,
                      double ffn_keep = 1.0) {
  const DecodeSlot attn[] = {{context, m}};
  append_layer_ops(ops, s, m, attn, phase, mark_ffn_prunable, weights_resident,
                   ffn_keep);
}

}  // namespace

std::vector<core::GemmWork> build_encoder_ops(const MllmConfig& model,
                                              std::size_t crops) {
  if (crops == 0) {
    throw std::invalid_argument("build_encoder_ops: crops must be > 0");
  }
  std::vector<GemmWork> ops;
  // GEMM over all crops' patch tokens.
  const std::size_t enc_tokens = model.vision_tokens * crops;
  for (const TransformerShape& tower : model.encoders) {
    for (std::size_t layer = 0; layer < tower.layers; ++layer) {
      append_layer_ops(ops, tower, enc_tokens, enc_tokens,
                       Phase::kVisionEncoder, false);
    }
  }
  // Projector (MLP/LDP/Q-Former) folded into the encoder stage; its
  // latency is negligible (Fig. 2(a)).
  if (model.projector_params > 0) {
    const std::size_t eq_dim = model.llm.d_model;
    const std::size_t eq_k =
        std::max<std::size_t>(model.projector_params / eq_dim, 1);
    ops.push_back(
        {enc_tokens, eq_k, eq_dim, Phase::kVisionEncoder, false, 0, false});
  }
  return ops;
}

std::vector<core::GemmWork> build_prefill_chunk(
    const MllmConfig& model, std::size_t start, std::size_t tokens,
    std::size_t prompt_tokens, std::size_t resident_layers, double ffn_keep,
    std::size_t full_keep_layers) {
  if (tokens == 0) {
    throw std::invalid_argument("build_prefill_chunk: tokens must be > 0");
  }
  if (start + tokens > prompt_tokens) {
    throw std::invalid_argument(
        "build_prefill_chunk: chunk exceeds the prompt");
  }
  if (resident_layers > model.llm.layers) {
    throw std::invalid_argument(
        "build_prefill_chunk: resident_layers exceeds the LLM layer count");
  }
  if (full_keep_layers > model.llm.layers) {
    throw std::invalid_argument(
        "build_prefill_chunk: full_keep_layers exceeds the LLM layer count");
  }
  if (!(ffn_keep > 0.0) || ffn_keep > 1.0) {
    throw std::invalid_argument(
        "build_prefill_chunk: ffn_keep must be in (0, 1]");
  }
  std::vector<GemmWork> ops;
  for (std::size_t layer = 0; layer < model.llm.layers; ++layer) {
    append_layer_ops(ops, model.llm, tokens, prompt_tokens, Phase::kPrefill,
                     false, /*weights_resident=*/layer < resident_layers,
                     /*ffn_keep=*/layer < full_keep_layers ? 1.0 : ffn_keep);
  }
  return ops;
}

std::size_t llm_layer_weight_elems(const MllmConfig& model) {
  // QKV + O + MLP rectangles of one layer, exactly the override-0 ops
  // append_layer_ops emits — which is also the layer's parameter count.
  return model.llm.attn_params_per_layer() + model.llm.ffn_params_per_layer();
}

std::size_t kv_bytes_per_token(const MllmConfig& model) {
  return model.llm.layers * 2 * model.llm.kv_dim() * 2;  // K+V rows, BF16
}

core::PhaseWorkload build_phase_workload(const MllmConfig& model,
                                         const WorkloadParams& params) {
  if (params.input_tokens == 0 || params.crops == 0) {
    throw std::invalid_argument("build_phase_workload: tokens/crops must be > 0");
  }
  core::PhaseWorkload w;
  w.encoder = build_encoder_ops(model, params.crops);
  w.prefill =
      build_prefill_chunk(model, 0, params.input_tokens, params.input_tokens);

  const DecodeSlot one_request[] = {{params.decode_context, 1}};
  w.decode_token = build_decode_step(model, one_request);
  return w;
}

WorkloadParams default_params_for_output(std::size_t input_tokens,
                                         std::size_t output_tokens,
                                         std::size_t crops) {
  WorkloadParams p;
  p.input_tokens = input_tokens;
  p.crops = crops;
  p.decode_context = input_tokens + output_tokens / 2;
  return p;
}

std::vector<core::GemmWork> build_decode_step(const MllmConfig& model,
                                              std::span<const DecodeSlot> batch,
                                              double keep_fraction) {
  if (batch.empty()) {
    throw std::invalid_argument("build_decode_step: empty batch");
  }
  if (keep_fraction < 0.0 || keep_fraction > 1.0) {
    throw std::invalid_argument(
        "build_decode_step: keep_fraction must be in [0, 1]");
  }
  std::size_t rows = 0;
  for (const DecodeSlot& slot : batch) {
    if (slot.context == 0 || slot.rows == 0) {
      throw std::invalid_argument(
          "build_decode_step: zero attention context or rows");
    }
    rows += slot.rows;
  }
  std::vector<GemmWork> ops;
  for (std::size_t layer = 0; layer < model.llm.layers; ++layer) {
    append_layer_ops(ops, model.llm, rows, batch, Phase::kDecode, true,
                     /*weights_resident=*/false, keep_fraction);
  }
  if (model.llm.vocab > 0) {
    ops.push_back({batch.size(), model.llm.d_model, model.llm.vocab,
                   Phase::kDecode, false, 0, false});
  }
  return ops;
}

DecodeStepTraffic decode_step_traffic(const MllmConfig& model, double keep_fraction,
                                      std::size_t weight_elem_bytes) {
  if (keep_fraction < 0.0 || keep_fraction > 1.0) {
    throw std::invalid_argument(
        "decode_step_traffic: keep_fraction must be in [0, 1]");
  }
  // Mirrors build_decode_step: per layer QKV, O and the (pruned) MLP
  // batched to m = B, plus two KV-stream ops per request; then the LM
  // head. Activations stream BF16 in and out of every op.
  const TransformerShape& s = model.llm;
  const Bytes d = s.d_model;
  const Bytes kv = s.kv_dim();
  const Bytes layers = s.layers;
  const Bytes up_k = pruned_dim(s.d_model, keep_fraction);
  const Bytes down_k = pruned_dim(s.d_ffn, keep_fraction);
  const Bytes ups = s.gated_mlp ? 2 : 1;  // up (+ gate)
  Bytes weight_elems =
      layers * (d * (d + 2 * kv) + d * d + ups * up_k * s.d_ffn + down_k * d);
  Bytes act_elems =
      layers * ((2 * d + 2 * kv) + 2 * d + ups * (up_k + s.d_ffn) + (down_k + d));
  if (s.vocab > 0) {
    weight_elems += d * s.vocab;
    act_elems += d + s.vocab;
  }
  constexpr Bytes kBf16 = 2;
  // Each request's two KV-stream ops (m = 1, BF16 weights) over context
  // c move 2·kv·c weight elements and 2·(kv + c) activation elements.
  return {weight_elems * weight_elem_bytes,
          kBf16 * (act_elems + 2 * layers * kv),
          kBf16 * 2 * layers * (kv + 1)};
}

std::vector<core::GemmWork> aggregate_ops(const std::vector<core::GemmWork>& ops) {
  std::vector<core::GemmWork> out;
  for (const core::GemmWork& op : ops) {
    bool merged = false;
    for (core::GemmWork& agg : out) {
      if (agg.m == op.m && agg.k == op.k && agg.phase == op.phase &&
          agg.prunable == op.prunable &&
          agg.weight_elem_bytes_override == op.weight_elem_bytes_override &&
          agg.weights_resident == op.weights_resident) {
        agg.n += op.n;
        merged = true;
        break;
      }
    }
    if (!merged) out.push_back(op);
  }
  return out;
}

core::PhaseWorkload aggregate_workload(const core::PhaseWorkload& workload) {
  core::PhaseWorkload out;
  out.encoder = aggregate_ops(workload.encoder);
  out.prefill = aggregate_ops(workload.prefill);
  out.decode_token = aggregate_ops(workload.decode_token);
  return out;
}

}  // namespace edgemm::model
