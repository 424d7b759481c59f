#include "model/workload.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.hpp"
#include "core/timing.hpp"
#include "mem/dram.hpp"
#include "model/transformer.hpp"
#include "sim/simulator.hpp"

namespace edgemm::model {
namespace {

TEST(Workload, Validation) {
  EXPECT_THROW(build_phase_workload(sphinx_tiny(), WorkloadParams{0, 1, 300}),
               std::invalid_argument);
  EXPECT_THROW(build_phase_workload(sphinx_tiny(), WorkloadParams{300, 0, 300}),
               std::invalid_argument);
}

TEST(Workload, PhaseTagsConsistent) {
  const auto w = build_phase_workload(sphinx_tiny(), WorkloadParams{});
  for (const auto& op : w.encoder) EXPECT_EQ(op.phase, Phase::kVisionEncoder);
  for (const auto& op : w.prefill) EXPECT_EQ(op.phase, Phase::kPrefill);
  for (const auto& op : w.decode_token) EXPECT_EQ(op.phase, Phase::kDecode);
}

TEST(Workload, DecodeOpsAreGemv) {
  const auto w = build_phase_workload(sphinx_tiny(), WorkloadParams{});
  for (const auto& op : w.decode_token) EXPECT_EQ(op.m, 1u);
}

TEST(Workload, PrefillUsesInputTokens) {
  WorkloadParams params;
  params.input_tokens = 300;
  const auto w = build_phase_workload(sphinx_tiny(), params);
  for (const auto& op : w.prefill) EXPECT_EQ(op.m, 300u);
}

TEST(Workload, OnlyDecodeFfnOpsArePrunable) {
  // §IV-A prunes FFN weight rows during GEMV (decode); nothing else.
  const auto w = build_phase_workload(sphinx_tiny(), WorkloadParams{});
  for (const auto& op : w.encoder) EXPECT_FALSE(op.prunable);
  for (const auto& op : w.prefill) EXPECT_FALSE(op.prunable);
  std::size_t prunable = 0;
  for (const auto& op : w.decode_token) prunable += op.prunable ? 1 : 0;
  // 3 gated-MLP projections per layer × 22 layers.
  EXPECT_EQ(prunable, 3u * sphinx_tiny().llm.layers);
}

TEST(Workload, KvOpsCarryBf16Override) {
  const auto w = build_phase_workload(sphinx_tiny(), WorkloadParams{});
  std::size_t kv_ops = 0;
  for (const auto& op : w.decode_token) {
    if (op.weight_elem_bytes_override == 2) ++kv_ops;
  }
  // Two attention contractions per layer.
  EXPECT_EQ(kv_ops, 2u * sphinx_tiny().llm.layers);
}

TEST(Workload, LmHeadPresentForLlm) {
  const auto model = karmavlm();  // large vocab
  const auto w = build_phase_workload(model, WorkloadParams{});
  const auto& last = w.decode_token.back();
  EXPECT_EQ(last.n, model.llm.vocab);
  EXPECT_EQ(last.k, model.llm.d_model);
}

TEST(Workload, DecodeWeightBytesMatchAnalyticProfile) {
  // Cross-plane consistency: summing op weight traffic (INT8, KV BF16)
  // must land near the analytic decode profile.
  const auto model = sphinx_tiny();
  WorkloadParams params = default_params_for_output(300, 128);
  const auto w = build_phase_workload(model, params);

  Bytes op_bytes = 0;
  for (const auto& op : w.decode_token) {
    const std::size_t elem =
        op.weight_elem_bytes_override > 0 ? op.weight_elem_bytes_override : 1;
    op_bytes += static_cast<Bytes>(op.k) * op.n * elem;
  }
  const auto profile = decode_profile(model.llm, params.decode_context, 1);
  const auto analytic = profile.weight_bytes + profile.kv_bytes;
  const double rel = static_cast<double>(op_bytes) / static_cast<double>(analytic);
  EXPECT_GT(rel, 0.9);
  EXPECT_LT(rel, 1.1);
}

TEST(Workload, CropsScaleEncoderWork) {
  WorkloadParams one = {300, 1, 300};
  WorkloadParams five = {300, 5, 300};
  const auto w1 = build_phase_workload(sphinx_tiny(), one);
  const auto w5 = build_phase_workload(sphinx_tiny(), five);
  ASSERT_EQ(w1.encoder.size(), w5.encoder.size());
  Flops f1 = 0;
  Flops f5 = 0;
  for (const auto& op : w1.encoder) f1 += op.flops();
  for (const auto& op : w5.encoder) f5 += op.flops();
  EXPECT_GT(f5, 4 * f1);
}

TEST(Workload, DefaultParamsDeriveContext) {
  const auto p = default_params_for_output(300, 128, 2);
  EXPECT_EQ(p.input_tokens, 300u);
  EXPECT_EQ(p.crops, 2u);
  EXPECT_EQ(p.decode_context, 300u + 64u);
}

TEST(Workload, RequestWorkloadMatchesPhaseWorkload) {
  const RequestShape shape{300, 128, 2};
  const auto per_request = build_request_workload(sphinx_tiny(), shape);
  const auto reference = build_phase_workload(
      sphinx_tiny(), default_params_for_output(300, 128, 2));
  ASSERT_EQ(per_request.encoder.size(), reference.encoder.size());
  ASSERT_EQ(per_request.prefill.size(), reference.prefill.size());
  ASSERT_EQ(per_request.decode_token.size(), reference.decode_token.size());
  for (std::size_t i = 0; i < reference.decode_token.size(); ++i) {
    EXPECT_EQ(per_request.decode_token[i].k, reference.decode_token[i].k);
    EXPECT_EQ(per_request.decode_token[i].n, reference.decode_token[i].n);
  }
  EXPECT_THROW(build_request_workload(sphinx_tiny(), RequestShape{300, 0, 1}),
               std::invalid_argument);
}

TEST(Workload, SingleRequestDecodeStepMatchesLegacyDecodeToken) {
  const auto params = default_params_for_output(300, 128);
  const auto reference =
      build_phase_workload(sphinx_tiny(), params).decode_token;
  const DecodeSlot batch[] = {{params.decode_context}};
  const auto step = build_decode_step(sphinx_tiny(), batch);
  ASSERT_EQ(step.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(step[i].m, reference[i].m);
    EXPECT_EQ(step[i].k, reference[i].k);
    EXPECT_EQ(step[i].n, reference[i].n);
    EXPECT_EQ(step[i].prunable, reference[i].prunable);
    EXPECT_EQ(step[i].weight_elem_bytes_override,
              reference[i].weight_elem_bytes_override);
  }
}

TEST(Workload, PrefillChunkZeroIsTheMonolithicPrefill) {
  const auto reference =
      build_phase_workload(sphinx_tiny(), WorkloadParams{300, 1, 364}).prefill;
  const auto chunk = build_prefill_chunk(sphinx_tiny(), 0, 300, 300);
  ASSERT_EQ(chunk.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(chunk[i].m, reference[i].m);
    EXPECT_EQ(chunk[i].k, reference[i].k);
    EXPECT_EQ(chunk[i].n, reference[i].n);
    EXPECT_EQ(chunk[i].phase, reference[i].phase);
    EXPECT_EQ(chunk[i].prunable, reference[i].prunable);
    EXPECT_EQ(chunk[i].weight_elem_bytes_override,
              reference[i].weight_elem_bytes_override);
  }
}

TEST(Workload, PrefillChunksCoverExactlyTheMonolithicWork) {
  // Token rows processed by every op kind must sum across chunks to the
  // monolithic count: all ops carry m = chunk tokens, and attention is
  // charged at the same rectangle convention as the monolithic prefill
  // (context = full prompt), so planners differ only in job slicing.
  const auto& llm = sphinx_tiny().llm;
  const std::size_t chunk_sizes[] = {128, 128, 44};
  std::size_t start = 0;
  std::size_t qkv_rows = 0;
  for (const std::size_t tokens : chunk_sizes) {
    const auto ops = build_prefill_chunk(sphinx_tiny(), start, tokens, 300);
    for (const auto& op : ops) {
      EXPECT_EQ(op.m, tokens);
      if (op.weight_elem_bytes_override != 0) {
        // KV stream ops: context spans the whole prompt.
        EXPECT_TRUE(op.k == 300u || op.n == 300u);
      }
    }
    // One QKV op per layer; count its token rows via the first op.
    qkv_rows += ops.front().m * llm.layers;
    start += tokens;
  }
  EXPECT_EQ(start, 300u);
  const auto mono = build_prefill_chunk(sphinx_tiny(), 0, 300, 300);
  EXPECT_EQ(qkv_rows, mono.front().m * llm.layers);

  EXPECT_THROW(build_prefill_chunk(sphinx_tiny(), 0, 0, 300),
               std::invalid_argument);
  // A chunk may not run past its prompt.
  EXPECT_THROW(build_prefill_chunk(sphinx_tiny(), 256, 64, 300),
               std::invalid_argument);
}

TEST(Workload, ResidentLayersZeroTheWeightStreamOfPinnedLayersOnly) {
  const auto& llm = sphinx_tiny().llm;
  const std::size_t resident = 5;
  const auto ops = build_prefill_chunk(sphinx_tiny(), 128, 64, 300, resident);
  // 7 weight ops per gated layer plus 2 KV-stream ops.
  const std::size_t ops_per_layer = ops.size() / llm.layers;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::size_t layer = i / ops_per_layer;
    if (ops[i].weight_elem_bytes_override != 0) {
      // KV streams are per-request context, never resident.
      EXPECT_FALSE(ops[i].weights_resident);
    } else {
      EXPECT_EQ(ops[i].weights_resident, layer < resident);
    }
  }
  // The default is byte-identical to the PR 2 behavior.
  const auto refetch = build_prefill_chunk(sphinx_tiny(), 128, 64, 300);
  for (const auto& op : refetch) EXPECT_FALSE(op.weights_resident);
  EXPECT_THROW(
      build_prefill_chunk(sphinx_tiny(), 0, 64, 300, llm.layers + 1),
      std::invalid_argument);
}

TEST(Workload, LlmLayerWeightElemsMatchTheChunkWeightRectangles) {
  // The layer-group granularity weight residency pins at must equal the
  // summed k x n rectangles of the override-0 ops one layer emits.
  const auto m = sphinx_tiny();
  const auto ops = build_prefill_chunk(m, 0, 1, 1);
  std::size_t weight_elems = 0;
  for (const auto& op : ops) {
    if (op.weight_elem_bytes_override == 0) weight_elems += op.k * op.n;
  }
  EXPECT_EQ(llm_layer_weight_elems(m) * m.llm.layers, weight_elems);
}

TEST(Workload, EncoderOpsMatchPhaseWorkloadEncoder) {
  for (const std::size_t crops : {1u, 3u}) {
    const auto reference =
        build_phase_workload(sphinx_tiny(), WorkloadParams{300, crops, 364})
            .encoder;
    const auto encoder = build_encoder_ops(sphinx_tiny(), crops);
    ASSERT_EQ(encoder.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(encoder[i].m, reference[i].m);
      EXPECT_EQ(encoder[i].k, reference[i].k);
      EXPECT_EQ(encoder[i].n, reference[i].n);
    }
  }
  EXPECT_THROW(build_encoder_ops(sphinx_tiny(), 0), std::invalid_argument);
}

TEST(Workload, KvBytesPerTokenFollowsModelShape) {
  const auto m = sphinx_tiny();
  // K + V rows of kv_dim across all LLM layers, BF16.
  EXPECT_EQ(kv_bytes_per_token(m), m.llm.layers * 2 * m.llm.kv_dim() * 2);
  auto wide = m;
  wide.llm.kv_heads = wide.llm.heads;  // no GQA: bigger KV rows
  EXPECT_GT(kv_bytes_per_token(wide), kv_bytes_per_token(m));
}

TEST(Workload, BatchedDecodeStepSharesWeightsNotKvCaches) {
  const DecodeSlot batch[] = {{310}, {350}, {420}};
  const auto step = build_decode_step(sphinx_tiny(), batch);
  std::size_t kv_ops = 0;
  for (const auto& op : step) {
    if (op.weight_elem_bytes_override != 0) {
      // KV-cache streams stay per-request: m = 1, each request's context.
      EXPECT_EQ(op.m, 1u);
      ++kv_ops;
    } else {
      // Weight-bearing ops amortize one fetch across the batch.
      EXPECT_EQ(op.m, 3u);
    }
  }
  const std::size_t layers = sphinx_tiny().llm.layers;
  EXPECT_EQ(kv_ops, layers * 2 * 3);

  EXPECT_THROW(build_decode_step(sphinx_tiny(), {}), std::invalid_argument);
  const DecodeSlot zero_context[] = {{300}, {0}};
  EXPECT_THROW(build_decode_step(sphinx_tiny(), zero_context),
               std::invalid_argument);
  const DecodeSlot zero_rows[] = {{300, 0}};
  EXPECT_THROW(build_decode_step(sphinx_tiny(), zero_rows),
               std::invalid_argument);
  const DecodeSlot one[] = {{300}};
  EXPECT_THROW(build_decode_step(sphinx_tiny(), one, 1.5), std::invalid_argument);
  EXPECT_THROW(build_decode_step(sphinx_tiny(), one, -0.1), std::invalid_argument);
}

/// The decode step as the builder emitted it before requests carried
/// rows: per layer a batched QKV, two m = 1 KV streams per request, a
/// batched O and MLP; then the batched LM head. Prunable FFN ops pruned
/// with core::pruned_ops' rounding.
std::vector<core::GemmWork> one_row_decode_step(
    const MllmConfig& model, std::span<const std::size_t> contexts,
    double keep) {
  const TransformerShape& s = model.llm;
  const std::size_t b = contexts.size();
  const std::size_t d = s.d_model;
  const std::size_t kv = s.kv_dim();
  auto pruned = [keep](std::size_t k) {
    return std::max<std::size_t>(
        static_cast<std::size_t>(std::ceil(static_cast<double>(k) * keep)), 1);
  };
  std::vector<core::GemmWork> ops;
  for (std::size_t layer = 0; layer < s.layers; ++layer) {
    ops.push_back({b, d, d + 2 * kv, Phase::kDecode, false, 0, false});
    for (const std::size_t c : contexts) {
      ops.push_back({1, kv, c, Phase::kDecode, false, 2, false});
      ops.push_back({1, c, kv, Phase::kDecode, false, 2, false});
    }
    ops.push_back({b, d, d, Phase::kDecode, false, 0, false});
    const std::size_t ups = s.gated_mlp ? 2 : 1;
    for (std::size_t u = 0; u < ups; ++u) {
      ops.push_back({b, pruned(d), s.d_ffn, Phase::kDecode, false, 0, true});
    }
    ops.push_back({b, pruned(s.d_ffn), d, Phase::kDecode, false, 0, true});
  }
  if (s.vocab > 0) ops.push_back({b, d, s.vocab, Phase::kDecode, false, 0, false});
  return ops;
}

TEST(Workload, OneRowPerRequestIsThePlainDecodeStep) {
  const std::array<std::size_t, 3> contexts{310, 1, 4096};
  std::vector<DecodeSlot> batch;
  for (const std::size_t c : contexts) batch.push_back({c});
  for (const MllmConfig& model : model_zoo()) {
    for (const double keep : {1.0, 0.5, 0.0}) {
      SCOPED_TRACE(model.name + " keep " + std::to_string(keep));
      const auto step = build_decode_step(model, batch, keep);
      const auto want = one_row_decode_step(model, contexts, keep);
      ASSERT_EQ(step.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(step[i].m, want[i].m);
        EXPECT_EQ(step[i].k, want[i].k);
        EXPECT_EQ(step[i].n, want[i].n);
        EXPECT_EQ(step[i].phase, want[i].phase);
        EXPECT_EQ(step[i].weights_resident, want[i].weights_resident);
        EXPECT_EQ(step[i].weight_elem_bytes_override,
                  want[i].weight_elem_bytes_override);
        EXPECT_EQ(step[i].prunable, want[i].prunable);
      }
    }
  }
}

TEST(Workload, SuffixRowsWidenTheWeightOpsAndTheirOwnKvStreams) {
  // Two decoding requests and a 44-token suffix over a 300-token prompt.
  const DecodeSlot batch[] = {{310}, {300, 44}, {420}};
  const auto& llm = sphinx_tiny().llm;
  const auto step = build_decode_step(sphinx_tiny(), batch);
  std::size_t kv_ops = 0;
  for (std::size_t i = 0; i < step.size(); ++i) {
    const core::GemmWork& op = step[i];
    if (op.weight_elem_bytes_override != 0) {
      // Each request streams its own KV with its own rows.
      const DecodeSlot& slot = batch[(kv_ops / 2) % 3];
      EXPECT_EQ(op.m, slot.rows);
      EXPECT_TRUE(op.k == slot.context || op.n == slot.context);
      ++kv_ops;
    } else if (i + 1 == step.size()) {
      EXPECT_EQ(op.m, 3u);  // LM head: one token per request
      EXPECT_EQ(op.n, llm.vocab);
    } else {
      EXPECT_EQ(op.m, 1u + 44u + 1u);  // one weight fetch for every row
    }
  }
  EXPECT_EQ(kv_ops, llm.layers * 2 * 3);
}

/// Prices decode steps the way the serving engine's MC lane fetches them.
class DecodeTrafficOracle {
 public:
  explicit DecodeTrafficOracle(std::size_t mc_elem_bytes)
      : config_(with_mc_elem_bytes(mc_elem_bytes)),
        dram_(sim_, config_.dram),
        mc_(sim_, dram_, config_, core::ClusterKind::kMemoryCentric) {}

  Bytes step_bytes(const MllmConfig& model, std::span<const std::size_t> contexts,
                   double keep) const {
    std::vector<DecodeSlot> batch;
    for (const std::size_t c : contexts) batch.push_back({c});
    return core::estimated_traffic_bytes(mc_, build_decode_step(model, batch, keep));
  }

 private:
  static core::ChipConfig with_mc_elem_bytes(std::size_t bytes) {
    core::ChipConfig config = core::default_chip_config();
    config.mc_elem_bytes = bytes;
    return config;
  }

  core::ChipConfig config_;
  sim::Simulator sim_;
  mem::DramController dram_;
  core::ClusterTimingModel mc_;
};

TEST(Workload, DecodeStepTrafficMatchesThreeProbeDerivation) {
  // The derivation the closed form replaced: batch 1 at two contexts
  // isolates the KV slope, batch 2 the per-request share, and the rest
  // of a batch-1 step is the shared weight fetch.
  const std::array<std::size_t, 1> near{1};
  const std::array<std::size_t, 1> far{1025};
  const std::array<std::size_t, 2> pair{1, 1};
  std::size_t cases = 0;
  for (const std::size_t elem : {1u, 2u}) {
    const DecodeTrafficOracle oracle(elem);
    for (const MllmConfig& model : model_zoo()) {
      for (int tenth = 1; tenth <= 10; ++tenth) {
        const double keep = tenth / 10.0;
        SCOPED_TRACE(model.name + " keep " + std::to_string(keep) + " elem " +
                     std::to_string(elem));
        const Bytes batch1_near = oracle.step_bytes(model, near, keep);
        const Bytes batch1_far = oracle.step_bytes(model, far, keep);
        const Bytes batch2 = oracle.step_bytes(model, pair, keep);
        ASSERT_EQ((batch1_far - batch1_near) % 1024, 0u);
        const Bytes slope = (batch1_far - batch1_near) / 1024;
        const Bytes per_request = batch2 - batch1_near - slope;
        const Bytes shared = batch1_near - per_request - slope;

        const DecodeStepTraffic traffic = decode_step_traffic(model, keep, elem);
        EXPECT_EQ(traffic.shared, shared);
        EXPECT_EQ(traffic.per_request, per_request);
        EXPECT_EQ(traffic.kv_slope, slope);
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 2 * 10 * model_zoo().size());
}

TEST(Workload, DecodeStepTrafficPricesMixedBatches) {
  const DecodeTrafficOracle oracle(1);
  const std::array<std::size_t, 3> contexts{310, 1, 4096};
  for (const MllmConfig& model : model_zoo()) {
    for (const double keep : {0.0, 0.37, 1.0}) {
      const DecodeStepTraffic t = decode_step_traffic(model, keep, 1);
      Bytes expected = t.shared;
      for (const std::size_t c : contexts) expected += t.per_request + t.kv_slope * c;
      EXPECT_EQ(oracle.step_bytes(model, contexts, keep), expected) << model.name;
    }
  }
  EXPECT_THROW(decode_step_traffic(sphinx_tiny(), 1.5, 1), std::invalid_argument);
  EXPECT_THROW(decode_step_traffic(sphinx_tiny(), -0.1, 1), std::invalid_argument);
}

}  // namespace
}  // namespace edgemm::model
