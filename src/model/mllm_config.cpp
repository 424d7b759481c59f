#include "model/mllm_config.hpp"

#include <stdexcept>

namespace edgemm::model {

namespace {

// Published vision-tower shapes.
TransformerShape clip_vit_l14() {
  return {"CLIP ViT-L/14", 24, 1024, 4096, 16, 16, 0, false};
}
TransformerShape siglip_so400m() {
  return {"SigLIP-so400m", 27, 1152, 4304, 16, 16, 0, false};
}
TransformerShape siglip_large() {
  return {"SigLIP-L", 24, 1024, 4096, 16, 16, 0, false};
}
TransformerShape dinov2_large() {
  return {"DINOv2 ViT-L", 24, 1024, 4096, 16, 16, 0, false};
}
// ConvNeXt-L expressed as its transformer-equivalent compute shape (the
// timing plane only consumes layers × matmul dims; docs/PAPER_MAP.md,
// "Substitutions", notes it).
TransformerShape clip_convnext_l() {
  return {"CLIP ConvNeXt-L (equiv)", 24, 1024, 4096, 16, 16, 0, false};
}
TransformerShape eva_clip_g14() {
  return {"EVA-CLIP g/14", 40, 1408, 6144, 16, 16, 0, false};
}

}  // namespace

std::size_t TransformerShape::attn_params_per_layer() const {
  // Q and O are d×d; K and V are d×kv_dim (grouped-query attention).
  return 2 * d_model * d_model + 2 * d_model * kv_dim();
}

std::size_t TransformerShape::ffn_params_per_layer() const {
  const std::size_t projections = gated_mlp ? 3 : 2;  // up/gate/down vs up/down
  return projections * d_model * d_ffn;
}

std::size_t TransformerShape::total_params() const {
  const std::size_t per_layer = attn_params_per_layer() + ffn_params_per_layer();
  const std::size_t head = vocab > 0 ? vocab * d_model : 0;
  return layers * per_layer + head;
}

std::size_t MllmConfig::encoder_params() const {
  std::size_t total = 0;
  for (const TransformerShape& tower : encoders) total += tower.total_params();
  return total;
}

std::size_t MllmConfig::total_params() const {
  return encoder_params() + projector_params + llm.total_params();
}

MllmConfig sphinx_tiny() {
  MllmConfig cfg;
  cfg.name = "SPHINX-Tiny";
  cfg.encoders = {clip_convnext_l(), dinov2_large()};
  cfg.vision_tokens = 576;
  cfg.projector = "MLP";
  cfg.projector_params = 2 * 1024 * 2048;  // 2-layer MLP into the LLM width
  cfg.llm = {"TinyLlama-1.1B", 22, 2048, 5632, 32, 4, 32000, true};
  return cfg;
}

MllmConfig karmavlm() {
  MllmConfig cfg;
  cfg.name = "KarmaVLM";
  cfg.encoders = {siglip_so400m(), clip_vit_l14()};
  cfg.vision_tokens = 576;
  cfg.projector = "MLP";
  cfg.projector_params = 2 * 1152 * 1024;
  cfg.llm = {"Qwen1.5-0.5B", 24, 1024, 2816, 16, 16, 151936, true};
  return cfg;
}

MllmConfig mobilevlm() {
  MllmConfig cfg;
  cfg.name = "MobileVLM";
  cfg.encoders = {clip_vit_l14()};
  cfg.vision_tokens = 144;  // LDP downsamples 576 -> 144
  cfg.projector = "LDP";
  cfg.projector_params = 2 * 1024 * 2560;
  cfg.llm = {"MobileLLaMA-2.7B", 32, 2560, 6912, 32, 32, 32000, true};
  return cfg;
}

MllmConfig tinygpt_v() {
  MllmConfig cfg;
  cfg.name = "TinyGPT-V";
  cfg.encoders = {eva_clip_g14()};
  cfg.vision_tokens = 256;
  cfg.projector = "Q-Former";
  cfg.projector_params = 105'000'000;  // BLIP-2 Q-Former block
  cfg.llm = {"Phi-2", 32, 2560, 10240, 32, 32, 51200, false};
  return cfg;
}

MllmConfig deepseek_vl() {
  MllmConfig cfg;
  cfg.name = "DeepSeek-VL";
  cfg.encoders = {siglip_large()};
  cfg.vision_tokens = 576;
  cfg.projector = "MLP";
  cfg.projector_params = 2 * 1024 * 2048;
  cfg.llm = {"DeepSeek-LLM-1.3B", 24, 2048, 5504, 16, 16, 102400, true};
  return cfg;
}

MllmConfig llava_7b() {
  MllmConfig cfg;
  cfg.name = "LLaVA";
  cfg.encoders = {clip_vit_l14()};
  cfg.vision_tokens = 576;
  cfg.projector = "MLP";
  cfg.projector_params = 2 * 1024 * 4096;
  cfg.llm = {"Vicuna-7B", 32, 4096, 11008, 32, 32, 32000, true};
  return cfg;
}

MllmConfig emu2_chat() {
  MllmConfig cfg;
  cfg.name = "Emu2-Chat";
  cfg.encoders = {eva_clip_g14()};
  cfg.vision_tokens = 256;
  cfg.projector = "MLP";
  cfg.projector_params = 2 * 1408 * 6656;
  cfg.llm = {"LLaMA-33B", 60, 6656, 17920, 52, 52, 32000, true};
  return cfg;
}

std::vector<MllmConfig> model_zoo() {
  return {emu2_chat(),   llava_7b(),    mobilevlm(), tinygpt_v(),
          sphinx_tiny(), deepseek_vl(), karmavlm()};
}

MllmConfig model_by_name(const std::string& name) {
  for (const MllmConfig& cfg : model_zoo()) {
    if (cfg.name == name) return cfg;
  }
  throw std::invalid_argument("model_by_name: unknown model '" + name + "'");
}

}  // namespace edgemm::model
