// Synthetic activation generator calibrated to the Fig. 3 observations.
//
// Fig. 3(b) profiles |Vx| during a token generation in SPHINX-Tiny:
// most channels are small, a few outlier channels dominate, and the
// outliers grow more prominent with layer depth. The paper further notes
// (§V-C) that the first layer has high kurtosis but an *unstable*
// distribution, which is why Alg. 1 skips it.
//
// The generator reproduces exactly those properties: a log-normal body,
// a per-layer fixed set of outlier channels whose magnitude scales with
// depth, and a layer-0 outlier set that reshuffles every token.
#ifndef EDGEMM_MODEL_ACTIVATION_GEN_HPP
#define EDGEMM_MODEL_ACTIVATION_GEN_HPP

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace edgemm::model {

/// Statistical shape of the synthetic activations.
struct ActivationProfile {
  std::size_t channels = 2048;   ///< d_model of the profiled LLM
  std::size_t layers = 22;       ///< decoder depth
  double body_sigma = 0.5;       ///< log-normal σ of the non-outlier mass
  double body_mu = -2.0;         ///< log-normal μ (body magnitudes ≈ 0.1)
  double outlier_fraction = 0.08;///< share of channels that are outliers
  /// Outlier magnitude multiplier ramp over layers 1..L-1 ("as the layer
  /// index increases, these outliers become more prominent"). Calibrated
  /// (with body_sigma / outlier_fraction) so the dynamic Top-k harness
  /// lands on the paper's Fig. 12 shape: ~50 % mean pruning ratio with
  /// cosine comparable to fixed-0.1 (docs/PAPER_MAP.md, "Fig. 12").
  double outlier_gain_first = 2.0;
  double outlier_gain_last = 10.0;
  /// Layer 0 is special (§V-C): high kurtosis but an *unstable*
  /// distribution — strong outliers whose positions reshuffle per token.
  double first_layer_gain = 12.0;
};

/// Deterministic activation source for (layer, token) pairs.
class ActivationGenerator {
 public:
  /// Throws std::invalid_argument for zero channels/layers or
  /// out-of-range fractions.
  ActivationGenerator(const ActivationProfile& profile, std::uint64_t seed);

  const ActivationProfile& profile() const { return profile_; }

  /// Signed activation vector for `layer` at generation step `token`.
  /// Layers ≥ 1 keep their outlier channel set across tokens; layer 0
  /// redraws it per token (the instability that makes pruning it unsafe).
  std::vector<float> activations(std::size_t layer, std::size_t token) const;

  /// The outlier channel set of a stable layer (for tests).
  std::vector<std::size_t> outlier_channels(std::size_t layer) const;

  /// Outlier gain applied at `layer` (linear ramp first→last).
  double outlier_gain(std::size_t layer) const;

 private:
  ActivationProfile profile_;
  std::uint64_t seed_;
};

}  // namespace edgemm::model

#endif  // EDGEMM_MODEL_ACTIVATION_GEN_HPP
