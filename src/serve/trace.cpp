#include "serve/trace.hpp"

#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"

namespace edgemm::serve {

std::vector<Request> poisson_trace(const TraceConfig& config) {
  if (config.requests == 0) {
    throw std::invalid_argument("poisson_trace: requests must be > 0");
  }
  // A non-finite rate, clock or SLO would reach a double -> Cycle cast.
  if (!std::isfinite(config.arrival_rate_per_s) ||
      !std::isfinite(config.clock_hz) || config.arrival_rate_per_s <= 0.0 ||
      config.clock_hz <= 0.0) {
    throw std::invalid_argument(
        "poisson_trace: rate and clock must be finite and > 0");
  }
  if (config.min_output_tokens == 0 ||
      config.min_output_tokens > config.max_output_tokens) {
    throw std::invalid_argument(
        "poisson_trace: need 0 < min_output_tokens <= max_output_tokens");
  }
  if (config.input_tokens == 0 || config.crops == 0) {
    throw std::invalid_argument("poisson_trace: input_tokens/crops must be > 0");
  }
  if (config.burst == 0) {
    throw std::invalid_argument("poisson_trace: burst must be > 0");
  }
  if (!std::isfinite(config.slo_per_token_ms) ||
      config.slo_per_token_ms < 0.0) {
    throw std::invalid_argument(
        "poisson_trace: slo_per_token_ms must be finite and >= 0");
  }
  if (config.slo_base_ms > 0.0 && !std::isfinite(config.slo_base_ms)) {
    throw std::invalid_argument("poisson_trace: slo_base_ms must be finite");
  }
  double weight_sum = 0.0;
  for (const double w : config.model_weights) {
    if (!std::isfinite(w) || w < 0.0) {
      throw std::invalid_argument(
          "poisson_trace: model_weights must be finite and non-negative");
    }
    weight_sum += w;
  }
  if (!config.model_weights.empty() && weight_sum <= 0.0) {
    throw std::invalid_argument(
        "poisson_trace: model_weights must have a positive sum");
  }
  if (config.prefix_groups > 0 &&
      (config.prefix_tokens == 0 ||
       config.prefix_tokens > config.input_tokens)) {
    throw std::invalid_argument(
        "poisson_trace: prefix_tokens must be in (0, input_tokens] when "
        "prefix_groups > 0");
  }

  Rng rng(config.seed);
  const double cycles_per_second = config.clock_hz;
  // Bursts arrive at rate/burst so the request rate is unchanged.
  const double burst_rate =
      config.arrival_rate_per_s / static_cast<double>(config.burst);
  std::vector<Request> trace;
  trace.reserve(config.requests);
  double arrival_s = 0.0;
  for (std::size_t i = 0; i < config.requests; ++i) {
    // Exponential inter-arrival via inverse transform; uniform() is in
    // [0, 1) so 1 - u is in (0, 1] and the log is finite. Requests
    // within a burst share one draw.
    if (i % config.burst == 0) {
      arrival_s += -std::log(1.0 - rng.uniform()) / burst_rate;
    }
    Request r;
    r.id = i;
    r.arrival = static_cast<Cycle>(arrival_s * cycles_per_second);
    r.model = config.model;
    if (!config.model_weights.empty()) {
      // Zoo mix: inverse-CDF draw over the weight vector. The draw sits
      // AFTER the arrival draw and before the output draw, so an empty
      // vector consumes no randomness and replays pre-zoo traces
      // byte-identically.
      double u = rng.uniform() * weight_sum;
      r.model = config.model_weights.size() - 1;
      for (std::size_t m = 0; m < config.model_weights.size(); ++m) {
        u -= config.model_weights[m];
        if (u < 0.0) {
          r.model = m;
          break;
        }
      }
    }
    r.input_tokens = config.input_tokens;
    r.crops = config.crops;
    if (config.prefix_groups > 0) {
      // Conversation-group draw, AFTER the model draw and before the
      // output draw — prefix_groups == 0 consumes no randomness, so
      // pre-prefix traces replay byte-identically.
      r.prefix_id = static_cast<std::size_t>(rng.uniform_int(
          std::int64_t{1}, static_cast<std::int64_t>(config.prefix_groups)));
      r.prefix_tokens = config.prefix_tokens;
    }
    r.output_tokens = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(config.min_output_tokens),
                        static_cast<std::int64_t>(config.max_output_tokens)));
    if (config.slo_base_ms > 0.0) {
      const double slo_ms =
          config.slo_base_ms +
          config.slo_per_token_ms * static_cast<double>(r.output_tokens);
      r.deadline = r.arrival + static_cast<Cycle>(slo_ms * 1e-3 * config.clock_hz);
    }
    trace.push_back(r);
  }
  return trace;
}

}  // namespace edgemm::serve
