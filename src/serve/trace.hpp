// Deterministic synthetic request traces (Poisson arrivals).
#ifndef EDGEMM_SERVE_TRACE_HPP
#define EDGEMM_SERVE_TRACE_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "serve/request.hpp"

namespace edgemm::serve {

/// Parameters of a synthetic trace. Identical configs (seed included)
/// regenerate identical traces, so every bench/test replay is exact.
struct TraceConfig {
  std::size_t requests = 32;
  /// Poisson arrival rate in requests per second of simulated time.
  double arrival_rate_per_s = 8.0;
  double clock_hz = kChipClockHz;
  std::size_t model = 0;
  /// Multi-model zoo mix: when non-empty, each request's model index is
  /// drawn from this weight vector (index = model, weight proportional
  /// to traffic share; weights need not sum to 1) and `model` above is
  /// ignored. Empty (default) keeps every request on `model`, and the
  /// generated trace is byte-identical to the pre-zoo generator.
  std::vector<double> model_weights{};
  std::size_t input_tokens = 300;
  std::size_t crops = 1;
  /// Output lengths drawn uniformly from [min, max] (inclusive).
  std::size_t min_output_tokens = 32;
  std::size_t max_output_tokens = 256;
  /// Requests per burst: 1 = pure Poisson; b > 1 lands b requests on
  /// every arrival draw (a compound-Poisson bursty load) while the
  /// overall request rate stays arrival_rate_per_s.
  std::size_t burst = 1;
  /// Per-request SLO deadline: arrival + slo_base_ms +
  /// slo_per_token_ms * output_tokens. base <= 0 disables deadlines.
  double slo_base_ms = 0.0;
  double slo_per_token_ms = 0.0;
  /// Shared-prefix conversation groups (multi-turn serving): when > 0,
  /// each request draws its Request::prefix_id uniformly from
  /// [1, prefix_groups] — the turns of one conversation share a
  /// system/image prompt of prefix_tokens tokens, which the paged KV
  /// allocator CoW-shares, and one image (every request carries `crops`),
  /// which the engine encodes once per conversation. 0 (default) consumes
  /// no randomness and keeps old traces byte-identical.
  std::size_t prefix_groups = 0;
  /// Shared-prefix length; must be in (0, input_tokens] when
  /// prefix_groups > 0 (ignored otherwise).
  std::size_t prefix_tokens = 0;
  std::uint64_t seed = 42;
};

/// Generates `config.requests` requests with exponential inter-arrival
/// times (a Poisson process over bursts of `burst` requests), uniform
/// output lengths, and optional SLO deadlines, ids 0..n-1 in arrival
/// order. With burst = 1 and deadlines off, a given seed reproduces the
/// PR-1 traces exactly. Throws std::invalid_argument for a non-positive
/// or non-finite rate or clock, zero request/token/burst counts,
/// min > max output tokens, a negative or non-finite per-token SLO, an
/// infinite SLO base, or a model_weights vector with a negative or
/// non-finite entry or a non-positive sum (NaN counts as non-finite).
std::vector<Request> poisson_trace(const TraceConfig& config);

}  // namespace edgemm::serve

#endif  // EDGEMM_SERVE_TRACE_HPP
