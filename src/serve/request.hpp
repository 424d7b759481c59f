// Request-level serving types: what enters the engine and what it
// records about each request's lifecycle.
#ifndef EDGEMM_SERVE_REQUEST_HPP
#define EDGEMM_SERVE_REQUEST_HPP

#include <cstddef>
#include <cstdint>

#include "common/types.hpp"
#include "common/units.hpp"

namespace edgemm::serve {

using RequestId = std::uint64_t;

/// One inference request entering the serving engine.
struct Request {
  RequestId id = 0;
  Cycle arrival = 0;  ///< cycle at which the request enters the queue
  /// Index into the engine's model list (multi-model serving batches
  /// decode only among requests of the same model).
  std::size_t model = 0;
  std::size_t input_tokens = 300;  ///< prompt + vision tokens entering the LLM
  std::size_t output_tokens = 128; ///< tokens to generate
  /// Encoder passes (sub-image crops). The turns of one (model,
  /// prefix_id) conversation share one image, so they must carry the
  /// same crops (ServingEngine::run throws otherwise).
  std::size_t crops = 1;
  /// Absolute SLO deadline (cycle by which the last token must retire);
  /// 0 = no deadline. SLO-aware schedulers may reject requests that
  /// cannot meet theirs.
  Cycle deadline = 0;
  /// Shared-prefix conversation group: requests with the same
  /// (model, prefix_id) share their first prefix_tokens prompt tokens
  /// (a common system/image prompt), which the paged KV allocator
  /// CoW-shares (EngineConfig::kv_prefix_sharing). The conversation's
  /// image is encoded once: the first chunk 0 that runs on the chip's CC
  /// lane publishes its projected vision tokens to DRAM, and every later
  /// local turn skips the vision encoder + projector (an offloaded chunk
  /// 0 encodes for itself). The prefix is prefilled once too: after a
  /// full-keep local chunk 0 covering it, later local turns prefill only
  /// their suffix. 0 = no shared prefix; under paged KV at most
  /// kMaxKvPrefixId (2^32 - 1).
  std::size_t prefix_id = 0;
  /// Leading prompt tokens shared with the group (<= input_tokens);
  /// ignored when prefix_id is 0. One conversation has one prefix
  /// length: every turn of a (model, prefix_id) must carry the same
  /// value (ServingEngine::run throws otherwise). 0 shares nothing, the
  /// image included: such a request always runs its own encoder.
  std::size_t prefix_tokens = 0;

  bool operator==(const Request&) const = default;
};

/// Lifecycle timestamps the engine records per request (all in cycles).
struct RequestRecord {
  Request request;
  Cycle admitted = 0;       ///< popped from the queue, prefill submitted
  /// Chunk 0 dispatched (CC lane or fat backend); the start of the MC
  /// decode step carrying an MC-lane suffix; admission on a decode-only
  /// tier, whose KV arrives finished.
  Cycle prefill_start = 0;
  /// Prefill retired (an offload's KV landed back); the end of an MC-lane
  /// suffix's carrying step; admission on a decode-only tier.
  Cycle prefill_end = 0;
  Cycle first_token = 0;    ///< first decode step including this request
  Cycle finish = 0;         ///< last output token retired
  std::size_t tokens_generated = 0;
  /// Prefill jobs the planner cut prefill into (0 for an MC-lane suffix
  /// and on a decode-only tier).
  std::size_t prefill_chunks = 0;
  /// Prefill chunks the fat backend ran (OffloadPolicy; 0 = all local).
  std::size_t offloaded_chunks = 0;
  /// LLM layer groups this request held pinned on-chip during its
  /// chunked prefill (0 = no pin: planner without residency, zero
  /// budget, or the pin fell back under contention).
  std::size_t weight_pinned_layers = 0;
  /// Fraction of prunable FFN rows kept during this request's decode
  /// (1.0, or per-model from the task proxy).
  double prune_keep_fraction = 1.0;
  /// Fraction the QualityPolicy actually served this request at — its
  /// last judgment, clamped into the effective band. Equal to
  /// prune_keep_fraction under StaticQuality; below it means the
  /// request was degraded under load (see the ServingResult quality
  /// ledger). 1.0 for requests never judged (rejected / unadmitted).
  double keep_fraction_served = 1.0;
  bool done = false;
  bool rejected = false;  ///< dropped by the scheduler policy, never served

  /// Exact: request identity, every replay timestamp, the terminal flags.
  bool operator==(const RequestRecord&) const = default;

  Cycle latency_cycles() const { return finish - request.arrival; }
  double latency_ms(double clock_hz = kChipClockHz) const {
    return cycles_to_ms(latency_cycles(), clock_hz);
  }
  Cycle queue_delay_cycles() const { return prefill_start - request.arrival; }
  /// True when the request completed and met its deadline (requests
  /// without a deadline always do; rejected requests never do).
  bool deadline_met() const {
    return done && (request.deadline == 0 || finish <= request.deadline);
  }
};

}  // namespace edgemm::serve

#endif  // EDGEMM_SERVE_REQUEST_HPP
