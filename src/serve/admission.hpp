// Scheduler policies: the gate between the request queue and the chip.
//
// ConcurrencyPolicy is the default SchedulerPolicy (the PR-1
// AdmissionLimits behavior: pure concurrency caps). SloAwarePolicy
// layers per-request deadline feasibility on top: a request whose
// estimated completion already misses its deadline is rejected up front
// instead of wasting bandwidth and dragging the tail of the requests
// that could still make theirs.
#ifndef EDGEMM_SERVE_ADMISSION_HPP
#define EDGEMM_SERVE_ADMISSION_HPP

#include <cstddef>

#include "serve/policy.hpp"

namespace edgemm::serve {

/// Concurrency limits enforced by ConcurrencyPolicy.
struct AdmissionLimits {
  /// Requests decoding in one continuous-batching step (the Fig. 9(c)
  /// stream-batch ceiling; amortizes one weight fetch per step).
  std::size_t max_decode_batch = 8;
  /// Requests admitted but not yet finished (prefilling, waiting to join
  /// the decode batch, or decoding). Admitting beyond the decode batch
  /// keeps prefilled requests ready to join the moment a slot frees.
  std::size_t max_inflight = 16;
};

/// Default scheduler: admit while below max_inflight, defer otherwise;
/// decode joins fill the batch up to max_decode_batch.
class ConcurrencyPolicy : public SchedulerPolicy {
 public:
  ConcurrencyPolicy() = default;
  /// Throws std::invalid_argument when a limit is zero or
  /// max_inflight < max_decode_batch (the batch could never fill).
  explicit ConcurrencyPolicy(AdmissionLimits limits);

  AdmissionVerdict admit(const Request& r,
                         const AdmissionContext& ctx) const override;
  std::size_t decode_join_count(std::size_t active,
                                std::size_t ready) const override;

 private:
  AdmissionLimits limits_{};
};

/// SLO-aware scheduler: concurrency caps plus deadline feasibility. A
/// request whose estimated finish (now + queue delay + service) lies
/// past its deadline is rejected; requests without a deadline pass
/// straight to the concurrency verdict.
class SloAwarePolicy final : public ConcurrencyPolicy {
 public:
  /// Inherits the limit checks of ConcurrencyPolicy.
  explicit SloAwarePolicy(AdmissionLimits limits);

  AdmissionVerdict admit(const Request& r,
                         const AdmissionContext& ctx) const override;
};

}  // namespace edgemm::serve

#endif  // EDGEMM_SERVE_ADMISSION_HPP
