#include "serve/admission.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace edgemm::serve {

ConcurrencyPolicy::ConcurrencyPolicy(AdmissionLimits limits) : limits_(limits) {
  if (limits_.max_decode_batch == 0 || limits_.max_inflight == 0) {
    throw std::invalid_argument("ConcurrencyPolicy: limits must be > 0");
  }
  if (limits_.max_inflight < limits_.max_decode_batch) {
    throw std::invalid_argument(
        "ConcurrencyPolicy: max_inflight must be >= max_decode_batch");
  }
}

AdmissionVerdict ConcurrencyPolicy::admit(const Request&,
                                          const AdmissionContext& ctx) const {
  return ctx.inflight < limits_.max_inflight ? AdmissionVerdict::kAdmit
                                             : AdmissionVerdict::kDefer;
}

std::size_t ConcurrencyPolicy::decode_join_count(std::size_t active,
                                                 std::size_t ready) const {
  if (active >= limits_.max_decode_batch) return 0;
  return std::min(ready, limits_.max_decode_batch - active);
}

SloAwarePolicy::SloAwarePolicy(AdmissionLimits limits)
    : ConcurrencyPolicy(limits) {}

AdmissionVerdict SloAwarePolicy::admit(const Request& r,
                                       const AdmissionContext& ctx) const {
  if (r.deadline > 0) {
    const double wait = static_cast<double>(ctx.estimated_queue_delay) +
                        static_cast<double>(ctx.estimated_service);
    const double finish = static_cast<double>(ctx.now) + wait;
    if (finish > static_cast<double>(r.deadline)) {
      return AdmissionVerdict::kReject;
    }
  }
  return ConcurrencyPolicy::admit(r, ctx);
}

}  // namespace edgemm::serve
