#include "serve/admission.hpp"

#include <stdexcept>

#include <gtest/gtest.h>

namespace edgemm::serve {
namespace {

AdmissionContext ctx_with(std::size_t inflight, Cycle now = 0,
                          Cycle queue_delay = 0, Cycle service = 0) {
  AdmissionContext ctx;
  ctx.now = now;
  ctx.inflight = inflight;
  ctx.estimated_queue_delay = queue_delay;
  ctx.estimated_service = service;
  return ctx;
}

Request request_with_deadline(Cycle deadline) {
  Request r;
  r.id = 1;
  r.deadline = deadline;
  return r;
}

TEST(ConcurrencyPolicy, ValidatesLimits) {
  EXPECT_THROW(ConcurrencyPolicy(AdmissionLimits{0, 4}), std::invalid_argument);
  EXPECT_THROW(ConcurrencyPolicy(AdmissionLimits{4, 0}), std::invalid_argument);
  // The batch could never fill if fewer requests may be in flight.
  EXPECT_THROW(ConcurrencyPolicy(AdmissionLimits{8, 4}), std::invalid_argument);
  EXPECT_NO_THROW(ConcurrencyPolicy(AdmissionLimits{4, 4}));
}

TEST(ConcurrencyPolicy, AdmitsUpToMaxInflightThenDefers) {
  const ConcurrencyPolicy policy(AdmissionLimits{2, 3});
  const Request r;
  EXPECT_EQ(policy.admit(r, ctx_with(0)), AdmissionVerdict::kAdmit);
  EXPECT_EQ(policy.admit(r, ctx_with(2)), AdmissionVerdict::kAdmit);
  EXPECT_EQ(policy.admit(r, ctx_with(3)), AdmissionVerdict::kDefer);
  EXPECT_EQ(policy.admit(r, ctx_with(4)), AdmissionVerdict::kDefer);
}

TEST(ConcurrencyPolicy, DecodeJoinFillsRemainingBatchSlots) {
  const ConcurrencyPolicy policy(AdmissionLimits{4, 8});
  EXPECT_EQ(policy.decode_join_count(0, 10), 4u);
  EXPECT_EQ(policy.decode_join_count(1, 2), 2u);
  EXPECT_EQ(policy.decode_join_count(3, 5), 1u);
  EXPECT_EQ(policy.decode_join_count(4, 5), 0u);  // batch already full
  EXPECT_EQ(policy.decode_join_count(2, 0), 0u);  // nothing ready
}

TEST(SloAwarePolicy, PassesThroughWithoutDeadline) {
  const SloAwarePolicy policy(AdmissionLimits{2, 3});
  const Request r;  // deadline == 0
  EXPECT_EQ(policy.admit(r, ctx_with(0, 0, 1'000'000, 1'000'000)),
            AdmissionVerdict::kAdmit);
  EXPECT_EQ(policy.admit(r, ctx_with(3)), AdmissionVerdict::kDefer);
}

TEST(SloAwarePolicy, RejectsInfeasibleDeadline) {
  const SloAwarePolicy policy(AdmissionLimits{2, 3});
  // now + queue_delay + service = 100 + 400 + 600 = 1100 > 1000.
  EXPECT_EQ(policy.admit(request_with_deadline(1000), ctx_with(0, 100, 400, 600)),
            AdmissionVerdict::kReject);
  // Exactly feasible (1100 <= 1100) admits.
  EXPECT_EQ(policy.admit(request_with_deadline(1100), ctx_with(0, 100, 400, 600)),
            AdmissionVerdict::kAdmit);
  // Feasible but at the inflight cap defers rather than rejects.
  EXPECT_EQ(policy.admit(request_with_deadline(5000), ctx_with(3, 100, 400, 600)),
            AdmissionVerdict::kDefer);
}

}  // namespace
}  // namespace edgemm::serve
