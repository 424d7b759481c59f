#include "serve/trace_summary.hpp"

#include <vector>

#include <gtest/gtest.h>

namespace edgemm::serve {
namespace {

// 1 GHz: one million cycles is one millisecond.
constexpr double kClockHz = 1e9;
constexpr Cycle kMs = 1'000'000;

RequestRecord arrived(RequestId id, Cycle arrival, Cycle deadline = 0) {
  RequestRecord rec;
  rec.request.id = id;
  rec.request.arrival = arrival;
  rec.request.deadline = deadline;
  return rec;
}

RequestRecord completed(RequestId id, Cycle arrival, Cycle finish,
                        std::size_t tokens, Cycle deadline = 0) {
  RequestRecord rec = arrived(id, arrival, deadline);
  rec.finish = finish;
  rec.tokens_generated = tokens;
  rec.done = true;
  return rec;
}

RequestRecord rejected(RequestId id, Cycle arrival, Cycle deadline = 0) {
  RequestRecord rec = arrived(id, arrival, deadline);
  rec.rejected = true;
  return rec;
}

TEST(TraceSummary, EmptyTraceIsTheDefaultSummary) {
  EXPECT_EQ(summarize_trace({}, kClockHz), TraceSummary{});
}

TEST(TraceSummary, AllRejectedTraceHasNoMakespanThroughputOrLatency) {
  const TraceSummary s = summarize_trace(
      {rejected(0, 5 * kMs, 40 * kMs), rejected(1, 9 * kMs)}, kClockHz);
  EXPECT_EQ(s.completed, 0u);
  EXPECT_EQ(s.rejected, 2u);
  EXPECT_EQ(s.makespan, 0u);
  EXPECT_EQ(s.makespan_ms, 0.0);
  EXPECT_EQ(s.tokens_per_second, 0.0);
  EXPECT_EQ(s.p50_latency_ms, 0.0);
  EXPECT_EQ(s.p95_latency_ms, 0.0);
  EXPECT_EQ(s.p99_latency_ms, 0.0);
  EXPECT_EQ(s.mean_latency_ms, 0.0);
  // A rejected request with a deadline counts against attainment.
  EXPECT_EQ(s.with_deadline, 1u);
  EXPECT_EQ(s.slo_attained, 0u);
  EXPECT_EQ(s.slo_attainment, 0.0);
}

TEST(TraceSummary, OneCompletedRequestIsItsOwnLatencyTail) {
  const TraceSummary s =
      summarize_trace({completed(0, 2 * kMs, 12 * kMs, 50)}, kClockHz);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_EQ(s.makespan, 10 * kMs);
  EXPECT_DOUBLE_EQ(s.makespan_ms, 10.0);
  EXPECT_DOUBLE_EQ(s.p50_latency_ms, 10.0);
  EXPECT_DOUBLE_EQ(s.p95_latency_ms, 10.0);
  EXPECT_DOUBLE_EQ(s.p99_latency_ms, 10.0);
  EXPECT_DOUBLE_EQ(s.mean_latency_ms, 10.0);
  EXPECT_DOUBLE_EQ(s.tokens_per_second, 5000.0);  // 50 tokens in 10 ms
  // No deadlines anywhere: attainment is vacuously 1.
  EXPECT_EQ(s.with_deadline, 0u);
  EXPECT_EQ(s.slo_attainment, 1.0);
}

TEST(TraceSummary, MixedDeadlinesCountOnlyRequestsThatCarryOne) {
  // Out of arrival order on purpose: the summary is order-free.
  const TraceSummary s = summarize_trace(
      {completed(1, 4 * kMs, 30 * kMs, 20, 25 * kMs),  // missed
       completed(0, 0, 10 * kMs, 10, 20 * kMs),        // met
       completed(2, 6 * kMs, 26 * kMs, 30),            // no deadline
       rejected(3, 1 * kMs, 50 * kMs)},                // never served
      kClockHz);
  EXPECT_EQ(s.completed, 3u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.with_deadline, 3u);
  EXPECT_EQ(s.slo_attained, 1u);
  EXPECT_DOUBLE_EQ(s.slo_attainment, 1.0 / 3.0);
  // First arrival to last finish; latencies 10, 26 and 20 ms.
  EXPECT_EQ(s.makespan, 30 * kMs);
  EXPECT_DOUBLE_EQ(s.p50_latency_ms, 20.0);
  EXPECT_DOUBLE_EQ(s.mean_latency_ms, (10.0 + 26.0 + 20.0) / 3.0);
  EXPECT_DOUBLE_EQ(s.p99_latency_ms, 20.0 + 0.98 * 6.0);
  EXPECT_DOUBLE_EQ(s.tokens_per_second, 60.0 / 0.030);
}

}  // namespace
}  // namespace edgemm::serve
