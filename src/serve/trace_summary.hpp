// Trace-level serving metrics computed from per-request records — the
// one set of formulas ServingEngine::run and run_cluster share, so a
// 1-chip cluster reproduces a single engine's numbers bit-for-bit.
#ifndef EDGEMM_SERVE_TRACE_SUMMARY_HPP
#define EDGEMM_SERVE_TRACE_SUMMARY_HPP

#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "serve/request.hpp"

namespace edgemm::serve {

/// Completion counts, latency tail, throughput and SLO attainment of one
/// replayed trace. Latency percentiles and throughput cover completed
/// requests only; rejected requests count against SLO attainment but
/// not against the latency tail.
struct TraceSummary {
  std::size_t completed = 0;
  std::size_t rejected = 0;  ///< dropped by the scheduler policy
  Cycle makespan = 0;  ///< first arrival to last token retired
  double makespan_ms = 0.0;
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double mean_latency_ms = 0.0;
  double tokens_per_second = 0.0;
  std::size_t with_deadline = 0;  ///< requests that carried an SLO deadline
  std::size_t slo_attained = 0;   ///< completed on or before their deadline
  double slo_attainment = 1.0;    ///< attained / with_deadline (1 if none)

  bool operator==(const TraceSummary&) const = default;
};

/// Summarizes `records` (any order) at `clock_hz`. A trace with nothing
/// completed has makespan, throughput and latencies 0; an empty trace
/// returns the default summary.
TraceSummary summarize_trace(const std::vector<RequestRecord>& records,
                             double clock_hz);

}  // namespace edgemm::serve

#endif  // EDGEMM_SERVE_TRACE_SUMMARY_HPP
