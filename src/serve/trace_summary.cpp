#include "serve/trace_summary.hpp"

#include <algorithm>

#include "common/statistics.hpp"
#include "common/units.hpp"

namespace edgemm::serve {

TraceSummary summarize_trace(const std::vector<RequestRecord>& records,
                             double clock_hz) {
  TraceSummary s;
  if (records.empty()) return s;
  Cycle first_arrival = records.front().request.arrival;
  Cycle last_finish = 0;
  std::size_t total_tokens = 0;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(records.size());
  for (const RequestRecord& rec : records) {
    first_arrival = std::min(first_arrival, rec.request.arrival);
    if (rec.rejected) ++s.rejected;
    if (rec.request.deadline > 0) {
      ++s.with_deadline;
      if (rec.deadline_met()) ++s.slo_attained;
    }
    if (!rec.done) continue;
    ++s.completed;
    last_finish = std::max(last_finish, rec.finish);
    total_tokens += rec.tokens_generated;
    latencies_ms.push_back(rec.latency_ms(clock_hz));
  }
  s.makespan = last_finish > first_arrival ? last_finish - first_arrival : 0;
  s.makespan_ms = cycles_to_ms(s.makespan, clock_hz);
  s.p50_latency_ms = percentile(latencies_ms, 50.0);
  s.p95_latency_ms = percentile(latencies_ms, 95.0);
  s.p99_latency_ms = percentile(latencies_ms, 99.0);
  double sum = 0.0;
  for (const double v : latencies_ms) sum += v;
  s.mean_latency_ms =
      latencies_ms.empty() ? 0.0
                           : sum / static_cast<double>(latencies_ms.size());
  s.tokens_per_second =
      static_cast<double>(total_tokens) /
      cycles_to_seconds(std::max<Cycle>(s.makespan, 1), clock_hz);
  s.slo_attainment =
      s.with_deadline > 0 ? static_cast<double>(s.slo_attained) /
                                static_cast<double>(s.with_deadline)
                          : 1.0;
  return s;
}

}  // namespace edgemm::serve
