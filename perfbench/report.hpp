// The benchmark's own arithmetic and output formats, kept free of the
// simulator library so perfbench_selftest can check them on their own:
// percentiles and the sample-count rule for tails, shares and ratios,
// metric-name validation, the result line, and Chrome trace-event JSON.
#ifndef EDGEMM_PERFBENCH_REPORT_HPP
#define EDGEMM_PERFBENCH_REPORT_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace edgemm::perfbench {

/// A tail percentile needs at least this many samples beyond it.
inline constexpr std::size_t kSamplesBeyondTail = 10;
/// The tail is never reported above p90.
inline constexpr double kMaxTailPercentile = 90.0;

/// Median (mean of the middle two for an even count); 0 for no samples.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile (p in (0, 100]): the smallest sample with at
/// least p % of the samples at or below it. 0 for no samples.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // The epsilon keeps an exact product (p = 75, n = 40 -> rank 30) from
  // rounding up to the next rank.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()) - 1e-9);
  const auto k = static_cast<std::size_t>(std::max(rank, 1.0));
  return values[std::min(k, values.size()) - 1];
}

/// The highest whole percentile, capped at p90, that leaves at least
/// kSamplesBeyondTail of `samples` above it: p90 from 100 samples on,
/// lower percentiles below that, 0 when fewer than 2 x 10 samples exist
/// (the median itself would have fewer than ten beyond it).
inline double tail_percentile(std::size_t samples) {
  if (samples < 2 * kSamplesBeyondTail) return 0.0;
  const std::size_t p = 100 * (samples - kSamplesBeyondTail) / samples;  // floor
  return std::min(static_cast<double>(p), kMaxTailPercentile);
}

/// Share of attempted requests that did not complete: rejected by
/// admission or left unfinished. 0 for nothing attempted.
inline double failed_share(std::size_t attempted, std::size_t completed) {
  if (attempted == 0) return 0.0;
  const std::size_t missing = attempted > completed ? attempted - completed : 0;
  return static_cast<double>(missing) / static_cast<double>(attempted);
}

/// num / den, 0 when den is 0 (a ratio whose base never happened).
inline double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Metric names: a letter or digit first, then at most 63 more of
/// letters, digits, '_', '.' and '-'.
inline bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

/// Units: 1 to 16 of letters, digits, '_', '/', '%', '.' and '-'.
inline bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
           c == '_' || c == '/' || c == '%' || c == '.' || c == '-';
  });
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A number with every significant digit (round-trips a double).
inline std::string json_number(double value) {
  if (!std::isfinite(value)) throw std::invalid_argument("non-finite metric value");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// JSON string literal; escapes quotes, backslashes and control bytes.
inline std::string json_string(std::string_view raw) {
  std::string s = "\"";
  for (const char c : raw) {
    if (c == '"' || c == '\\') {
      s.push_back('\\');
      s.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      s += buf;
    } else {
      s.push_back(c);
    }
  }
  return s + "\"";
}

/// The benchmark's result line: one JSON object with exactly the keys
/// correct, attempted, failed and metrics. Throws std::invalid_argument
/// for an invalid or duplicate metric name, an invalid unit, a
/// non-finite value or attempted == 0.
inline std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                               const std::vector<Metric>& metrics) {
  if (attempted == 0) throw std::invalid_argument("attempted must be at least 1");
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  std::vector<std::string> seen;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!valid_metric_name(m.name)) throw std::invalid_argument("bad metric name: " + m.name);
    if (!valid_unit(m.unit)) throw std::invalid_argument("bad unit: " + m.unit);
    if (std::find(seen.begin(), seen.end(), m.name) != seen.end()) {
      throw std::invalid_argument("duplicate metric: " + m.name);
    }
    seen.push_back(m.name);
    if (i > 0) s += ", ";
    s += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
         ", \"unit\": " + json_string(m.unit) + "}";
  }
  return s + "}}";
}

/// In-memory spans written out once as Chrome trace-event JSON (loads in
/// Perfetto and chrome://tracing). Complete events ("ph": "X") carry
/// microsecond start and duration; spans of one request share its id
/// in args and its track (tid).
class SpanLog {
 public:
  /// Process ids: host wall-clock spans and simulated-time spans are
  /// separate timelines.
  static constexpr int kHostPid = 1;
  static constexpr int kSimPid = 2;

  struct Span {
    std::string name;
    std::string category;
    int pid = kHostPid;
    std::uint64_t tid = 0;
    double start_us = 0.0;
    double duration_us = 0.0;
    std::int64_t request = -1;  ///< request id; -1 = not a request span
  };

  void add(Span span) { spans_.push_back(std::move(span)); }
  const std::vector<Span>& spans() const { return spans_; }

  std::string json() const {
    std::string s = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    s += meta(kHostPid, "host (wall clock)") + ", " + meta(kSimPid, "simulated chip");
    for (const Span& span : spans_) {
      s += ", {\"name\": " + json_string(span.name) + ", \"cat\": " +
           json_string(span.category) + ", \"ph\": \"X\", \"pid\": " +
           std::to_string(span.pid) + ", \"tid\": " + std::to_string(span.tid) +
           ", \"ts\": " + json_number(span.start_us) +
           ", \"dur\": " + json_number(span.duration_us);
      if (span.request >= 0) {
        s += ", \"args\": {\"request\": " + std::to_string(span.request) + "}";
      }
      s += "}";
    }
    return s + "]}";
  }

 private:
  static std::string meta(int pid, const char* label) {
    return "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " + std::to_string(pid) +
           ", \"args\": {\"name\": " + json_string(label) + "}}";
  }

  std::vector<Span> spans_;
};

}  // namespace edgemm::perfbench

#endif  // EDGEMM_PERFBENCH_REPORT_HPP
