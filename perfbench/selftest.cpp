// Tests of the benchmark's own logic (report.hpp): the percentile and
// sample-count rule, failed_share and ratio arithmetic, metric-name and
// unit validity, and the JSON it emits. Dependency-free: exits non-zero
// and names the failed check when one fails.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "report.hpp"

namespace {

using namespace edgemm::perfbench;

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++g_failures;
  }
}

template <typename F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

void test_percentiles() {
  check(median({}) == 0.0, "median of nothing is 0");
  check(median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  check(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median averages the middle pair");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  check(percentile(hundred, 50.0) == 50.0, "nearest-rank p50 of 1..100");
  check(percentile(hundred, 90.0) == 90.0, "nearest-rank p90 of 1..100");
  check(percentile({5.0}, 90.0) == 5.0, "one sample is every percentile");
  check(percentile({2.0, 1.0}, 1.0) == 1.0, "low percentile is the minimum");
  std::vector<double> forty;
  for (int i = 1; i <= 40; ++i) forty.push_back(i);
  check(percentile(forty, 75.0) == 30.0, "exact ranks do not round up");
}

void test_tail_rule() {
  check(tail_percentile(100) == 90.0, "p90 from 100 samples (10 beyond)");
  check(tail_percentile(99) == 89.0, "below 100 samples the tail drops under p90");
  check(tail_percentile(600) == 90.0, "tail is capped at p90");
  check(tail_percentile(24) == 58.0, "24 samples: p58 keeps 10 beyond");
  check(tail_percentile(20) == 50.0, "20 samples: the median is the tail");
  check(tail_percentile(19) == 0.0, "under 20 samples there is no tail");
  for (std::size_t n = 20; n <= 400; ++n) {
    // Samples strictly above the nearest-rank tail value of 1..n.
    std::vector<double> samples;
    for (std::size_t i = 1; i <= n; ++i) samples.push_back(static_cast<double>(i));
    const double beyond = static_cast<double>(n) - percentile(samples, tail_percentile(n));
    if (beyond < 10.0) check(false, "every tail keeps at least ten samples beyond it");
  }
}

void test_shares_and_ratios() {
  check(failed_share(160, 100) == 60.0 / 160.0, "failed share counts rejected + unfinished");
  check(failed_share(24, 24) == 0.0, "nothing failed");
  check(failed_share(0, 0) == 0.0, "nothing attempted");
  check(failed_share(10, 12) == 0.0, "over-completion never goes negative");
  check(ratio(3.0, 2.0) == 1.5, "ratio");
  check(ratio(3.0, 0.0) == 0.0, "ratio over an empty base is 0");
}

void test_names() {
  check(valid_metric_name("replay_s"), "plain name");
  check(valid_metric_name("serve.kv.op_ns"), "dotted name");
  check(valid_metric_name("9lives-x"), "leading digit, dash");
  check(!valid_metric_name(""), "empty name");
  check(!valid_metric_name(".hidden"), "leading dot");
  check(!valid_metric_name("_x"), "leading underscore");
  check(!valid_metric_name("a b"), "space");
  check(!valid_metric_name("a/b"), "slash");
  check(valid_metric_name(std::string(64, 'a')), "64 characters");
  check(!valid_metric_name(std::string(65, 'a')), "65 characters");
  check(valid_unit("1/s") && valid_unit("%") && valid_unit("ms/ms"), "units");
  check(!valid_unit("") && !valid_unit("m s") && !valid_unit(std::string(17, 'u')),
        "bad units");
}

void test_json() {
  const std::string line =
      result_json(true, 48, 0, {{"replay_s", 1.25, "s"}, {"sim.events_per_s", 3e6, "1/s"}});
  check(line ==
            "{\"correct\": true, \"attempted\": 48, \"failed\": 0, \"metrics\": "
            "{\"replay_s\": {\"value\": 1.25, \"unit\": \"s\"}, "
            "\"sim.events_per_s\": {\"value\": 3000000, \"unit\": \"1/s\"}}}",
        "result line layout");
  check(json_number(0.1) == "0.10000000000000001", "numbers keep every digit");
  check(json_string("a\"b\\c\n") == "\"a\\\"b\\\\c\\u000a\"", "string escaping");
  check(throws([] { result_json(true, 0, 0, {}); }), "attempted must be >= 1");
  check(throws([] { result_json(true, 1, 0, {{"bad name", 1.0, "s"}}); }), "bad name");
  check(throws([] { result_json(true, 1, 0, {{"x", 1.0, "s"}, {"x", 2.0, "s"}}); }),
        "duplicate name");
  check(throws([] { result_json(true, 1, 0, {{"x", 0.0 / 0.0, "s"}}); }), "NaN value");
  check(throws([] { result_json(true, 1, 0, {{"x", 1.0, "m s"}}); }), "bad unit");

  SpanLog log;
  log.add({"ServingEngine::run", "serve", SpanLog::kHostPid, 1, 10.0, 2.5, -1});
  log.add({"prefill", "request", SpanLog::kSimPid, 7, 0.5, 1.0, 7});
  const std::string trace = log.json();
  check(trace.find("\"traceEvents\": [") != std::string::npos, "trace has traceEvents");
  check(trace.find("{\"name\": \"ServingEngine::run\", \"cat\": \"serve\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": 1, \"ts\": 10, \"dur\": 2.5}") != std::string::npos,
        "host span event");
  check(trace.find("\"tid\": 7, \"ts\": 0.5, \"dur\": 1, \"args\": {\"request\": 7}}") !=
            std::string::npos,
        "request span carries its id");
  check(trace.find("\"process_name\"") != std::string::npos, "processes are named");
}

}  // namespace

int main() {
  test_percentiles();
  test_tail_rule();
  test_shares_and_ratios();
  test_names();
  test_json();
  if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
