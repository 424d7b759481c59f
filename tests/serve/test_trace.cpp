#include "serve/trace.hpp"

#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

namespace edgemm::serve {
namespace {

TEST(PoissonTrace, IsDeterministicForASeed) {
  TraceConfig cfg;
  cfg.requests = 64;
  cfg.seed = 7;
  const auto a = poisson_trace(cfg);
  const auto b = poisson_trace(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].output_tokens, b[i].output_tokens);
  }
  cfg.seed = 8;
  const auto c = poisson_trace(cfg);
  bool any_different = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_different |= a[i].arrival != c[i].arrival;
  }
  EXPECT_TRUE(any_different);
}

TEST(PoissonTrace, ArrivalsAreMonotonicWithSequentialIds) {
  TraceConfig cfg;
  cfg.requests = 128;
  const auto trace = poisson_trace(cfg);
  ASSERT_EQ(trace.size(), cfg.requests);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].id, i);
    if (i > 0) {
      EXPECT_GE(trace[i].arrival, trace[i - 1].arrival);
    }
    EXPECT_GE(trace[i].output_tokens, cfg.min_output_tokens);
    EXPECT_LE(trace[i].output_tokens, cfg.max_output_tokens);
    EXPECT_EQ(trace[i].input_tokens, cfg.input_tokens);
  }
}

TEST(PoissonTrace, MeanInterArrivalTracksTheRate) {
  TraceConfig cfg;
  cfg.requests = 4000;
  cfg.arrival_rate_per_s = 100.0;
  const auto trace = poisson_trace(cfg);
  const double span_s = static_cast<double>(trace.back().arrival) / cfg.clock_hz;
  const double mean_gap_s = span_s / static_cast<double>(cfg.requests);
  // Loose 3-sigma-ish bounds around 1/lambda = 10 ms.
  EXPECT_GT(mean_gap_s, 0.009);
  EXPECT_LT(mean_gap_s, 0.011);
}

TEST(PoissonTrace, ValidatesConfig) {
  TraceConfig cfg;
  cfg.requests = 0;
  EXPECT_THROW(poisson_trace(cfg), std::invalid_argument);
  cfg = TraceConfig{};
  cfg.arrival_rate_per_s = 0.0;
  EXPECT_THROW(poisson_trace(cfg), std::invalid_argument);
  cfg = TraceConfig{};
  cfg.min_output_tokens = 64;
  cfg.max_output_tokens = 32;
  EXPECT_THROW(poisson_trace(cfg), std::invalid_argument);
  cfg = TraceConfig{};
  cfg.min_output_tokens = 0;
  EXPECT_THROW(poisson_trace(cfg), std::invalid_argument);
  cfg = TraceConfig{};
  cfg.input_tokens = 0;
  EXPECT_THROW(poisson_trace(cfg), std::invalid_argument);
  cfg = TraceConfig{};
  cfg.crops = 0;
  EXPECT_THROW(poisson_trace(cfg), std::invalid_argument);
  cfg = TraceConfig{};
  cfg.model_weights = {1.0, -0.5};
  EXPECT_THROW(poisson_trace(cfg), std::invalid_argument);
  cfg = TraceConfig{};
  cfg.model_weights = {0.0, 0.0};
  EXPECT_THROW(poisson_trace(cfg), std::invalid_argument);
  // NaN and +inf used to pass the `<= 0` / `< 0` checks and reach the
  // double -> Cycle casts or the zoo draw as non-finite values.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kNan, kInf, -kInf}) {
    cfg = TraceConfig{};
    cfg.arrival_rate_per_s = bad;
    EXPECT_THROW(poisson_trace(cfg), std::invalid_argument) << bad;
    cfg = TraceConfig{};
    cfg.clock_hz = bad;
    EXPECT_THROW(poisson_trace(cfg), std::invalid_argument) << bad;
    cfg = TraceConfig{};
    cfg.slo_base_ms = 10.0;
    cfg.slo_per_token_ms = bad;
    EXPECT_THROW(poisson_trace(cfg), std::invalid_argument) << bad;
    cfg = TraceConfig{};
    cfg.model_weights = {1.0, bad};
    EXPECT_THROW(poisson_trace(cfg), std::invalid_argument) << bad;
  }
  cfg = TraceConfig{};
  cfg.slo_base_ms = kInf;
  EXPECT_THROW(poisson_trace(cfg), std::invalid_argument);
  // A NaN or non-positive base still just disables deadlines.
  for (const double off : {kNan, -kInf, 0.0}) {
    cfg.slo_base_ms = off;
    for (const Request& r : poisson_trace(cfg)) EXPECT_EQ(r.deadline, 0u);
  }
}

TEST(PoissonTrace, EmptyModelWeightsReplayPreZooTracesByteIdentically) {
  // The zoo draw sits between the arrival and output draws, so an empty
  // weight vector consumes no randomness: traces generated before the
  // knob existed reproduce exactly.
  TraceConfig cfg;
  cfg.requests = 64;
  cfg.model = 2;
  const auto plain = poisson_trace(cfg);
  TraceConfig with_field = cfg;
  with_field.model_weights = {};
  const auto again = poisson_trace(with_field);
  ASSERT_EQ(plain.size(), again.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].arrival, again[i].arrival);
    EXPECT_EQ(plain[i].output_tokens, again[i].output_tokens);
    EXPECT_EQ(plain[i].model, 2u);
  }
}

TEST(PoissonTrace, ModelWeightsDrawTheZooMixDeterministically) {
  TraceConfig cfg;
  cfg.requests = 600;
  cfg.model_weights = {3.0, 0.0, 1.0};
  const auto a = poisson_trace(cfg);
  const auto b = poisson_trace(cfg);
  std::size_t counts[3] = {0, 0, 0};
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].model, b[i].model);  // same seed, same zoo
    ASSERT_LT(a[i].model, 3u);
    ++counts[a[i].model];
  }
  // A zero weight never draws; the 3:1 mix lands loosely around 3:1.
  EXPECT_EQ(counts[1], 0u);
  EXPECT_GT(counts[0], 2 * counts[2]);
  EXPECT_GT(counts[2], 0u);
}

TEST(PoissonTrace, ValidatesPrefixGroupConfig) {
  TraceConfig cfg;
  cfg.prefix_groups = 2;
  cfg.prefix_tokens = 0;  // a group without a prefix length is malformed
  EXPECT_THROW(poisson_trace(cfg), std::invalid_argument);
  cfg = TraceConfig{};
  cfg.input_tokens = 32;
  cfg.prefix_groups = 2;
  cfg.prefix_tokens = 33;  // prefix longer than the prompt
  EXPECT_THROW(poisson_trace(cfg), std::invalid_argument);
  cfg.prefix_tokens = 32;  // whole-prompt prefix is legal
  EXPECT_NO_THROW(poisson_trace(cfg));
}

TEST(PoissonTrace, ZeroPrefixGroupsConsumeNoRandomness) {
  // The prefix draw sits between the model and output draws; with the
  // knob off, arrivals AND outputs reproduce pre-prefix traces exactly.
  TraceConfig cfg;
  cfg.requests = 64;
  const auto plain = poisson_trace(cfg);
  TraceConfig with_field = cfg;
  with_field.prefix_groups = 0;
  with_field.prefix_tokens = 0;
  const auto again = poisson_trace(with_field);
  ASSERT_EQ(plain.size(), again.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].arrival, again[i].arrival);
    EXPECT_EQ(plain[i].output_tokens, again[i].output_tokens);
    EXPECT_EQ(plain[i].prefix_id, 0u);
    EXPECT_EQ(plain[i].prefix_tokens, 0u);
  }
}

TEST(PoissonTrace, PrefixDrawSitsBetweenModelAndOutputDraws) {
  // The draw order is arrival -> model -> prefix -> output over ONE RNG
  // stream: the first arrival (drawn before any prefix draw) must not
  // move when the knob turns on, and every drawn group is in range.
  TraceConfig cfg;
  cfg.requests = 64;
  const auto without = poisson_trace(cfg);
  TraceConfig with_prefix = cfg;
  with_prefix.prefix_groups = 4;
  with_prefix.prefix_tokens = 16;
  const auto with = poisson_trace(with_prefix);
  ASSERT_EQ(without.size(), with.size());
  EXPECT_EQ(without[0].arrival, with[0].arrival);
  for (std::size_t i = 0; i < with.size(); ++i) {
    EXPECT_GE(with[i].prefix_id, 1u);
    EXPECT_LE(with[i].prefix_id, 4u);
    EXPECT_EQ(with[i].prefix_tokens, 16u);
  }
  // Deterministic per seed, and with 64 draws over 4 groups at least two
  // distinct groups appear (the draw is not a constant).
  const auto replay = poisson_trace(with_prefix);
  bool multiple_groups = false;
  for (std::size_t i = 0; i < with.size(); ++i) {
    EXPECT_EQ(with[i].prefix_id, replay[i].prefix_id);
    if (with[i].prefix_id != with[0].prefix_id) multiple_groups = true;
  }
  EXPECT_TRUE(multiple_groups);
}

}  // namespace
}  // namespace edgemm::serve
