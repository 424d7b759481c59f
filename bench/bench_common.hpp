// Shared helpers for the reproduction benches: every bench prints the
// paper-reported value next to the measured one, so the "Measured vs
// paper" table of docs/PAPER_MAP.md can be regenerated by running the
// binaries.
#ifndef EDGEMM_BENCH_BENCH_COMMON_HPP
#define EDGEMM_BENCH_BENCH_COMMON_HPP

#include <algorithm>
#include <cstdarg>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "model/mllm_config.hpp"
#include "serve/residency_tracker.hpp"
#include "serve/trace.hpp"

namespace edgemm::bench {

inline void print_header(const char* figure, const char* claim) {
  std::printf("\n################################################################\n");
  std::printf("# EdgeMM reproduction — %s\n", figure);
  std::printf("# Paper claim: %s\n", claim);
  std::printf("################################################################\n\n");
}

inline void print_paper_vs_measured(const char* what, const std::string& paper,
                                    const std::string& measured) {
  std::printf("  %-46s paper: %-12s measured: %s\n", what, paper.c_str(),
              measured.c_str());
}

/// The Table I model zoo as one reusable bench scenario: three models of
/// uneven size and popularity sharing a residency budget that holds the
/// two big layer-group sets but NOT all three. serving_trace §6 replays
/// it through the placement policies on one chip; §8 shards the same
/// scenario across a cluster. Constructed from a base TraceConfig so the
/// shared knobs (clock, seed, SLO terms) stay in one place.
struct ZooScenario {
  std::vector<model::MllmConfig> models;  ///< SPHINX-Tiny / DeepSeek-VL / KarmaVLM
  serve::TraceConfig trace;               ///< 4:1:1 bursty multimodal mix
  std::vector<Bytes> set_bytes;           ///< full layer-group set per model
  Bytes residency_budget = 0;             ///< the two big sets, not the third
};

inline ZooScenario make_zoo_scenario(const serve::TraceConfig& base,
                                     const core::ChipConfig& chip) {
  ZooScenario zoo;
  zoo.models = {model::sphinx_tiny(), model::deepseek_vl(), model::karmavlm()};
  zoo.trace = base;
  zoo.trace.requests = 20;
  zoo.trace.arrival_rate_per_s = 2.0;
  zoo.trace.burst = 2;  // paired arrivals with ~1 s gaps: riders exist AND
                        // pins go idle between bursts (the keep-warm seam)
  zoo.trace.input_tokens = 900;
  zoo.trace.crops = 2;
  zoo.trace.min_output_tokens = 8;
  zoo.trace.max_output_tokens = 48;
  zoo.trace.model_weights = {4.0, 1.0, 1.0};
  for (const model::MllmConfig& m : zoo.models) {
    zoo.set_bytes.push_back(serve::llm_layer_group_bytes(m, chip) *
                            m.llm.layers);
  }
  // The two big sets fit together; the third does not also fit, so the
  // placement policies must decide who loses residency — and the burst
  // gaps decide how much a keep-warm pin is worth.
  zoo.residency_budget = zoo.set_bytes[0] + zoo.set_bytes[1];
  return zoo;
}

/// Minimal append-only JSON writer for the tracked BENCH_*.json
/// artifacts: nested objects/arrays, string/number/bool fields, no
/// escaping beyond quotes and backslashes (labels are plain ASCII).
class JsonWriter {
 public:
  JsonWriter() { stack_.push_back(false); }

  void begin_object(const char* key = nullptr) { open('{', key); }
  void end_object() { close('}'); }
  void begin_array(const char* key = nullptr) { open('[', key); }
  void end_array() { close(']'); }

  void field(const char* key, const std::string& value) {
    prefix(key);
    out_ << '"' << escaped(value) << '"';
  }
  void field(const char* key, const char* value) {
    field(key, std::string(value));
  }
  void field(const char* key, double value) {
    prefix(key);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    out_ << buf;
  }
  void field(const char* key, std::size_t value) {
    prefix(key);
    out_ << value;
  }
  void field(const char* key, bool value) {
    prefix(key);
    out_ << (value ? "true" : "false");
  }

  std::string str() const { return out_.str(); }

  /// Writes the document to `path`; returns false on I/O failure.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string body = out_.str();
    const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size() &&
                    std::fputc('\n', f) != EOF;
    return std::fclose(f) == 0 && ok;
  }

 private:
  static std::string escaped(const std::string& raw) {
    std::string s;
    for (const char c : raw) {
      if (c == '"' || c == '\\') s.push_back('\\');
      s.push_back(c);
    }
    return s;
  }
  void prefix(const char* key) {
    if (stack_.back()) out_ << ',';
    stack_.back() = true;
    if (key != nullptr) out_ << '"' << key << "\":";
  }
  void open(char bracket, const char* key) {
    prefix(key);
    out_ << bracket;
    stack_.push_back(false);
  }
  void close(char bracket) {
    out_ << bracket;
    stack_.pop_back();
  }

  std::ostringstream out_;
  std::vector<bool> stack_;  ///< "needs a comma" per nesting level
};

/// The one place a bench records its self-checks. Each `add` prints the
/// check's line with its yes/NO verdict and keeps (key, passed) in call
/// order; the registry then writes the `self_checks` JSON object, folds
/// `all_passed` and supplies the exit code, so a new gate is named once.
class CheckRegistry {
 public:
  explicit CheckRegistry(std::FILE* out = stdout) : out_(out) {}

  /// Prints the printf-formatted `fmt` followed by "yes" or "NO" and a
  /// newline, records (key, passed) and returns `passed`. Throws
  /// std::logic_error when `key` is already registered (or is
  /// "all_passed").
  [[gnu::format(printf, 4, 5)]] bool add(const char* key, bool passed,
                                         const char* fmt, ...) {
    record(key, passed);
    std::va_list args;
    va_start(args, fmt);
    std::vfprintf(out_, fmt, args);
    va_end(args);
    std::fprintf(out_, "%s\n", passed ? "yes" : "NO");
    return passed;
  }

  /// A check that cannot run on this host: prints the formatted line
  /// (no verdict) and records `key` as passed.
  [[gnu::format(printf, 3, 4)]] void skip(const char* key, const char* fmt,
                                          ...) {
    record(key, true);
    std::va_list args;
    va_start(args, fmt);
    std::vfprintf(out_, fmt, args);
    va_end(args);
    std::fputc('\n', out_);
  }

  bool all_passed() const {
    return std::all_of(checks_.begin(), checks_.end(),
                       [](const Check& c) { return c.passed; });
  }
  int exit_code() const { return all_passed() ? 0 : 1; }

  /// Writes `"self_checks": {key: passed, ..., "all_passed": ...}` with
  /// the keys in registration order.
  void write_json(JsonWriter& json) const {
    json.begin_object("self_checks");
    for (const Check& c : checks_) json.field(c.key.c_str(), c.passed);
    json.field("all_passed", all_passed());
    json.end_object();
  }

 private:
  struct Check {
    std::string key;
    bool passed = false;
  };

  void record(const char* key, bool passed) {
    const bool taken =
        std::strcmp(key, "all_passed") == 0 ||
        std::any_of(checks_.begin(), checks_.end(),
                    [key](const Check& c) { return c.key == key; });
    if (taken) {
      throw std::logic_error(std::string("self-check key registered twice: ") +
                             key);
    }
    checks_.push_back({key, passed});
  }

  std::FILE* out_;
  std::vector<Check> checks_;
};

}  // namespace edgemm::bench

#endif  // EDGEMM_BENCH_BENCH_COMMON_HPP
