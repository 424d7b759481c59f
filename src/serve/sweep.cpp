#include "serve/sweep.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

namespace edgemm::serve {

namespace {

/// Replays cases[index] into outcomes[index] / errors[index]. Outcome
/// slots are fixed by case index, so thread scheduling cannot reorder or
/// perturb the results.
void run_case(const std::vector<SweepCase>& cases, std::size_t index,
              std::vector<SweepOutcome>& outcomes,
              std::vector<std::exception_ptr>& errors) {
  const auto start = std::chrono::steady_clock::now();
  try {
    const SweepCase& c = cases[index];
    ReplayOutcome replay = replay_trace(c.chip, c.models, c.engine, c.requests);
    outcomes[index].label = c.label;
    outcomes[index].result = replay.result;
    outcomes[index].records = std::move(replay.records);
  } catch (...) {
    errors[index] = std::current_exception();
  }
  outcomes[index].wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
}

}  // namespace

std::vector<SweepOutcome> run_sweep(const std::vector<SweepCase>& cases,
                                    const SweepOptions& options) {
  if (cases.empty()) {
    throw std::invalid_argument("run_sweep: empty case list");
  }
  std::vector<SweepOutcome> outcomes(cases.size());
  std::vector<std::exception_ptr> errors(cases.size());

  if (options.workers <= 1) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      run_case(cases, i, outcomes, errors);
    }
  } else {
    // Workers claim case indices from one shared cursor until it runs
    // past the last case.
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(options.workers);
    for (std::size_t w = 0; w < options.workers; ++w) {
      pool.emplace_back([&] {
        for (std::size_t index = next.fetch_add(1); index < cases.size();
             index = next.fetch_add(1)) {
          run_case(cases, index, outcomes, errors);
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }

  // Deterministic error surface too: always the lowest failing index.
  for (std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return outcomes;
}

bool results_identical(const ServingResult& a, const ServingResult& b) {
  return a == b;
}

bool record_identical(const RequestRecord& a, const RequestRecord& b) {
  return a == b;
}

bool outcomes_identical(const SweepOutcome& a, const SweepOutcome& b) {
  return a.label == b.label && a.result == b.result && a.records == b.records;
}

}  // namespace edgemm::serve
