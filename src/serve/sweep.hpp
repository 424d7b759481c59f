// Thread-parallel sweep harness over independent one-shot replays.
//
// A sweep is a grid of SweepCases — (chip, models, engine config, trace)
// tuples — each priced by its own ServingEngine via replay_trace's
// one-run contract. Cases share NOTHING (every engine owns a fresh chip
// and simulator), so they parallelize embarrassingly: a worker pool
// claims case indices from one atomic cursor and deposits each outcome
// at its case's slot in a pre-sized result vector. Result ORDER
// therefore never depends on thread scheduling: run_sweep with 8
// workers returns byte-identical outcomes, in identical order, to
// workers = 1 — the property the bench and tests/serve/test_sweep.cpp
// gate on.
#ifndef EDGEMM_SERVE_SWEEP_HPP
#define EDGEMM_SERVE_SWEEP_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "model/mllm_config.hpp"
#include "serve/engine_config.hpp"
#include "serve/serving_engine.hpp"
#include "serve/trace.hpp"

namespace edgemm::serve {

/// One grid point: everything one replay_trace call needs, plus a label
/// naming the point in reports ("fifo", "budget=2", ...).
struct SweepCase {
  std::string label;
  core::ChipConfig chip;
  std::vector<model::MllmConfig> models;
  EngineConfig engine;
  std::vector<Request> requests;
};

struct SweepOptions {
  /// Worker threads. 0 and 1 both run every case inline on the calling
  /// thread (no pool); n > 1 spawns n workers.
  std::size_t workers = 1;
};

/// One case's outcome, deposited at the case's index.
struct SweepOutcome {
  std::string label;
  ServingResult result;
  std::vector<RequestRecord> records;
  /// Host wall-clock spent replaying this case (measurement only — NOT
  /// part of outcome identity; see outcomes_identical).
  double wall_ms = 0.0;
};

/// Replays every case and returns outcomes in case order (index i of the
/// result is cases[i], regardless of which worker priced it or when).
/// A case that throws is rethrown on the calling thread after the pool
/// drains, lowest case index first. Throws std::invalid_argument for an
/// empty case list.
std::vector<SweepOutcome> run_sweep(const std::vector<SweepCase>& cases,
                                    const SweepOptions& options = {});

/// Exact equality of two replay results (ServingResult::operator==).
bool results_identical(const ServingResult& a, const ServingResult& b);

/// Exact equality of two request records (RequestRecord::operator==).
bool record_identical(const RequestRecord& a, const RequestRecord& b);

/// Outcome equality: label, result and every request record — everything
/// except wall_ms, which measures the host, not the simulation.
bool outcomes_identical(const SweepOutcome& a, const SweepOutcome& b);

}  // namespace edgemm::serve

#endif  // EDGEMM_SERVE_SWEEP_HPP
