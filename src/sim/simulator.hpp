// Discrete-event simulator: owns the clock and the event queue.
#ifndef EDGEMM_SIM_SIMULATOR_HPP
#define EDGEMM_SIM_SIMULATOR_HPP

#include "common/types.hpp"
#include "sim/action.hpp"
#include "sim/event_queue.hpp"

namespace edgemm::sim {

/// Single-clock-domain discrete-event simulator.
///
/// Components schedule callbacks at relative delays; run() drains the
/// queue, advancing `now()` monotonically. There is deliberately no
/// global instance — a Simulator is a value owned by whoever runs an
/// experiment (C++ Core Guidelines I.3: avoid singletons).
class Simulator {
 public:
  /// Current simulation time in cycles.
  Cycle now() const { return now_; }

  /// Schedules `action` to run `delay` cycles from now.
  void schedule(Cycle delay, Action action);

  /// Schedules `action` at an absolute timestamp; must be >= now().
  void schedule_at(Cycle when, Action action);

  /// Runs until the queue is empty. Returns the final time.
  Cycle run();

  /// Runs until the queue is empty or `deadline` is passed; events at
  /// exactly `deadline` still execute. Returns the final time.
  Cycle run_until(Cycle deadline);

  /// Number of events executed so far (for tests and sanity checks).
  std::uint64_t events_executed() const { return events_executed_; }

  bool idle() const { return queue_.empty(); }

 private:
  Cycle now_ = 0;
  std::uint64_t events_executed_ = 0;
  EventQueue queue_;
};

}  // namespace edgemm::sim

#endif  // EDGEMM_SIM_SIMULATOR_HPP
