#include "sim/simulator.hpp"

#include <stdexcept>

namespace edgemm::sim {

void Simulator::schedule(Cycle delay, Action action) {
  schedule_at(now_ + delay, std::move(action));
}

void Simulator::schedule_at(Cycle when, Action action) {
  if (when < now_) {
    throw std::invalid_argument("Simulator::schedule_at: timestamp in the past");
  }
  queue_.push(when, std::move(action));
}

Cycle Simulator::run() {
  while (!queue_.empty()) {
    // Advance the clock BEFORE dispatching: actions must observe their
    // own timestamp through now() and schedule relative to it.
    now_ = queue_.next_time();
    queue_.pop_and_run();
    ++events_executed_;
  }
  return now_;
}

Cycle Simulator::run_until(Cycle deadline) {
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    now_ = queue_.next_time();
    queue_.pop_and_run();
    ++events_executed_;
  }
  if (now_ < deadline) now_ = deadline;
  return now_;
}

}  // namespace edgemm::sim
