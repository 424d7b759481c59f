// Discrete-event queue: the heart of the timing simulator.
#ifndef EDGEMM_SIM_EVENT_QUEUE_HPP
#define EDGEMM_SIM_EVENT_QUEUE_HPP

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "sim/action.hpp"

namespace edgemm::sim {

/// Time-ordered queue of callbacks. Events at equal timestamps fire in
/// insertion order (a strict tie-break keeps runs deterministic).
class EventQueue {
 public:
  /// Schedules `action` at absolute time `when`. An empty action is a
  /// no-op event: it still takes its place in the order.
  void push(Cycle when, Action action);

  /// True when no events remain.
  bool empty() const { return heap_.empty(); }

  std::size_t size() const { return heap_.size(); }

  /// Timestamp of the earliest event; queue must be non-empty.
  Cycle next_time() const;

  /// Removes and runs the earliest event; returns its timestamp.
  /// Queue must be non-empty.
  Cycle pop_and_run();

 private:
  struct Entry {
    Cycle when;
    std::uint64_t seq;  // insertion order; breaks timestamp ties
    Action action;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  /// Binary min-heap under Later (std::push_heap/pop_heap). Owned rather
  /// than a std::priority_queue so pop_and_run can move the action out.
  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace edgemm::sim

#endif  // EDGEMM_SIM_EVENT_QUEUE_HPP
