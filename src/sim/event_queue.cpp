#include "sim/event_queue.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace edgemm::sim {

void EventQueue::push(Cycle when, Action action) {
  heap_.push_back(Entry{when, next_seq_++, std::move(action)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

Cycle EventQueue::next_time() const {
  EDGEMM_ASSERT(!heap_.empty());
  return heap_.front().when;
}

Cycle EventQueue::pop_and_run() {
  EDGEMM_ASSERT(!heap_.empty());
  // Move out before running: the action may push new events. (when, seq)
  // is a total order, so the pop order is that of any heap.
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry top = std::move(heap_.back());
  heap_.pop_back();
  if (top.action) top.action();
  return top.when;
}

}  // namespace edgemm::sim
