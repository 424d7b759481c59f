#include "serve/request_queue.hpp"

#include <stdexcept>
#include <utility>

namespace edgemm::serve {

void RequestQueue::push(Request request) { heap_.push(std::move(request)); }

const Request& RequestQueue::front() const {
  if (heap_.empty()) {
    throw std::out_of_range("RequestQueue::front: empty queue");
  }
  return heap_.top();
}

Request RequestQueue::pop() {
  if (heap_.empty()) {
    throw std::out_of_range("RequestQueue::pop: empty queue");
  }
  Request out = heap_.top();
  heap_.pop();
  return out;
}

bool RequestQueue::ready(Cycle now) const {
  return !heap_.empty() && heap_.top().arrival <= now;
}

std::optional<Request> RequestQueue::pop_ready(Cycle now) {
  if (!ready(now)) return std::nullopt;
  return pop();
}

}  // namespace edgemm::serve
