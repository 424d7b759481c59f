// Pending-request queue feeding the serving engine.
#ifndef EDGEMM_SERVE_REQUEST_QUEUE_HPP
#define EDGEMM_SERVE_REQUEST_QUEUE_HPP

#include <cstddef>
#include <optional>
#include <queue>
#include <vector>

#include "serve/request.hpp"

namespace edgemm::serve {

/// Priority queue of pending requests, earliest arrival first. Ties
/// always break by id so replays are deterministic no matter the push
/// order.
class RequestQueue {
 public:
  void push(Request request);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// The request that would be popped next; throws std::out_of_range on
  /// an empty queue.
  const Request& front() const;

  /// Pops the next request; throws std::out_of_range on empty.
  Request pop();

  /// True when a request with arrival <= now is waiting.
  bool ready(Cycle now) const;

  /// Pops the next request if one has arrived by `now`.
  std::optional<Request> pop_ready(Cycle now);

 private:
  struct Later {
    bool operator()(const Request& a, const Request& b) const {
      if (a.arrival != b.arrival) return a.arrival > b.arrival;
      return a.id > b.id;
    }
  };

  std::priority_queue<Request, std::vector<Request>, Later> heap_;
};

}  // namespace edgemm::serve

#endif  // EDGEMM_SERVE_REQUEST_QUEUE_HPP
