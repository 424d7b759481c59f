#include "mem/resource_server.hpp"

#include <cmath>
#include <stdexcept>

#include "common/assert.hpp"

namespace edgemm::mem {

ResourceServer::ResourceServer(sim::Simulator& sim, double bytes_per_cycle,
                               Cycle latency)
    : sim_(sim), bytes_per_cycle_(bytes_per_cycle), latency_(latency) {
  if (bytes_per_cycle <= 0.0) {
    throw std::invalid_argument("ResourceServer: bytes_per_cycle must be > 0");
  }
}

void ResourceServer::request(int port, Bytes bytes, Done done) {
  if (port < 0 || static_cast<std::size_t>(port) >= ports_.size()) {
    throw std::out_of_range("ResourceServer::request: unknown port");
  }
  ports_[static_cast<std::size_t>(port)].queue.push_back(
      Request{bytes, std::move(done)});
  try_dispatch();
}

Bytes ResourceServer::bytes_served(int port) const {
  if (port < 0 || static_cast<std::size_t>(port) >= ports_.size()) {
    throw std::out_of_range("ResourceServer::bytes_served: unknown port");
  }
  return ports_[static_cast<std::size_t>(port)].bytes_served;
}

std::size_t ResourceServer::queued_requests() const {
  std::size_t n = 0;
  for (const Port& p : ports_) n += p.queue.size();
  return n;
}

double ResourceServer::utilization() const {
  const Cycle elapsed = sim_.now();
  if (elapsed == 0) return 0.0;
  return static_cast<double>(busy_cycles_) / static_cast<double>(elapsed);
}

void ResourceServer::try_dispatch() {
  if (channel_busy_ || ports_.empty()) return;

  // Round-robin scan starting at rr_next_.
  const std::size_t n = ports_.size();
  std::size_t chosen = n;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t candidate = (rr_next_ + i) % n;
    if (!ports_[candidate].queue.empty()) {
      chosen = candidate;
      break;
    }
  }
  if (chosen == n) return;  // all queues empty
  rr_next_ = (chosen + 1) % n;

  Port& port = ports_[chosen];
  Request req = port.queue.take_front();

  const auto occupancy = static_cast<Cycle>(
      std::ceil(static_cast<double>(req.bytes) / bytes_per_cycle_));
  const Cycle busy_for = occupancy > 0 ? occupancy : 1;

  channel_busy_ = true;
  busy_cycles_ += busy_for;
  port.bytes_served += req.bytes;
  bytes_served_ += req.bytes;

  // The channel frees after `busy_for`; the requester observes completion
  // `latency_` cycles later (the response traverses the interconnect).
  sim_.schedule(busy_for, [this] {
    channel_busy_ = false;
    try_dispatch();
  });
  sim_.schedule(busy_for + latency_, std::move(req.done));
}

}  // namespace edgemm::mem
