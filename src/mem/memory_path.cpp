#include "mem/memory_path.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/assert.hpp"

namespace edgemm::mem {

MemoryPath::MemoryPath(std::span<const Hop> hops) {
  for (const Hop& hop : hops) add_hop(*hop.server, hop.port);
}

void MemoryPath::add_hop(ResourceServer& server, int port) {
  if (hop_count_ == kMaxHops) {
    throw std::length_error("MemoryPath::add_hop: path already has kMaxHops hops");
  }
  if (port < 0 || static_cast<std::size_t>(port) >= server.port_count()) {
    throw std::out_of_range("MemoryPath::add_hop: unknown port");
  }
  hops_[hop_count_++] = Hop{&server, port};
}

void MemoryPath::request(Bytes bytes, sim::Action done) {
  if (hop_count_ == 0) {
    throw std::logic_error("MemoryPath::request: no hops configured");
  }
  if (hop_count_ == 1) {
    hops_[0].server->request(hops_[0].port, bytes, std::move(done));
    return;
  }
  // Hop 0 only schedules events, so the completion can park after it
  // accepted the burst. Every hop's port was checked by add_hop, so no
  // later hop can throw from inside an event.
  forward(0, bytes);
  parked_.push_back(std::move(done));
}

void MemoryPath::forward(std::size_t index, Bytes bytes) {
  const Hop& hop = hops_[index];
  if (index + 1 == hop_count_) {
    hop.server->request(hop.port, bytes, parked_.take_front());
    return;
  }
  hop.server->request(hop.port, bytes,
                      [this, index, bytes] { forward(index + 1, bytes); });
}

Cycle MemoryPath::total_latency() const {
  Cycle total = 0;
  for (std::size_t i = 0; i < hop_count_; ++i) total += hops_[i].server->latency();
  return total;
}

double MemoryPath::bottleneck_bytes_per_cycle() const {
  double tightest = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < hop_count_; ++i) {
    tightest = std::min(tightest, hops_[i].server->bytes_per_cycle());
  }
  return hop_count_ == 0 ? 0.0 : tightest;
}

// --- ChipLink ---------------------------------------------------------------

ChipLink::ChipLink(double bytes_per_cycle, Cycle latency)
    : bytes_per_cycle_(bytes_per_cycle), latency_(latency) {
  if (!(bytes_per_cycle > 0.0)) {
    throw std::invalid_argument("ChipLink: bandwidth must be positive");
  }
}

Cycle ChipLink::transfer(Bytes bytes, Cycle ready) {
  if (bytes == 0) {
    throw std::invalid_argument("ChipLink: zero-byte transfer");
  }
  const auto duration = static_cast<Cycle>(
      std::ceil(static_cast<double>(bytes) / bytes_per_cycle_));
  const Cycle start = std::max(ready, wire_free_);
  const Cycle arrival = start + latency_ + duration;
  wire_free_ = start + duration;
  transfers_.push_back(Transfer{ready, start, arrival, bytes});
  bytes_sent_ += bytes;
  busy_cycles_ += duration;
  last_arrival_ = std::max(last_arrival_, arrival);
  max_queue_wait_ = std::max(max_queue_wait_, start - ready);
  return arrival;
}

Bytes ChipLink::bytes_sent_by(Cycle now) const {
  Bytes sent = 0;
  for (const Transfer& t : transfers_) {
    if (t.start <= now) sent += t.bytes;
  }
  return sent;
}

Bytes ChipLink::bytes_landed_by(Cycle now) const {
  Bytes landed = 0;
  for (const Transfer& t : transfers_) {
    if (t.arrival <= now) landed += t.bytes;
  }
  return landed;
}

Bytes ChipLink::bytes_in_flight_at(Cycle now) const {
  return bytes_sent_by(now) - bytes_landed_by(now);
}

}  // namespace edgemm::mem
