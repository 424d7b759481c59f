// Shared bandwidth-limited resource with round-robin port arbitration.
//
// Both the DRAM channel and the hierarchical AXI crossbar links of
// EdgeMM (Fig. 4) are instances of the same abstraction: a channel that
// serves one request at a time at a fixed byte rate, with a fixed access
// latency, arbitrating fairly among requesting ports.
#ifndef EDGEMM_MEM_RESOURCE_SERVER_HPP
#define EDGEMM_MEM_RESOURCE_SERVER_HPP

#include <vector>

#include "common/fifo.hpp"
#include "common/types.hpp"
#include "sim/action.hpp"
#include "sim/simulator.hpp"

namespace edgemm::mem {

/// One request-at-a-time channel: occupancy = ceil(bytes / bytes_per_cycle),
/// completion fires `latency` cycles after the channel releases the request.
///
/// Ports are served round-robin; requests within a port stay FIFO. An
/// isolated transfer therefore sees an effective bandwidth of
/// bytes / (latency + bytes/bw) — the curve of paper Fig. 6(b).
class ResourceServer {
 public:
  using Done = sim::Action;

  /// Throws std::invalid_argument if bytes_per_cycle <= 0.
  ResourceServer(sim::Simulator& sim, double bytes_per_cycle, Cycle latency);

  /// Registers a requesting port (e.g. one per cluster DMA). Returns its id.
  int add_port() {
    ports_.emplace_back();
    return static_cast<int>(ports_.size()) - 1;
  }

  /// Pre-sizes the port table for `ports` add_port calls.
  void reserve_ports(std::size_t ports) { ports_.reserve(ports); }

  /// Ports registered so far.
  std::size_t port_count() const { return ports_.size(); }

  /// Enqueues a transfer of `bytes` on `port`; `done` (may be empty)
  /// fires at completion. Throws std::out_of_range for an unknown port.
  void request(int port, Bytes bytes, Done done);

  double bytes_per_cycle() const { return bytes_per_cycle_; }
  Cycle latency() const { return latency_; }

  /// Total bytes fully served so far.
  Bytes bytes_served() const { return bytes_served_; }

  /// Bytes served on behalf of one port.
  Bytes bytes_served(int port) const;

  /// Cycles during which the channel was occupied.
  Cycle busy_cycles() const { return busy_cycles_; }

  /// Accounts service performed outside the event-driven channel — the
  /// fast replay tier prices transfers analytically but still reports
  /// them here so bytes_served()/utilization() stay meaningful.
  void record_external_service(Bytes bytes, Cycle busy) {
    bytes_served_ += bytes;
    busy_cycles_ += busy;
  }

  /// Requests currently queued across all ports (excluding in-flight).
  std::size_t queued_requests() const;

  /// Channel utilization in [0,1] relative to elapsed simulation time.
  double utilization() const;

 private:
  struct Request {
    Bytes bytes;
    Done done;
  };
  struct Port {
    Fifo<Request> queue;
    Bytes bytes_served = 0;
  };

  void try_dispatch();

  sim::Simulator& sim_;
  double bytes_per_cycle_;
  Cycle latency_;
  std::vector<Port> ports_;
  std::size_t rr_next_ = 0;  // next port considered by the arbiter
  bool channel_busy_ = false;
  Bytes bytes_served_ = 0;
  Cycle busy_cycles_ = 0;
};

}  // namespace edgemm::mem

#endif  // EDGEMM_MEM_RESOURCE_SERVER_HPP
