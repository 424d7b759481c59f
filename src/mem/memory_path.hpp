// A multi-hop route through the interconnect hierarchy (Fig. 4):
//   cluster DMA -> cluster/group AXI crossbar -> system AXI crossbar
//   -> DRAM controller.
// Every hop is a bandwidth-limited ResourceServer with its own port for
// the requester; a burst occupies the hops in order, pipelining across
// bursts.
//
// ChipLink below extends the same bandwidth/latency vocabulary off-chip:
// a serialized chip-to-chip channel (multi-chip serving clusters) priced
// analytically rather than event-by-event, with exact byte-conservation
// counters so migrated KV bytes can join the serving byte ledger.
#ifndef EDGEMM_MEM_MEMORY_PATH_HPP
#define EDGEMM_MEM_MEMORY_PATH_HPP

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "common/fifo.hpp"
#include "common/types.hpp"
#include "mem/resource_server.hpp"
#include "sim/action.hpp"

namespace edgemm::mem {

/// Ordered hops from requester to memory. The last hop is the DRAM
/// channel; intermediate hops are crossbar links. The hops live in an
/// inline array sized for the chip's route, so building a path
/// allocates nothing, and an owner builds its path in place from a hop
/// span rather than taking a finished one.
///
/// A path must not move while a burst is in flight: the hop hand-offs
/// point back at it.
class MemoryPath {
 public:
  /// Most hops one path holds: group crossbar, system crossbar, DRAM.
  static constexpr std::size_t kMaxHops = 3;

  /// One hop of a route: a server and the requester's port on it.
  struct Hop {
    ResourceServer* server = nullptr;
    int port = -1;
  };

  MemoryPath() = default;

  /// The route `hops`, in order, each appended through add_hop (same
  /// checks, same exceptions).
  explicit MemoryPath(std::span<const Hop> hops);

  /// Appends a hop; `port` must have been obtained from server.add_port.
  /// Throws std::length_error past kMaxHops hops and std::out_of_range
  /// for a port `server` has not registered; either way the path is left
  /// unchanged.
  void add_hop(ResourceServer& server, int port);

  bool empty() const { return hop_count_ == 0; }
  std::size_t hop_count() const { return hop_count_; }

  /// Routes one burst through all hops in order; `done` fires when the
  /// final hop completes. Throws std::logic_error on an empty path.
  void request(Bytes bytes, sim::Action done);

  /// Sum of per-hop latencies (for analytic sanity checks).
  Cycle total_latency() const;

  /// The tightest per-hop bandwidth along the path.
  double bottleneck_bytes_per_cycle() const;

 private:
  /// Requests hop `index` for one burst. Every hop serves this path's
  /// port FIFO at a fixed latency, so bursts leave each hop in the order
  /// they entered the path: the burst entering the last hop owns the
  /// oldest parked completion.
  void forward(std::size_t index, Bytes bytes);

  std::array<Hop, kMaxHops> hops_{};
  std::size_t hop_count_ = 0;
  /// Completions of multi-hop bursts still short of the last hop, in
  /// request order.
  Fifo<sim::Action> parked_;
};

/// One serialized chip-to-chip channel (board-level SerDes between two
/// simulated EdgeMM chips). Unlike the event-driven hops above it is
/// priced analytically — transfers are submitted with absolute ready
/// cycles and the link returns absolute arrival cycles — because the
/// two endpoint chips live in SEPARATE simulators (one per
/// ServingEngine) and only exchange finished timestamps.
///
/// Timing: the wire serializes (one transfer occupies it for
/// ceil(bytes / bandwidth) cycles, FIFO in submission order), while the
/// head latency pipelines (pure propagation):
///   start_i   = max(ready_i, wire_free_i)
///   arrival_i = start_i + latency + ceil(bytes_i / bandwidth)
///
/// The byte ledger is conservation-exact at every probe cycle t:
///   bytes_sent_by(t) == bytes_landed_by(t) + bytes_in_flight_at(t)
/// where a transfer's bytes are "sent" at its start cycle and "landed"
/// at its arrival cycle — the invariant the cluster tests gate on.
class ChipLink {
 public:
  /// Throws std::invalid_argument for a non-positive bandwidth.
  ChipLink(double bytes_per_cycle, Cycle latency);

  /// One completed transfer (exposed for tests and the occupancy stats).
  struct Transfer {
    Cycle ready = 0;    ///< submission cycle (payload finished upstream)
    Cycle start = 0;    ///< entered the wire (bytes count as sent)
    Cycle arrival = 0;  ///< landed on the far chip
    Bytes bytes = 0;
  };

  /// Submits one transfer that is ready at `ready`; returns its arrival
  /// cycle. Transfers MUST be submitted in deterministic order — the
  /// wire serves them FIFO in submission order (ties in ready time do
  /// not reorder). Zero-byte transfers are rejected
  /// (std::invalid_argument): nothing to conserve.
  Cycle transfer(Bytes bytes, Cycle ready);

  double bytes_per_cycle() const { return bytes_per_cycle_; }
  Cycle latency() const { return latency_; }
  const std::vector<Transfer>& transfers() const { return transfers_; }

  /// Total bytes that have entered the wire over the link's lifetime.
  Bytes bytes_sent() const { return bytes_sent_; }
  /// Bytes whose transfer started at or before `now`.
  Bytes bytes_sent_by(Cycle now) const;
  /// Bytes whose transfer arrived at or before `now`.
  Bytes bytes_landed_by(Cycle now) const;
  /// Bytes on the wire at `now`: sent_by(now) - landed_by(now).
  Bytes bytes_in_flight_at(Cycle now) const;

  /// Cycles the wire spent serializing payload (sum of transfer
  /// durations, head latency excluded — it pipelines).
  Cycle busy_cycles() const { return busy_cycles_; }
  /// Arrival cycle of the last transfer (0 with no transfers).
  Cycle last_arrival() const { return last_arrival_; }
  /// Worst queueing delay a transfer saw behind the serialized wire
  /// (start - ready, maximized over transfers).
  Cycle max_queue_wait() const { return max_queue_wait_; }

 private:
  double bytes_per_cycle_;
  Cycle latency_;
  Cycle wire_free_ = 0;  ///< cycle the wire finishes its current payload
  std::vector<Transfer> transfers_;
  Bytes bytes_sent_ = 0;
  Cycle busy_cycles_ = 0;
  Cycle last_arrival_ = 0;
  Cycle max_queue_wait_ = 0;
};

}  // namespace edgemm::mem

#endif  // EDGEMM_MEM_MEMORY_PATH_HPP
