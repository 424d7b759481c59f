// Per-cluster DMA engine of the detailed tier, with performance-
// monitoring counter (PMC) and budget-based throttling — the mechanism
// behind the paper's token-length-driven bandwidth management (§IV-B).
#ifndef EDGEMM_MEM_DMA_HPP
#define EDGEMM_MEM_DMA_HPP

#include <limits>
#include <span>
#include <string_view>

#include "common/fifo.hpp"
#include "common/types.hpp"
#include "mem/dram.hpp"
#include "mem/memory_path.hpp"
#include "sim/action.hpp"
#include "sim/simulator.hpp"

namespace edgemm::mem {

/// Static DMA parameters.
struct DmaConfig {
  /// Transfers are sliced into bursts of this size before hitting the
  /// DRAM channel; finer bursts give finer inter-cluster arbitration.
  Bytes burst_bytes = 4096;
  /// Throttle interval T: the PMC resets every T cycles (§IV-B).
  Cycle throttle_interval = 10000;
};

/// Cluster-side DMA engine.
///
/// Each transfer is split into bursts; before a burst is issued its bytes
/// are charged to the interval PMC. Once the accumulated usage `d`
/// exceeds the budget `B`, subsequent bursts are held until the interval
/// elapses and the PMC resets, exactly as described in §IV-B.
class DmaEngine {
 public:
  using Done = sim::Action;

  /// Direct-to-DRAM engine: a one-hop route onto the DRAM channel;
  /// `port` must come from `dram.add_port`. The label is accepted for
  /// call-site readability and not stored.
  DmaEngine(sim::Simulator& sim, DramController& dram, int port,
            const DmaConfig& config, std::string_view label = {});

  /// Engine whose memory path is built in place from `route`, e.g.
  /// cluster crossbar -> system crossbar -> DRAM (Fig. 4); the last hop
  /// must be the memory channel. Throws std::invalid_argument for an
  /// empty route and what MemoryPath::add_hop throws for a bad hop.
  DmaEngine(sim::Simulator& sim, std::span<const MemoryPath::Hop> route,
            const DmaConfig& config);

  /// Starts a transfer of `bytes`; `done` (may be empty) fires when the
  /// last burst lands. Zero-byte transfers complete immediately (next
  /// delta-cycle).
  void transfer(Bytes bytes, Done done);

  /// Sets the per-interval byte budget B. Unlimited by default. On a
  /// chip the cluster owns the budget (ClusterTimingModel::set_budget)
  /// and forwards it here.
  void set_budget(Bytes budget) { budget_ = budget; }
  Bytes budget() const { return budget_; }

  static constexpr Bytes kUnlimited = std::numeric_limits<Bytes>::max();

  /// PMC value: bytes charged in the current interval.
  Bytes interval_usage() const { return interval_usage_; }

  /// Total bytes requested through this engine (lifetime).
  Bytes total_bytes() const { return total_bytes_; }

  /// Cycles bursts spent blocked by the throttle (lifetime).
  Cycle throttle_stall_cycles() const { return throttle_stall_cycles_; }

  /// Transfers still in flight.
  std::size_t inflight() const { return inflight_; }

 private:
  struct Burst {
    Bytes bytes;
    bool last;  ///< the last burst of its transfer
  };

  void issue_or_defer(Burst burst);
  void issue(Burst burst);
  /// Retires the oldest transfer whose completion waits in `queue`.
  void complete(Fifo<Done>& queue);
  Cycle next_interval_boundary() const;

  sim::Simulator& sim_;
  MemoryPath path_;
  DmaConfig config_;
  /// Completions of transfers with bytes, in transfer order. The path
  /// delivers this engine's bursts in issue order and the throttle keeps
  /// them FIFO, so a landing last burst belongs to the oldest transfer.
  Fifo<Done> pending_;
  /// Completions of zero-byte transfers; each fires one delta cycle
  /// after its call, so they also retire in call order.
  Fifo<Done> instant_;
  Bytes budget_ = kUnlimited;
  Bytes interval_usage_ = 0;
  Cycle interval_start_ = 0;
  Bytes total_bytes_ = 0;
  Cycle throttle_stall_cycles_ = 0;
  std::size_t inflight_ = 0;
  Fifo<Burst> deferred_;
  /// The wake-up drains deferred_ through this buffer (swapped in, then
  /// cleared), so the two queues trade capacity instead of reallocating.
  Fifo<Burst> draining_;
  bool wakeup_scheduled_ = false;
};

}  // namespace edgemm::mem

#endif  // EDGEMM_MEM_DMA_HPP
