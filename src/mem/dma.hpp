// Per-cluster DMA engine with performance-monitoring counter (PMC) and
// budget-based throttling — the mechanism behind the paper's
// token-length-driven bandwidth management (§IV-B).
#ifndef EDGEMM_MEM_DMA_HPP
#define EDGEMM_MEM_DMA_HPP

#include <functional>
#include <limits>
#include <string>

#include "common/fifo.hpp"
#include "common/types.hpp"
#include "mem/dram.hpp"
#include "mem/memory_path.hpp"
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
  using Done = std::function<void()>;

  /// Direct-to-DRAM engine; `port` must come from `dram.add_port`.
  DmaEngine(sim::Simulator& sim, DramController& dram, int port,
            const DmaConfig& config, std::string name);

  /// Engine routed through a hierarchical interconnect path (cluster
  /// crossbar -> system crossbar -> DRAM, Fig. 4). The path's last hop
  /// must be the memory channel.
  DmaEngine(sim::Simulator& sim, MemoryPath path, const DmaConfig& config,
            std::string name);

  /// Starts a transfer of `bytes`; `done` fires when the last burst lands.
  /// Zero-byte transfers complete immediately (next delta-cycle).
  void transfer(Bytes bytes, Done done);

  /// Sets the per-interval byte budget B. Unlimited by default.
  void set_budget(Bytes budget) {
    budget_ = budget;
    if (budget_listener_) budget_listener_();
  }
  Bytes budget() const { return budget_; }

  /// Observer invoked after every set_budget call — the fast replay tier
  /// re-prices its streams when the bandwidth manager moves budgets.
  void set_budget_listener(std::function<void()> listener) {
    budget_listener_ = std::move(listener);
  }

  static constexpr Bytes kUnlimited = std::numeric_limits<Bytes>::max();

  /// PMC value: bytes charged in the current interval.
  Bytes interval_usage() const { return interval_usage_; }

  /// Total bytes requested through this engine (lifetime).
  Bytes total_bytes() const { return total_bytes_; }

  /// Cycles bursts spent blocked by the throttle (lifetime).
  Cycle throttle_stall_cycles() const { return throttle_stall_cycles_; }

  /// Transfers still in flight.
  std::size_t inflight() const { return inflight_; }

  const std::string& name() const { return name_; }

 private:
  struct Burst {
    Bytes bytes;
    bool last;
    Done done;  // only set on the last burst of a transfer
  };

  void issue_or_defer(Burst burst);
  void issue(Burst burst);
  Cycle next_interval_boundary() const;

  sim::Simulator& sim_;
  MemoryPath path_;
  DmaConfig config_;
  std::string name_;
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
  std::function<void()> budget_listener_;
};

}  // namespace edgemm::mem

#endif  // EDGEMM_MEM_DMA_HPP
