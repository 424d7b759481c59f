// DRAM controller model: the single shared channel at the root of the
// EdgeMM memory hierarchy (Fig. 4, "DRAM Controller").
#ifndef EDGEMM_MEM_DRAM_HPP
#define EDGEMM_MEM_DRAM_HPP

#include <string_view>

#include "common/types.hpp"
#include "mem/resource_server.hpp"
#include "sim/simulator.hpp"

namespace edgemm::mem {

/// Static parameters of the external memory.
struct DramConfig {
  /// Peak bandwidth in bytes per core cycle. LPDDR4X-class default:
  /// 25.6 GB/s at a 1 GHz core clock.
  double bytes_per_cycle = 25.6;
  /// Closed-page access latency in core cycles (row activate + CAS +
  /// controller + hierarchical AXI traversal).
  Cycle latency = 100;
};

/// Thin wrapper over ResourceServer that exposes the DRAM-specific
/// analytic helpers.
///
/// Pinned in place: requesters hold the channel's address, and in-flight
/// events point at it, so a controller is neither copied nor moved.
class DramController {
 public:
  DramController(sim::Simulator& sim, const DramConfig& config);
  DramController(const DramController&) = delete;
  DramController& operator=(const DramController&) = delete;
  DramController(DramController&&) = delete;
  DramController& operator=(DramController&&) = delete;

  /// One port per cluster DMA engine. The label is accepted for
  /// call-site readability and not stored.
  int add_port(std::string_view /*label*/ = {}) { return server_.add_port(); }

  void request(int port, Bytes bytes, ResourceServer::Done done) {
    server_.request(port, bytes, std::move(done));
  }

  const DramConfig& config() const { return config_; }
  ResourceServer& channel() { return server_; }
  const ResourceServer& channel() const { return server_; }

  Bytes bytes_served() const { return server_.bytes_served(); }
  Bytes bytes_served(int port) const { return server_.bytes_served(port); }
  double utilization() const { return server_.utilization(); }

 private:
  DramConfig config_;
  ResourceServer server_;
};

/// Effective bandwidth (bytes/cycle) seen by one isolated transfer of
/// `bytes`: bytes / (latency + ceil(bytes / peak)). This closed form is
/// what the event-driven model measures and what Fig. 6(b) plots.
double effective_bandwidth(const DramConfig& config, Bytes bytes);

}  // namespace edgemm::mem

#endif  // EDGEMM_MEM_DRAM_HPP
