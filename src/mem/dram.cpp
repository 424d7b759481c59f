#include "mem/dram.hpp"

#include <cmath>

namespace edgemm::mem {

DramController::DramController(sim::Simulator& sim, const DramConfig& config)
    : config_(config), server_(sim, config.bytes_per_cycle, config.latency) {}

double effective_bandwidth(const DramConfig& config, Bytes bytes) {
  if (bytes == 0) return 0.0;
  const double transfer_cycles =
      std::ceil(static_cast<double>(bytes) / config.bytes_per_cycle);
  const double total = static_cast<double>(config.latency) + transfer_cycles;
  return static_cast<double>(bytes) / total;
}

}  // namespace edgemm::mem
