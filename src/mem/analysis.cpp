#include "mem/analysis.hpp"

#include "common/assert.hpp"
#include "mem/dma.hpp"
#include "sim/simulator.hpp"

namespace edgemm::mem {

std::vector<BandwidthSample> measure_effective_bandwidth(
    const DramConfig& dram_config, const std::vector<Bytes>& transfer_sizes,
    Bytes burst_bytes) {
  std::vector<BandwidthSample> samples;
  samples.reserve(transfer_sizes.size());

  for (const Bytes size : transfer_sizes) {
    sim::Simulator sim;
    DramController dram(sim, dram_config);
    const int port = dram.add_port();
    DmaConfig dma_config;
    dma_config.burst_bytes = burst_bytes;
    DmaEngine dma(sim, dram, port, dma_config);

    bool finished = false;
    Cycle completion = 0;
    dma.transfer(size, [&] {
      finished = true;
      completion = sim.now();
    });
    sim.run();
    EDGEMM_ASSERT(finished);

    BandwidthSample s;
    s.transfer_bytes = size;
    s.effective_bytes_per_cycle =
        completion > 0 ? static_cast<double>(size) / static_cast<double>(completion)
                       : 0.0;
    s.analytic_bytes_per_cycle = effective_bandwidth(dram_config, size);
    s.fraction_of_peak = s.effective_bytes_per_cycle / dram_config.bytes_per_cycle;
    samples.push_back(s);
  }
  return samples;
}

}  // namespace edgemm::mem
