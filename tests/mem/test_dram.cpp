#include "mem/dram.hpp"

#include <type_traits>

#include <gtest/gtest.h>

#include "mem/analysis.hpp"
#include "sim/simulator.hpp"

namespace edgemm::mem {
namespace {

// Requesters and in-flight events hold the channel's address.
static_assert(!std::is_copy_constructible_v<DramController>);
static_assert(!std::is_copy_assignable_v<DramController>);
static_assert(!std::is_move_constructible_v<DramController>);
static_assert(!std::is_move_assignable_v<DramController>);

TEST(Dram, EffectiveBandwidthClosedForm) {
  DramConfig cfg{25.6, 100};
  // 25600 bytes: 1000 transfer cycles + 100 latency => 25600/1100.
  EXPECT_NEAR(effective_bandwidth(cfg, 25600), 25600.0 / 1100.0, 1e-9);
  EXPECT_EQ(effective_bandwidth(cfg, 0), 0.0);
}

TEST(Dram, EffectiveBandwidthApproachesPeakForLargeTransfers) {
  DramConfig cfg{25.6, 100};
  const double small = effective_bandwidth(cfg, 1024);
  const double large = effective_bandwidth(cfg, 16 * 1024 * 1024);
  EXPECT_LT(small, 0.4 * cfg.bytes_per_cycle);
  EXPECT_GT(large, 0.99 * cfg.bytes_per_cycle);
}

TEST(Dram, MeasuredMatchesAnalytic) {
  // Fig. 6(b) methodology: event-driven measurement must track the
  // closed form for isolated transfers (single burst => identical).
  DramConfig cfg{32.0, 80};
  const std::vector<Bytes> sizes{1024, 4096, 65536, 1048576};
  const auto samples = measure_effective_bandwidth(cfg, sizes, /*burst=*/1048576);
  for (const auto& s : samples) {
    EXPECT_NEAR(s.effective_bytes_per_cycle, s.analytic_bytes_per_cycle,
                0.05 * s.analytic_bytes_per_cycle)
        << s.transfer_bytes;
  }
}

TEST(Dram, EffectiveBandwidthMonotoneInSize) {
  DramConfig cfg{25.6, 100};
  const std::vector<Bytes> sizes{512,   1024,   4096,    16384,
                                 65536, 262144, 1048576, 4194304};
  const auto samples = measure_effective_bandwidth(cfg, sizes);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].effective_bytes_per_cycle,
              samples[i - 1].effective_bytes_per_cycle)
        << "size " << samples[i].transfer_bytes;
  }
  // Fraction of peak is a proper fraction.
  for (const auto& s : samples) {
    EXPECT_GT(s.fraction_of_peak, 0.0);
    EXPECT_LE(s.fraction_of_peak, 1.0);
  }
}

TEST(Dram, PortAccountingSeparatesClients) {
  sim::Simulator sim;
  DramController dram(sim, DramConfig{16.0, 10});
  const int a = dram.add_port();
  const int b = dram.add_port();
  dram.request(a, 1000, nullptr);
  dram.request(b, 3000, nullptr);
  sim.run();
  EXPECT_EQ(dram.bytes_served(a), 1000u);
  EXPECT_EQ(dram.bytes_served(b), 3000u);
  EXPECT_EQ(dram.bytes_served(), 4000u);
}

}  // namespace
}  // namespace edgemm::mem
