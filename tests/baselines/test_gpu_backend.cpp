#include "baselines/gpu_backend.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.hpp"
#include "sim/simulator.hpp"

namespace edgemm::baselines {
namespace {

std::vector<core::GemmWork> cc_job() {
  return {{64, 256, 256, Phase::kPrefill, false, 0, false}};
}

std::vector<core::GemmWork> mc_job() {
  return {{1, 256, 512, Phase::kDecode, false, 0, false}};
}

// --- GpuBackend: deterministic FIFO streams over the shared clock -------

TEST(GpuBackend, FifoSerializesALaneAndOverlapsLanes) {
  sim::Simulator sim;
  baselines::GpuBackend gpu(sim, baselines::GpuSpec{}, kChipClockHz);

  Cycle first_end = 0, second_start = 0, second_end = 0, mc_end = 0;
  gpu.submit(core::Lane::kCcStage, cc_job(), [&] { first_end = sim.now(); });
  gpu.submit(
      core::Lane::kCcStage, cc_job(), [&] { second_end = sim.now(); },
      [&] { second_start = sim.now(); });
  gpu.submit(core::Lane::kMcDecode, mc_job(), [&] { mc_end = sim.now(); });
  EXPECT_EQ(gpu.queued(core::Lane::kCcStage), 1u);
  sim.run();

  const Cycle cc_cycles = gpu.job_cycles(cc_job());
  EXPECT_EQ(first_end, cc_cycles);
  EXPECT_EQ(second_start, first_end);  // FIFO dispatch, no idle gap
  EXPECT_EQ(second_end, 2 * cc_cycles);
  // The MC-lane stream ran concurrently, not behind the CC jobs.
  EXPECT_EQ(mc_end, gpu.job_cycles(mc_job()));
  EXPECT_EQ(gpu.dispatched(core::Lane::kCcStage), 2u);
  EXPECT_TRUE(gpu.idle(core::Lane::kCcStage));
  EXPECT_TRUE(gpu.idle(core::Lane::kMcDecode));
}

TEST(GpuBackend, IdenticalSubmissionsRetireIdentically) {
  std::vector<Cycle> retire_a, retire_b;
  for (auto* retire : {&retire_a, &retire_b}) {
    sim::Simulator sim;
    baselines::GpuBackend gpu(sim, baselines::GpuSpec{}, kChipClockHz);
    for (int i = 0; i < 4; ++i) {
      gpu.submit(core::Lane::kCcStage, cc_job(),
                 [retire, &sim] { retire->push_back(sim.now()); });
    }
    sim.run();
  }
  EXPECT_EQ(retire_a, retire_b);
}

TEST(GpuBackend, PricesJobsFromTheRooflineModel) {
  sim::Simulator sim;
  const baselines::GpuSpec spec;
  baselines::GpuBackend gpu(sim, spec, kChipClockHz);

  const auto ops = cc_job();
  EXPECT_DOUBLE_EQ(gpu.job_seconds(ops),
                   baselines::gpu_op_seconds(spec, ops.front()));
  EXPECT_EQ(gpu.job_cycles(ops),
            static_cast<Cycle>(
                std::ceil(gpu.job_seconds(ops) * kChipClockHz)));
  EXPECT_EQ(gpu.estimated_job_bytes(ops),
            baselines::gpu_op_bytes(spec, ops.front()));

  // The ledger prices dispatched work: bytes via gpu_op_bytes, one
  // kernel launch per op, busy cycles = the job's duration.
  gpu.submit(core::Lane::kCcStage, cc_job(), [] {});
  sim.run();
  EXPECT_EQ(gpu.bytes_moved(), baselines::gpu_op_bytes(spec, ops.front()));
  EXPECT_EQ(gpu.kernel_launches(), 1u);
  EXPECT_EQ(gpu.busy_cycles(core::Lane::kCcStage), gpu.job_cycles(ops));
}

TEST(GpuBackend, RejectsEmptyJobsAndBadConstruction) {
  sim::Simulator sim;
  baselines::GpuBackend gpu(sim, baselines::GpuSpec{}, kChipClockHz);
  EXPECT_THROW(gpu.submit(core::Lane::kCcStage, {}, [] {}),
               std::invalid_argument);
  EXPECT_THROW(baselines::GpuBackend(sim, baselines::GpuSpec{}, 0.0),
               std::invalid_argument);
  baselines::GpuSpec bad;
  bad.peak_flops = -1.0;
  EXPECT_THROW(baselines::GpuBackend(sim, bad, kChipClockHz),
               std::invalid_argument);
}

}  // namespace
}  // namespace edgemm::baselines
