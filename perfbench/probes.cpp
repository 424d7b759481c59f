#include "probes.hpp"

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/chip.hpp"
#include "mem/dma.hpp"
#include "mem/dram.hpp"
#include "model/mllm_config.hpp"
#include "model/workload.hpp"
#include "serve/engine_config.hpp"
#include "serve/kv_pages.hpp"
#include "sim/simulator.hpp"

namespace edgemm::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A sink the optimizer cannot see through, so probed work is kept.
volatile double g_sink = 0.0;

/// One actor of the event-kernel probe: each firing reschedules itself
/// with a pseudo-random delay until the shared budget runs out.
struct Tick {
  sim::Simulator* sim;
  std::uint64_t* left;
  std::uint32_t state;

  void operator()() {
    if (*left == 0) return;
    --*left;
    state = state * 1664525u + 1013904223u;
    Tick next = *this;
    sim->schedule(1 + (state >> 24) % 97, next);
  }
};

}  // namespace

double probe_sim_events_per_s() {
  constexpr std::size_t kActors = 256;
  constexpr std::uint64_t kEvents = 2'000'000;
  sim::Simulator sim;
  std::uint64_t left = kEvents;
  for (std::size_t a = 0; a < kActors; ++a) {
    sim.schedule(a % 97, Tick{&sim, &left, static_cast<std::uint32_t>(a)});
  }
  const auto t0 = Clock::now();
  sim.run();
  const double wall = seconds_since(t0);
  return static_cast<double>(sim.events_executed()) / wall;
}

double probe_mem_bursts_per_s(const core::ChipConfig& chip) {
  constexpr std::size_t kEngines = 4;
  const Bytes per_engine = 2048 * chip.dma.burst_bytes;
  sim::Simulator sim;
  mem::DramController dram(sim, chip.dram);
  std::vector<std::unique_ptr<mem::DmaEngine>> engines;
  for (std::size_t e = 0; e < kEngines; ++e) {
    const std::string name = std::to_string(e);
    const int port = dram.add_port(name);
    engines.push_back(std::make_unique<mem::DmaEngine>(sim, dram, port, chip.dma, name));
    // A per-interval budget a little under the fair share, so the PMC
    // throttle defers bursts the way a managed replay does.
    const double fair = chip.dram.bytes_per_cycle *
                        static_cast<double>(chip.dma.throttle_interval) / kEngines;
    engines.back()->set_budget(static_cast<Bytes>(0.9 * fair));
  }
  const auto t0 = Clock::now();
  for (auto& engine : engines) engine->transfer(per_engine, nullptr);
  sim.run();
  const double wall = seconds_since(t0);
  if (dram.bytes_served() != kEngines * per_engine) {
    throw std::logic_error("mem probe: DRAM served the wrong byte count");
  }
  const double bursts = static_cast<double>(kEngines * per_engine) /
                        static_cast<double>(chip.dma.burst_bytes);
  return bursts / wall;
}

double probe_core_host_ms_per_sim_ms(const core::ChipConfig& chip, core::ReplayMode mode) {
  const model::MllmConfig m = model::sphinx_tiny();
  std::vector<core::GemmWork> ops = model::build_encoder_ops(m, 2);
  const std::vector<core::GemmWork> chunk = model::build_prefill_chunk(m, 0, 128, 900);
  ops.insert(ops.end(), chunk.begin(), chunk.end());
  // Enough repetitions for ~0.2 s of host time on either tier.
  const std::size_t reps = mode == core::ReplayMode::kFast ? 400 : 4;
  core::ChipTimingModel model(chip, core::ChipComposition::kHeterogeneous, mode);
  Cycle sim_cycles = 0;
  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) sim_cycles += model.run_phase(ops);
  const double wall_ms = 1e3 * seconds_since(t0);
  const double sim_ms = 1e3 * static_cast<double>(sim_cycles) / chip.clock_hz;
  return wall_ms / sim_ms;
}

double probe_pruning_proxy_ms() {
  const auto t0 = Clock::now();
  g_sink = serve::quality_accuracy_proxy(model::deepseek_vl(), 0.75);
  return 1e3 * seconds_since(t0);
}

double probe_model_prefill_chunk_us() {
  constexpr std::size_t kCalls = 2000;
  const model::MllmConfig m = model::deepseek_vl();
  std::size_t ops = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kCalls; ++i) {
    ops += model::build_prefill_chunk(m, 256, 256, 900, 0, 0.75).size();
  }
  const double wall = seconds_since(t0);
  g_sink = static_cast<double>(ops);
  return 1e6 * wall / static_cast<double>(kCalls);
}

double probe_kv_op_ns() {
  constexpr std::size_t kCycles = 50'000;
  constexpr std::size_t kOpsPerCycle = 5;
  constexpr Bytes kPage = 64 * 1024;
  // Room for a few requests at a time: 8 private + 4 shared pages each.
  serve::KvPageAllocator pages(64 * kPage, kPage);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kCycles; ++i) {
    const serve::RequestId id = i;
    const serve::KvPrefixKey prefix = serve::kv_prefix_key(0, 1 + i % 8);
    if (!pages.try_join(id, 8, prefix, 4) || !pages.try_append(id)) {
      throw std::logic_error("kv probe: the allocator refused an op that fits");
    }
    pages.swap_out(id);
    if (!pages.try_swap_in(id)) throw std::logic_error("kv probe: refill refused");
    pages.release(id);
  }
  const double wall = seconds_since(t0);
  if (!pages.conserved() || pages.pages_allocated() != pages.pages_freed()) {
    throw std::logic_error("kv probe: page ledger not conserved");
  }
  return 1e9 * wall / static_cast<double>(kCycles * kOpsPerCycle);
}

}  // namespace edgemm::perfbench
