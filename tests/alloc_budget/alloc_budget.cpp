// Heap-allocation budget for building the timing plane and the serving
// engine.
//
// Replaces the global operator new/delete to count allocations, so it is
// a binary of its own (registered with ctest as `alloc_budget`, outside
// the gtest suite). It counts the heap allocations made while
// constructing a ChipTimingModel on each replay tier, a three-model zoo
// ServingEngine and a fast-tier single-model paged-KV ServingEngine (the
// inputs are built outside the counted window), while constructing the
// zoo engine and replaying a three-request trace on the detailed tier,
// and while a BandwidthManager applies the serving engine's CC-cap
// rebalance 1,000 times to a fast-tier chip.
// Exits 1 when any count exceeds its budget.
//
// Count history (chip detailed / chip fast / zoo engine / zoo replay):
//   - deque-backed timing-plane queues, a three-probe decode traffic
//     model and an event kernel that copied each action out of the heap:
//     472 / 572 / 600 / 16.8 M;
//   - Fifo queues, the closed-form decode traffic model and an event
//     kernel that moves actions out: 46 / 48 / 80 / 6.9 M;
//   - a flat, nameless chip topology, one per-model engine state and
//     sim::Action on the event path: 11 / 13 / 18 / 2,747 (paged engine
//     17, bandwidth ratios 0);
//   - a tier-shaped chip (the fast tier builds no crossbar or DRAM
//     ports, paths or DMA engines; the cluster owns its PMC budget):
//     11 / 6 / 18 / 2,747 (paged engine 10, bandwidth ratios 0);
//   - one vector of per-chunk records per prefill plan (it kept four
//     parallel vectors): 11 / 6 / 18 / 2,720;
//   - an engine that owns its chip, lane scheduler and bandwidth manager
//     directly (no backend wrapper), bandwidth ratios now applied by a
//     bare BandwidthManager: 11 / 6 / 18 / 2,720 (paged engine 10,
//     bandwidth ratios 0);
//   - a bandwidth-managed engine caps only the CC clusters, so the
//     1,000-call row drives BandwidthManager::apply_cc_cap and the
//     replay's decode tail runs unthrottled: 11 / 6 / 18 / 2,655 (paged
//     engine 10, CC caps 0).
// The budgets sit just above the current counts with GCC 12 and
// libstdc++; the bandwidth-ratio row must stay at zero.
//
//   ./build/edgemm_alloc_budget
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "core/chip.hpp"
#include "core/config.hpp"
#include "core/bandwidth_manager.hpp"
#include "model/mllm_config.hpp"
#include "model/workload.hpp"
#include "serve/admission.hpp"
#include "serve/engine_config.hpp"
#include "serve/policy.hpp"
#include "serve/residency_tracker.hpp"
#include "serve/serving_engine.hpp"
#include "serve/trace.hpp"

namespace {

// Single-threaded: nothing measured here starts a thread.
bool g_counting = false;
std::size_t g_allocations = 0;
std::size_t g_bytes = 0;

void* counted_alloc(std::size_t size) noexcept {
  if (g_counting) {
    ++g_allocations;
    g_bytes += size;
  }
  return std::malloc(size != 0 ? size : 1);
}

void* counted_alloc_or_throw(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}

struct Count {
  std::size_t allocations = 0;
  std::size_t bytes = 0;
};

/// Allocations made by `work` alone.
Count count_allocations(const std::function<void()>& work) {
  g_allocations = 0;
  g_bytes = 0;
  g_counting = true;
  work();
  g_counting = false;
  return {g_allocations, g_bytes};
}

}  // namespace

// Every unaligned form, so each allocation is released by the free()
// that matches its malloc() (the standard library's temporary buffers
// use the nothrow forms).
void* operator new(std::size_t size) { return counted_alloc_or_throw(size); }
void* operator new[](std::size_t size) { return counted_alloc_or_throw(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

using namespace edgemm;

/// The zoo composition of serving_trace §6: three Table I models,
/// resident chunked prefill and demand-weighted placement over a
/// residency budget that holds two of the three layer-group sets.
serve::EngineConfig zoo_engine_config(const core::ChipConfig& chip,
                                      const std::vector<model::MllmConfig>& models) {
  const Bytes budget =
      serve::llm_layer_group_bytes(models[0], chip) * models[0].llm.layers +
      serve::llm_layer_group_bytes(models[1], chip) * models[1].llm.layers;
  return serve::EngineConfig()
      .scheduler(std::make_shared<serve::ConcurrencyPolicy>(
          serve::AdmissionLimits{8, 16}))
      .manage_bandwidth(true)
      .prefill_planner(std::make_shared<serve::ResidentChunkedPrefill>(128))
      .weight_residency_bytes(budget)
      .placement_policy(std::make_shared<serve::DemandWeightedPlacement>());
}

struct Row {
  const char* name;
  Count count;
  std::size_t budget;
};

}  // namespace

int main() {
  const core::ChipConfig chip = core::default_chip_config();
  const std::vector<model::MllmConfig> zoo = {model::sphinx_tiny(),
                                              model::deepseek_vl(),
                                              model::karmavlm()};
  const serve::EngineConfig engine_config = zoo_engine_config(chip, zoo);

  serve::TraceConfig trace_cfg;
  trace_cfg.requests = 3;
  trace_cfg.arrival_rate_per_s = 2.0;
  trace_cfg.min_output_tokens = 4;
  trace_cfg.max_output_tokens = 8;
  trace_cfg.model_weights = {1.0, 1.0, 1.0};
  trace_cfg.seed = 7;
  const std::vector<serve::Request> trace = serve::poisson_trace(trace_cfg);

  // chat_paged's composition: one model on the fast tier with paged KV.
  const std::vector<model::MllmConfig> single = {model::sphinx_tiny()};
  const serve::EngineConfig paged_config =
      serve::EngineConfig()
          .scheduler(std::make_shared<serve::ConcurrencyPolicy>(
              serve::AdmissionLimits{8, 16}))
          .manage_bandwidth(true)
          .replay_mode(core::ReplayMode::kFast)
          .kv_capacity_bytes(3 * 1024 * model::kv_bytes_per_token(single[0]))
          .paged_kv(true)
          .kv_page_bytes(16 * model::kv_bytes_per_token(single[0]));

  std::optional<core::ChipTimingModel> chip_model;
  std::optional<serve::ServingEngine> engine;
  std::vector<Row> rows;
  auto measure = [&](const char* name, std::size_t budget,
                     const std::function<void()>& work,
                     const std::function<void()>& teardown) {
    rows.push_back({name, count_allocations(work), budget});
    teardown();
  };

  measure("ChipTimingModel (detailed tier)", 12,
          [&] { chip_model.emplace(chip, core::ChipComposition::kHeterogeneous); },
          [&] { chip_model.reset(); });
  measure("ChipTimingModel (fast tier)", 7,
          [&] {
            chip_model.emplace(chip, core::ChipComposition::kHeterogeneous,
                               core::ReplayMode::kFast);
          },
          [&] { chip_model.reset(); });
  measure("ServingEngine, 3-model zoo", 20,
          [&] { engine.emplace(chip, zoo, engine_config); }, [&] { engine.reset(); });
  measure("ServingEngine, 1-model paged KV (fast tier)", 11,
          [&] { engine.emplace(chip, single, paged_config); },
          [&] { engine.reset(); });
  measure("ServingEngine, 3-model zoo + 3-request replay", 2'970,
          [&] {
            engine.emplace(chip, zoo, engine_config);
            engine->run(trace);
          },
          [&] { engine.reset(); });

  // Every rebalance tick applies a CC cap; on the fast tier each one
  // re-budgets all clusters and schedules one coalesced re-pricing
  // event. The first pass sizes the event heap outside the window.
  chip_model.emplace(chip, core::ChipComposition::kHeterogeneous,
                     core::ReplayMode::kFast);
  const core::BandwidthManager manager(chip, core::BandwidthPolicy{});
  auto apply_caps = [&](std::size_t calls) {
    for (std::size_t i = 0; i < calls; ++i) {
      manager.apply_cc_cap(*chip_model, 1 + i % 7);
      chip_model->simulator().run();
    }
  };
  apply_caps(1);
  measure("BandwidthManager::apply_cc_cap x 1,000", 0,
          [&] { apply_caps(1'000); }, [&] { chip_model.reset(); });

  bool ok = true;
  std::printf("%-48s %12s %12s %10s\n", "measured", "allocations", "bytes",
              "budget");
  for (const Row& row : rows) {
    const bool over = row.count.allocations > row.budget;
    ok = ok && !over;
    std::printf("%-48s %12zu %12zu %10zu%s\n", row.name, row.count.allocations,
                row.count.bytes, row.budget, over ? "  OVER BUDGET" : "");
  }
  return ok ? 0 : 1;
}
