#include "core/fast_replay.hpp"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include <memory>

#include "core/bandwidth_manager.hpp"
#include "core/chip.hpp"
#include "core/phase_scheduler.hpp"
#include "model/workload.hpp"
#include "serve/serving_engine.hpp"
#include "serve/trace.hpp"

namespace edgemm::core {
namespace {

ChipConfig small_cfg() {
  ChipConfig cfg = default_chip_config();
  cfg.groups = 1;
  return cfg;
}

/// Runs `jobs` back-to-back on the CC lane of a fresh chip in `mode` and
/// returns the retirement cycle of the last job.
Cycle run_cc_jobs(ReplayMode mode, const std::vector<std::vector<GemmWork>>& jobs) {
  ChipTimingModel chip(small_cfg(), ChipComposition::kHeterogeneous, mode);
  PhaseScheduler sched(chip);
  Cycle last = 0;
  for (const auto& ops : jobs) {
    sched.submit(Lane::kCcStage, ops, [&] { last = sched.sim().now(); });
  }
  chip.simulator().run();
  return last;
}

double drift(Cycle detailed, Cycle fast) {
  return std::abs(static_cast<double>(fast) - static_cast<double>(detailed)) /
         static_cast<double>(detailed);
}

TEST(ReplayMode, ToStringCoversBothTiers) {
  EXPECT_STREQ(to_string(ReplayMode::kDetailed), "detailed");
  EXPECT_STREQ(to_string(ReplayMode::kFast), "fast");
}

TEST(FastReplay, DetailedChipCarriesNoFastModel) {
  ChipTimingModel chip(small_cfg(), ChipComposition::kHeterogeneous);
  EXPECT_EQ(chip.replay_mode(), ReplayMode::kDetailed);
  EXPECT_EQ(chip.fast_model(), nullptr);
}

TEST(FastReplay, FastChipExposesItsIntegrator) {
  ChipTimingModel chip(small_cfg(), ChipComposition::kHeterogeneous,
                       ReplayMode::kFast);
  EXPECT_EQ(chip.replay_mode(), ReplayMode::kFast);
  ASSERT_NE(chip.fast_model(), nullptr);
  EXPECT_EQ(chip.fast_model()->streams_completed(), 0u);
}

TEST(FastReplay, MemoryBoundJobWithinOnePercentOfDetailed) {
  const std::vector<std::vector<GemmWork>> jobs = {
      {{64, 1024, 1024, Phase::kPrefill, false, 0, false}}};
  const Cycle detailed = run_cc_jobs(ReplayMode::kDetailed, jobs);
  const Cycle fast = run_cc_jobs(ReplayMode::kFast, jobs);
  ASSERT_GT(detailed, 0u);
  EXPECT_LT(drift(detailed, fast), 0.01);
}

TEST(FastReplay, ComputeBoundJobWithinOnePercentOfDetailed) {
  // Tall-m GEMM: datapath cycles dominate the weight fetch.
  const std::vector<std::vector<GemmWork>> jobs = {
      {{2048, 256, 256, Phase::kPrefill, false, 0, false}}};
  const Cycle detailed = run_cc_jobs(ReplayMode::kDetailed, jobs);
  const Cycle fast = run_cc_jobs(ReplayMode::kFast, jobs);
  ASSERT_GT(detailed, 0u);
  EXPECT_LT(drift(detailed, fast), 0.01);
}

TEST(FastReplay, MixedRegimeBatchWithinOnePercentOfDetailed) {
  // Alternating compute-bound and memory-bound ops in ONE batch: the
  // serial-chain pricing must capture the per-op DMA/compute
  // serialization a lumped max(dma, compute) bound misses.
  std::vector<GemmWork> batch;
  for (int i = 0; i < 6; ++i) {
    batch.push_back({2048, 128, 128, Phase::kPrefill, false, 0, false});
    batch.push_back({8, 1024, 1024, Phase::kPrefill, false, 0, false});
  }
  const Cycle detailed = run_cc_jobs(ReplayMode::kDetailed, {batch});
  const Cycle fast = run_cc_jobs(ReplayMode::kFast, {batch});
  ASSERT_GT(detailed, 0u);
  EXPECT_LT(drift(detailed, fast), 0.01);
}

TEST(FastReplay, ResidentWeightBatchesWithinOnePercentOfDetailed) {
  // Weight-resident ops DMA only activations; mixed with streaming ops
  // they exercise the zero-heavy end of the chain pricing.
  std::vector<GemmWork> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back({128, 512, 512, Phase::kPrefill, true, 0, false});
    batch.push_back({128, 512, 512, Phase::kPrefill, false, 0, false});
  }
  const Cycle detailed = run_cc_jobs(ReplayMode::kDetailed, {batch});
  const Cycle fast = run_cc_jobs(ReplayMode::kFast, {batch});
  ASSERT_GT(detailed, 0u);
  EXPECT_LT(drift(detailed, fast), 0.01);
}

TEST(FastReplay, BackToBackJobsWithinOnePercentOfDetailed) {
  // FIFO job sequencing on one lane: each batch's DMA starts when the
  // previous batch's last block lands, so makespan accumulates the
  // per-batch tails correctly.
  std::vector<std::vector<GemmWork>> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back({{128, 512, 512, Phase::kPrefill, false, 0, false}});
  }
  const Cycle detailed = run_cc_jobs(ReplayMode::kDetailed, jobs);
  const Cycle fast = run_cc_jobs(ReplayMode::kFast, jobs);
  ASSERT_GT(detailed, 0u);
  EXPECT_LT(drift(detailed, fast), 0.01);
}

TEST(FastReplay, FastTierIsDeterministicAcrossRuns) {
  std::vector<std::vector<GemmWork>> jobs;
  for (std::size_t i = 0; i < 5; ++i) {
    jobs.push_back({{256 + 64 * i, 512, 512, Phase::kPrefill, false, 0, false}});
  }
  const Cycle first = run_cc_jobs(ReplayMode::kFast, jobs);
  const Cycle second = run_cc_jobs(ReplayMode::kFast, jobs);
  EXPECT_EQ(first, second);
}

TEST(FastReplay, StatsLedgersMatchDetailedExactly) {
  // The fast tier injects the SAME integer totals run_ops accumulates:
  // bytes, effective compute, flops and op counts agree bit-for-bit.
  const std::vector<GemmWork> ops = {
      {64, 1024, 1024, Phase::kPrefill, false, 0, false},
      {128, 512, 512, Phase::kPrefill, true, 0, false}};

  ChipTimingModel det(small_cfg(), ChipComposition::kHeterogeneous);
  PhaseScheduler det_sched(det);
  det_sched.submit(Lane::kCcStage, ops, [] {});
  det.simulator().run();

  ChipTimingModel fst(small_cfg(), ChipComposition::kHeterogeneous,
                      ReplayMode::kFast);
  PhaseScheduler fst_sched(fst);
  fst_sched.submit(Lane::kCcStage, ops, [] {});
  fst.simulator().run();

  const auto det_cc = det.clusters(ClusterKind::kComputeCentric);
  const auto fst_cc = fst.clusters(ClusterKind::kComputeCentric);
  ASSERT_EQ(det_cc.size(), fst_cc.size());
  for (std::size_t i = 0; i < det_cc.size(); ++i) {
    EXPECT_EQ(det_cc[i]->stats().dma_bytes, fst_cc[i]->stats().dma_bytes);
    EXPECT_EQ(det_cc[i]->stats().compute_cycles,
              fst_cc[i]->stats().compute_cycles);
    EXPECT_EQ(det_cc[i]->stats().flops, fst_cc[i]->stats().flops);
    EXPECT_EQ(det_cc[i]->stats().ops_executed, fst_cc[i]->stats().ops_executed);
  }
  EXPECT_GT(fst.fast_model()->streams_completed(), 0u);
}

TEST(FastReplay, PagedKvSwapTraceWithinOnePercentOfDetailed) {
  // The paged-KV subsystem (prefix sharing + DRAM swap) changes WHICH
  // requests decode each step, not how a step is priced — so the fast
  // tier must track the detailed tier through preempt-and-refill churn
  // just as tightly as on plain traces. The workload mirrors the bench's
  // fidelity sections: a coarsened chip and sphinx_tiny, where decode
  // steps are large enough that the integrator's per-step rounding stays
  // well inside the 1% gate.
  namespace sv = edgemm::serve;
  ChipConfig cfg = default_chip_config();
  cfg.timing_block_scale = 8.0;
  cfg.dma.burst_bytes *= 4;
  cfg.dma.throttle_interval *= 4;

  const edgemm::model::MllmConfig m = edgemm::model::sphinx_tiny();
  const Bytes page = 16 * edgemm::model::kv_bytes_per_token(m);

  sv::TraceConfig trace_cfg;
  trace_cfg.requests = 8;
  trace_cfg.arrival_rate_per_s = 24.0;
  trace_cfg.input_tokens = 300;
  trace_cfg.min_output_tokens = 16;
  trace_cfg.max_output_tokens = 48;
  trace_cfg.prefix_groups = 2;
  trace_cfg.prefix_tokens = 256;
  const auto trace = sv::poisson_trace(trace_cfg);

  auto engine = [&](ReplayMode mode) {
    // The worst single request needs 22 pages; 30 leaves too little slack
    // for the concurrent tail, so growers preempt each other to DRAM and
    // refill — the churn the gate is meant to cover.
    return sv::EngineConfig()
        .scheduler(std::make_shared<sv::ConcurrencyPolicy>(
            sv::AdmissionLimits{8, 16}))
        .manage_bandwidth(false)
        .replay_mode(mode)
        .kv_capacity_bytes(30 * page)
        .paged_kv(true)
        .kv_page_bytes(page);
  };
  const auto detailed =
      sv::replay_trace(cfg, {m}, engine(ReplayMode::kDetailed), trace);
  const auto fast =
      sv::replay_trace(cfg, {m}, engine(ReplayMode::kFast), trace);
  ASSERT_GT(detailed.result.makespan, 0u);
  ASSERT_GT(detailed.result.kv_pages_swapped_out, 0u);  // swap exercised
  // Scheduling decisions are tier-independent: the fast tier swaps the
  // SAME pages the detailed tier does, so any drift is pure step pricing.
  EXPECT_EQ(detailed.result.kv_pages_swapped_out,
            fast.result.kv_pages_swapped_out);
  EXPECT_LT(drift(detailed.result.makespan, fast.result.makespan), 0.01);
  // Both tiers conserve the page ledger exactly, whatever they priced.
  EXPECT_EQ(detailed.result.kv_pages_allocated,
            detailed.result.kv_pages_freed);
  EXPECT_EQ(fast.result.kv_pages_allocated, fast.result.kv_pages_freed);
}

TEST(FastReplay, IdleTracksOutstandingStreams) {
  ChipTimingModel chip(small_cfg(), ChipComposition::kHeterogeneous,
                       ReplayMode::kFast);
  auto cc = chip.clusters(ClusterKind::kComputeCentric);
  ASSERT_FALSE(cc.empty());
  EXPECT_TRUE(cc[0]->idle());
  bool done = false;
  chip.run_on(cc, {{64, 512, 512, Phase::kPrefill, false, 0, false}},
              [&] { done = true; });
  EXPECT_FALSE(cc[0]->idle());
  // Each cluster finds its own lane: the idle MC lanes stay idle.
  for (auto* mc : chip.clusters(ClusterKind::kMemoryCentric)) EXPECT_TRUE(mc->idle());
  chip.simulator().run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(cc[0]->idle());
}

/// Sets every cluster of `chip` to `budget` in one event, runs the
/// simulator dry and returns the events that took.
std::uint64_t rebudget_events(ChipTimingModel& chip, Bytes budget) {
  for (ClusterTimingModel* c : chip.all_clusters()) c->set_budget(budget);
  const std::uint64_t before = chip.simulator().events_executed();
  chip.simulator().run();
  return chip.simulator().events_executed() - before;
}

TEST(FastReplay, SameValueBudgetStillSchedulesOneRecompute) {
  // FastMemoryModel::recompute() is not idempotent: it splits the fluid
  // integration at the current cycle and re-solves every rate, which
  // moves floating-point rounding. So the fast tier re-prices on every
  // set_budget, an unchanged value included, and coalesces the calls of
  // one event into one recompute.
  ChipTimingModel chip(small_cfg(), ChipComposition::kHeterogeneous,
                       ReplayMode::kFast);
  EXPECT_EQ(rebudget_events(chip, 4096), 1u);  // a change
  EXPECT_EQ(rebudget_events(chip, 4096), 1u);  // the same value again
  EXPECT_EQ(rebudget_events(chip, mem::DmaEngine::kUnlimited), 1u);
}

TEST(FastReplay, DetailedTierBudgetSchedulesNothing) {
  // The detailed tier's DMA reads the budget at each burst; setting it
  // is not an event.
  ChipTimingModel chip(small_cfg(), ChipComposition::kHeterogeneous);
  EXPECT_EQ(rebudget_events(chip, 4096), 0u);
  EXPECT_EQ(rebudget_events(chip, 4096), 0u);
}

struct BudgetedRun {
  Cycle cycles = 0;
  Cycle dma_stall = 0;  ///< detailed tier only
};

/// Runs one memory-bound op on the first CC cluster of a fresh chip in
/// `mode` under a per-interval PMC `budget`, checking the budget reads
/// back through the cluster (and its DMA on the detailed tier).
BudgetedRun run_budgeted(ReplayMode mode, Bytes budget) {
  ChipTimingModel chip(small_cfg(), ChipComposition::kHeterogeneous, mode);
  ClusterTimingModel& cc = *chip.clusters(ClusterKind::kComputeCentric).front();
  EXPECT_EQ(cc.budget(), mem::DmaEngine::kUnlimited);
  cc.set_budget(budget);
  EXPECT_EQ(cc.budget(), budget);
  if (mode == ReplayMode::kDetailed) {
    EXPECT_EQ(cc.dma().budget(), budget);
  }
  bool done = false;
  cc.run_ops({{1, 1024, 1024, Phase::kDecode, false, 0, false}}, [&] { done = true; });
  chip.simulator().run();
  EXPECT_TRUE(done);
  BudgetedRun run;
  run.cycles = chip.simulator().now();
  if (mode == ReplayMode::kDetailed) run.dma_stall = cc.dma().throttle_stall_cycles();
  return run;
}

TEST(FastReplay, ClusterBudgetThrottlesBothTiers) {
  const Bytes tight = 2 * small_cfg().dma.burst_bytes;
  const BudgetedRun det_free = run_budgeted(ReplayMode::kDetailed, mem::DmaEngine::kUnlimited);
  const BudgetedRun det_tight = run_budgeted(ReplayMode::kDetailed, tight);
  EXPECT_EQ(det_free.dma_stall, 0u);
  EXPECT_GT(det_tight.dma_stall, 0u);  // the cluster's DMA enforced it
  EXPECT_GT(det_tight.cycles, 2 * det_free.cycles);

  const BudgetedRun fast_free = run_budgeted(ReplayMode::kFast, mem::DmaEngine::kUnlimited);
  const BudgetedRun fast_tight = run_budgeted(ReplayMode::kFast, tight);
  EXPECT_GT(fast_tight.cycles, 2 * fast_free.cycles);
  EXPECT_LT(drift(det_tight.cycles, fast_tight.cycles), 0.01);
}

/// Completion cycles of a CC chain capped at 1/8 of the interval bytes
/// (a bandwidth-managed engine's tightest CC cap) running beside
/// unthrottled decode streams on both MC clusters that outlast it.
struct CcCapRun {
  Cycle cc_done = 0;
  Cycle mc_done = 0;
};

CcCapRun run_cc_cap_beside_decode(ReplayMode mode) {
  const ChipConfig cfg = small_cfg();
  ChipTimingModel chip(cfg, ChipComposition::kHeterogeneous, mode);
  ClusterTimingModel& cc = *chip.clusters(ClusterKind::kComputeCentric).front();
  const BandwidthManager manager(cfg, BandwidthPolicy{});
  cc.set_budget(manager.budgets_for_ratio(7, 1, 1).cc_budget_per_cluster);
  // A 1 MiB weight fetch overruns one interval's allowance and floods at
  // the boundary; the weight-resident op after it computes for several
  // intervals on little DMA, so the chain averages under its cap.
  std::vector<GemmWork> chain;
  for (int i = 0; i < 6; ++i) {
    chain.push_back({8, 1024, 1024, Phase::kPrefill, false, 0, false});
    chain.push_back({64, 2048, 2048, Phase::kPrefill, true, 0, false});
  }
  CcCapRun run;
  sim::Simulator& sim = chip.simulator();
  cc.run_ops(chain, [&] { run.cc_done = sim.now(); });
  for (auto* mc : chip.clusters(ClusterKind::kMemoryCentric)) {
    mc->run_ops({{1, 8192, 16384, Phase::kDecode, false, 0, false}},
                [&] { run.mc_done = sim.now(); });
  }
  sim.run();
  return run;
}

TEST(FastReplay, UnthrottledNeighbourAddsNoGridSlip) {
  // The capped chain defers at interval boundaries while its average
  // demand stays under the cap; the unthrottled decode streams take the
  // rest of the channel. Only budgeted traffic oversubscribes the
  // allowance grid, so the fast tier charges the chain no grid slip for
  // the decode streams' elastic rate (counting it drifts +1.8 %).
  const CcCapRun detailed = run_cc_cap_beside_decode(ReplayMode::kDetailed);
  const CcCapRun fast = run_cc_cap_beside_decode(ReplayMode::kFast);
  ASSERT_GT(detailed.cc_done, 0u);
  ASSERT_GT(detailed.mc_done, detailed.cc_done);  // decode outlasts the chain
  EXPECT_LT(drift(detailed.cc_done, fast.cc_done), 0.01);
  EXPECT_LT(drift(detailed.mc_done, fast.mc_done), 0.01);
}

}  // namespace
}  // namespace edgemm::core
