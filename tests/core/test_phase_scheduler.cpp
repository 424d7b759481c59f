#include "core/phase_scheduler.hpp"

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace edgemm::core {
namespace {

ChipConfig small_cfg() {
  ChipConfig cfg = default_chip_config();
  cfg.groups = 1;
  return cfg;
}

std::vector<GemmWork> cc_job() {
  return {{64, 256, 256, Phase::kPrefill, false, 0, false}};
}

std::vector<GemmWork> mc_job() {
  return {{1, 256, 512, Phase::kDecode, false, 0, false}};
}

TEST(PhaseScheduler, MapsLanesToHeterogeneousClusterSets) {
  ChipTimingModel chip(small_cfg(), ChipComposition::kHeterogeneous);
  PhaseScheduler sched(chip);
  for (const auto* cluster : sched.lane_clusters(Lane::kCcStage)) {
    EXPECT_EQ(cluster->kind(), ClusterKind::kComputeCentric);
  }
  for (const auto* cluster : sched.lane_clusters(Lane::kMcDecode)) {
    EXPECT_EQ(cluster->kind(), ClusterKind::kMemoryCentric);
  }
  EXPECT_TRUE(sched.idle(Lane::kCcStage));
  EXPECT_TRUE(sched.idle(Lane::kMcDecode));
}

TEST(PhaseScheduler, RunsLaneJobsFifoBackToBack) {
  ChipTimingModel chip(small_cfg(), ChipComposition::kHeterogeneous);
  PhaseScheduler sched(chip);
  std::vector<int> order;
  Cycle first_end = 0, second_start = 0;

  sched.submit(Lane::kCcStage, cc_job(), [&] {
    order.push_back(1);
    first_end = sched.sim().now();
  });
  sched.submit(
      Lane::kCcStage, cc_job(), [&] { order.push_back(2); },
      [&] { second_start = sched.sim().now(); });
  EXPECT_EQ(sched.queued(Lane::kCcStage), 1u);  // second waits behind first

  chip.simulator().run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(second_start, first_end);  // FIFO dispatch, no idle gap
  EXPECT_TRUE(sched.idle(Lane::kCcStage));
  EXPECT_EQ(sched.dispatched(Lane::kCcStage), 2u);
}

TEST(PhaseScheduler, LanesOverlapAcrossClusterSets) {
  ChipTimingModel chip(small_cfg(), ChipComposition::kHeterogeneous);
  PhaseScheduler sched(chip);
  Cycle cc_end = 0, mc_end = 0;
  sched.submit(Lane::kCcStage, cc_job(), [&] { cc_end = sched.sim().now(); });
  sched.submit(Lane::kMcDecode, mc_job(), [&] { mc_end = sched.sim().now(); });
  chip.simulator().run();
  EXPECT_GT(cc_end, 0u);
  EXPECT_GT(mc_end, 0u);
  // The small decode job retires long before the prefill GEMM: the MC
  // lane did not wait for the CC lane.
  EXPECT_LT(mc_end, cc_end);
}

TEST(PhaseScheduler, CallbackMaySubmitFollowUpWork) {
  ChipTimingModel chip(small_cfg(), ChipComposition::kHeterogeneous);
  PhaseScheduler sched(chip);
  int tokens = 0;
  std::function<void()> decode_next = [&] {
    if (++tokens < 4) {
      sched.submit(Lane::kMcDecode, mc_job(), decode_next);
    }
  };
  sched.submit(Lane::kMcDecode, mc_job(), decode_next);
  chip.simulator().run();
  EXPECT_EQ(tokens, 4);
  EXPECT_EQ(sched.dispatched(Lane::kMcDecode), 4u);
}

TEST(PhaseScheduler, TracksPerLaneQueueWaitStats) {
  ChipTimingModel chip(small_cfg(), ChipComposition::kHeterogeneous);
  PhaseScheduler sched(chip);
  Cycle first_end = 0;
  sched.submit(Lane::kCcStage, cc_job(),
               [&] { first_end = sched.sim().now(); });
  sched.submit(Lane::kCcStage, cc_job(), [] {});
  sched.submit(Lane::kCcStage, cc_job(), [] {});
  chip.simulator().run();

  const auto& stats = sched.lane_stats(Lane::kCcStage);
  EXPECT_EQ(stats.dispatched, 3u);
  // Job 2 waited one job, job 3 waited two: max wait = two job durations.
  EXPECT_EQ(stats.max_queue_wait, 2 * first_end);
  // The other lane is untouched.
  EXPECT_EQ(sched.lane_stats(Lane::kMcDecode).dispatched, 0u);
  EXPECT_EQ(sched.lane_stats(Lane::kMcDecode).max_queue_wait, 0u);
}

TEST(PhaseScheduler, ChainedMultiJobPrefillInterleavesWithOtherSubmitters) {
  // Request A splits its prefill into three chained chunks (each chunk's
  // done callback submits the next); request B submits one job while A's
  // first chunk runs. FIFO order gives B the lane after A1 — the
  // head-of-line-blocking bound chunked prefill relies on.
  ChipTimingModel chip(small_cfg(), ChipComposition::kHeterogeneous);
  PhaseScheduler sched(chip);
  std::vector<std::string> order;
  std::function<void(int)> submit_chunk = [&](int chunk) {
    sched.submit(Lane::kCcStage, cc_job(), [&, chunk] {
      order.push_back("A" + std::to_string(chunk));
      if (chunk < 3) submit_chunk(chunk + 1);
    });
  };
  submit_chunk(1);
  sched.submit(Lane::kCcStage, cc_job(), [&] { order.push_back("B"); });
  chip.simulator().run();
  EXPECT_EQ(order, (std::vector<std::string>{"A1", "B", "A2", "A3"}));
  EXPECT_EQ(sched.dispatched(Lane::kCcStage), 4u);
}

TEST(PhaseScheduler, AffinityChainingPrefersTheSameAffinityJob) {
  // A's chunks carry affinity 1 and are re-submitted as each retires;
  // B's single job (affinity 2) is queued first. With chaining enabled
  // the lane keeps picking A's next chunk over the earlier-queued B —
  // the pinned-weights fast path — and B runs when A's chain is done.
  ChipTimingModel chip(small_cfg(), ChipComposition::kHeterogeneous);
  PhaseScheduler sched(chip);
  sched.set_affinity_chaining(Lane::kCcStage, true);
  std::vector<std::string> order;
  std::function<void(int)> submit_chunk = [&](int chunk) {
    sched.submit(
        Lane::kCcStage, cc_job(),
        [&, chunk] {
          order.push_back("A" + std::to_string(chunk));
          if (chunk < 3) submit_chunk(chunk + 1);
        },
        {}, /*affinity=*/1);
  };
  submit_chunk(1);
  sched.submit(
      Lane::kCcStage, cc_job(), [&] { order.push_back("B"); }, {},
      /*affinity=*/2);
  chip.simulator().run();
  EXPECT_EQ(order, (std::vector<std::string>{"A1", "A2", "A3", "B"}));
  // A2 and A3 each jumped the queued B.
  EXPECT_EQ(sched.lane_stats(Lane::kCcStage).affinity_chained, 2u);
}

TEST(PhaseScheduler, AffinityIsInertWithoutChaining) {
  // Same submission pattern, chaining off (the default): strict FIFO —
  // B slips between A's chunks exactly as in the chunked-prefill test.
  ChipTimingModel chip(small_cfg(), ChipComposition::kHeterogeneous);
  PhaseScheduler sched(chip);
  std::vector<std::string> order;
  std::function<void(int)> submit_chunk = [&](int chunk) {
    sched.submit(
        Lane::kCcStage, cc_job(),
        [&, chunk] {
          order.push_back("A" + std::to_string(chunk));
          if (chunk < 3) submit_chunk(chunk + 1);
        },
        {}, /*affinity=*/1);
  };
  submit_chunk(1);
  sched.submit(
      Lane::kCcStage, cc_job(), [&] { order.push_back("B"); }, {},
      /*affinity=*/2);
  chip.simulator().run();
  EXPECT_EQ(order, (std::vector<std::string>{"A1", "B", "A2", "A3"}));
  EXPECT_EQ(sched.lane_stats(Lane::kCcStage).affinity_chained, 0u);
}

TEST(PhaseScheduler, RejectsEmptyJobs) {
  ChipTimingModel chip(small_cfg(), ChipComposition::kHeterogeneous);
  PhaseScheduler sched(chip);
  EXPECT_THROW(sched.submit(Lane::kCcStage, {}, [] {}), std::invalid_argument);
  EXPECT_THROW(sched.submit(Lane::kMcDecode, {}, [] {}), std::invalid_argument);
}

}  // namespace
}  // namespace edgemm::core
