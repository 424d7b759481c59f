#include "mem/memory_path.hpp"

#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "mem/dma.hpp"
#include "mem/dram.hpp"
#include "sim/simulator.hpp"

namespace edgemm::mem {
namespace {

TEST(MemoryPath, EmptyPathThrows) {
  MemoryPath path;
  EXPECT_THROW(path.request(64, nullptr), std::logic_error);
}

TEST(MemoryPath, SingleHopBehavesLikeDirectRequest) {
  sim::Simulator sim;
  ResourceServer dram(sim, 16.0, 10);
  MemoryPath path;
  path.add_hop(dram, dram.add_port());
  Cycle done_at = 0;
  path.request(160, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_EQ(done_at, 20u);  // 10 occupancy + 10 latency
  EXPECT_EQ(path.total_latency(), 10u);
}

TEST(MemoryPath, HopsTraverseInOrderWithSummedLatency) {
  sim::Simulator sim;
  ResourceServer xbar(sim, 64.0, 4);
  ResourceServer dram(sim, 16.0, 10);
  MemoryPath path;
  path.add_hop(xbar, xbar.add_port());
  path.add_hop(dram, dram.add_port());
  Cycle done_at = 0;
  path.request(160, [&] { done_at = sim.now(); });
  sim.run();
  // xbar: ceil(160/64)=3 occupancy + 4 latency = arrives at DRAM at 7;
  // dram: 10 occupancy + 10 latency => 27.
  EXPECT_EQ(done_at, 27u);
  EXPECT_EQ(path.total_latency(), 14u);
  EXPECT_EQ(xbar.bytes_served(), 160u);
  EXPECT_EQ(dram.bytes_served(), 160u);
}

TEST(MemoryPath, AddHopPastCapacityThrowsAndKeepsThePath) {
  sim::Simulator sim;
  std::vector<ResourceServer> hops;
  hops.reserve(MemoryPath::kMaxHops + 1);
  for (std::size_t i = 0; i <= MemoryPath::kMaxHops; ++i) hops.emplace_back(sim, 16.0, 1);
  MemoryPath path;
  for (std::size_t i = 0; i < MemoryPath::kMaxHops; ++i) {
    path.add_hop(hops[i], hops[i].add_port());
  }
  ResourceServer& extra = hops[MemoryPath::kMaxHops];
  EXPECT_THROW(path.add_hop(extra, extra.add_port()), std::length_error);
  EXPECT_THROW(path.add_hop(extra, 0), std::length_error);
  EXPECT_EQ(path.hop_count(), MemoryPath::kMaxHops);
  EXPECT_EQ(path.total_latency(), MemoryPath::kMaxHops);

  // The full path still routes through exactly its own hops: 16 bytes is
  // one cycle of occupancy plus one of latency per hop.
  Cycle done_at = 0;
  path.request(16, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_EQ(done_at, 2 * MemoryPath::kMaxHops);
  for (std::size_t i = 0; i < MemoryPath::kMaxHops; ++i) EXPECT_EQ(hops[i].bytes_served(), 16u);
  EXPECT_EQ(extra.bytes_served(), 0u);
}

TEST(MemoryPath, MultiHopBurstsCompleteInRequestOrder) {
  // Completions of a multi-hop path wait for the last hop in request
  // order; each burst must get its own.
  sim::Simulator sim;
  ResourceServer xbar(sim, 64.0, 4);
  ResourceServer dram(sim, 16.0, 10);
  MemoryPath path;
  path.add_hop(xbar, xbar.add_port());
  path.add_hop(dram, dram.add_port());
  std::vector<std::pair<int, Cycle>> done;
  for (int i = 0; i < 4; ++i) {
    path.request(160 * static_cast<Bytes>(i + 1), [&done, &sim, i] { done.emplace_back(i, sim.now()); });
  }
  sim.run();
  ASSERT_EQ(done.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(done[static_cast<std::size_t>(i)].first, i);
  for (std::size_t i = 1; i < done.size(); ++i) EXPECT_GT(done[i].second, done[i - 1].second);
}

TEST(MemoryPath, BottleneckIsTightestHop) {
  sim::Simulator sim;
  ResourceServer fast(sim, 128.0, 1);
  ResourceServer slow(sim, 8.0, 1);
  MemoryPath path;
  path.add_hop(fast, fast.add_port());
  path.add_hop(slow, slow.add_port());
  EXPECT_DOUBLE_EQ(path.bottleneck_bytes_per_cycle(), 8.0);
}

TEST(MemoryPath, GroupCrossbarContentionSerializesSiblings) {
  // Two clusters in one group share the group link; a third cluster in
  // another group bypasses that contention.
  sim::Simulator sim;
  ResourceServer group0(sim, 16.0, 2);   // tight group link
  ResourceServer group1(sim, 16.0, 2);
  ResourceServer dram(sim, 64.0, 5);   // ample channel

  auto make_path = [&](ResourceServer& group) {
    MemoryPath p;
    p.add_hop(group, group.add_port());
    p.add_hop(dram, dram.add_port());
    return p;
  };
  MemoryPath a = make_path(group0);
  MemoryPath b = make_path(group0);
  MemoryPath c = make_path(group1);

  std::vector<Cycle> done(3, 0);
  a.request(1600, [&] { done[0] = sim.now(); });
  b.request(1600, [&] { done[1] = sim.now(); });
  c.request(1600, [&] { done[2] = sim.now(); });
  sim.run();
  // c contends with nobody on its group link; a and b serialize on g0.
  EXPECT_LT(done[2], done[1]);
  EXPECT_GT(std::max(done[0], done[1]),
            done[2] + 50);  // sibling contention is material
}

TEST(MemoryPath, DmaOverHierarchicalPathCompletes) {
  sim::Simulator sim;
  ResourceServer xbar(sim, 128.0, 4);
  DramController dram(sim, DramConfig{32.0, 20});
  MemoryPath path;
  path.add_hop(xbar, xbar.add_port());
  path.add_hop(dram.channel(), dram.add_port());
  DmaEngine dma(sim, std::move(path), DmaConfig{1024, 10000});
  bool finished = false;
  dma.transfer(64 * 1024, [&] { finished = true; });
  sim.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(dram.bytes_served(), 64u * 1024u);
  EXPECT_EQ(xbar.bytes_served(), 64u * 1024u);
}

TEST(MemoryPath, ThrottleStillGovernsHierarchicalDma) {
  sim::Simulator sim;
  ResourceServer xbar(sim, 128.0, 4);
  DramController dram(sim, DramConfig{32.0, 20});
  MemoryPath path;
  path.add_hop(xbar, xbar.add_port());
  path.add_hop(dram.channel(), dram.add_port());
  DmaEngine dma(sim, std::move(path), DmaConfig{1024, 1000});
  dma.set_budget(1024);
  Cycle done_at = 0;
  dma.transfer(8 * 1024, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_GT(done_at, 2500u);  // interval-gated, not bandwidth-gated
  EXPECT_GT(dma.throttle_stall_cycles(), 0u);
}

}  // namespace
}  // namespace edgemm::mem
