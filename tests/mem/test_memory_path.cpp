#include "mem/memory_path.hpp"

#include <array>
#include <span>
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

TEST(MemoryPath, AddHopRejectsAnUnknownPortAtEveryHopIndex) {
  // A bad port must surface when the route is built, not from inside a
  // burst event after earlier hops counted the bytes.
  for (std::size_t bad = 0; bad < MemoryPath::kMaxHops; ++bad) {
    SCOPED_TRACE(bad);
    sim::Simulator sim;
    std::vector<ResourceServer> hops;
    hops.reserve(MemoryPath::kMaxHops);
    for (std::size_t i = 0; i < MemoryPath::kMaxHops; ++i) hops.emplace_back(sim, 16.0, 1);
    MemoryPath path;
    for (std::size_t i = 0; i < bad; ++i) path.add_hop(hops[i], hops[i].add_port());
    ResourceServer& server = hops[bad];
    EXPECT_THROW(path.add_hop(server, 0), std::out_of_range);  // no port yet
    const int port = server.add_port();
    EXPECT_THROW(path.add_hop(server, port + 1), std::out_of_range);
    EXPECT_THROW(path.add_hop(server, -1), std::out_of_range);
    EXPECT_EQ(path.hop_count(), bad);
    EXPECT_EQ(path.total_latency(), bad);

    // The same route as a hop span throws too, and so does a DMA built on it.
    std::vector<MemoryPath::Hop> route;
    for (std::size_t i = 0; i < MemoryPath::kMaxHops; ++i) {
      const int hop_port = i < bad ? 0 : (i == bad ? port + 1 : hops[i].add_port());
      route.push_back({&hops[i], hop_port});
    }
    EXPECT_THROW(MemoryPath{route}, std::out_of_range);
    EXPECT_THROW(DmaEngine(sim, route, DmaConfig{}), std::out_of_range);

    // With the valid port the hop joins and a burst crosses every hop.
    path.add_hop(server, port);
    EXPECT_EQ(path.hop_count(), bad + 1);
    Cycle done_at = 0;
    path.request(16, [&] { done_at = sim.now(); });
    sim.run();
    EXPECT_EQ(done_at, 2 * (bad + 1));
    for (std::size_t i = 0; i <= bad; ++i) EXPECT_EQ(hops[i].bytes_served(), 16u);
  }
}

TEST(MemoryPath, DmaRejectsAnEmptyOrOverlongRoute) {
  sim::Simulator sim;
  std::vector<ResourceServer> hops;
  hops.reserve(MemoryPath::kMaxHops + 1);
  std::vector<MemoryPath::Hop> route;
  for (std::size_t i = 0; i <= MemoryPath::kMaxHops; ++i) {
    hops.emplace_back(sim, 16.0, 1);
    route.push_back({&hops.back(), hops.back().add_port()});
  }
  EXPECT_THROW(DmaEngine(sim, std::span<const MemoryPath::Hop>{}, DmaConfig{}),
               std::invalid_argument);
  EXPECT_THROW(DmaEngine(sim, route, DmaConfig{}), std::length_error);
  // kMaxHops hops is a full route, not an overlong one.
  DmaEngine dma(sim, std::span(route).first(MemoryPath::kMaxHops), DmaConfig{});
  bool finished = false;
  dma.transfer(16, [&] { finished = true; });
  sim.run();
  EXPECT_TRUE(finished);
  for (std::size_t i = 0; i < MemoryPath::kMaxHops; ++i) EXPECT_EQ(hops[i].bytes_served(), 16u);
  EXPECT_EQ(hops[MemoryPath::kMaxHops].bytes_served(), 0u);
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
  const std::array<MemoryPath::Hop, 2> route{
      {{&xbar, xbar.add_port()}, {&dram.channel(), dram.add_port()}}};
  DmaEngine dma(sim, route, DmaConfig{1024, 10000});
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
  const std::array<MemoryPath::Hop, 2> route{
      {{&xbar, xbar.add_port()}, {&dram.channel(), dram.add_port()}}};
  DmaEngine dma(sim, route, DmaConfig{1024, 1000});
  dma.set_budget(1024);
  Cycle done_at = 0;
  dma.transfer(8 * 1024, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_GT(done_at, 2500u);  // interval-gated, not bandwidth-gated
  EXPECT_GT(dma.throttle_stall_cycles(), 0u);
}

}  // namespace
}  // namespace edgemm::mem
