#include "mem/resource_server.hpp"

#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace edgemm::mem {
namespace {

TEST(ResourceServer, RejectsNonPositiveBandwidth) {
  sim::Simulator sim;
  EXPECT_THROW(ResourceServer(sim, 0.0, 10), std::invalid_argument);
  EXPECT_THROW(ResourceServer(sim, -1.0, 10), std::invalid_argument);
}

TEST(ResourceServer, SingleTransferLatencyIsOccupancyPlusLatency) {
  sim::Simulator sim;
  ResourceServer server(sim, 16.0, 100);
  const int port = server.add_port();
  Cycle done_at = 0;
  server.request(port, 1600, [&] { done_at = sim.now(); });
  sim.run();
  // 1600 / 16 = 100 occupancy + 100 latency.
  EXPECT_EQ(done_at, 200u);
}

TEST(ResourceServer, UnknownPortThrows) {
  sim::Simulator sim;
  ResourceServer server(sim, 1.0, 0);
  EXPECT_THROW(server.request(0, 1, nullptr), std::out_of_range);
  server.add_port();
  EXPECT_THROW(server.request(1, 1, nullptr), std::out_of_range);
  EXPECT_THROW(server.bytes_served(3), std::out_of_range);
}

TEST(ResourceServer, BackToBackTransfersSerialize) {
  sim::Simulator sim;
  ResourceServer server(sim, 10.0, 5);
  const int port = server.add_port();
  std::vector<Cycle> done;
  server.request(port, 100, [&] { done.push_back(sim.now()); });  // 10 cycles
  server.request(port, 100, [&] { done.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], 15u);  // 10 occupancy + 5 latency
  EXPECT_EQ(done[1], 25u);  // starts at 10, ends 20, +5 latency
}

TEST(ResourceServer, RoundRobinAlternatesPorts) {
  sim::Simulator sim;
  ResourceServer server(sim, 1.0, 0);
  const int p0 = server.add_port();
  const int p1 = server.add_port();
  std::vector<int> order;
  // Queue 2 requests on each port before anything runs; RR must
  // interleave p0, p1, p0, p1.
  for (int i = 0; i < 2; ++i) {
    server.request(p0, 10, [&] { order.push_back(0); });
    server.request(p1, 10, [&] { order.push_back(1); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 1}));
}

TEST(ResourceServer, RoundRobinSurvivesPortTableRegrowth) {
  // Ports added while earlier ports hold queued requests: the port table
  // regrows (and moves its queues) several times between requests.
  sim::Simulator sim;
  ResourceServer server(sim, 1.0, 0);
  constexpr int kEarly = 4;
  constexpr int kPorts = 18;
  std::vector<int> order;
  auto enqueue_twice = [&](int port) {
    for (int i = 0; i < 2; ++i) {
      server.request(port, static_cast<Bytes>(10 + port),
                     [&order, port] { order.push_back(port); });
    }
  };
  for (int p = 0; p < kEarly; ++p) enqueue_twice(server.add_port());
  for (int p = kEarly; p < kPorts; ++p) enqueue_twice(server.add_port());
  EXPECT_EQ(server.queued_requests(), 2u * kPorts - 1);  // p0's first is in flight
  sim.run();

  // p0's first request took the idle channel while p0 was the only
  // port, so the arbiter's next scan starts at p0 again; from there it
  // serves every port round-robin, twice over.
  std::vector<int> expected{0};
  for (int p = 0; p < kPorts; ++p) expected.push_back(p);
  for (int p = 1; p < kPorts; ++p) expected.push_back(p);
  EXPECT_EQ(order, expected);
  for (int p = 0; p < kPorts; ++p) {
    EXPECT_EQ(server.bytes_served(p), 2u * static_cast<Bytes>(10 + p)) << p;
  }
}

TEST(ResourceServer, FairBandwidthSplitUnderContention) {
  sim::Simulator sim;
  ResourceServer server(sim, 8.0, 10);
  const int p0 = server.add_port();
  const int p1 = server.add_port();
  // Equal demand from both ports in equal chunks.
  for (int i = 0; i < 50; ++i) {
    server.request(p0, 1024, nullptr);
    server.request(p1, 1024, nullptr);
  }
  sim.run();
  EXPECT_EQ(server.bytes_served(p0), server.bytes_served(p1));
  EXPECT_EQ(server.bytes_served(), 100u * 1024u);
}

TEST(ResourceServer, BusyCyclesMatchTraffic) {
  sim::Simulator sim;
  ResourceServer server(sim, 4.0, 7);
  const int port = server.add_port();
  server.request(port, 400, nullptr);  // 100 busy cycles
  server.request(port, 40, nullptr);   // 10 busy cycles
  sim.run();
  EXPECT_EQ(server.busy_cycles(), 110u);
}

TEST(ResourceServer, UtilizationBounded) {
  sim::Simulator sim;
  ResourceServer server(sim, 2.0, 50);
  const int port = server.add_port();
  server.request(port, 100, nullptr);
  sim.run();
  EXPECT_GT(server.utilization(), 0.0);
  EXPECT_LE(server.utilization(), 1.0);
}

TEST(ResourceServer, ZeroByteRequestStillCompletes) {
  sim::Simulator sim;
  ResourceServer server(sim, 8.0, 3);
  const int port = server.add_port();
  bool done = false;
  server.request(port, 0, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
}

TEST(ResourceServer, QueuedRequestsReported) {
  sim::Simulator sim;
  ResourceServer server(sim, 1.0, 0);
  const int port = server.add_port();
  server.request(port, 100, nullptr);  // dispatches immediately
  server.request(port, 100, nullptr);  // queued
  server.request(port, 100, nullptr);  // queued
  EXPECT_EQ(server.queued_requests(), 2u);
  sim.run();
  EXPECT_EQ(server.queued_requests(), 0u);
}

}  // namespace
}  // namespace edgemm::mem
