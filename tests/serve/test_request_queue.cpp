#include "serve/request_queue.hpp"

#include <stdexcept>

#include <gtest/gtest.h>

namespace edgemm::serve {
namespace {

Request req(RequestId id, Cycle arrival) {
  Request r;
  r.id = id;
  r.arrival = arrival;
  return r;
}

TEST(RequestQueue, PopsInArrivalOrderRegardlessOfPushOrder) {
  RequestQueue q;
  q.push(req(2, 300));
  q.push(req(0, 100));
  q.push(req(1, 200));
  ASSERT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop().id, 0u);
  EXPECT_EQ(q.pop().id, 1u);
  EXPECT_EQ(q.pop().id, 2u);
  EXPECT_TRUE(q.empty());
}

TEST(RequestQueue, BreaksArrivalTiesById) {
  RequestQueue q;
  q.push(req(7, 50));
  q.push(req(3, 50));
  q.push(req(5, 50));
  EXPECT_EQ(q.pop().id, 3u);
  EXPECT_EQ(q.pop().id, 5u);
  EXPECT_EQ(q.pop().id, 7u);
}

TEST(RequestQueue, ReadyRespectsArrivalCycle) {
  RequestQueue q;
  q.push(req(0, 1000));
  EXPECT_FALSE(q.ready(999));
  EXPECT_FALSE(q.pop_ready(999).has_value());
  EXPECT_TRUE(q.ready(1000));
  const auto popped = q.pop_ready(1000);
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(popped->id, 0u);
  EXPECT_FALSE(q.pop_ready(1'000'000).has_value());  // now empty
}

TEST(RequestQueue, FrontAndPopThrowOnEmpty) {
  RequestQueue q;
  EXPECT_THROW(q.front(), std::out_of_range);
  EXPECT_THROW(q.pop(), std::out_of_range);
}

Request deadline_req(RequestId id, Cycle arrival, Cycle deadline) {
  Request r = req(id, arrival);
  r.deadline = deadline;
  return r;
}

TEST(RequestQueue, DefaultOrderIgnoresDeadlines) {
  // Pop order is arrival order, deadlines or not: an urgent request
  // never overtakes one that arrived before it.
  RequestQueue q;
  q.push(deadline_req(0, 100, 9000));
  q.push(deadline_req(1, 200, 500));  // urgent but later-arriving
  ASSERT_TRUE(q.ready(200));
  EXPECT_EQ(q.pop().id, 0u);
  EXPECT_EQ(q.pop().id, 1u);
}

}  // namespace
}  // namespace edgemm::serve
