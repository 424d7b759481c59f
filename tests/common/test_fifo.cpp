#include "common/fifo.hpp"

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

namespace edgemm {
namespace {

static_assert(std::is_nothrow_move_constructible_v<Fifo<std::string>>);
static_assert(std::is_nothrow_move_assignable_v<Fifo<std::string>>);
static_assert(std::is_nothrow_default_constructible_v<Fifo<std::string>>);

std::vector<int> contents(Fifo<int>& fifo) {
  return {fifo.begin(), fifo.end()};
}

TEST(Fifo, PopsInPushOrder) {
  Fifo<int> fifo;
  EXPECT_TRUE(fifo.empty());
  for (int i = 0; i < 100; ++i) fifo.push_back(i);
  EXPECT_EQ(fifo.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(fifo.take_front(), i);
  }
  EXPECT_TRUE(fifo.empty());
}

TEST(Fifo, InterleavedPushAndPopKeepOrderAcrossCompaction) {
  // A queue that never drains exercises the in-place compaction.
  Fifo<int> fifo;
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 500; ++round) {
    for (int i = 0; i < 3; ++i) fifo.push_back(next_in++);
    for (int i = 0; i < 2; ++i) EXPECT_EQ(fifo.take_front(), next_out++);
    EXPECT_EQ(fifo.size(), static_cast<std::size_t>(next_in - next_out));
  }
  while (!fifo.empty()) EXPECT_EQ(fifo.take_front(), next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(Fifo, ReusableAfterDrainingToEmpty) {
  Fifo<std::unique_ptr<int>> fifo;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 5; ++i) fifo.push_back(std::make_unique<int>(10 * round + i));
    for (int i = 0; i < 5; ++i) EXPECT_EQ(*fifo.take_front(), 10 * round + i);
    EXPECT_TRUE(fifo.empty());
    EXPECT_EQ(fifo.size(), 0u);
    EXPECT_EQ(fifo.begin(), fifo.end());
  }
}

TEST(Fifo, TakeFromTheMiddleKeepsTheRestInOrder) {
  Fifo<int> fifo;
  for (int i = 0; i < 6; ++i) fifo.push_back(i);
  EXPECT_EQ(fifo.take_front(), 0);
  EXPECT_EQ(fifo.take(fifo.begin() + 2), 3);
  EXPECT_EQ(contents(fifo), (std::vector<int>{1, 2, 4, 5}));
  EXPECT_EQ(fifo.take(fifo.end() - 1), 5);
  EXPECT_EQ(fifo.take(fifo.begin()), 1);
  EXPECT_EQ(contents(fifo), (std::vector<int>{2, 4}));
  fifo.push_back(6);
  EXPECT_EQ(contents(fifo), (std::vector<int>{2, 4, 6}));
  EXPECT_EQ(fifo.take(fifo.begin() + 1), 4);
  EXPECT_EQ(fifo.take(fifo.begin() + 1), 6);
  EXPECT_EQ(fifo.take(fifo.begin()), 2);
  EXPECT_TRUE(fifo.empty());
}

TEST(Fifo, SwapExchangesContents) {
  Fifo<int> a;
  Fifo<int> b;
  for (int i = 0; i < 4; ++i) a.push_back(i);
  EXPECT_EQ(a.take_front(), 0);
  b.push_back(9);
  a.swap(b);
  EXPECT_EQ(contents(a), (std::vector<int>{9}));
  EXPECT_EQ(contents(b), (std::vector<int>{1, 2, 3}));
  // Drain-through-swap, the DMA engine's wake-up pattern.
  Fifo<int> draining;
  draining.swap(b);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(contents(draining), (std::vector<int>{1, 2, 3}));
  draining.clear();
  EXPECT_TRUE(draining.empty());
}

TEST(Fifo, MoveLeavesSourceEmpty) {
  Fifo<int> a;
  for (int i = 0; i < 3; ++i) a.push_back(i);
  EXPECT_EQ(a.take_front(), 0);
  Fifo<int> b(std::move(a));
  EXPECT_TRUE(a.empty());  // a moved-from Fifo is empty and reusable
  EXPECT_EQ(contents(b), (std::vector<int>{1, 2}));
  a.push_back(7);
  EXPECT_EQ(contents(a), (std::vector<int>{7}));
  a = std::move(b);
  EXPECT_EQ(contents(a), (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace edgemm
