#include "sim/action.hpp"

#include <array>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace edgemm::sim {
namespace {

static_assert(!std::is_copy_constructible_v<Action>);
static_assert(!std::is_copy_assignable_v<Action>);
static_assert(std::is_nothrow_move_constructible_v<Action>);
static_assert(std::is_nothrow_move_assignable_v<Action>);

/// A callable of `Words` pointer-sized words: a payload of Words - 1
/// words plus the pointer it counts hits through.
template <std::size_t Words>
struct Payload {
  std::array<void*, Words - 1> payload{};
  int* hits = nullptr;

  void operator()() const { ++*hits; }
};

TEST(Action, EmptyStatesAreFalse) {
  EXPECT_FALSE(Action{});
  EXPECT_FALSE(Action{nullptr});
  EXPECT_FALSE(Action{std::function<void()>{}});
  void (*null_fn)() = nullptr;
  EXPECT_FALSE(Action{null_fn});

  Action a = [] {};
  EXPECT_TRUE(a);
  a = nullptr;
  EXPECT_FALSE(a);
}

TEST(Action, MovesTransferTheTargetAndEmptyTheSource) {
  int hits = 0;
  Action a = [&hits] { ++hits; };
  Action b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): the moved-from state is the contract
  ASSERT_TRUE(b);
  b();
  Action c;
  c = std::move(b);
  EXPECT_FALSE(b);  // NOLINT(bugprone-use-after-move)
  c();
  c();  // an action may run more than once
  EXPECT_EQ(hits, 3);
}

TEST(Action, HoldsAMoveOnlyCapture) {
  auto owned = std::make_unique<int>(41);
  int seen = 0;
  Action a = [p = std::move(owned), &seen] { seen = ++*p; };
  Action b = std::move(a);
  b();
  EXPECT_EQ(seen, 42);
}

TEST(Action, DestroysItsCaptureExactlyOnce) {
  auto token = std::make_shared<int>(0);
  {
    Action a = [token] {};
    EXPECT_EQ(token.use_count(), 2);
    Action b = std::move(a);
    EXPECT_EQ(token.use_count(), 2);
    b = nullptr;
    EXPECT_EQ(token.use_count(), 1);
    Action c = [token] {};
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Action, ACaptureOfExactlyTheInlineSizeStaysInline) {
  constexpr std::size_t kWords = Action::kInlineBytes / sizeof(void*);
  using Exact = Payload<kWords>;
  using Over = Payload<kWords + 1>;
  static_assert(sizeof(Exact) == Action::kInlineBytes);
  static_assert(Action::fits_inline<Exact>);
  static_assert(!Action::fits_inline<Over>);
  static_assert(Action::fits_inline<std::function<void()>>);

  int hits = 0;
  Exact exact;
  exact.hits = &hits;
  Action inline_action = exact;
  Over over;
  over.hits = &hits;
  Action heap_action = over;  // falls back to one heap block
  Action moved_inline = std::move(inline_action);
  Action moved_heap = std::move(heap_action);
  moved_inline();
  moved_heap();
  EXPECT_EQ(hits, 2);
}

TEST(Action, EqualCycleEventsFireInInsertionOrderAcrossCallableKinds) {
  // std::function-wrapped and plain-lambda events interleaved at one
  // cycle, with a second batch pushed while the first drains.
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 12; ++i) {
    if (i % 3 == 0) {
      sim.schedule(5, std::function<void()>([&order, i] { order.push_back(i); }));
    } else if (i % 3 == 1) {
      sim.schedule(5, [&order, i] { order.push_back(i); });
    } else {
      sim.schedule_at(5, Action([&order, i] { order.push_back(i); }));
    }
  }
  sim.schedule(5, nullptr);  // an empty event keeps its slot and is skipped
  sim.schedule(5, [&] {
    for (int i = 100; i < 104; ++i) {
      if (i % 2 == 0) {
        sim.schedule(0, std::function<void()>([&order, i] { order.push_back(i); }));
      } else {
        sim.schedule(0, [&order, i] { order.push_back(i); });
      }
    }
  });
  sim.run();
  const std::vector<int> expected = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                     100, 101, 102, 103};
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sim.events_executed(), 18u);
  EXPECT_EQ(sim.now(), 5u);
}

TEST(Action, EventQueueRunsCopyableFunctorsByValue) {
  // A copyable functor with mutable state: each event owns its copy.
  struct Counter {
    std::vector<int>* out;
    int next;
    void operator()() { out->push_back(next++); }
  };
  EventQueue q;
  std::vector<int> out;
  Counter counter{&out, 7};
  q.push(1, counter);
  q.push(1, counter);
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(out, (std::vector<int>{7, 7}));
  EXPECT_EQ(counter.next, 7);
}

}  // namespace
}  // namespace edgemm::sim
