#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "sim/heap_event_queue.hpp"

namespace trim::sim {
namespace {

enum class Backend : std::uint8_t { kHeap, kWheel };

// Every contract case runs against the calendar-queue wheel and the 4-ary
// heap reference: the two must be observably interchangeable. Each body is
// a generic lambda, instantiated once per queue type.
class EventQueueTest : public ::testing::TestWithParam<Backend> {
 protected:
  template <class Body>
  void on_queue(Body body) {
    if (GetParam() == Backend::kHeap) {
      HeapEventQueue q;
      body(q);
    } else {
      CalendarQueue q;
      body(q);
    }
  }
};

INSTANTIATE_TEST_SUITE_P(Backends, EventQueueTest,
                         ::testing::Values(Backend::kHeap, Backend::kWheel),
                         [](const auto& info) {
                           return std::string{info.param == Backend::kHeap
                                                  ? "heap"
                                                  : "wheel"};
                         });

TEST_P(EventQueueTest, PopsInTimeOrder) {
  on_queue([](auto& q) {
    std::vector<int> order;
    q.push(SimTime::micros(30), [&] { order.push_back(3); });
    q.push(SimTime::micros(10), [&] { order.push_back(1); });
    q.push(SimTime::micros(20), [&] { order.push_back(2); });
    while (!q.empty()) q.pop().cb();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  });
}

TEST_P(EventQueueTest, EqualTimesDispatchInInsertionOrder) {
  on_queue([](auto& q) {
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
      q.push(SimTime::micros(5), [&order, i] { order.push_back(i); });
    }
    while (!q.empty()) q.pop().cb();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
  });
}

TEST_P(EventQueueTest, CancelledEventsNeverFire) {
  on_queue([](auto& q) {
    int fired = 0;
    const auto id = q.push(SimTime::micros(1), [&] { ++fired; });
    q.push(SimTime::micros(2), [&] { ++fired; });
    q.cancel(id);
    while (!q.empty()) q.pop().cb();
    EXPECT_EQ(fired, 1);
  });
}

TEST_P(EventQueueTest, CancelHeadThenNextTimeSkipsIt) {
  on_queue([](auto& q) {
    const auto id = q.push(SimTime::micros(1), [] {});
    q.push(SimTime::micros(7), [] {});
    q.cancel(id);
    EXPECT_EQ(q.next_time(), SimTime::micros(7));
  });
}

TEST_P(EventQueueTest, SizeExcludesCancelled) {
  on_queue([](auto& q) {
    const auto a = q.push(SimTime::micros(1), [] {});
    q.push(SimTime::micros(2), [] {});
    EXPECT_EQ(q.size(), 2u);
    q.cancel(a);
    EXPECT_EQ(q.size(), 1u);
  });
}

TEST_P(EventQueueTest, CancelIsIdempotentAndInvalidIdIsIgnored) {
  on_queue([](auto& q) {
    const auto id = q.push(SimTime::micros(1), [] {});
    q.cancel(id);
    q.cancel(id);
    q.cancel(EventId{});  // invalid
    EXPECT_TRUE(q.empty());
  });
}

TEST_P(EventQueueTest, ClearDropsEverything) {
  on_queue([](auto& q) {
    q.push(SimTime::micros(1), [] {});
    q.push(SimTime::micros(2), [] {});
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
  });
}

TEST_P(EventQueueTest, ClearThenReuseStartsFresh) {
  on_queue([](auto& q) {
    q.push(SimTime::micros(9), [] {});
    q.clear();
    std::vector<int> order;
    q.push(SimTime::micros(2), [&] { order.push_back(2); });
    q.push(SimTime::micros(1), [&] { order.push_back(1); });
    while (!q.empty()) q.pop().cb();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
  });
}

TEST_P(EventQueueTest, PopReturnsTimestamp) {
  on_queue([](auto& q) {
    q.push(SimTime::micros(42), [] {});
    EXPECT_EQ(q.pop().at, SimTime::micros(42));
  });
}

// Regression: cancelling an id whose event already fired used to insert a
// tombstone that never drained, permanently skewing size() (the old
// heap_.size() - cancelled_.size() underflowed a size_t). Generation-tagged
// slots make stale cancels a no-op by construction in both queues.
TEST_P(EventQueueTest, CancelAfterFireIsNoOpAndSizeStaysExact) {
  on_queue([](auto& q) {
    const auto fired = q.push(SimTime::micros(1), [] {});
    q.push(SimTime::micros(2), [] {});
    q.pop().cb();          // `fired` has dispatched
    q.cancel(fired);       // stale: must not affect anything
    EXPECT_EQ(q.size(), 1u);
    EXPECT_FALSE(q.empty());
    q.pop();
    q.cancel(fired);       // still harmless on an empty queue
    EXPECT_EQ(q.size(), 0u);
    EXPECT_TRUE(q.empty());
  });
}

// A stale id must not cancel the new occupant of a recycled slot.
TEST_P(EventQueueTest, StaleIdDoesNotCancelRecycledSlot) {
  on_queue([](auto& q) {
    const auto old_id = q.push(SimTime::micros(1), [] {});
    q.pop();  // releases the slot; `old_id` is now stale
    int fired = 0;
    q.push(SimTime::micros(2), [&] { ++fired; });  // reuses the slot
    q.cancel(old_id);
    ASSERT_EQ(q.size(), 1u);
    q.pop().cb();
    EXPECT_EQ(fired, 1);
  });
}

TEST_P(EventQueueTest, IsPendingTracksLifecycle) {
  on_queue([](auto& q) {
    EXPECT_FALSE(q.is_pending(EventId{}));
    const auto a = q.push(SimTime::micros(1), [] {});
    const auto b = q.push(SimTime::micros(2), [] {});
    EXPECT_TRUE(q.is_pending(a));
    EXPECT_TRUE(q.is_pending(b));
    q.cancel(b);
    EXPECT_FALSE(q.is_pending(b));
    q.pop();
    EXPECT_FALSE(q.is_pending(a));
  });
}

TEST_P(EventQueueTest, CancelInteriorEntryKeepsDispatchOrder) {
  on_queue([](auto& q) {
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 64; ++i) {
      ids.push_back(q.push(SimTime::micros(i), [&order, i] { order.push_back(i); }));
    }
    for (int i = 1; i < 64; i += 3) q.cancel(ids[i]);
    EXPECT_EQ(q.size(), 64u - 21u);
    int prev = -1;
    while (!q.empty()) q.pop().cb();
    for (const int i : order) {
      EXPECT_GT(i, prev);
      EXPECT_NE(i % 3, 1);
      prev = i;
    }
  });
}

// Schedule-from-inside-a-callback at the current time must dispatch after
// everything already pending at that time but before any later time — the
// self-clocked link drain depends on this.
TEST_P(EventQueueTest, PushAtCurrentTimeFromCallbackRunsInSequence) {
  on_queue([](auto& q) {
    std::vector<int> order;
    q.push(SimTime::micros(5), [&] {
      order.push_back(0);
      q.push(SimTime::micros(5), [&] { order.push_back(2); });
    });
    q.push(SimTime::micros(5), [&] { order.push_back(1); });
    q.push(SimTime::micros(6), [&] { order.push_back(3); });
    while (!q.empty()) q.pop().cb();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  });
}

TEST_P(EventQueueTest, RandomizedCancelStressMatchesReferenceModel) {
  on_queue([](auto& q) {
    std::vector<std::pair<std::int64_t, EventId>> live;  // (time, id)
    std::uint64_t x = 987654321;
    auto rnd = [&x] {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      return x >> 33;
    };
    std::multiset<std::int64_t> expected;
    for (int round = 0; round < 20000; ++round) {
      const auto action = rnd() % 3;
      if (action != 0 || live.empty()) {
        const auto at = static_cast<std::int64_t>(rnd() % 1'000'000);
        live.emplace_back(at, q.push(SimTime::nanos(at), [] {}));
        expected.insert(at);
      } else {
        const auto pick = rnd() % live.size();
        q.cancel(live[pick].second);
        expected.erase(expected.find(live[pick].first));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      }
      ASSERT_EQ(q.size(), expected.size());
    }
    // Everything left must drain in exactly the reference order.
    for (const auto at : expected) {
      ASSERT_FALSE(q.empty());
      EXPECT_EQ(q.pop().at, SimTime::nanos(at));
    }
    EXPECT_TRUE(q.empty());
  });
}

TEST_P(EventQueueTest, ManyEventsStressOrdering) {
  on_queue([](auto& q) {
    // Pseudo-random times; dispatch must still be monotone.
    std::uint64_t x = 12345;
    for (int i = 0; i < 5000; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      q.push(SimTime::nanos(static_cast<std::int64_t>(x % 1'000'000)), [] {});
    }
    SimTime prev = SimTime::zero();
    while (!q.empty()) {
      const auto at = q.pop().at;
      EXPECT_GE(at, prev);
      prev = at;
    }
  });
}

// Times spread across many wheel levels (nanoseconds up to whole seconds)
// exercise the cascade path; the heap is level-agnostic by construction.
TEST_P(EventQueueTest, WideTimeRangeStillPopsInOrder) {
  on_queue([](auto& q) {
    std::uint64_t x = 5150;
    std::multiset<std::int64_t> expected;
    for (int i = 0; i < 2000; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      const auto at = static_cast<std::int64_t>((x >> 33) % 5'000'000'000);
      expected.insert(at);
      q.push(SimTime::nanos(at), [] {});
    }
    for (const auto at : expected) {
      ASSERT_FALSE(q.empty());
      EXPECT_EQ(q.pop().at, SimTime::nanos(at));
    }
    EXPECT_TRUE(q.empty());
  });
}

}  // namespace
}  // namespace trim::sim
