#include <sim/event_queue.hpp>

#include <array>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace movr::sim {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimePoint{30}, [&] { order.push_back(3); });
  q.schedule(TimePoint{10}, [&] { order.push_back(1); });
  q.schedule(TimePoint{20}, [&] { order.push_back(2); });
  while (!q.empty()) {
    q.run_next();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimePoint{5}, [&] { order.push_back(1); });
  q.schedule(TimePoint{5}, [&] { order.push_back(2); });
  q.schedule(TimePoint{5}, [&] { order.push_back(3); });
  while (!q.empty()) {
    q.run_next();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, RunNextReturnsTimestamp) {
  EventQueue q;
  q.schedule(TimePoint{42}, [] {});
  EXPECT_EQ(q.next_time(), TimePoint{42});
  EXPECT_EQ(q.run_next(), TimePoint{42});
}

TEST(EventQueue, HandlerMayScheduleMore) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimePoint{1}, [&] {
    order.push_back(1);
    q.schedule(TimePoint{2}, [&] { order.push_back(2); });
  });
  while (!q.empty()) {
    q.run_next();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const auto id = q.schedule(TimePoint{1}, [&] { fired = true; });
  q.schedule(TimePoint{2}, [] {});
  q.cancel(id);
  EXPECT_EQ(q.pending(), 1u);
  while (!q.empty()) {
    q.run_next();
  }
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelUnknownIdIsNoop) {
  EventQueue q;
  int runs = 0;
  const auto issued = q.schedule(TimePoint{1}, [&] { ++runs; });
  q.cancel(9999);
  q.cancel(0);
  EXPECT_EQ(q.pending(), 1u);
  // A block of other ids the queue never returned, including ones that
  // name an unused or a free slot.
  for (EventQueue::EventId generation = 0; generation < 4; ++generation) {
    for (EventQueue::EventId index = 0; index < 100; ++index) {
      const EventQueue::EventId id = (generation << 32) | index;
      if (id != issued) {
        q.cancel(id);
      }
    }
  }
  EXPECT_EQ(q.pending(), 1u);
  q.run_next();
  EXPECT_EQ(runs, 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DoubleCancelCountsOnce) {
  EventQueue q;
  const auto id = q.schedule(TimePoint{1}, [] {});
  q.schedule(TimePoint{2}, [] {});
  q.cancel(id);
  q.cancel(id);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.empty());
}

TEST(EventQueue, EmptyAfterCancellingEverything) {
  EventQueue q;
  const auto a = q.schedule(TimePoint{1}, [] {});
  const auto b = q.schedule(TimePoint{2}, [] {});
  q.cancel(a);
  q.cancel(b);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunNextOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.run_next(), std::logic_error);
  EXPECT_THROW(q.next_time(), std::logic_error);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const auto id = q.schedule(TimePoint{1}, [] {});
  q.schedule(TimePoint{7}, [] {});
  q.cancel(id);
  EXPECT_EQ(q.next_time(), TimePoint{7});
}

TEST(EventQueue, HandlerCancellingItsOwnIdIsNoop) {
  // The watchdog path: a search's completion, reached from inside its own
  // watchdog, cancels that watchdog's id. The running event is already
  // consumed, so the queue must still count the event behind it.
  EventQueue q;
  EventQueue::EventId self = 0;
  bool later_fired = false;
  self = q.schedule(TimePoint{1}, [&] { q.cancel(self); });
  q.schedule(TimePoint{2}, [&] { later_fired = true; });
  q.run_next();
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.next_time(), TimePoint{2});
  q.run_next();
  EXPECT_TRUE(later_fired);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  const auto fired = q.schedule(TimePoint{1}, [] {});
  q.schedule(TimePoint{2}, [] {});
  q.run_next();
  q.cancel(fired);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.empty());
  q.run_next();
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StaleIdDoesNotCancelALaterEvent) {
  // Fired and cancelled events free their storage for reuse; their ids must
  // not reach whatever is scheduled there next.
  EventQueue q;
  const auto fired = q.schedule(TimePoint{1}, [] {});
  q.run_next();
  const auto cancelled = q.schedule(TimePoint{2}, [] {});
  q.cancel(cancelled);
  int runs = 0;
  for (int i = 0; i < 4; ++i) {
    q.schedule(TimePoint{3 + i}, [&] { ++runs; });
  }
  q.cancel(fired);
  q.cancel(cancelled);
  EXPECT_EQ(q.pending(), 4u);
  while (!q.empty()) {
    q.run_next();
  }
  EXPECT_EQ(runs, 4);
}

TEST(EventQueue, CancelledEventsKeepOrderOfTheRest) {
  // Cancels deep inside the heap, at its top and of already-popped events
  // leave (when, seq) order intact for everything still pending.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventQueue::EventId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(q.schedule(TimePoint{(i * 37) % 50},
                             [&order, i] { order.push_back(i); }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 7) {
    q.cancel(ids[i]);
  }
  std::vector<int> expected;
  for (int t = 0; t < 50; ++t) {
    for (int i = 0; i < 200; ++i) {
      if ((i * 37) % 50 == t && i % 7 != 0) {
        expected.push_back(i);
      }
    }
  }
  EXPECT_EQ(q.pending(), expected.size());
  while (!q.empty()) {
    q.run_next();
  }
  EXPECT_EQ(order, expected);
}

/// Counts every copy, move and destruction of a capture.
struct Census {
  int copies = 0;
  int moves = 0;
  int destroyed = 0;
};

struct Counted {
  Census* census;
  explicit Counted(Census* c) : census{c} {}
  Counted(const Counted& o) : census{o.census} { ++census->copies; }
  Counted(Counted&& o) noexcept : census{o.census} { ++census->moves; }
  ~Counted() { ++census->destroyed; }
};

TEST(EventQueue, HandlerRunsWhereItWasBuilt) {
  // The capture is built in its slot and never copied or moved again, even
  // while other events push it around the heap and the pool grows.
  EventQueue q;
  Census census;
  bool ran = false;
  q.schedule(TimePoint{50}, [c = Counted{&census}, &ran] { ran = true; });
  const int built = census.moves + census.copies;
  for (int i = 0; i < 300; ++i) {
    q.schedule(TimePoint{i % 100}, [] {});
  }
  while (!q.empty()) {
    q.run_next();
  }
  EXPECT_TRUE(ran);
  EXPECT_EQ(census.copies + census.moves, built);
  EXPECT_EQ(census.destroyed, built + 1);
}

TEST(EventQueue, ThrowingHandlerConsumesItsEventAndFreesItsSlot) {
  EventQueue q;
  Census census;
  const auto thrower = q.schedule(
      TimePoint{1}, [c = Counted{&census}] { throw std::runtime_error{"x"}; });
  const int built = census.moves + census.copies;
  bool next_fired = false;
  q.schedule(TimePoint{2}, [&] { next_fired = true; });
  EXPECT_THROW(q.run_next(), std::runtime_error);
  // Consumed: not pending, not cancellable, capture destroyed exactly once.
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(census.copies + census.moves, built);
  EXPECT_EQ(census.destroyed, built + 1);
  q.cancel(thrower);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.next_time(), TimePoint{2});
  q.run_next();
  EXPECT_TRUE(next_fired);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelDestroysTheCaptureOnce) {
  EventQueue q;
  Census census;
  const auto id = q.schedule(TimePoint{1}, [c = Counted{&census}] {});
  const int built = census.moves + census.copies;
  q.cancel(id);
  q.cancel(id);
  EXPECT_EQ(census.destroyed, built + 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, LargeCapturesStayInline) {
  // A transport-sized capture (144 bytes) fits the handler buffer.
  EventQueue q;
  std::array<std::byte, 136> payload{};
  payload[135] = std::byte{7};
  int seen = 0;
  q.schedule(TimePoint{1},
             [payload, &seen] { seen = static_cast<int>(payload[135]); });
  q.run_next();
  EXPECT_EQ(seen, 7);
}

}  // namespace
}  // namespace movr::sim
