// The discrete-event core: a time-ordered queue of callbacks.
//
// Events run in strict (when, seq) order, where seq is the insertion
// counter: ties are broken by insertion order so runs are deterministic —
// identical seeds replay identical event sequences, which the replay
// property tests assert.
//
// Layout (DESIGN.md §9.5): a binary heap orders small (when, seq, slot,
// generation) keys; the handlers live in a slot pool whose storage never
// moves. A handler is constructed in its slot, invoked there and destroyed
// there, so a handler that schedules more events cannot move itself. An
// EventId names a slot plus that slot's generation; the generation
// advances when the event fires or is cancelled, so a stale id is a no-op
// and cancel() is O(1).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <sim/inplace_function.hpp>
#include <sim/time.hpp>

namespace movr::sim {

class EventQueue {
 public:
  /// Handlers are stored inline (no heap allocation per event). Captures
  /// must fit the fixed buffer — a compile error here means a lambda grew
  /// past the budget; shrink the capture or box it explicitly.
  using Handler = InplaceFunction<void(), 152>;

  /// Identifies a scheduled event so it can be cancelled. Never 0, so 0
  /// is free to mean "no event".
  using EventId = std::uint64_t;

  /// Schedules `handler` (any callable that fits Handler) to run at
  /// absolute time `when`, constructing it directly in its slot.
  template <typename F>
  EventId schedule(TimePoint when, F&& handler) {
    const std::uint32_t index = free_slot();
    Slot& s = slot(index);
    s.handler.emplace(std::forward<F>(handler));
    return push(when, index);
  }

  /// Cancels a pending event in O(1). Cancelling an already-fired,
  /// already-cancelled, running or unknown id is a no-op (the common race:
  /// an SNR-recovered event cancelling a timeout, or a watchdog's own
  /// completion cancelling the watchdog).
  void cancel(EventId id);

  bool empty() const { return live_count_ == 0; }
  std::size_t pending() const { return live_count_; }

  /// Time of the earliest pending event. Throws std::logic_error if empty.
  TimePoint next_time() const;

  /// Pops and runs the earliest event; returns its timestamp. The event is
  /// consumed and its slot freed even if the handler throws. Throws
  /// std::logic_error if empty.
  TimePoint run_next();

 private:
  struct Key {
    TimePoint when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;  // stale once it differs from the slot's
  };

  struct Slot {
    Handler handler;
    std::uint32_t generation{1};  // never 0, so no id is 0
    std::uint32_t next_free{0};   // free-list link while free
    bool pending{false};          // queued and neither fired nor cancelled
  };

  static constexpr std::uint32_t kChunkBits = 6;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  Slot& slot(std::uint32_t index) {
    return chunks_[index >> kChunkBits][index & (kChunkSize - 1)];
  }

  /// Index of the free-list head, growing the pool by a chunk when empty.
  /// The slot stays on the free list until push() takes it, so a throwing
  /// handler constructor leaks nothing.
  std::uint32_t free_slot();
  /// Takes the free-list head `index` and queues its key.
  EventId push(TimePoint when, std::uint32_t index);
  /// Makes the pending slot's id (and its key in the heap) stale.
  void retire(std::uint32_t index);
  /// Destroys the slot's handler and returns the slot to the free list.
  void release(std::uint32_t index);
  /// Pops stale keys until the top is live: the heap's front is always a
  /// pending event, so next_time() reads it directly.
  void drop_stale();

  // Fixed-size chunks: growing the pool never moves a slot, so a running
  // handler's storage survives the events it schedules.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<Key> heap_;
  std::uint32_t free_head_{kNoSlot};
  std::uint64_t next_seq_{0};
  std::size_t live_count_{0};
  std::size_t stale_keys_{0};  // cancelled events' keys still in heap_
};

}  // namespace movr::sim
