#include <sim/event_queue.hpp>

#include <algorithm>
#include <stdexcept>

namespace movr::sim {
namespace {

/// Heap order: std::push_heap/pop_heap build a max-heap, so "greater" puts
/// the earliest (when, seq) on top. A function object, so the heap
/// algorithms inline it.
struct Later {
  template <typename Key>
  bool operator()(const Key& a, const Key& b) const {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }
};

}  // namespace

std::uint32_t EventQueue::free_slot() {
  if (free_head_ == kNoSlot) {
    const auto base = static_cast<std::uint32_t>(chunks_.size() * kChunkSize);
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    Slot* chunk = chunks_.back().get();
    for (std::uint32_t i = 0; i + 1 < kChunkSize; ++i) {
      chunk[i].next_free = base + i + 1;
    }
    chunk[kChunkSize - 1].next_free = kNoSlot;
    free_head_ = base;
  }
  return free_head_;
}

EventQueue::EventId EventQueue::push(TimePoint when, std::uint32_t index) {
  Slot& s = slot(index);
  heap_.push_back(Key{when, next_seq_, index, s.generation});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++next_seq_;
  free_head_ = s.next_free;
  s.pending = true;
  ++live_count_;
  return (EventId{s.generation} << 32) | index;
}

void EventQueue::retire(std::uint32_t index) {
  Slot& s = slot(index);
  if (++s.generation == 0) {
    s.generation = 1;
  }
  s.pending = false;
  --live_count_;
}

void EventQueue::release(std::uint32_t index) {
  Slot& s = slot(index);
  s.handler.reset();
  s.next_free = free_head_;
  free_head_ = index;
}

void EventQueue::drop_stale() {
  // Every stale key is still in the heap, so a nonzero count means a
  // non-empty heap.
  while (stale_keys_ != 0 &&
         heap_.front().generation != slot(heap_.front().slot).generation) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    --stale_keys_;
  }
}

void EventQueue::cancel(EventId id) {
  const auto index = static_cast<std::uint32_t>(id);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (index >= chunks_.size() * kChunkSize) {
    return;
  }
  const Slot& s = slot(index);
  if (!s.pending || s.generation != generation) {
    return;
  }
  retire(index);
  release(index);
  ++stale_keys_;
  drop_stale();
}

TimePoint EventQueue::next_time() const {
  if (heap_.empty()) {
    throw std::logic_error{"EventQueue::next_time on empty queue"};
  }
  return heap_.front().when;
}

TimePoint EventQueue::run_next() {
  if (heap_.empty()) {
    throw std::logic_error{"EventQueue::run_next on empty queue"};
  }
  const Key top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  retire(top.slot);
  drop_stale();
  // Invoke the handler where it was constructed: slots never move, so the
  // events it schedules cannot disturb it. Its id is already stale, so a
  // handler cancelling itself is a no-op. The guard destroys it and frees
  // the slot after it returns or throws.
  struct Release {
    EventQueue& queue;
    std::uint32_t index;
    ~Release() { queue.release(index); }
  } guard{*this, top.slot};
  slot(top.slot).handler();
  return top.when;
}

}  // namespace movr::sim
