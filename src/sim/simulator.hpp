// The simulator: an event queue plus a clock, with convenience scheduling.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>

#include <sim/event_queue.hpp>
#include <sim/time.hpp>

namespace movr::sim {

class Simulator {
 public:
  /// Optional safety valve: a buggy protocol that schedules events forever
  /// (or an injected fault timeline that never drains) trips the valve and
  /// throws, instead of hanging run() until ctest times out. Zero = off.
  struct SafetyValve {
    std::uint64_t max_events{0};          // total events executed
    Duration max_time{Duration::zero()};  // absolute simulated-clock bound
  };

  TimePoint now() const { return now_; }

  /// Schedules `handler` (any callable that fits EventQueue::Handler) to
  /// run `delay` from now. The callable is constructed directly in its
  /// event slot.
  template <typename F>
  EventQueue::EventId after(Duration delay, F&& handler) {
    if (delay < Duration::zero()) {
      throw std::invalid_argument{"Simulator::after: negative delay"};
    }
    return queue_.schedule(now_ + delay, std::forward<F>(handler));
  }

  /// Schedules `handler` at absolute time `when` (must not be in the past).
  template <typename F>
  EventQueue::EventId at(TimePoint when, F&& handler) {
    if (when < now_) {
      throw std::invalid_argument{"Simulator::at: time in the past"};
    }
    return queue_.schedule(when, std::forward<F>(handler));
  }

  void cancel(EventQueue::EventId id) { queue_.cancel(id); }

  /// Runs events until the queue drains.
  void run();

  /// Runs events with timestamps <= `deadline`, then sets the clock to
  /// `deadline`. Events scheduled beyond the deadline stay pending.
  void run_until(TimePoint deadline);

  /// Runs exactly one event if any is pending; returns false when drained.
  /// Throws std::runtime_error if the safety valve limits are exceeded.
  bool step();

  std::size_t pending_events() const { return queue_.pending(); }

  void set_safety_valve(SafetyValve valve) { valve_ = valve; }
  const SafetyValve& safety_valve() const { return valve_; }
  std::uint64_t events_executed() const { return events_executed_; }

 private:
  EventQueue queue_;
  TimePoint now_{Duration::zero()};
  SafetyValve valve_{};
  std::uint64_t events_executed_{0};
};

}  // namespace movr::sim
