#include <sim/simulator.hpp>

#include <stdexcept>

namespace movr::sim {

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(TimePoint deadline) {
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    step();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

bool Simulator::step() {
  if (queue_.empty()) {
    return false;
  }
  if (valve_.max_events != 0 && events_executed_ >= valve_.max_events) {
    throw std::runtime_error{
        "Simulator: safety valve tripped (max_events exceeded; a protocol "
        "is scheduling events without making progress)"};
  }
  if (valve_.max_time != Duration::zero() &&
      queue_.next_time() > valve_.max_time) {
    throw std::runtime_error{
        "Simulator: safety valve tripped (max_time exceeded; the event "
        "horizon ran past the configured simulated-time bound)"};
  }
  // Advance the clock BEFORE dispatching, so the handler observes its own
  // scheduled time through now().
  now_ = queue_.next_time();
  queue_.run_next();
  ++events_executed_;
  return true;
}

}  // namespace movr::sim
