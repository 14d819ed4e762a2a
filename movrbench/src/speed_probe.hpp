// A fixed kernel that uses nothing of the library, timed between units of
// work to track how fast this machine runs at the moment.
//
// On a shared machine the same work takes 10-40% longer from one minute to
// the next: another tenant on a sibling core, a lower clock, hypervisor
// steal accounted as guest CPU time. The probe's time stretches with the
// workload's, so the workloads report *normalized seconds* — measured
// seconds scaled by kNominalQuantumS over the probe's measured quantum, the
// time the work would take on a machine where the quantum takes exactly
// kNominalQuantumS — which cancels that drift. A change to the library
// cannot move the probe.
#pragma once

#include <cstddef>
#include <vector>

namespace movrbench {

class SpeedProbe {
 public:
  enum class Clock { kCpu, kWall };
  static constexpr double kNominalQuantumS = 0.1;

  explicit SpeedProbe(Clock clock) : clock_{clock} {}

  /// Runs one slice of the kernel (1% of a quantum) on the probe's clock.
  /// Call it before the first unit of work and after every unit.
  void sample();
  /// `measured_s` on the probe's clock, spent in unit `unit` (between
  /// slices unit and unit + 1), in normalized seconds: scaled by the
  /// quantum those two slices imply.
  double normalized_s(std::size_t unit, double measured_s) const;
  std::size_t slices() const { return slice_s_.size(); }

 private:
  Clock clock_;
  std::vector<double> slice_s_;
};

}  // namespace movrbench
