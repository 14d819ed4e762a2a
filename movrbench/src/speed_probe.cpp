#include "speed_probe.hpp"

#include <cmath>
#include <cstdint>

#include "harness.hpp"

namespace movrbench {

namespace {

constexpr int kSlicesPerQuantum = 100;
constexpr int kIterations = 20'000;

volatile double g_probe_sink = 0.0;

}  // namespace

void SpeedProbe::sample() {
  const double start =
      clock_ == Clock::kCpu ? cpu_seconds() : wall_seconds();
  // Transcendentals and dependent multiplies, like the array-factor and
  // path arithmetic the workloads spend their time in, on a state that
  // cannot be folded at compile time. (A variant that also walked a table
  // larger than the private caches tracked the workloads' drift worse.)
  std::uint64_t x = 0x9e3779b97f4a7c15ull + slice_s_.size();
  double acc = 0.0;
  for (int i = 0; i < kIterations; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const double a =
        static_cast<double>(x >> 11) * 0x1.0p-53 * 6.283185307179586;
    acc += std::sin(a) * std::cos(acc * 1e-3 + a);
  }
  g_probe_sink = g_probe_sink + acc;
  slice_s_.push_back(
      (clock_ == Clock::kCpu ? cpu_seconds() : wall_seconds()) - start);
}

double SpeedProbe::normalized_s(std::size_t unit, double measured_s) const {
  const double quantum_s =
      0.5 * (slice_s_.at(unit) + slice_s_.at(unit + 1)) * kSlicesPerQuantum;
  return measured_s * kNominalQuantumS / quantum_s;
}

}  // namespace movrbench
