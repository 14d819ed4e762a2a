#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>

namespace movrbench {

void Checks::expect(bool ok, std::string_view what) {
  add(1, ok ? 0 : 1, what);
}

void Checks::add(std::uint64_t attempted, std::uint64_t failed,
                 std::string_view what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0 && reported_ < 20) {
    ++reported_;
    std::fprintf(stderr, "check failed: %.*s (%llu of %llu)\n",
                 static_cast<int>(what.size()), what.data(),
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted));
  }
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double idx = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  if (frac == 0.0 || values[lo] == values[hi]) {
    return values[lo];
  }
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

void Qoe::add(const vr::QoeReport& report, const net::Transport* transport) {
  frames += report.frames;
  glitched += report.glitched_frames;
  if (transport != nullptr) {
    for (const auto& outcome : transport->outcomes()) {
      latency_ms.push_back(outcome.latency_ms);
    }
  }
}

}  // namespace movrbench
