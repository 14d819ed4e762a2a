// Shared plumbing for the benchmark's workloads: options, correctness-check
// accounting, metric collection, clocks, statistics and run sizing.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <net/transport.hpp>
#include <vr/qoe.hpp>

namespace movr::arena {}
namespace movr::channel {}
namespace movr::core {}
namespace movr::geom {}
namespace movr::phy {}
namespace movr::rf {}

namespace movrbench {

namespace arena = movr::arena;
namespace channel = movr::channel;
namespace core = movr::core;
namespace geom = movr::geom;
namespace net = movr::net;
namespace phy = movr::phy;
namespace rf = movr::rf;
namespace sim = movr::sim;
namespace vr = movr::vr;

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  /// Sizes the run: about this many seconds of work (see units_for).
  double seconds{10.0};
  /// false: end-to-end metrics from an untraced run. true: the traced pass,
  /// which reports the per-layer metrics.
  bool trace{false};
};

/// Correctness checks, counted as the run's operations: `attempted` and
/// `failed` in the result line are these counts.
class Checks {
 public:
  /// One check. The first 20 failures are named on stderr.
  void expect(bool ok, std::string_view what);
  /// A batch of checks the library counted itself (e.g. ledger audits).
  void add(std::uint64_t attempted, std::uint64_t failed, std::string_view what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
  std::uint64_t reported_{0};
};

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

struct Result {
  Checks checks;
  std::vector<Metric> metrics;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// CPU time consumed by the whole process (all threads), seconds. Time the
/// scheduler gives to other tenants of the machine does not count.
double cpu_seconds();
/// Monotonic wall clock, seconds.
double wall_seconds();

/// Linear-interpolated percentile, p in [0, 1]; 0 for an empty set.
/// +inf samples sort last and propagate when the percentile lands on them.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Fingerprint step (boost-style hash combine) and the bit pattern of a
/// double, for bit-for-bit output comparisons.
std::uint64_t mix(std::uint64_t h, std::uint64_t v);
std::uint64_t bits(double v);

/// How many work units a run of `seconds` holds when one unit takes about
/// `unit_s` on a 4-core Xeon; at least one. A run's work is fixed by its
/// arguments, not by how fast the machine is at the moment, so the same
/// seed and seconds give the same inputs and the same simulated outputs.
inline std::size_t units_for(double seconds, double unit_s) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds / unit_s + 0.5));
}

/// Simulated QoE pooled over sessions: the frame ledger plus one latency
/// sample per emitted frame (never-delivered frames count as +inf).
struct Qoe {
  std::uint64_t frames{0};
  std::uint64_t glitched{0};
  std::vector<double> latency_ms;

  void add(const vr::QoeReport& report, const net::Transport* transport);
  double glitch_frac() const {
    return frames == 0 ? 0.0
                       : static_cast<double>(glitched) /
                             static_cast<double>(frames);
  }
};

}  // namespace movrbench
