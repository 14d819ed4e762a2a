// Frame-latency CDF under a standing blocker: MoVR against fixed beam and
// NLOS beam switching, transport data-plane enabled.
//
// The paper's QoE argument in distribution form: a person stops on the
// AP-headset line for 40% of the session. A strategy that bridges the
// blockage keeps the latency tail at the air's round-trip; one that does
// not drives the tail to infinity (frames that never complete). Prints the
// per-strategy CDF plus the transport counters that explain the tail, and
// exits nonzero when the packet ledger does not close or MoVR's p99 fails
// to beat both baselines.
//
// Usage: frame_latency [--duration S] [--target-mbps M] [--json PATH]
// (defaults 20 s, 2000 Mbps; `ctest -L net` runs a short smoke).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include <baseline/strategies.hpp>
#include <sim/rng.hpp>
#include <vr/session.hpp>

#include "bench_util.hpp"

namespace {

using namespace movr;
using geom::deg_to_rad;

/// A person walks in and stands on the midpoint of the AP-headset line for
/// 40% of the session (a "standing" crossing: path_from == path_to).
vr::BlockageScript standing_blocker(sim::Duration duration) {
  vr::BlockageEvent person;
  person.kind = vr::BlockageEvent::Kind::kPersonCrossing;
  person.start = sim::Duration{duration.count() * 3 / 10};
  person.duration = sim::Duration{duration.count() * 4 / 10};
  person.path_from = {1.7, 1.3};
  person.path_to = {1.7, 1.3};
  return vr::BlockageScript{std::vector<vr::BlockageEvent>{person}};
}

/// A compressed VR stream whose keyframes fit the deadline at the top MCS —
/// clean air delivers everything, so the tail is pure blockage. The default
/// 2 Gbps matches the paper's compressed-stream budget; `--target-mbps`
/// sweeps the source rate (see print_usage for the keyframe caveat).
vr::Session::Config session_config(sim::Duration duration,
                                   double target_mbps) {
  vr::Session::Config config;
  config.duration = duration;
  net::TransportConfig transport;
  transport.source.target_mbps = target_mbps;
  config.transport = transport;
  return config;
}

void print_usage() {
  std::printf(
      "frame_latency — frame-latency CDF under a standing blocker\n"
      "\n"
      "  --duration S       session length in seconds (default 20)\n"
      "  --target-mbps M    source rate of the compressed stream\n"
      "                     (default 2000)\n"
      "  --json PATH        write a machine-readable summary (wall time,\n"
      "                     per-strategy percentiles, misses) to PATH\n"
      "  --help             this text\n"
      "\n"
      "Caveat on --target-mbps: keyframes are ~2.5x the mean frame size,\n"
      "so a rate that fits the 10 ms frame deadline on average can still\n"
      "blow it on every keyframe. Past roughly 1/2.5 of the air rate the\n"
      "keyframe tail dominates p99 and deadline misses climb even with no\n"
      "blocker in the room — raise the rate deliberately, and read the\n"
      "misses column next to the percentiles.\n");
}

struct Row {
  const char* name;
  vr::QoeReport report;
  /// Beam sweeps the NLOS arm ran; empty for the arms that never sweep.
  std::optional<int> sweeps;
};

enum class Strategy { kMovr, kFixedBeam, kNlosSweep };

Row run_strategy(const char* name, Strategy kind,
                 const vr::Session::Config& config,
                 const vr::BlockageScript& script, sim::RngRegistry& rngs) {
  auto scene = bench::paper_scene({3.0, 2.2}, false);
  bench::steer_direct(scene);
  sim::Simulator simulator;
  switch (kind) {
    case Strategy::kMovr: {
      auto& reflector = scene.add_reflector({3.6, 4.8}, deg_to_rad(265.0));
      auto rng = rngs.stream("cal");
      bench::calibrate_reflector(scene, reflector, rng);
      vr::MovrStrategy strategy{simulator, scene, rngs.stream("mgr")};
      vr::Session session{simulator, scene,  strategy,
                          nullptr,   &script, config};
      return {name, session.run(), std::nullopt};
    }
    case Strategy::kFixedBeam: {
      baseline::FixedBeamStrategy strategy{scene};
      vr::Session session{simulator, scene,  strategy,
                          nullptr,   &script, config};
      return {name, session.run(), std::nullopt};
    }
    case Strategy::kNlosSweep: {
      baseline::NlosSweepStrategy strategy{simulator, scene};
      vr::Session session{simulator, scene,  strategy,
                          nullptr,   &script, config};
      // Braced initialisers run in order: the count is read after the run.
      return {name, session.run(), strategy.sweeps_performed()};
    }
  }
  return {name, {}, std::nullopt};
}

}  // namespace

int main(int argc, char** argv) {
  double duration_s = 20.0;
  double target_mbps = 2000.0;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--duration") == 0 && i + 1 < argc) {
      duration_s = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--target-mbps") == 0 && i + 1 < argc) {
      target_mbps = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0) {
      print_usage();
      return 0;
    }
  }
  const auto duration = sim::from_seconds(duration_s);
  const auto script = standing_blocker(duration);
  const auto config = session_config(duration, target_mbps);
  sim::RngRegistry rngs{8};

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<Row> rows;
  rows.push_back(run_strategy("MoVR (1 reflector)", Strategy::kMovr, config,
                              script, rngs));
  rows.push_back(run_strategy("fixed beam (WHDI)", Strategy::kFixedBeam,
                              config, script, rngs));
  rows.push_back(run_strategy("NLOS beam switching", Strategy::kNlosSweep,
                              config, script, rngs));
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  bench::print_header(
      "Frame latency — standing blocker over 40% of the session (ms)");
  std::printf("%-22s %8s %8s %8s %10s %8s %8s %8s %7s\n", "strategy",
              "p50", "p95", "p99", "misses", "retx", "drops", "dups",
              "sweeps");
  for (const Row& row : rows) {
    const net::TransportMetrics& m = *row.report.transport;
    const std::string sweeps =
        row.sweeps ? std::to_string(*row.sweeps) : std::string{"-"};
    std::printf("%-22s %8.2f %8.2f %8.2f %6lu/%-4lu %8lu %8lu %8lu %7s\n",
                row.name, m.p50_ms, m.p95_ms, m.p99_ms,
                static_cast<unsigned long>(m.deadline_misses),
                static_cast<unsigned long>(m.frames_emitted),
                static_cast<unsigned long>(m.retransmits),
                static_cast<unsigned long>(m.packets_dropped),
                static_cast<unsigned long>(m.duplicates), sweeps.c_str());
  }
  std::printf("\n");
  for (const Row& row : rows) {
    bench::print_cdf(row.name, bench::latency_samples(*row.report.transport));
  }

  // The bench doubles as an acceptance gate.
  int failures = 0;
  for (const Row& row : rows) {
    if (!row.report.transport->conserved()) {
      std::printf("FAIL: packet ledger does not close for %s\n", row.name);
      ++failures;
    }
  }
  const net::TransportMetrics& movr = *rows[0].report.transport;
  const net::TransportMetrics& fixed = *rows[1].report.transport;
  const net::TransportMetrics& nlos = *rows[2].report.transport;
  if (!(movr.p99_ms < fixed.p99_ms) || !(movr.p99_ms < nlos.p99_ms)) {
    std::printf("FAIL: MoVR p99 %.2f ms does not beat fixed %.2f / NLOS %.2f\n",
                movr.p99_ms, fixed.p99_ms, nlos.p99_ms);
    ++failures;
  }
  if (!(movr.p50_ms > 0.0) || !(movr.p99_ms > movr.p50_ms)) {
    std::printf("FAIL: MoVR latency CDF is degenerate (p50 %.3f, p99 %.3f)\n",
                movr.p50_ms, movr.p99_ms);
    ++failures;
  }
  if (fixed.deadline_misses == 0) {
    std::printf("FAIL: the blocker never bit the fixed beam\n");
    ++failures;
  }

  if (!json_path.empty()) {
    bench::Json arms = bench::Json::array();
    for (const Row& row : rows) {
      const net::TransportMetrics& m = *row.report.transport;
      bench::Json arm = bench::Json::object();
      arm.set("name", row.name)
          .set("p50_ms", m.p50_ms)
          .set("p95_ms", m.p95_ms)
          .set("p99_ms", m.p99_ms)
          .set("frames", m.frames_emitted)
          .set("deadline_misses", m.deadline_misses)
          .set("retransmits", m.retransmits)
          .set("packets_dropped", m.packets_dropped);
      if (row.sweeps) {
        arm.set("sweeps_performed", *row.sweeps);
      }
      arms.push(std::move(arm));
    }
    bench::Json doc = bench::Json::object();
    doc.set("bench", "frame_latency")
        .set("wall_time_s", wall_s)
        .set("duration_s", duration_s)
        .set("target_mbps", target_mbps)
        .set("pass", failures == 0)
        .set("arms", std::move(arms));
    if (!bench::emit_json(json_path, doc)) {
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
