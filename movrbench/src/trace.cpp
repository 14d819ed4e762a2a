#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <random>
#include <utility>
#include <vector>

#include <channel/path_batch.hpp>
#include <channel/path_solver.hpp>
#include <core/gain_control.hpp>
#include <phy/radio.hpp>
#include <rf/phased_array.hpp>

namespace movrbench {

namespace {

using namespace std::chrono_literals;

/// Calls round() until at least `min_s` of wall time has passed; returns ns
/// per call, where one round makes `calls_per_round` calls.
template <class Round>
double ns_per_call(Round&& round, std::size_t calls_per_round,
                   double min_s = 0.05) {
  std::size_t rounds = 0;
  const std::int64_t start = now_ns();
  std::int64_t elapsed = 0;
  do {
    round();
    ++rounds;
    elapsed = now_ns() - start;
  } while (static_cast<double>(elapsed) < min_s * 1e9);
  return static_cast<double>(elapsed) /
         static_cast<double>(rounds * calls_per_round);
}

constexpr std::size_t kAngles = 720;

double angle_at(std::size_t i) {
  return 2.0 * 3.141592653589793 * static_cast<double>(i) /
         static_cast<double>(kAngles);
}

/// Keeps a replay's result observable so the calls cannot be elided.
volatile double g_sink = 0.0;

/// JSON has no infinity: a simulated latency percentile that lands on a
/// never-delivered frame is written as this value.
constexpr double kNeverDeliveredMs = 1e9;

double finite_ms(double ms) {
  return std::isinf(ms) ? kNeverDeliveredMs : ms;
}

using EndpointPairs = std::vector<std::pair<geom::Vec2, geom::Vec2>>;

std::vector<const rf::PhasedArray*> arrays_of(const core::Scene& scene) {
  std::vector<const rf::PhasedArray*> arrays{&scene.ap().node().array(),
                                             &scene.headset().node().array()};
  for (std::size_t r = 0; r < scene.reflector_count(); ++r) {
    arrays.push_back(&scene.reflector(r).front_end().rx_array());
    arrays.push_back(&scene.reflector(r).front_end().tx_array());
  }
  return arrays;
}

double field_ns(const std::vector<const rf::PhasedArray*>& arrays) {
  return ns_per_call(
      [&arrays] {
        double acc = 0.0;
        for (const rf::PhasedArray* array : arrays) {
          for (std::size_t i = 0; i < kAngles; ++i) {
            acc += std::norm(array->field(angle_at(i)));
          }
        }
        g_sink = g_sink + acc;
      },
      arrays.size() * kAngles);
}

double array_response_ns(const std::vector<const rf::PhasedArray*>& arrays) {
  return ns_per_call(
      [&arrays] {
        double acc = 0.0;
        for (const rf::PhasedArray* array : arrays) {
          for (std::size_t i = 0; i < kAngles; ++i) {
            acc += std::norm(phy::array_response(*array, angle_at(i)));
          }
        }
        g_sink = g_sink + acc;
      },
      arrays.size() * kAngles);
}

/// The scene's link endpoints for each headset pose: AP -> pose and each
/// reflector -> pose, plus AP -> each reflector; at most `max_poses` poses,
/// evenly subsampled.
EndpointPairs endpoint_pairs(const core::Scene& scene,
                             const std::vector<geom::Vec2>& poses,
                             std::size_t max_poses = 400) {
  const geom::Vec2 ap = scene.ap().node().position();
  EndpointPairs pairs;
  for (std::size_t r = 0; r < scene.reflector_count(); ++r) {
    pairs.emplace_back(ap, scene.reflector(r).position());
  }
  const std::size_t stride =
      std::max<std::size_t>(1, (poses.size() + max_poses - 1) / max_poses);
  for (std::size_t i = 0; i < poses.size(); i += stride) {
    pairs.emplace_back(ap, poses[i]);
    for (std::size_t r = 0; r < scene.reflector_count(); ++r) {
      pairs.emplace_back(scene.reflector(r).position(), poses[i]);
    }
  }
  return pairs;
}

struct SolveCost {
  double solve_us{0.0};
  double solve_batch_us{0.0};
};

/// µs per query of PathSolver::solve and of PathSolver::solve_batch.
SolveCost solve_cost(const channel::PathSolver& solver,
                     const EndpointPairs& pairs) {
  SolveCost cost;
  if (pairs.empty()) {
    return cost;
  }
  cost.solve_us = 1e-3 * ns_per_call(
                             [&] {
                               std::size_t n = 0;
                               for (const auto& [a, b] : pairs) {
                                 n += solver.solve(a, b).size();
                               }
                               g_sink = g_sink + static_cast<double>(n);
                             },
                             pairs.size());
  channel::EndpointBatch batch;
  batch.reserve(pairs.size());
  for (const auto& [a, b] : pairs) {
    batch.push(a, b);
  }
  channel::PathBatch out;
  channel::PathSolver::BatchWorkspace ws;
  cost.solve_batch_us = 1e-3 * ns_per_call(
                                   [&] {
                                     solver.solve_batch(batch, out, ws);
                                     g_sink = g_sink +
                                              static_cast<double>(out.paths());
                                   },
                                   pairs.size());
  return cost;
}

double gain_control_us(const core::Scene& scene) {
  if (scene.reflector_count() == 0) {
    return 0.0;
  }
  core::Scene local = scene.clone();
  std::mt19937_64 rng{7};
  return 1e-3 * ns_per_call(
                    [&] {
                      for (std::size_t r = 0; r < local.reflector_count(); ++r) {
                        core::MovrReflector& reflector = local.reflector(r);
                        const auto result = core::GainController::run(
                            reflector.front_end(),
                            local.reflector_input(reflector), rng);
                        g_sink = g_sink + result.final_gain.value();
                      }
                    },
                    local.reflector_count());
}

}  // namespace

void FrameClock::tick() {
  const std::int64_t now = now_ns();
  if (last_ >= 0) {
    frame_ns_.add(static_cast<double>(now - last_ - excluded_));
  }
  last_ = now;
  excluded_ = 0;
}

geom::Vec2 TimedMotion::position_at(sim::TimePoint t) {
  if (frames_ != nullptr) {
    frames_->tick();
  }
  const std::int64_t start = now_ns();
  const geom::Vec2 pose = inner_->position_at(t);
  spans_.add(static_cast<double>(now_ns() - start));
  poses_.push_back(pose);
  return pose;
}

rf::Decibels TimedStrategy::on_frame() {
  if (frames_ != nullptr) {
    frames_->tick();
  }
  const std::int64_t start = now_ns();
  const rf::Decibels snr = inner_.on_frame();
  spans_.add(static_cast<double>(now_ns() - start));
  return snr;
}

void drive(sim::Simulator& simulator, sim::TimePoint end, Spans* step_ns) {
  bool reached = false;
  simulator.at(end, [&reached] { reached = true; });
  if (step_ns == nullptr) {
    while (!reached && simulator.step()) {
    }
  } else {
    while (!reached) {
      const std::int64_t start = now_ns();
      const bool stepped = simulator.step();
      step_ns->add(static_cast<double>(now_ns() - start));
      if (!stepped) {
        break;
      }
    }
  }
  simulator.run_until(end);
}

void schedule_ledger_probes(sim::Simulator& simulator, sim::TimePoint end,
                            const vr::Session& session, Checks& checks) {
  for (sim::TimePoint t{20ms}; t < end; t += 20ms) {
    simulator.at(t, [&session, &checks] {
      const net::Transport* transport = session.transport();
      checks.expect(transport != nullptr &&
                        transport->ledger_snapshot().closes(),
                    "20 ms transport ledger probe");
    });
  }
}

void Layers::add_link(const core::LinkManager::Stats& stats) {
  handovers += static_cast<std::uint64_t>(stats.handovers_to_reflector +
                                          stats.handovers_to_direct);
  proactive_handovers += static_cast<std::uint64_t>(stats.proactive_handovers);
  risk_windows += static_cast<std::uint64_t>(stats.risk_windows);
}

void Layers::add_transport(const net::Transport& transport) {
  const net::TransportMetrics& m = transport.metrics();
  packets += m.packets_enqueued;
  retransmits += m.retransmits;
  fec_recovered += m.packets_recovered;
  spec_saves += m.speculative_saves;
  spec_copies += m.speculative_enqueued;
  queue_hwm = std::max<std::uint64_t>(
      queue_hwm, transport.queue().counters().max_depth_packets);
}

void Layers::replay(const core::Scene& scene,
                    const std::vector<geom::Vec2>& poses) {
  const auto arrays = arrays_of(scene);
  field_ns = movrbench::field_ns(arrays);
  array_response_ns = movrbench::array_response_ns(arrays);
  const SolveCost solve =
      solve_cost(scene.oracle().solver(), endpoint_pairs(scene, poses));
  solve_us = solve.solve_us;
  solve_batch_us = solve.solve_batch_us;
  gain_control_us = movrbench::gain_control_us(scene);
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void emit_layers(Result& r, const Layers& l) {
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  r.metric("sim.events", count(l.events), "count");
  r.metric("sim.ns_per_event", ratio(1e9 * l.timed_cpu_s, count(l.events)),
           "ns");
  r.metric("sim.step_ns_p50", l.step_ns.p(0.50), "ns");
  r.metric("sim.step_ns_p99", l.step_ns.p(0.99), "ns");
  r.metric("sim.control.sent", count(l.control_sent), "count");
  r.metric("sim.control.dropped", count(l.control_dropped), "count");
  r.metric("sim.control.duplicates", count(l.control_duplicates), "count");

  r.metric("vr.frames", count(l.qoe.frames), "count");
  r.metric("vr.glitch_frac", l.qoe.glitch_frac(), "fraction");
  r.metric("vr.frame_p50_ms", finite_ms(percentile(l.qoe.latency_ms, 0.50)),
           "sim_ms");
  r.metric("vr.frame_p99_ms", finite_ms(percentile(l.qoe.latency_ms, 0.99)),
           "sim_ms");
  r.metric("vr.frame_host_us_p99", 1e-3 * l.frames.frame_ns().p(0.99), "us");
  r.metric("vr.motion_ns", l.motion_ns.p(0.50), "ns");

  r.metric("core.link.frame_ns_p50", l.link_ns.p(0.50), "ns");
  r.metric("core.link.frame_ns_p99", l.link_ns.p(0.99), "ns");
  r.metric("core.link.handovers", count(l.handovers), "count");
  r.metric("core.link.proactive_handovers", count(l.proactive_handovers),
           "count");
  r.metric("core.forecast.misprediction_rate",
           ratio(count(l.mispredictions), count(l.risk_windows)), "fraction");
  r.metric("core.calibrate_ms", l.calibrate_ms, "ms");
  r.metric("core.coverage.map_ms", l.coverage_map_ms, "ms");
  r.metric("core.coverage.covered_frac", l.covered_frac, "fraction");
  r.metric("core.parallel.speedup_2t", l.speedup_2t, "ratio");

  r.metric("channel.oracle.queries", count(l.oracle.queries), "count");
  r.metric("channel.oracle.hit_rate", l.oracle.hit_rate(), "fraction");
  r.metric("channel.oracle.invalidations", count(l.oracle.invalidations),
           "count");
  r.metric("channel.oracle.batch_queries", count(l.oracle.batch_queries),
           "count");
  r.metric("channel.solve_us", l.solve_us, "us");
  r.metric("channel.solve_batch_us", l.solve_batch_us, "us");

  r.metric("rf.field_ns", l.field_ns, "ns");
  r.metric("phy.array_response_ns", l.array_response_ns, "ns");
  r.metric("hw.gain_control_us", l.gain_control_us, "us");

  r.metric("arena.interference.victim_us", l.victim_us, "us");
  r.metric("arena.interference.share", l.interference_share, "fraction");
  r.metric("arena.lease.grant_rate",
           ratio(count(l.lease_grants),
                 count(l.lease_grants + l.lease_denials)),
           "fraction");
  r.metric("arena.lease.revocations", count(l.lease_revocations), "count");
  r.metric("arena.admission.evictions", count(l.evictions), "count");

  r.metric("net.packets", count(l.packets), "count");
  r.metric("net.retransmits", count(l.retransmits), "count");
  r.metric("net.fec.recovered", count(l.fec_recovered), "count");
  r.metric("net.spec.save_rate", ratio(count(l.spec_saves), count(l.spec_copies)),
           "fraction");
  r.metric("net.queue_hwm", count(l.queue_hwm), "packets");

  r.metric("log.records", count(l.log_records), "count");
  r.metric("log.bytes", count(l.log_bytes), "bytes");
  r.metric("log.ns_per_record", l.log_ns_per_record, "ns");
  r.metric("log.verify_ms", l.log_verify_ms, "ms");

  r.metric("trace.overhead_ratio", l.overhead_ratio, "ratio");
  r.metric("bench.checks", count(r.checks.attempted()), "count");
  r.metric("bench.failed_frac",
           ratio(count(r.checks.failed()), count(r.checks.attempted())),
           "fraction");
}

}  // namespace movrbench
