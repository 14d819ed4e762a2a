// solo_predictive: bench/predictive's world, predictive arm only. A headset
// paces a line across a standing person's shadow in the office, with the
// occlusion forecaster, speculative dual-path copies, adaptive FEC, the
// Gilbert-Elliott burst channel and a seeded storm of loss windows. One
// user, one thread, no interference and no event log.
//
// A run is units_for(seconds, kWorldCostS) worlds of kDurationS simulated
// seconds each, world k built from (seed, k): enough distinct worlds that
// the seed-to-seed spread of the pooled figures stays small. The traced
// pass runs the first kTraceWorlds worlds.
#include <memory>
#include <optional>
#include <vector>

#include <arena/coordinator.hpp>
#include <sim/fault_injector.hpp>
#include <sim/rng.hpp>
#include <vr/predictive.hpp>
#include <vr/session.hpp>

#include "speed_probe.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace movrbench {

namespace {

using namespace std::chrono_literals;

constexpr double kDurationS = 8.0;
/// Nominal CPU seconds of one world, for sizing a run.
constexpr double kWorldCostS = 0.065;
constexpr std::size_t kTraceWorlds = 32;
constexpr geom::Vec2 kPerson{1.7, 1.3};

struct WorldRun {
  std::uint64_t fingerprint{0};
  double setup_s{0.0};
  double calibrate_s{0.0};
  double run_s{0.0};
};

/// Builds and runs one world. `layers` non-null = traced (decorators on,
/// steps timed, counters read); `replay` also runs the replays on this
/// world's scene.
WorldRun run_world(std::uint64_t world_seed, Checks& checks, Qoe* qoe,
                   Layers* layers, bool replay) {
  WorldRun out;
  const double setup_start = cpu_seconds();
  const auto duration = sim::from_seconds(kDurationS);
  const sim::TimePoint end{duration};
  const sim::RngRegistry rngs{world_seed};
  auto chaos = rngs.stream("chaos");

  // The pacing line crosses the person's shadow, perpendicular to the
  // AP->person ray, so each leg starts and ends in clear air.
  const geom::Vec2 ap{0.4, 0.4};
  const geom::Vec2 ray = (kPerson - ap).normalized();
  const geom::Vec2 perp{-ray.y, ray.x};
  const geom::Vec2 cross = ap + ray * uniform(chaos, 2.9, 3.6);
  const double half = uniform(chaos, 0.85, 1.1);
  const geom::Vec2 leg_a = cross + perp * half;
  const geom::Vec2 leg_b = cross - perp * half;

  core::Scene scene = office_scene(leg_a, /*with_furniture=*/false);
  steer_direct(scene);
  auto& reflector = scene.add_reflector({3.6, 4.8}, geom::deg_to_rad(265.0));
  auto cal_rng = rngs.stream("cal");
  const double calibrate_start = cpu_seconds();
  calibrate_reflector(scene, reflector, cal_rng);
  out.calibrate_s = cpu_seconds() - calibrate_start;

  sim::Simulator simulator;
  vr::PacingMotion::Config pacing;
  pacing.speed_mps = 1.2;
  pacing.pause = 200ms;
  std::unique_ptr<vr::Motion> motion =
      std::make_unique<vr::PacingMotion>(leg_a, leg_b, pacing);
  TimedMotion* timed_motion = nullptr;
  if (layers != nullptr) {
    layers->frames.restart();
    auto timed = std::make_unique<TimedMotion>(
        std::move(motion), layers->motion_ns, &layers->frames);
    timed_motion = timed.get();
    motion = std::move(timed);
  }

  vr::BlockageEvent person;
  person.kind = vr::BlockageEvent::Kind::kPersonCrossing;
  person.duration = duration;
  person.path_from = kPerson;
  person.path_to = kPerson;
  const vr::BlockageScript script{std::vector<vr::BlockageEvent>{person}};

  sim::FaultInjector faults{simulator};
  const int windows = std::max(2, static_cast<int>(kDurationS / 3.0));
  for (int i = 0; i < windows; ++i) {
    const double slot = kDurationS / static_cast<double>(windows);
    const double start = slot * i + uniform(chaos, 0.1 * slot, 0.6 * slot);
    const double len = uniform(chaos, 0.2, 0.45);
    faults.inject("loss-window", sim::TimePoint{sim::from_seconds(start)},
                  sim::from_seconds(len), [] {});
  }

  vr::Session::Config config;
  config.duration = duration;
  config.faults = &faults;
  config.realistic_rate_control = true;
  config.rate_control_seed = world_seed * 13 + 5;
  net::TransportConfig transport;
  transport.source.target_mbps = 800.0;
  transport.ack_delay = std::chrono::microseconds{500};
  transport.arq.window = 16;
  transport.adaptive_fec = true;
  transport.source.seed = world_seed * 11 + 1;
  transport.seed = world_seed * 17 + 3;
  config.transport = transport;
  sim::BurstChannel::Config burst;
  burst.seed = rngs.stream("burst")();
  burst.loss_bad = 0.25;
  config.burst_loss = burst;

  vr::PredictiveMovrStrategy::Config strategy_config;
  strategy_config.forecaster.chaos_seed = rngs.stream("chaos.forecast")();
  vr::PredictiveMovrStrategy strategy{simulator, scene, rngs.stream("mgr"),
                                      strategy_config};
  std::optional<TimedStrategy> timed_strategy;
  vr::LinkStrategy* link = &strategy;
  if (layers != nullptr) {
    link = &timed_strategy.emplace(strategy, layers->link_ns, nullptr);
  }
  vr::Session session{simulator, scene, *link, motion.get(), &script, config};
  const std::uint64_t probes_before = checks.attempted();
  const std::uint64_t failed_before = checks.failed();
  schedule_ledger_probes(simulator, end, session, checks);
  const double run_start = cpu_seconds();
  out.setup_s = run_start - setup_start;

  session.start();
  drive(simulator, end, layers != nullptr ? &layers->step_ns : nullptr);
  const vr::QoeReport report = session.finish();
  out.run_s = cpu_seconds() - run_start;

  checks.expect(report.transport.has_value() && report.transport->conserved(),
                "final packet ledger closes");
  out.fingerprint = mix(arena::qoe_fingerprint(report),
                        checks.attempted() - probes_before);
  out.fingerprint = mix(out.fingerprint, checks.failed() - failed_before);
  if (qoe != nullptr) {
    qoe->add(report, session.transport());
  }
  if (layers != nullptr) {
    layers->events += simulator.events_executed();
    layers->oracle += scene.oracle_stats();
    layers->add_link(strategy.manager().stats());
    if (report.predictive.has_value()) {
      layers->mispredictions +=
          static_cast<std::uint64_t>(report.predictive->mispredictions);
    }
    layers->add_transport(*session.transport());
    if (replay) {
      layers->replay(scene, timed_motion->poses());
    }
  }
  return out;
}

struct Timed {
  /// Normalized CPU seconds of the timed phase.
  double normalized_run_s{0.0};
  /// Normalized CPU seconds of each world's set-up.
  std::vector<double> setup_s;
};

Timed run_timed(std::uint64_t seed, std::size_t worlds, Checks& checks,
                Qoe& qoe) {
  Timed timed;
  SpeedProbe probe{SpeedProbe::Clock::kCpu};
  probe.sample();
  for (std::size_t k = 0; k < worlds; ++k) {
    const WorldRun w = run_world(mix(seed, k), checks, &qoe, nullptr, false);
    probe.sample();
    timed.normalized_run_s += probe.normalized_s(k, w.run_s);
    timed.setup_s.push_back(probe.normalized_s(k, w.setup_s));
  }
  return timed;
}

}  // namespace

Result run_solo_predictive(const Options& options) {
  Result result;
  if (!options.trace) {
    const std::size_t worlds = units_for(options.seconds, kWorldCostS);
    Qoe qoe;
    const Timed timed = run_timed(options.seed, worlds, result.checks, qoe);
    add_end_to_end(result,
                   kDurationS * static_cast<double>(worlds) /
                       timed.normalized_run_s,
                   median(timed.setup_s), qoe.glitch_frac());
    return result;
  }

  // Each world untraced, then traced right after it: the pair shares the
  // machine's speed, so their time ratio is the tracing overhead.
  Layers layers;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  std::vector<double> calibrate_s;
  for (std::size_t k = 0; k < kTraceWorlds; ++k) {
    const std::uint64_t seed = mix(options.seed, k);
    const WorldRun plain =
        run_world(seed, result.checks, nullptr, nullptr, false);
    const WorldRun traced =
        run_world(seed, result.checks, &layers.qoe, &layers, k == 0);
    result.checks.expect(traced.fingerprint == plain.fingerprint,
                         "traced world matches the untraced run bit for bit");
    untraced_s += plain.run_s;
    traced_s += traced.run_s;
    calibrate_s.push_back(plain.calibrate_s);
  }
  layers.timed_cpu_s = untraced_s;
  layers.overhead_ratio = traced_s / untraced_s;
  layers.calibrate_ms = 1e3 * median(calibrate_s);
  emit_layers(result, layers);
  return result;
}

}  // namespace movrbench
