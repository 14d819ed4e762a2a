// arena_crowd: bench/arena's room at 32 users, arbitration arm, no faults,
// transport on. Four corner APs, four wall reflectors, users wandering
// their own quadrant with staggered hand raises. Interference grows as
// O(N^2) and admission sheds load, so arena.* and rf.* do most of the
// work; one thread, every user interleaved on one simulator.
//
// A run is units_for(seconds, kWorldCostS) coordinator runs of kDurationS
// simulated seconds, run k built from (seed, k): long enough that the
// person crossing at 2 s happens and a user degraded by admission can be
// evicted (evict_grace after the degrade). The traced pass runs the first
// world.
#include <algorithm>
#include <memory>
#include <vector>

#include <arena/coordinator.hpp>
#include <arena/interference.hpp>
#include <sim/rng.hpp>
#include <vr/session.hpp>

#include "speed_probe.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace movrbench {

namespace {

constexpr std::size_t kUsers = 32;
constexpr double kDurationS = 7.0;
/// Nominal CPU seconds of one world, for sizing a run.
constexpr double kWorldCostS = 17.5;
/// Set-up-only constructions added to the worlds' own, for setup_s.
constexpr std::size_t kExtraSetups = 4;

constexpr geom::Vec2 kApPositions[4] = {
    {0.4, 0.4}, {7.6, 0.4}, {7.6, 7.6}, {0.4, 7.6}};
constexpr double kApOrientationsDeg[4] = {45.0, 135.0, 225.0, 315.0};
constexpr geom::Vec2 kCenter{4.0, 4.0};

/// 8 x 8 m, empty floor, one reflector at each wall midpoint.
core::Scene arena_scene() {
  core::Scene scene{channel::Room{8.0, 8.0},
                    core::ApRadio{kApPositions[0],
                                  geom::deg_to_rad(kApOrientationsDeg[0])},
                    core::HeadsetRadio{kCenter, 0.0}};
  scene.add_reflector({4.0, 7.7}, geom::deg_to_rad(265.0));
  scene.add_reflector({7.7, 4.0}, geom::deg_to_rad(175.0));
  scene.add_reflector({0.3, 4.0}, geom::deg_to_rad(355.0));
  scene.add_reflector({4.0, 0.3}, geom::deg_to_rad(85.0));
  return scene;
}

arena::Coordinator::Config arena_config(std::uint64_t seed) {
  arena::Coordinator::Config config;
  config.users = kUsers;
  config.seed = seed;
  config.ap_positions.assign(std::begin(kApPositions), std::end(kApPositions));
  for (const double deg : kApOrientationsDeg) {
    config.ap_orientations.push_back(geom::deg_to_rad(deg));
  }
  config.arbiter.policy = arena::ReflectorArbiter::Policy::kPriorityAging;
  config.arbiter.lease_duration = std::chrono::milliseconds{250};
  config.arbiter.aging_per_second = 4.0;
  config.admission.evict_grace = std::chrono::seconds{2};
  config.link.skip_occluded_candidates = true;
  config.session.duration = sim::from_seconds(kDurationS);
  net::TransportConfig transport;
  transport.source.target_mbps = 300.0;
  config.session.transport = transport;
  return config;
}

/// Staggered per-user hand raises plus a diagonal person crossing every
/// 5 s, as in bench/arena (one, from 2 s to 4.5 s, in a 7 s run).
vr::BlockageScript user_script(std::size_t u) {
  const sim::TimePoint end{sim::from_seconds(kDurationS)};
  std::vector<vr::BlockageEvent> events =
      vr::periodic_hand_raises(
          sim::TimePoint{
              sim::from_seconds(0.8 + 0.21 * static_cast<double>(u % 7))},
          sim::from_seconds(0.7), sim::from_seconds(2.4), end)
          .events();
  bool flip = false;
  for (double t = 2.0; t + 2.5 < kDurationS; t += 5.0) {
    vr::BlockageEvent person;
    person.kind = vr::BlockageEvent::Kind::kPersonCrossing;
    person.start = sim::TimePoint{sim::from_seconds(t)};
    person.duration = sim::from_seconds(2.5);
    person.path_from = flip ? geom::Vec2{7.4, 0.6} : geom::Vec2{0.6, 0.6};
    person.path_to = flip ? geom::Vec2{0.6, 7.4} : geom::Vec2{7.4, 7.4};
    flip = !flip;
    events.push_back(person);
  }
  return vr::BlockageScript{std::move(events)};
}

struct ArenaRun {
  /// Per user: qoe_fingerprint mixed with its ledger-audit counts.
  std::vector<std::uint64_t> fingerprints;
  std::uint64_t frames{0};
  /// Simulator events of the simulation itself (the benchmark's probe
  /// slices and replays left out).
  std::uint64_t events{0};
  /// CPU seconds, measured and normalized.
  double setup_s{0.0};
  double normalized_setup_s{0.0};
  double run_s{0.0};
  double normalized_run_s{0.0};
  /// Summed over the users' scenes. The traced run's replays query the
  /// oracle too, so the trace reports the untraced run's.
  core::ChannelOracle::Stats oracle;
};

/// Simulated time between speed-probe slices during a run: a 32-user run
/// takes seconds, far longer than the machine's speed stays put.
constexpr sim::Duration kProbeInterval = std::chrono::milliseconds{50};
/// Simulated time between interference replays in the traced run.
constexpr sim::Duration kReplayInterval = std::chrono::milliseconds{100};

/// Builds the coordinator (set-up) and, when `run`, runs it. `layers`
/// non-null = traced: motion decorators on, counters read, replays run.
/// `probe` must have taken a slice just before the call; the set-up and
/// every kProbeInterval of the run are normalized against it (its slices
/// run from simulator events that touch nothing of the simulation).
ArenaRun run_world(std::uint64_t seed, bool run, SpeedProbe& probe,
                   Checks& checks, Qoe* qoe, Layers* layers) {
  ArenaRun out;
  const double setup_start = cpu_seconds();
  const core::Scene prototype = arena_scene();
  sim::Simulator simulator;
  const arena::Coordinator::Config config = arena_config(seed);
  std::vector<const core::Scene*> scenes(kUsers, nullptr);
  TimedMotion* first_motion = nullptr;
  if (layers != nullptr) {
    layers->frames.restart();
  }
  // bench/arena's motion: start in the user's own AP quadrant (seeded
  // jitter) and wander. The factory also captures each user's scene for
  // the interference replay.
  const auto motion = [&](std::size_t u, const core::Scene& scene)
      -> std::unique_ptr<vr::Motion> {
    scenes[u] = &scene;
    const sim::RngRegistry rngs{seed};
    auto rng = rngs.stream("arena.pos", u);
    const geom::Vec2 ap = kApPositions[u % 4];
    const geom::Vec2 toward = (kCenter - ap).normalized();
    const geom::Vec2 perp{-toward.y, toward.x};
    geom::Vec2 start = ap + toward * uniform(rng, 1.8, 3.2) +
                       perp * uniform(rng, -1.1, 1.1);
    start.x = std::clamp(start.x, 0.9, 7.1);
    start.y = std::clamp(start.y, 0.9, 7.1);
    std::unique_ptr<vr::Motion> walk = std::make_unique<vr::PlayerMotion>(
        scene.room(), start, rngs.stream("arena.motion", u)());
    if (layers == nullptr) {
      return walk;
    }
    auto timed = std::make_unique<TimedMotion>(
        std::move(walk), layers->motion_ns, u == 0 ? &layers->frames : nullptr);
    if (u == 0) {
      first_motion = timed.get();
    }
    return timed;
  };
  arena::Coordinator coordinator{simulator, prototype, config, motion,
                                 user_script};
  out.setup_s = cpu_seconds() - setup_start;
  probe.sample();
  out.normalized_setup_s = probe.normalized_s(probe.slices() - 2, out.setup_s);
  if (!run) {
    return out;
  }

  // The benchmark's own work inside the run — probe slices, replays — is
  // left out of the run's time and of the traced frame intervals.
  double lap_start = 0.0;
  double replay_s = 0.0;
  const auto exclude_from_frame = [layers](std::int64_t since_ns) {
    if (layers != nullptr) {
      layers->frames.exclude(now_ns() - since_ns);
    }
  };
  const auto lap = [&] {
    const std::int64_t start = now_ns();
    const double work = cpu_seconds() - lap_start - replay_s;
    probe.sample();
    out.run_s += work;
    out.normalized_run_s += probe.normalized_s(probe.slices() - 2, work);
    replay_s = 0.0;
    lap_start = cpu_seconds();
    exclude_from_frame(start);
  };
  const sim::TimePoint end{sim::from_seconds(kDurationS)};
  std::uint64_t bench_events = 0;
  for (sim::TimePoint t{kProbeInterval}; t < end; t += kProbeInterval) {
    simulator.at(t, lap);
    ++bench_events;
  }
  // Traced run: every kReplayInterval, each victim's interference
  // evaluation against every other transmitting user — what the
  // coordinator computes once per user frame tick — timed on the live
  // state through the public accessors.
  std::int64_t replay_ns = 0;
  std::uint64_t replays = 0;
  double penalty_sum = 0.0;
  std::vector<arena::Interferer> aggressors;
  const auto replay = [&] {
    const std::int64_t start = now_ns();
    const double cpu_start = cpu_seconds();
    for (std::size_t u = 0; u < kUsers; ++u) {
      aggressors.clear();
      for (std::size_t v = 0; v < kUsers; ++v) {
        if (v == u || !coordinator.admission().transmitting(v)) {
          continue;
        }
        const core::LinkManager& manager = coordinator.user_manager(v);
        arena::Interferer aggressor;
        aggressor.scene = scenes[v];
        aggressor.via_reflector =
            manager.mode() == core::LinkManager::Mode::kViaReflector;
        aggressor.reflector = manager.active_reflector();
        aggressors.push_back(aggressor);
      }
      const std::int64_t call_start = now_ns();
      penalty_sum +=
          arena::sinr_penalty_db(*scenes[u], aggressors, config.interference);
      replay_ns += now_ns() - call_start;
      ++replays;
    }
    replay_s += cpu_seconds() - cpu_start;
    exclude_from_frame(start);
  };
  if (layers != nullptr) {
    for (sim::TimePoint t{kReplayInterval}; t < end; t += kReplayInterval) {
      simulator.at(t, replay);
      ++bench_events;
    }
  }
  lap_start = cpu_seconds();
  const auto results = coordinator.run();
  lap();
  out.events = simulator.events_executed() - bench_events;

  for (std::size_t u = 0; u < results.size(); ++u) {
    const vr::QoeReport& report = results[u].report;
    out.frames += report.frames;
    const vr::ArenaLinkStats arena_stats =
        report.arena.value_or(vr::ArenaLinkStats{});
    checks.add(arena_stats.ledger_checks, arena_stats.ledger_violations,
               "per-20 ms arena ledger audit");
    checks.expect(arena_stats.ledger_checks > 0,
                  "arena ledger audits ran for every user");
    out.fingerprints.push_back(
        mix(mix(arena::qoe_fingerprint(report), arena_stats.ledger_checks),
            arena_stats.ledger_violations));
    out.oracle += scenes[u]->oracle_stats();
    if (qoe != nullptr) {
      qoe->add(report, coordinator.user_transport(u));
    }
    if (layers != nullptr) {
      layers->add_link(results[u].link_stats);
      layers->add_transport(*coordinator.user_transport(u));
      layers->evictions +=
          static_cast<std::uint64_t>(arena_stats.admission_evictions);
    }
  }
  if (layers == nullptr) {
    return out;
  }
  const auto& lease = coordinator.arbiter().stats();
  layers->lease_grants += lease.grants;
  layers->lease_denials += lease.denials;
  layers->lease_revocations += lease.revocations;

  layers->victim_us = 1e-3 * static_cast<double>(replay_ns) /
                      static_cast<double>(replays);
  checks.expect(penalty_sum >= 0.0, "interference penalties are non-negative");
  layers->replay(*scenes[0], first_motion->poses());
  return out;
}

}  // namespace

Result run_arena_crowd(const Options& options) {
  Result result;
  if (!options.trace) {
    const std::size_t worlds = units_for(options.seconds, kWorldCostS);
    Qoe qoe;
    std::vector<double> setup_s;
    double run_s = 0.0;
    // Units between probe slices: the set-up-only constructions, then the
    // worlds.
    SpeedProbe probe{SpeedProbe::Clock::kCpu};
    probe.sample();
    for (std::size_t i = 0; i < kExtraSetups; ++i) {
      setup_s.push_back(run_world(mix(options.seed, i), false, probe,
                                  result.checks, nullptr, nullptr)
                            .normalized_setup_s);
    }
    for (std::size_t k = 0; k < worlds; ++k) {
      const ArenaRun world = run_world(mix(options.seed, k), true, probe,
                                       result.checks, &qoe, nullptr);
      setup_s.push_back(world.normalized_setup_s);
      run_s += world.normalized_run_s;
    }
    add_end_to_end(result,
                   kDurationS * static_cast<double>(kUsers * worlds) / run_s,
                   median(setup_s), qoe.glitch_frac());
    return result;
  }

  SpeedProbe probe{SpeedProbe::Clock::kCpu};
  probe.sample();
  const std::uint64_t seed = mix(options.seed, 0);
  const ArenaRun untraced =
      run_world(seed, true, probe, result.checks, nullptr, nullptr);
  Layers layers;
  const ArenaRun traced =
      run_world(seed, true, probe, result.checks, &layers.qoe, &layers);
  for (std::size_t u = 0; u < kUsers; ++u) {
    result.checks.expect(
        traced.fingerprints.at(u) == untraced.fingerprints.at(u),
        "traced user matches the untraced run bit for bit");
  }
  result.checks.expect(traced.events == untraced.events,
                       "traced run executes the untraced run's events");
  layers.events = untraced.events;
  layers.timed_cpu_s = untraced.run_s;
  layers.oracle = untraced.oracle;
  layers.overhead_ratio = traced.normalized_run_s / untraced.normalized_run_s;
  // One interference evaluation per user frame tick at the replayed cost,
  // as a share of the traced run's own CPU time (replays left out): both
  // measured in the same minutes of machine time.
  layers.interference_share = 1e-6 * layers.victim_us *
                              static_cast<double>(traced.frames) /
                              traced.run_s;
  layers.calibrate_ms = 1e3 * untraced.setup_s / static_cast<double>(kUsers);
  emit_layers(result, layers);
  return result;
}

}  // namespace movrbench
