// soak_logged: bench/chaos_soak's world — the office, two calibrated
// reflectors under config-epoch control agents with the silence watchdog
// on, a lossy/corrupting/reordering Bluetooth control channel, partitions,
// brownouts, obstacle storms, hand blockages, a reflector reboot, gain sag,
// sensor drift and angle searches launched into the chaos — with the frame
// transport on and a signed in-memory log::Recorder on every hook. The
// 20 ms snapshots the offline verifier needs are recorded by the
// benchmark's own tick, exactly as the soak bench records them.
//
// A run is units_for(seconds, kWorldCostS) worlds of kDurationS simulated
// seconds, world k built from (seed, k); the traced pass runs the first
// kTraceWorlds. Each world's log is verified offline (chain plus
// invariants A-E) after its timed run.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <arena/coordinator.hpp>
#include <core/angle_search.hpp>
#include <core/config_epoch.hpp>
#include <log/reader.hpp>
#include <log/recorder.hpp>
#include <log/verify.hpp>
#include <sim/fault_injector.hpp>
#include <sim/rng.hpp>
#include <vr/fault_scenarios.hpp>
#include <vr/session.hpp>

#include "speed_probe.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace movrbench {

namespace {

using namespace std::chrono_literals;
namespace mlog = movr::log;

constexpr double kDurationS = 30.0;
/// Nominal CPU seconds of one world, for sizing a run.
constexpr double kWorldCostS = 0.21;
constexpr std::size_t kTraceWorlds = 8;
constexpr const char* kLogKey = "movrbench-soak";

struct WorldRun {
  /// QoE fingerprint mixed with the control-channel ledger and the probe
  /// counts — independent of whether a recorder was attached.
  std::uint64_t fingerprint{0};
  /// Log chain head and record count (0 with the recorder detached).
  std::uint64_t chain{0};
  std::uint64_t records{0};
  std::string log;
  double setup_s{0.0};
  double calibrate_s{0.0};
  double run_s{0.0};
};

/// Builds and runs one world; `logged` attaches the recorder. `layers`
/// non-null = traced (link decorator on, steps timed, counters read).
WorldRun run_world(std::uint64_t world_seed, bool logged, Checks& checks,
                   Qoe* qoe, Layers* layers, bool replay) {
  WorldRun out;
  const double setup_start = cpu_seconds();
  const auto duration = sim::from_seconds(kDurationS);
  const sim::TimePoint end{duration};
  const sim::RngRegistry rngs{world_seed};
  auto chaos = rngs.stream("chaos");

  core::Scene scene = office_scene(
      {uniform(chaos, 2.2, 3.2), uniform(chaos, 1.6, 2.6)},
      /*with_furniture=*/false);
  steer_direct(scene);
  auto& r0 = scene.add_reflector({4.6, 4.6}, geom::deg_to_rad(225.0));
  auto& r1 = scene.add_reflector({3.6, 4.8}, geom::deg_to_rad(265.0));
  auto cal_rng = rngs.stream("cal");
  const double calibrate_start = cpu_seconds();
  calibrate_reflector(scene, r0, cal_rng);
  calibrate_reflector(scene, r1, cal_rng);
  out.calibrate_s = cpu_seconds() - calibrate_start;

  sim::Simulator simulator;
  sim::ControlChannel::Config channel_config;
  channel_config.loss_probability = uniform(chaos, 0.02, 0.12);
  channel_config.ack_loss_fraction = 0.25;
  channel_config.jitter = sim::Duration{
      static_cast<sim::Duration::rep>(uniform(chaos, 0.5e6, 2.0e6))};
  channel_config.corruption_probability = uniform(chaos, 0.005, 0.03);
  channel_config.undetected_corruption_fraction = 0.1;
  channel_config.reorder_probability = uniform(chaos, 0.02, 0.12);
  sim::ControlChannel control{simulator, channel_config, rngs.stream("bt")};

  std::optional<mlog::Recorder> recorder_storage;
  mlog::Recorder* recorder = nullptr;
  if (logged) {
    mlog::Recorder::Config log_config;
    log_config.key = kLogKey;
    log_config.bench = "soak_logged";
    log_config.seed = world_seed;
    recorder = &recorder_storage.emplace(std::move(log_config));
    recorder->bind_clock(&simulator);
  }

  core::LinkManager::Config manager_config;
  manager_config.recorder = recorder;
  manager_config.reflector_reachable = [&control](std::size_t) {
    return !control.partitioned();
  };
  vr::MovrStrategy strategy{simulator, scene, rngs.stream("mgr"),
                            manager_config};

  core::ReflectorConfigAgent::Config agent_config;
  core::ReflectorConfigAgent agent0{simulator, control, r0, agent_config,
                                    rngs.stream("agent", 0)};
  core::ReflectorConfigAgent agent1{simulator, control, r1, agent_config,
                                    rngs.stream("agent", 1)};
  agent0.set_input_probe([&] { return scene.reflector_input(r0); });
  agent1.set_input_probe([&] { return scene.reflector_input(r1); });
  agent0.set_recorder(recorder, 0);
  agent1.set_recorder(recorder, 1);
  agent0.start();
  agent1.start();

  core::ControlPlane plane{simulator, control, {}};
  plane.set_recorder(recorder);
  strategy.manager().health().set_recorder(recorder);
  plane.bind_health(&strategy.manager().health());
  plane.manage(0, r0, &agent0);
  plane.manage(1, r1, &agent1);
  plane.start();
  const auto epoch_of = [](const core::MovrReflector& r) {
    return core::ConfigEpoch{r.front_end().rx_array().steering(),
                             r.front_end().tx_array().steering(),
                             r.front_end().gain_code()};
  };
  plane.commit(0, epoch_of(r0));
  plane.commit(1, epoch_of(r1));

  // --- the fault schedule, drawn from the seed --------------------------
  sim::FaultInjector injector{simulator};
  const auto add_blockage = [&](sim::TimePoint at, sim::Duration len) {
    injector.inject(
        "hand_blockage", at, len,
        [&scene] {
          scene.room().add_obstacle(channel::make_hand(
              scene.headset().node().position(),
              scene.ap().node().position() -
                  scene.headset().node().position()));
        },
        [&scene] { scene.room().remove_obstacles("hand"); });
  };
  const auto span = [&](double lo_s, double hi_s) {
    return sim::Duration{static_cast<sim::Duration::rep>(
        uniform(chaos, lo_s * 1e9, hi_s * 1e9))};
  };
  const auto at = [](double s) { return sim::TimePoint{sim::from_seconds(s)}; };
  // Every draw is sequenced explicitly: argument evaluation order is
  // unspecified, and the schedule must be a pure function of the seed.
  {
    const sim::Duration blockage = span(3.5, 5.0);
    add_blockage(sim::TimePoint{4s}, blockage);
    const sim::Duration partition = span(1.2, 2.5);
    injector.inject_control_partition(control, sim::TimePoint{5s}, partition);
  }
  const int extra = static_cast<int>((kDurationS - 12.0) / 12.0);
  for (int i = 0; i < extra; ++i) {
    const double base_s = 10.0 + 12.0 * i;
    const sim::TimePoint partition_at = at(base_s + uniform(chaos, 0.0, 4.0));
    const sim::Duration partition = span(0.6, 1.8);
    injector.inject_control_partition(control, partition_at, partition);
    const sim::TimePoint brownout_at = at(base_s + uniform(chaos, 4.0, 8.0));
    const sim::Duration brownout = span(0.5, 2.0);
    const double extra_loss = uniform(chaos, 0.3, 0.8);
    const sim::Duration extra_latency = span(2.0e-3, 8.0e-3);
    injector.inject_control_brownout(control, brownout_at, brownout,
                                     extra_loss, extra_latency);
    vr::ObstacleStormConfig storm;
    storm.start = at(base_s + uniform(chaos, 0.0, 6.0));
    storm.duration = span(1.5, 3.5);
    storm.people = 2 + static_cast<int>(uniform(chaos, 0.0, 3.0));
    storm.seed = world_seed * 1000 + static_cast<std::uint64_t>(i);
    vr::add_obstacle_storm(injector, scene.room(), storm);
    const sim::TimePoint blockage_at = at(base_s + uniform(chaos, 6.0, 9.0));
    const sim::Duration blockage = span(1.0, 3.0);
    add_blockage(blockage_at, blockage);
  }
  const sim::TimePoint reboot_at = at(uniform(chaos, 10.0, kDurationS - 6.0));
  vr::add_reflector_reboot(injector, r0, reboot_at);
  const sim::TimePoint sag_at = at(uniform(chaos, 10.0, 14.0));
  const rf::Decibels sag{uniform(chaos, 2.0, 6.0)};
  vr::add_gain_sag(injector, r0, sag_at, 4s, sag);
  const sim::TimePoint drift_at = at(uniform(chaos, 14.0, 18.0));
  const double peak_bias_a = uniform(chaos, 0.005, 0.02);
  vr::add_sensor_bias_drift(injector, r0, drift_at, 4s, peak_bias_a);

  // --- angle searches launched into the chaos ---------------------------
  auto search_config = core::make_search_config(4.0);
  search_config.watchdog = 2s;
  search_config.abort_after_failed_commands = 8;
  std::vector<std::unique_ptr<core::IncidenceSearch>> searches;
  for (double at_s = 8.0; at_s + 3.0 < kDurationS; at_s += 17.0) {
    const auto i = static_cast<std::int64_t>(searches.size());
    searches.push_back(std::make_unique<core::IncidenceSearch>(
        simulator, control, scene, r1, search_config,
        rngs.stream("search", static_cast<std::uint64_t>(i))));
    core::IncidenceSearch* search = searches.back().get();
    simulator.at(at(at_s), [recorder, search, i] {
      if (recorder != nullptr) {
        recorder->record(mlog::EventKind::kSearchLaunch, {{"id", i}});
      }
      search->start([recorder, i](const core::IncidenceResult& r) {
        if (recorder != nullptr) {
          recorder->record(
              mlog::EventKind::kSearchDone,
              {{"id", i},
               {"completed", r.completed ? 1 : 0},
               {"reason_h", r.failure_reason.empty()
                                ? 0
                                : mlog::Recorder::name_hash(r.failure_reason)},
               {"took_us", r.duration.count() / 1000}});
        }
      });
    });
  }

  // --- the 20 ms snapshot tick the offline verifier replays -------------
  const sim::Duration grace = agent_config.silence_timeout +
                              2 * agent_config.watchdog_tick +
                              sim::Duration{100'000'000};
  if (recorder != nullptr) {
    recorder->record(mlog::EventKind::kParams,
                     {{"grace_us", grace.count() / 1000},
                      {"osc_us", 1'000'000},
                      {"div_us", 2'500'000},
                      {"watchdog_us", search_config.watchdog.count() / 1000},
                      {"slack_us", 500'000},
                      {"tick_us", 20'000},
                      {"reflectors", 2}});
  }
  std::vector<std::pair<bool, bool>> fault_logged(injector.timeline().size(),
                                                  {false, false});
  const core::MovrReflector* reflectors[2] = {&r0, &r1};
  const core::ReflectorConfigAgent* agents[2] = {&agent0, &agent1};
  const auto snapshot = [&] {
    const auto now = simulator.now();
    bool stable[2];
    for (int i = 0; i < 2; ++i) {
      stable[i] = reflectors[i]
                      ->front_end()
                      .process(scene.reflector_input(*reflectors[i]))
                      .stable;
    }
    if (recorder == nullptr) {
      return;
    }
    const auto& timeline = injector.timeline();
    for (std::size_t fi = 0; fi < timeline.size(); ++fi) {
      const sim::FaultInjector::AppliedFault& fault = timeline[fi];
      const auto fault_record = [&](mlog::EventKind kind) {
        recorder->record(kind,
                         {{"name_h", mlog::Recorder::name_hash(fault.name)},
                          {"start_us", fault.start.count() / 1000},
                          {"end_us", fault.end.count() / 1000}});
      };
      if (fault.applied && !fault_logged[fi].first) {
        fault_logged[fi].first = true;
        fault_record(mlog::EventKind::kFaultOpen);
      }
      if (fault.cleared && !fault_logged[fi].second) {
        fault_logged[fi].second = true;
        fault_record(mlog::EventKind::kFaultClose);
      }
    }
    const auto& cs = control.stats();
    recorder->record(mlog::EventKind::kSnapshotControl,
                     {{"sent", static_cast<std::int64_t>(cs.sent)},
                      {"delivered", static_cast<std::int64_t>(cs.delivered)},
                      {"dropped", static_cast<std::int64_t>(cs.dropped)},
                      {"undeliv", static_cast<std::int64_t>(cs.undeliverable)},
                      {"in_flight", static_cast<std::int64_t>(cs.in_flight)},
                      {"part", control.partitioned() ? 1 : 0}});
    for (int i = 0; i < 2; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      recorder->record(
          mlog::EventKind::kSnapshotReflector,
          {{"r", i},
           {"gain",
            static_cast<std::int64_t>(reflectors[i]->front_end().gain_code())},
           {"safe_code", static_cast<std::int64_t>(agents[i]->safe_gain_code())},
           {"safe_mode", agents[i]->in_safe_mode() ? 1 : 0},
           {"stable", stable[i] ? 1 : 0},
           {"div_age_us", plane.divergence_age(idx, now).count() / 1000},
           {"plane_part", plane.partitioned(idx) ? 1 : 0}});
    }
  };
  for (sim::TimePoint t{20ms}; t < end; t += 20ms) {
    simulator.at(t, snapshot);
  }

  // --- the session: frame transport on, fault accounting on -------------
  vr::Session::Config session_config;
  session_config.duration = duration;
  session_config.faults = &injector;
  session_config.control_plane = &plane;
  session_config.recorder = recorder;
  net::TransportConfig transport;
  transport.source.target_mbps = 400.0;
  session_config.transport = transport;
  std::optional<TimedStrategy> timed_strategy;
  vr::LinkStrategy* link = &strategy;
  if (layers != nullptr) {
    layers->frames.restart();
    link = &timed_strategy.emplace(strategy, layers->link_ns, &layers->frames);
  }
  vr::Session session{simulator, scene, *link, nullptr, nullptr,
                      session_config};
  const std::uint64_t probes_before = checks.attempted();
  const std::uint64_t failed_before = checks.failed();
  schedule_ledger_probes(simulator, end, session, checks);
  const double run_start = cpu_seconds();
  out.setup_s = run_start - setup_start;

  session.start();
  drive(simulator, end, layers != nullptr ? &layers->step_ns : nullptr);
  const vr::QoeReport report = session.finish();
  if (recorder != nullptr) {
    recorder->close();
  }
  out.run_s = cpu_seconds() - run_start;

  checks.expect(report.transport.has_value() && report.transport->conserved(),
                "final packet ledger closes");
  const sim::ControlChannel::Stats& cs = control.stats();
  std::uint64_t h = arena::qoe_fingerprint(report);
  for (const std::uint64_t v :
       {cs.sent, cs.delivered, cs.dropped, cs.duplicates, cs.reordered,
        cs.corrupted_dropped, cs.corrupted_delivered,
        checks.attempted() - probes_before, checks.failed() - failed_before}) {
    h = mix(h, v);
  }
  out.fingerprint = h;
  if (recorder != nullptr) {
    out.chain = recorder->chain();
    out.records = recorder->records();
    out.log = recorder->buffer();
  }
  if (qoe != nullptr) {
    qoe->add(report, session.transport());
  }
  if (layers != nullptr) {
    layers->events += simulator.events_executed();
    layers->oracle += scene.oracle_stats();
    layers->add_link(strategy.manager().stats());
    layers->add_transport(*session.transport());
    layers->control_sent += cs.sent;
    layers->control_dropped += cs.dropped;
    layers->control_duplicates += cs.duplicates;
    if (replay) {
      layers->replay(scene, {scene.headset().node().position()});
    }
  }
  return out;
}

/// Offline verification of one world's signed log: the chain, then the
/// invariants replayed from the records. Two checks.
void verify(const WorldRun& world, Checks& checks) {
  const mlog::ParsedLog parsed = mlog::parse_log(world.log);
  const mlog::VerifyReport report = mlog::verify_log(parsed, kLogKey);
  checks.expect(parsed.ok() && report.chain_issues.empty(),
                "offline log chain verification");
  checks.expect(report.invariant_issues.empty() && report.has_params,
                "offline log invariants A-E");
}

struct Timed {
  /// Normalized CPU seconds of the timed phase.
  double normalized_run_s{0.0};
  /// Normalized CPU seconds of each world's set-up.
  std::vector<double> setup_s;
};

/// Runs every world logged; each log is verified and dropped as soon as
/// its world ends.
Timed run_timed(std::uint64_t seed, std::size_t worlds, Checks& checks,
                Qoe& qoe) {
  Timed timed;
  SpeedProbe probe{SpeedProbe::Clock::kCpu};
  probe.sample();
  for (std::size_t k = 0; k < worlds; ++k) {
    const WorldRun w =
        run_world(mix(seed, k), true, checks, &qoe, nullptr, false);
    probe.sample();
    timed.normalized_run_s += probe.normalized_s(k, w.run_s);
    timed.setup_s.push_back(probe.normalized_s(k, w.setup_s));
    verify(w, checks);
  }
  return timed;
}

bool same_outputs(const WorldRun& a, const WorldRun& b) {
  return a.fingerprint == b.fingerprint && a.chain == b.chain &&
         a.records == b.records;
}

}  // namespace

Result run_soak_logged(const Options& options) {
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

  // Each world logged and with the recorder detached, back to back in
  // alternating order, then traced: the three share the machine's speed.
  // Normalized against the probe, the logged-minus-detached difference is
  // the log's cost and the traced-over-logged ratio the tracing overhead.
  Layers layers;
  double logged_s = 0.0;
  double traced_s = 0.0;
  double verify_s = 0.0;
  std::vector<double> calibrate_s;
  std::vector<double> ns_per_record;
  SpeedProbe probe{SpeedProbe::Clock::kCpu};
  probe.sample();
  const auto timed_world = [&](std::uint64_t seed, bool logged, Layers* trace,
                               bool replay, double& normalized_s) {
    WorldRun w = run_world(seed, logged, result.checks,
                           trace != nullptr ? &trace->qoe : nullptr, trace,
                           replay);
    probe.sample();
    normalized_s = probe.normalized_s(probe.slices() - 2, w.run_s);
    return w;
  };
  for (std::size_t k = 0; k < kTraceWorlds; ++k) {
    const std::uint64_t seed = mix(options.seed, k);
    double logged_k = 0.0;
    double detached_k = 0.0;
    double traced_k = 0.0;
    WorldRun logged;
    WorldRun detached;
    if (k % 2 == 0) {
      logged = timed_world(seed, true, nullptr, false, logged_k);
      detached = timed_world(seed, false, nullptr, false, detached_k);
    } else {
      detached = timed_world(seed, false, nullptr, false, detached_k);
      logged = timed_world(seed, true, nullptr, false, logged_k);
    }
    const WorldRun traced = timed_world(seed, true, &layers, k == 0, traced_k);
    result.checks.expect(same_outputs(traced, logged),
                         "traced world matches the untraced run bit for bit");
    result.checks.expect(detached.fingerprint == logged.fingerprint,
                         "run with the recorder detached matches the logged run");
    const double verify_start = cpu_seconds();
    verify(logged, result.checks);
    verify_s += cpu_seconds() - verify_start;
    layers.log_records += logged.records;
    layers.log_bytes += logged.log.size();
    ns_per_record.push_back(1e9 * (logged_k - detached_k) /
                            static_cast<double>(logged.records));
    logged_s += logged_k;
    traced_s += traced_k;
    layers.timed_cpu_s += logged.run_s;
    calibrate_s.push_back(logged.calibrate_s);
  }
  layers.log_verify_ms = 1e3 * verify_s / static_cast<double>(kTraceWorlds);
  // Reported as measured: when the recorder's cost sinks below the
  // machine's noise, the median difference can read at or below zero.
  layers.log_ns_per_record = median(ns_per_record);
  layers.overhead_ratio = traced_s / logged_s;
  layers.calibrate_ms = 1e3 * median(calibrate_s);
  emit_layers(result, layers);
  return result;
}

}  // namespace movrbench
