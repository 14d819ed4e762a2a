// coverage_sweep: core::compute_coverage at 12.5 cm resolution over a list of
// reflector mounts in the coverage_map example's room (the furnished
// 5 x 5 m office, AP in a corner, two wall-mounted reflectors per map).
// Each map starts from a cold oracle — compute_coverage gives every worker
// a fresh scene clone — so ChannelOracle::query_batch,
// PathSolver::solve_batch and core::parallel_for do real work here and
// nowhere else. min(2, nproc) workers.
//
// A run is units_for(seconds, kMapCostS) maps, cycling through every pair
// of the kMounts wall mounts, each mount jittered along its wall by the
// seed. The traced pass runs the first kTraceMaps.
#include <vector>

#include <core/coverage.hpp>
#include <phy/mcs.hpp>
#include <sim/rng.hpp>
#include <vr/requirements.hpp>

#include "speed_probe.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace movrbench {

namespace {

/// Unordered pairs of the 7 mounts.
constexpr std::size_t kPairs = 21;
/// Nominal wall seconds of one map, for sizing a run.
constexpr double kMapCostS = 0.09;
constexpr std::size_t kTraceMaps = 8;
constexpr double kResolutionM = 0.125;
constexpr double kWallMarginM = 0.5;

struct Mount {
  geom::Vec2 position;
  double orientation_deg;
  /// Unit direction along the wall, for the seeded jitter.
  geom::Vec2 along;
};

/// Wall and corner mounts facing into the office (the example's two first).
constexpr Mount kMounts[] = {
    {{4.6, 4.6}, 225.0, {1.0, -1.0}}, {{0.4, 4.6}, 315.0, {1.0, 1.0}},
    {{4.6, 0.4}, 135.0, {1.0, 1.0}},  {{2.5, 4.7}, 270.0, {1.0, 0.0}},
    {{4.7, 2.5}, 180.0, {0.0, 1.0}},  {{0.3, 2.5}, 0.0, {0.0, 1.0}},
    {{2.5, 0.3}, 90.0, {1.0, 0.0}},
};
constexpr std::size_t kMountCount = sizeof kMounts / sizeof kMounts[0];
static_assert(kMountCount * (kMountCount - 1) / 2 == kPairs);

struct MapInput {
  std::size_t mount[2];
  double jitter_m[2];
  std::uint64_t calibration_seed;
};

std::vector<MapInput> map_inputs(std::uint64_t seed, std::size_t maps) {
  const sim::RngRegistry rngs{seed};
  auto rng = rngs.stream("coverage.mounts");
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < kMountCount; ++i) {
    for (std::size_t j = i + 1; j < kMountCount; ++j) {
      pairs.emplace_back(i, j);
    }
  }
  std::vector<MapInput> inputs(maps);
  for (std::size_t k = 0; k < maps; ++k) {
    MapInput& in = inputs[k];
    in.mount[0] = pairs[k % pairs.size()].first;
    in.mount[1] = pairs[k % pairs.size()].second;
    in.jitter_m[0] = uniform(rng, -0.3, 0.3);
    in.jitter_m[1] = uniform(rng, -0.3, 0.3);
    in.calibration_seed = rng();
  }
  return inputs;
}

/// The example's deployment for one map: AP aimed across the furnished
/// office, each reflector aimed at the AP and gain-calibrated.
core::Scene map_scene(const MapInput& in) {
  core::Scene scene = office_scene({2.5, 2.5}, /*with_furniture=*/true);
  std::mt19937_64 rng{in.calibration_seed};
  for (int i = 0; i < 2; ++i) {
    const Mount& m = kMounts[in.mount[i]];
    const geom::Vec2 along = m.along.normalized();
    auto& reflector = scene.add_reflector(m.position + along * in.jitter_m[i],
                                          geom::deg_to_rad(m.orientation_deg));
    reflector.front_end().steer_rx(scene.true_reflector_angle_to_ap(reflector));
    scene.ap().node().steer_toward(reflector.position());
    core::GainController::run(reflector.front_end(),
                              scene.reflector_input(reflector), rng);
  }
  return scene;
}

std::uint64_t cells_fingerprint(const core::CoverageMap& map) {
  std::uint64_t h = mix(static_cast<std::uint64_t>(map.cells_x),
                        static_cast<std::uint64_t>(map.cells_y));
  for (const core::CoverageCell& c : map.cells) {
    h = mix(h, bits(c.position.x));
    h = mix(h, bits(c.position.y));
    h = mix(h, bits(c.direct_snr.value()));
    h = mix(h, bits(c.via_snr.value()));
    h = mix(h, static_cast<std::uint64_t>(c.best_reflector + 1));
  }
  return h;
}

rf::Decibels vr_threshold() {
  return phy::mcs_for_rate(vr::kHtcVive.required_mbps())->min_snr;
}

struct MapRun {
  core::CoverageMap map;
  double setup_s{0.0};
  double map_s{0.0};
};

MapRun run_map(const MapInput& in, unsigned workers) {
  MapRun out;
  const double setup_start = wall_seconds();
  const core::Scene scene = map_scene(in);
  const double map_start = wall_seconds();
  out.setup_s = map_start - setup_start;
  out.map = core::compute_coverage(scene, kResolutionM, kWallMarginM, workers);
  out.map_s = wall_seconds() - map_start;
  return out;
}

struct Sweep {
  std::uint64_t first_fingerprint{0};
  std::vector<double> covered;
  std::size_t cells{0};
  /// Normalized wall seconds of the maps.
  double normalized_map_s{0.0};
  /// Normalized wall seconds of each map's set-up.
  std::vector<double> setup_s;
};

Sweep run_sweep(const std::vector<MapInput>& inputs, unsigned workers,
                Checks& checks) {
  Sweep sweep;
  SpeedProbe probe{SpeedProbe::Clock::kWall};
  probe.sample();
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const MapRun r = run_map(inputs[k], workers);
    probe.sample();
    const core::ChannelOracle::Stats& oracle = r.map.oracle;
    checks.expect(r.map.cells.size() == static_cast<std::size_t>(
                                            r.map.cells_x * r.map.cells_y) &&
                      oracle.queries > 0 &&
                      oracle.hits + oracle.misses == oracle.queries,
                  "every cell evaluated and the oracle's query ledger closes");
    if (k == 0) {
      sweep.first_fingerprint = cells_fingerprint(r.map);
    }
    sweep.covered.push_back(r.map.covered_fraction(vr_threshold()));
    sweep.cells += r.map.cells.size();
    sweep.normalized_map_s += probe.normalized_s(k, r.map_s);
    sweep.setup_s.push_back(probe.normalized_s(k, r.setup_s));
  }
  return sweep;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

}  // namespace

Result run_coverage_sweep(const Options& options) {
  Result result;
  const unsigned workers = sweep_workers();

  if (!options.trace) {
    const std::vector<MapInput> inputs =
        map_inputs(options.seed, units_for(options.seconds, kMapCostS));
    const Sweep sweep = run_sweep(inputs, workers, result.checks);
    // Outside the timed phase: the first map at one worker must equal the
    // parallel one cell for cell.
    result.checks.expect(
        cells_fingerprint(run_map(inputs[0], 1).map) == sweep.first_fingerprint,
        "coverage map at 1 worker equals the map at 2 workers");
    add_end_to_end(result,
                   static_cast<double>(sweep.cells) / sweep.normalized_map_s,
                   median(sweep.setup_s), 1.0 - mean(sweep.covered));
    return result;
  }

  const std::vector<MapInput> inputs = map_inputs(options.seed, kTraceMaps);
  // Each map at `workers` workers, again (the traced run: its oracle
  // counters are read), then at one worker, back to back after a warm-up
  // map: the three share the machine's speed.
  run_map(inputs[0], workers);
  Layers layers;
  std::vector<double> map_s;
  std::vector<double> setup_s;
  std::vector<double> speedups;
  std::vector<double> covered;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  for (std::size_t k = 0; k < kTraceMaps; ++k) {
    const MapRun plain = run_map(inputs[k], workers);
    const MapRun traced = run_map(inputs[k], workers);
    const MapRun serial = run_map(inputs[k], 1);
    const std::uint64_t fingerprint = cells_fingerprint(plain.map);
    result.checks.expect(cells_fingerprint(traced.map) == fingerprint,
                         "traced map matches the untraced run bit for bit");
    result.checks.expect(cells_fingerprint(serial.map) == fingerprint,
                         "coverage map at 1 worker equals the map at 2");
    layers.oracle += traced.map.oracle;
    map_s.push_back(plain.map_s);
    setup_s.push_back(plain.setup_s);
    speedups.push_back(serial.map_s / plain.map_s);
    covered.push_back(plain.map.covered_fraction(vr_threshold()));
    untraced_s += plain.map_s;
    traced_s += traced.map_s;
  }
  layers.coverage_map_ms = 1e3 * median(map_s);
  layers.speedup_2t = median(speedups);
  layers.covered_frac = mean(covered);
  layers.calibrate_ms = 1e3 * median(setup_s);
  layers.overhead_ratio = traced_s / untraced_s;

  // Replays on the first map's deployment, over its own cell endpoints.
  const core::Scene scene = map_scene(inputs[0]);
  const core::CoverageMap map =
      core::compute_coverage(scene, kResolutionM, kWallMarginM, workers);
  std::vector<geom::Vec2> cells;
  for (const core::CoverageCell& c : map.cells) {
    cells.push_back(c.position);
  }
  layers.replay(scene, cells);
  emit_layers(result, layers);
  return result;
}

}  // namespace movrbench
