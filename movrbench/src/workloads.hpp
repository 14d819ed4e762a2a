// The four workloads. Each one builds its inputs from the seed, runs an
// untraced closed loop (end-to-end metrics) or the traced pass (per-layer
// metrics), and counts its correctness checks. README.md maps every metric
// to the public function it times or reads.
#pragma once

#include <algorithm>
#include <random>
#include <thread>

#include <core/gain_control.hpp>
#include <core/scene.hpp>
#include <geom/angle.hpp>

#include "harness.hpp"

namespace movrbench {

Result run_arena_crowd(const Options& options);
Result run_solo_predictive(const Options& options);
Result run_soak_logged(const Options& options);
Result run_coverage_sweep(const Options& options);

/// coverage_sweep's worker count: two, or fewer on a smaller machine, so
/// there are never more threads than cores.
inline unsigned sweep_workers() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 2u);
}

/// Adds the end-to-end metrics every workload reports (peak_rss_mb is
/// added by main, once the workload is done).
inline void add_end_to_end(Result& result, double throughput, double setup_s,
                           double qoe_loss_frac) {
  result.metric("throughput", throughput, "1/s");
  result.metric("setup_s", setup_s, "s");
  result.metric("qoe_loss_frac", qoe_loss_frac, "fraction");
}

// --- world pieces shared by the session workloads ----------------------

/// The paper's 5 x 5 m office, AP in one corner aimed across the room.
inline core::Scene office_scene(geom::Vec2 headset, bool with_furniture) {
  auto room = with_furniture ? movr::channel::Room::paper_office()
                             : movr::channel::Room{5.0, 5.0};
  return core::Scene{std::move(room),
                     core::ApRadio{{0.4, 0.4}, geom::deg_to_rad(45.0)},
                     core::HeadsetRadio{headset, 0.0}};
}

/// Aims AP and headset at each other for the direct link.
inline void steer_direct(core::Scene& scene) {
  scene.ap().node().steer_toward(scene.headset().node().position());
  scene.headset().node().face_toward(scene.ap().node().position());
}

/// Ground-truth beam angles plus the current-sensing gain ramp: the
/// calibration the session benches use for reflectors whose search
/// protocol is not under test.
inline void calibrate_reflector(core::Scene& scene,
                                core::MovrReflector& reflector,
                                std::mt19937_64& rng) {
  reflector.front_end().steer_rx(scene.true_reflector_angle_to_ap(reflector));
  reflector.front_end().steer_tx(
      scene.true_reflector_angle_to_headset(reflector));
  scene.ap().node().steer_toward(reflector.position());
  core::GainController::run(reflector.front_end(),
                            scene.reflector_input(reflector), rng);
}

inline double uniform(std::mt19937_64& rng, double lo, double hi) {
  return std::uniform_real_distribution<double>{lo, hi}(rng);
}

}  // namespace movrbench
