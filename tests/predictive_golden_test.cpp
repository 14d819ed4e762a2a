// Golden fingerprints of the predictive tier.
//
// The world of bench/predictive's predictive arm (and movrbench's
// solo_predictive): the 5 x 5 m office, a person standing on the AP side,
// a calibrated reflector, and a headset pacing a line across the person's
// shadow, with the occlusion forecaster, speculative dual-path copies,
// adaptive FEC, the Gilbert-Elliott burst channel and seeded loss windows.
//
// Each session's qoe_fingerprint and the forecaster's counters are pinned.
// The fingerprint folds in the SNR and rate sums and the transport's
// speculative and FEC counters, so any change to what the forecaster
// decides, or to the channel it probes, shows up here. A performance
// change must leave these values alone; a deliberate model change
// re-captures them and says why.
#include <arena/coordinator.hpp>

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <random>
#include <string>

#include <core/gain_control.hpp>
#include <geom/angle.hpp>
#include <sim/fault_injector.hpp>
#include <sim/rng.hpp>
#include <vr/predictive.hpp>
#include <vr/session.hpp>

namespace movr::vr {
namespace {

using namespace std::chrono_literals;

constexpr double kDurationS = 8.0;
constexpr geom::Vec2 kAp{0.4, 0.4};
constexpr geom::Vec2 kPerson{1.7, 1.3};

double uniform(std::mt19937_64& g, double lo, double hi) {
  return std::uniform_real_distribution<double>{lo, hi}(g);
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

struct Golden {
  std::uint64_t seed;
  std::uint64_t fingerprint;
  long forecasts;
  long windows_issued;
  long no_fit_skips;
  int mispredictions;
  int proactive_handovers;
};

struct Outcome {
  std::uint64_t fingerprint{0};
  core::OcclusionForecaster::Counters counters;
  PredictiveLinkStats stats;
};

Outcome run_session(std::uint64_t seed) {
  const auto duration = sim::from_seconds(kDurationS);
  const sim::RngRegistry rngs{seed};
  auto chaos = rngs.stream("chaos");

  // The pacing line crosses the person's shadow, perpendicular to the
  // AP->person ray, so each leg starts and ends in clear air.
  const geom::Vec2 ray = (kPerson - kAp).normalized();
  const geom::Vec2 perp{-ray.y, ray.x};
  const geom::Vec2 cross = kAp + ray * uniform(chaos, 2.9, 3.6);
  const double half = uniform(chaos, 0.85, 1.1);
  const geom::Vec2 leg_a = cross + perp * half;
  const geom::Vec2 leg_b = cross - perp * half;

  core::Scene scene{channel::Room{5.0, 5.0},
                    core::ApRadio{kAp, geom::deg_to_rad(45.0)},
                    core::HeadsetRadio{leg_a, 0.0}};
  scene.ap().node().steer_toward(scene.headset().node().position());
  scene.headset().node().face_toward(scene.ap().node().position());
  auto& reflector = scene.add_reflector({3.6, 4.8}, geom::deg_to_rad(265.0));
  auto cal_rng = rngs.stream("cal");
  reflector.front_end().steer_rx(scene.true_reflector_angle_to_ap(reflector));
  reflector.front_end().steer_tx(
      scene.true_reflector_angle_to_headset(reflector));
  scene.ap().node().steer_toward(reflector.position());
  core::GainController::run(reflector.front_end(),
                            scene.reflector_input(reflector), cal_rng);

  sim::Simulator simulator;
  PacingMotion::Config pacing;
  pacing.speed_mps = 1.2;
  pacing.pause = 200ms;
  PacingMotion motion{leg_a, leg_b, pacing};

  BlockageEvent person;
  person.kind = BlockageEvent::Kind::kPersonCrossing;
  person.duration = duration;
  person.path_from = kPerson;
  person.path_to = kPerson;
  const BlockageScript script{std::vector<BlockageEvent>{person}};

  sim::FaultInjector faults{simulator};
  const int windows = std::max(2, static_cast<int>(kDurationS / 3.0));
  for (int i = 0; i < windows; ++i) {
    const double slot = kDurationS / static_cast<double>(windows);
    const double start = slot * i + uniform(chaos, 0.1 * slot, 0.6 * slot);
    const double len = uniform(chaos, 0.2, 0.45);
    faults.inject("loss-window", sim::TimePoint{sim::from_seconds(start)},
                  sim::from_seconds(len), [] {});
  }

  Session::Config config;
  config.duration = duration;
  config.faults = &faults;
  config.realistic_rate_control = true;
  config.rate_control_seed = seed * 13 + 5;
  net::TransportConfig transport;
  transport.source.target_mbps = 800.0;
  transport.ack_delay = std::chrono::microseconds{500};
  transport.arq.window = 16;
  transport.adaptive_fec = true;
  transport.source.seed = seed * 11 + 1;
  transport.seed = seed * 17 + 3;
  config.transport = transport;
  sim::BurstChannel::Config burst;
  burst.seed = rngs.stream("burst")();
  burst.loss_bad = 0.25;
  config.burst_loss = burst;

  PredictiveMovrStrategy::Config strategy_config;
  strategy_config.forecaster.chaos_seed = rngs.stream("chaos.forecast")();
  PredictiveMovrStrategy strategy{simulator, scene, rngs.stream("mgr"),
                                  strategy_config};
  Session session{simulator, scene, strategy, &motion, &script, config};
  const QoeReport report = session.run();

  Outcome out;
  out.fingerprint = arena::qoe_fingerprint(report);
  out.counters = strategy.forecaster().counters();
  out.stats = report.predictive.value_or(PredictiveLinkStats{});
  return out;
}

// Captured before the forecaster's line-of-sight probes stopped going
// through a full multipath solve.
constexpr std::array<Golden, 4> kGolden = {{
    {1, 0xed8c108ca9f1f9cbULL, 720, 27, 2, 0, 5},
    {2, 0xab798bbc450b642bULL, 720, 27, 2, 0, 5},
    {3, 0x11e692a191edecb0ULL, 720, 29, 2, 0, 5},
    {4, 0x29d6d69a236d348eULL, 720, 23, 2, 0, 4},
}};

TEST(PredictiveGolden, PacingSessionsArePinned) {
  for (const Golden& g : kGolden) {
    const Outcome out = run_session(g.seed);
    // The run must reach the paths the fingerprints are meant to guard.
    EXPECT_GT(out.counters.windows_issued, 0) << "seed " << g.seed;
    EXPECT_GT(out.stats.proactive_handovers, 0) << "seed " << g.seed;

    EXPECT_EQ(hex(out.fingerprint), hex(g.fingerprint)) << "seed " << g.seed;
    EXPECT_EQ(out.counters.forecasts, g.forecasts) << "seed " << g.seed;
    EXPECT_EQ(out.counters.windows_issued, g.windows_issued)
        << "seed " << g.seed;
    EXPECT_EQ(out.counters.no_fit_skips, g.no_fit_skips) << "seed " << g.seed;
    EXPECT_EQ(out.stats.mispredictions, g.mispredictions) << "seed " << g.seed;
    EXPECT_EQ(out.stats.proactive_handovers, g.proactive_handovers)
        << "seed " << g.seed;
  }
}

}  // namespace
}  // namespace movr::vr
