// Golden fingerprints of a crowded arena run.
//
// The movrbench arena_crowd room — 8 x 8 m, four corner APs, one reflector
// at each wall midpoint, priority-aging arbitration, transport on — with 8
// users for 2 simulated seconds. Staggered hand raises and one diagonal
// person crossing push users onto reflectors, so the run exercises foreign-
// AP interference, via-reflector emissions, lease rotation and admission.
//
// Every user's qoe_fingerprint is pinned to its hex value. The fingerprint
// folds in the SNR and rate sums and the transport's interference maxima,
// so any change to the numbers the arena computes — the interference path
// above all — shows up here. A performance change must leave these values
// alone; a deliberate model change re-captures them and says why.
#include <arena/coordinator.hpp>

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <random>
#include <string>

#include <geom/angle.hpp>
#include <sim/rng.hpp>
#include <vr/motion.hpp>

namespace movr::arena {
namespace {

constexpr std::size_t kUsers = 8;
constexpr double kDurationS = 2.0;
constexpr std::uint64_t kSeed = 1;

constexpr geom::Vec2 kApPositions[4] = {
    {0.4, 0.4}, {7.6, 0.4}, {7.6, 7.6}, {0.4, 7.6}};
constexpr double kApOrientationsDeg[4] = {45.0, 135.0, 225.0, 315.0};
constexpr geom::Vec2 kCenter{4.0, 4.0};

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

Coordinator::Config arena_config() {
  Coordinator::Config config;
  config.users = kUsers;
  config.seed = kSeed;
  config.ap_positions.assign(std::begin(kApPositions), std::end(kApPositions));
  for (const double deg : kApOrientationsDeg) {
    config.ap_orientations.push_back(geom::deg_to_rad(deg));
  }
  config.arbiter.policy = ReflectorArbiter::Policy::kPriorityAging;
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

std::unique_ptr<vr::Motion> user_motion(std::size_t u,
                                        const core::Scene& scene) {
  const sim::RngRegistry rngs{kSeed};
  auto rng = rngs.stream("arena.pos", u);
  const auto uniform = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>{lo, hi}(rng);
  };
  const geom::Vec2 ap = kApPositions[u % 4];
  const geom::Vec2 toward = (kCenter - ap).normalized();
  const geom::Vec2 perp{-toward.y, toward.x};
  geom::Vec2 start = ap + toward * uniform(1.8, 3.2);
  start = start + perp * uniform(-1.1, 1.1);
  start.x = std::clamp(start.x, 0.9, 7.1);
  start.y = std::clamp(start.y, 0.9, 7.1);
  return std::make_unique<vr::PlayerMotion>(
      scene.room(), start, rngs.stream("arena.motion", u)());
}

vr::BlockageScript user_script(std::size_t u) {
  const sim::TimePoint end{sim::from_seconds(kDurationS)};
  std::vector<vr::BlockageEvent> events =
      vr::periodic_hand_raises(
          sim::TimePoint{
              sim::from_seconds(0.8 + 0.21 * static_cast<double>(u % 7))},
          sim::from_seconds(0.7), sim::from_seconds(2.4), end)
          .events();
  vr::BlockageEvent person;
  person.kind = vr::BlockageEvent::Kind::kPersonCrossing;
  person.start = sim::TimePoint{sim::from_seconds(0.5)};
  person.duration = sim::from_seconds(1.0);
  person.path_from = geom::Vec2{0.6, 0.6};
  person.path_to = geom::Vec2{7.4, 7.4};
  events.push_back(person);
  return vr::BlockageScript{std::move(events)};
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

// Captured from the arena before the interference path was restructured
// to share victim-side work across aggressors.
constexpr std::array<std::uint64_t, kUsers> kGolden = {
    0x1576beb27498b636ULL, 0x5186b6ef9bbb17fbULL, 0xffe3969f02fb4296ULL,
    0xd86331fc20128429ULL, 0x85d64812a7d249a4ULL, 0x50899253d77024dcULL,
    0xe76e4f85f60e5cdbULL, 0xf0c5c9507c5cdcd8ULL};

TEST(ArenaGolden, CrowdedRoomFingerprintsArePinned) {
  const core::Scene prototype = arena_scene();
  sim::Simulator simulator;
  Coordinator coordinator{simulator, prototype, arena_config(), user_motion,
                          user_script};
  const auto results = coordinator.run();
  ASSERT_EQ(results.size(), kUsers);

  // The run must reach the paths the fingerprints are meant to guard.
  EXPECT_GT(coordinator.arbiter().stats().grants, 0u)
      << "no reflector lease: the via-reflector interference path is idle";
  std::uint64_t interfered = 0;
  for (const Coordinator::UserResult& r : results) {
    interfered += r.report.arena.value_or(vr::ArenaLinkStats{})
                      .interfered_frames;
  }
  EXPECT_GT(interfered, 0u);

  for (std::size_t u = 0; u < kUsers; ++u) {
    EXPECT_EQ(hex(qoe_fingerprint(results[u].report)), hex(kGolden[u]))
        << "user " << u;
  }
}

}  // namespace
}  // namespace movr::arena
