// Differential suite for the line-of-sight probe.
//
// PathSolver::los_obstruction(a, b) must equal, bit for bit, the
// `obstruction` of the LOS path solve(a, b) returns whenever the
// dynamic-range trim keeps that path. Callers that used to ask "is the LOS
// blocked?" by scanning a full solve (LOS present: its obstruction against
// the threshold; LOS trimmed: blocked) must get the same answer from
// `los_obstruction > threshold` at every threshold below the dynamic range
// (DESIGN.md §10.1). These tests compare both on seeded random rooms and on
// the three edge cases: an empty room, Fresnel-margin grazing, and a LOS so
// heavily blocked that the trim drops it.
#include <channel/path_solver.hpp>

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include <channel/obstacle.hpp>
#include <channel/room.hpp>
#include <core/scene.hpp>
#include <geom/angle.hpp>

namespace movr::channel {
namespace {

using geom::Vec2;

constexpr double kThresholds[] = {3.0, 12.0};

/// The LOS path of a solve, or nullptr when the trim dropped it.
const Path* find_los(const std::vector<Path>& paths) {
  for (const Path& path : paths) {
    if (path.is_los()) {
      return &path;
    }
  }
  return nullptr;
}

/// The blocked/clear answer read from a full solve, as the predictive tier
/// computed it before the probe existed.
bool full_solve_blocked(const std::vector<Path>& paths, double threshold_db) {
  const Path* los = find_los(paths);
  return los == nullptr || los->is_blocked(threshold_db);
}

struct Tally {
  int los_present{0};
  int los_trimmed{0};
  int blocked_at_3{0};
  int clear_at_3{0};
};

void expect_probe_matches_solve(const PathSolver& solver, Vec2 a, Vec2 b,
                                Tally& tally) {
  const std::vector<Path> paths = solver.solve(a, b);
  const double probe = solver.los_obstruction(a, b).value();
  if (const Path* los = find_los(paths)) {
    ++tally.los_present;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(probe),
              std::bit_cast<std::uint64_t>(los->obstruction.value()))
        << "probe " << probe << " vs solve " << los->obstruction.value();
  } else {
    ++tally.los_trimmed;
  }
  for (const double threshold : kThresholds) {
    EXPECT_EQ(probe > threshold, full_solve_blocked(paths, threshold))
        << "threshold " << threshold << " dB, probe " << probe << " dB";
  }
  ++(probe > 3.0 ? tally.blocked_at_3 : tally.clear_at_3);
}

TEST(LosProbe, EmptyRoomIsExactlyClear) {
  const Room room{6.0, 4.0};
  const PathSolver solver{room};
  std::mt19937_64 rng{17};
  Tally tally;
  for (int i = 0; i < 200; ++i) {
    const Vec2 a = room.random_interior_point(rng, 0.1);
    const Vec2 b = room.random_interior_point(rng, 0.1);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(solver.los_obstruction(a, b).value()),
              std::bit_cast<std::uint64_t>(0.0));
    expect_probe_matches_solve(solver, a, b, tally);
  }
  EXPECT_EQ(tally.los_present, 200);
}

TEST(LosProbe, SeededRandomRoomsMatchFullSolve) {
  std::mt19937_64 rng{2024};
  std::uniform_real_distribution<double> dim{3.0, 10.0};
  std::uniform_int_distribution<int> blockers{1, 5};
  std::uniform_real_distribution<double> unit{-1.0, 1.0};
  Tally tally;
  for (int r = 0; r < 12; ++r) {
    Room room{dim(rng), dim(rng), r % 3 == 0 ? kMetal : kDrywall};
    const int n = blockers(rng);
    for (int k = 0; k < n; ++k) {
      const Vec2 at = room.random_interior_point(rng, 0.4);
      const Vec2 toward{unit(rng), unit(rng) + 1.5};
      switch (k % 3) {
        case 0:
          room.add_obstacle(make_person(at));
          break;
        case 1:
          room.add_obstacle(make_head(at, toward));
          break;
        default:
          room.add_obstacle(make_hand(at, toward));
          break;
      }
    }
    const PathSolver solver{room};
    for (int i = 0; i < 150; ++i) {
      const Vec2 a = room.random_interior_point(rng, 0.1);
      const Vec2 b = room.random_interior_point(rng, 0.1);
      expect_probe_matches_solve(solver, a, b, tally);
    }
  }
  // Both answers must actually occur, or the comparison is vacuous.
  EXPECT_GT(tally.blocked_at_3, 50);
  EXPECT_GT(tally.clear_at_3, 50);
}

TEST(LosProbe, FresnelGrazingMatchesFullSolve) {
  // A person of radius 0.2 m at the room's centre; horizontal LOS legs pass
  // above it at gaps inside and just outside the 3 cm Fresnel margin, where
  // the shadowing ramps from 6 dB to 0 — across both thresholds' sides.
  Room room{5.0, 5.0};
  room.add_obstacle(make_person({2.5, 2.5}));
  const PathSolver solver{room};
  Tally tally;
  for (const double gap : {-0.01, 0.0, 0.005, 0.01, 0.015, 0.02, 0.029, 0.031,
                           0.05}) {
    const double y = 2.5 + 0.2 + gap;
    expect_probe_matches_solve(solver, {0.5, y}, {4.5, y}, tally);
    expect_probe_matches_solve(solver, {4.5, y}, {0.5, y}, tally);
  }
  EXPECT_EQ(tally.los_present, 18);
  EXPECT_GT(tally.blocked_at_3, 0);
  EXPECT_GT(tally.clear_at_3, 0);
  // Inside the margin the probe reads the partial ramp, not 0 or the full
  // insertion loss.
  const double grazing = solver.los_obstruction({0.5, 2.71}, {4.5, 2.71}).value();
  EXPECT_GT(grazing, 0.0);
  EXPECT_LT(grazing, 6.0);
}

TEST(LosProbe, TrimmedLosStillReadsBlocked) {
  // A hand and a head in front of the headset and two people on the line:
  // 15 + 22 + 25 + 25 = 87 dB on the LOS, while the unblocked north and
  // south bounces are about 15 dB weaker than a clear LOS. The LOS loses by
  // more than the 60 dB dynamic range, so solve() drops it.
  Room room{5.0, 5.0};
  const Vec2 ap{0.5, 2.5};
  const Vec2 headset{4.5, 2.5};
  room.add_obstacle(make_hand(headset, ap - headset));
  room.add_obstacle(make_head(headset, ap - headset));
  room.add_obstacle(make_person({1.5, 2.5}));
  room.add_obstacle(make_person({2.7, 2.5}));
  const PathSolver solver{room};
  const std::vector<Path> paths = solver.solve(ap, headset);
  ASSERT_FALSE(paths.empty());
  ASSERT_EQ(find_los(paths), nullptr) << "the LOS survived the trim";
  const double probe = solver.los_obstruction(ap, headset).value();
  EXPECT_GT(probe, solver.config().dynamic_range.value());
  Tally tally;
  expect_probe_matches_solve(solver, ap, headset, tally);
  expect_probe_matches_solve(solver, headset, ap, tally);
  EXPECT_EQ(tally.los_trimmed, 2);
  // line_of_sight() keeps the trimmed path and carries the same value.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(
                solver.line_of_sight(ap, headset).obstruction.value()),
            std::bit_cast<std::uint64_t>(probe));
}

TEST(LosProbe, SceneProbeFollowsAMovedScene) {
  // Scene::los_obstruction goes through the oracle's solver, which a moved
  // scene rebinds to its new room: an obstacle added after the move must
  // register, and the answer must equal the scene's own full solve.
  core::Scene original{Room{5.0, 5.0},
                       core::ApRadio{{0.4, 0.4}, geom::deg_to_rad(45.0)},
                       core::HeadsetRadio{{3.0, 2.2}, 0.0}};
  const Vec2 ap = original.ap().node().position();
  const Vec2 headset = original.headset().node().position();
  EXPECT_EQ(original.los_obstruction(ap, headset).value(), 0.0);

  core::Scene moved = std::move(original);
  moved.room().add_obstacle(make_person({1.7, 1.3}));
  const double probe = moved.los_obstruction(ap, headset).value();
  EXPECT_GT(probe, 3.0);
  const std::vector<Path> paths = moved.paths_between(ap, headset);
  const Path* los = find_los(paths);
  ASSERT_NE(los, nullptr);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(probe),
            std::bit_cast<std::uint64_t>(los->obstruction.value()));
}

}  // namespace
}  // namespace movr::channel
