// Differential tests of the arena interference path.
//
// interference_at_headset shares victim-side work between aggressors that
// emit from the same position at the same power. Its result must equal,
// bit for bit, the plain per-aggressor sum it replaced: for each aggressor,
// the foreign AP's received power over the victim room's paths, plus the
// leased reflector's re-radiated emission. The reference below computes
// that sum from first principles — its own component list and frequency
// average, with the phase expression written out — so a drift in the
// shared phy helpers shows up here as well.
#include <arena/interference.hpp>

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <numbers>
#include <random>
#include <vector>

#include <channel/obstacle.hpp>
#include <core/gain_control.hpp>
#include <geom/angle.hpp>
#include <phy/link.hpp>
#include <phy/radio.hpp>
#include <rf/propagation.hpp>

namespace movr::arena {
namespace {

using geom::deg_to_rad;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// --- reference: one aggressor at a time, nothing shared -----------------

rf::DbmPower reference_wideband(
    const std::vector<phy::PathComponent>& components,
    const phy::LinkConfig& config, rf::Decibels extra_loss) {
  const int samples = std::max(config.frequency_samples, 1);
  double total_mw = 0.0;
  for (int k = 0; k < samples; ++k) {
    const double offset =
        samples == 1
            ? 0.0
            : ((static_cast<double>(k) + 0.5) / static_cast<double>(samples) -
               0.5) *
                  config.bandwidth_hz;
    const double lambda = rf::wavelength(config.carrier_hz + offset);
    std::complex<double> field{0.0, 0.0};
    for (const phy::PathComponent& c : components) {
      const double electrical_phase =
          -2.0 * std::numbers::pi * c.length_m / lambda;
      field += c.base * std::polar(1.0, electrical_phase);
    }
    total_mw += std::norm(field);
  }
  total_mw /= static_cast<double>(samples);
  if (total_mw <= 0.0) {
    return rf::DbmPower{};
  }
  return rf::DbmPower::from_milliwatts(total_mw) - extra_loss;
}

template <typename FTx>
rf::DbmPower reference_emission(const core::Scene& victim, geom::Vec2 position,
                                rf::DbmPower tx_power, FTx&& tx_response,
                                rf::Decibels extra_loss) {
  const auto paths =
      victim.paths_view(position, victim.headset().node().position());
  std::vector<phy::PathComponent> components;
  for (const channel::Path& path : *paths) {
    const rf::DbmPower path_power = tx_power - path.loss;
    const double amplitude = std::sqrt(path_power.milliwatts());
    const std::complex<double> g_tx = tx_response(path.departure_azimuth);
    const std::complex<double> g_rx =
        victim.headset().node().response_toward(path.arrival_azimuth);
    components.push_back({amplitude * g_tx * g_rx, path.length_m});
  }
  return reference_wideband(components, victim.config().link, extra_loss);
}

rf::DbmPower reference_interference(const core::Scene& victim,
                                    const std::vector<Interferer>& aggressors,
                                    const InterferenceConfig& config) {
  double total_mw = 0.0;
  const geom::Vec2 victim_ap = victim.ap().node().position();
  for (const Interferer& aggressor : aggressors) {
    if (aggressor.scene == nullptr || aggressor.scene == &victim) {
      continue;
    }
    const core::Scene& other = *aggressor.scene;
    const phy::RadioNode& ap = other.ap().node();
    if ((ap.position() - victim_ap).norm() >= config.same_ap_epsilon_m) {
      const rf::DbmPower received = reference_emission(
          victim, ap.position(), ap.tx_power(),
          [&](double az) { return ap.response_toward(az); },
          victim.config().link.implementation_loss);
      // The library's own per-link formula must agree with the reference.
      const auto paths =
          victim.paths_view(ap.position(), victim.headset().node().position());
      EXPECT_EQ(bits(received.value()),
                bits(phy::received_power(ap, victim.headset().node(), *paths,
                                         victim.config().link)
                         .value()));
      total_mw += received.milliwatts();
    }
    if (aggressor.via_reflector &&
        aggressor.reflector < other.reflector_count()) {
      const core::MovrReflector& reflector =
          other.reflector(aggressor.reflector);
      const auto state =
          reflector.front_end().process(other.reflector_input(reflector));
      const auto& tx_array = reflector.front_end().tx_array();
      total_mw += reference_emission(
                      victim, reflector.position(), state.output,
                      [&](double az) {
                        return phy::array_response(tx_array,
                                                   reflector.to_local(az));
                      },
                      victim.config().rx_side_loss)
                      .milliwatts();
    }
  }
  return rf::DbmPower::from_milliwatts(total_mw > 0.0 ? total_mw : 1e-30);
}

// --- seeded random rooms --------------------------------------------------

constexpr geom::Vec2 kApPositions[4] = {
    {0.4, 0.4}, {7.6, 0.4}, {7.6, 7.6}, {0.4, 7.6}};

core::Scene calibrated_prototype() {
  core::Scene scene{channel::Room{8.0, 8.0},
                    core::ApRadio{kApPositions[0], deg_to_rad(45.0)},
                    core::HeadsetRadio{{4.0, 4.0}, 0.0}};
  scene.add_reflector({4.0, 7.7}, deg_to_rad(265.0));
  scene.add_reflector({7.7, 4.0}, deg_to_rad(175.0));
  scene.add_reflector({0.3, 4.0}, deg_to_rad(355.0));
  scene.add_reflector({4.0, 0.3}, deg_to_rad(85.0));
  std::mt19937_64 cal{5};
  for (std::size_t i = 0; i < scene.reflector_count(); ++i) {
    core::MovrReflector& reflector = scene.reflector(i);
    reflector.front_end().steer_rx(scene.true_reflector_angle_to_ap(reflector));
    reflector.front_end().steer_tx(
        scene.true_reflector_angle_to_headset(reflector));
    scene.ap().node().steer_toward(reflector.position());
    core::GainController::run(reflector.front_end(),
                              scene.reflector_input(reflector), cal);
  }
  return scene;
}

double uniform(std::mt19937_64& rng, double lo, double hi) {
  return std::uniform_real_distribution<double>{lo, hi}(rng);
}

/// `users` clones of the prototype: each on one of the corner APs (so many
/// share an AP position with the victim or with each other), some at a
/// non-default transmit power, headsets scattered, beams and reflector
/// arrays steered at random, a person standing in some rooms.
std::vector<core::Scene> random_world(const core::Scene& prototype,
                                      std::size_t users, std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  std::vector<core::Scene> scenes;
  scenes.reserve(users);
  for (std::size_t u = 0; u < users; ++u) {
    core::Scene scene = prototype.clone();
    const std::size_t corner = rng() % 4;
    phy::RadioNode& ap = scene.ap().node();
    ap.set_position(kApPositions[corner]);
    ap.set_orientation(deg_to_rad(45.0 + 90.0 * static_cast<double>(corner)));
    if (rng() % 3 == 0) {
      ap.set_tx_power(rf::DbmPower{uniform(rng, -6.0, 6.0)});
    }
    phy::RadioNode& headset = scene.headset().node();
    headset.set_position({uniform(rng, 0.9, 7.1), uniform(rng, 0.9, 7.1)});
    if (rng() % 2 == 0) {
      headset.face_toward(ap.position());
    } else {
      headset.set_orientation(uniform(rng, -geom::kPi, geom::kPi));
      headset.steer_global(uniform(rng, -geom::kPi, geom::kPi));
    }
    if (rng() % 2 == 0) {
      ap.steer_toward(headset.position());
    } else {
      ap.steer_toward(scene.reflector(rng() % 4).position());
    }
    for (std::size_t r = 0; r < scene.reflector_count(); ++r) {
      if (rng() % 2 == 0) {
        scene.reflector(r).front_end().steer_tx(uniform(rng, 0.2, 2.9));
      }
    }
    if (rng() % 3 == 0) {
      scene.room().add_obstacle(channel::make_person(
          {uniform(rng, 1.5, 6.5), uniform(rng, 1.5, 6.5)}));
    }
    scenes.push_back(std::move(scene));
  }
  return scenes;
}

/// Every other scene as an aggressor, with a random mix of direct and
/// via-reflector links (some naming a reflector the room does not have).
std::vector<Interferer> aggressors_of(const std::vector<core::Scene>& scenes,
                                      std::size_t victim, std::mt19937_64& rng) {
  std::vector<Interferer> out;
  for (std::size_t v = 0; v < scenes.size(); ++v) {
    if (v == victim) {
      continue;
    }
    Interferer aggressor;
    aggressor.scene = &scenes[v];
    aggressor.via_reflector = rng() % 2 == 0;
    aggressor.reflector = rng() % 5;
    out.push_back(aggressor);
  }
  return out;
}

TEST(ArenaInterference, SharedVictimSideMatchesPerAggressorReference) {
  const core::Scene prototype = calibrated_prototype();
  const InterferenceConfig config;
  InterferenceScratch reused;
  int compared = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::vector<core::Scene> scenes =
        random_world(prototype, 2 + seed % 9, seed);
    std::mt19937_64 rng{seed * 7919};
    for (std::size_t victim = 0; victim < scenes.size(); ++victim) {
      const std::vector<Interferer> aggressors =
          aggressors_of(scenes, victim, rng);
      const double expected =
          reference_interference(scenes[victim], aggressors, config).value();
      InterferenceScratch fresh;
      EXPECT_EQ(bits(interference_at_headset(scenes[victim], aggressors,
                                             config, fresh)
                         .value()),
                bits(expected))
          << "seed " << seed << " victim " << victim;
      EXPECT_EQ(bits(interference_at_headset(scenes[victim], aggressors,
                                             config, reused)
                         .value()),
                bits(expected))
          << "seed " << seed << " victim " << victim << " (reused scratch)";
      EXPECT_EQ(
          bits(interference_at_headset(scenes[victim], aggressors, config)
                   .value()),
          bits(expected));
      ++compared;
    }
  }
  EXPECT_GT(compared, 50);
}

TEST(ArenaInterference, VictimSideIsSharedPerPositionAndPower) {
  // Three aggressors on one AP position: two at the default power share
  // one victim-side set, the third at its own power gets its own.
  const core::Scene prototype = calibrated_prototype();
  std::vector<core::Scene> scenes;
  for (int i = 0; i < 4; ++i) {
    scenes.push_back(prototype.clone());
  }
  for (int i = 1; i < 4; ++i) {
    scenes[static_cast<std::size_t>(i)].ap().node().set_position(
        kApPositions[2]);
    scenes[static_cast<std::size_t>(i)].ap().node().steer_global(
        0.3 * static_cast<double>(i));
  }
  scenes[2].ap().node().set_tx_power(rf::DbmPower{3.0});
  const std::vector<Interferer> aggressors{
      {&scenes[1]}, {&scenes[2]}, {&scenes[3]}};
  const InterferenceConfig config;
  InterferenceScratch scratch;
  EXPECT_EQ(bits(interference_at_headset(scenes[0], aggressors, config,
                                         scratch)
                     .value()),
            bits(reference_interference(scenes[0], aggressors, config).value()));
  EXPECT_EQ(scratch.emitters_used, 2u);
}

TEST(ArenaInterference, EmptyAndSelfOnlyAggressorsAreSilent) {
  const core::Scene prototype = calibrated_prototype();
  const core::Scene victim = prototype.clone();
  const InterferenceConfig config;
  InterferenceScratch scratch;
  const std::vector<Interferer> none;
  const std::vector<Interferer> self{{&victim, true, 0}, {nullptr, true, 1}};
  for (const std::vector<Interferer>* list : {&none, &self}) {
    const rf::DbmPower got =
        interference_at_headset(victim, *list, config, scratch);
    EXPECT_EQ(bits(got.value()),
              bits(reference_interference(victim, *list, config).value()));
    EXPECT_EQ(bits(got.value()),
              bits(rf::DbmPower::from_milliwatts(1e-30).value()));
    EXPECT_EQ(sinr_penalty_db(victim, *list, config, scratch), 0.0);
  }
}

TEST(ArenaInterference, VictimListedAmongItsAggressorsIsSkipped) {
  const core::Scene prototype = calibrated_prototype();
  std::vector<core::Scene> scenes = random_world(prototype, 6, 77);
  std::mt19937_64 rng{78};
  std::vector<Interferer> aggressors = aggressors_of(scenes, 0, rng);
  const InterferenceConfig config;
  InterferenceScratch scratch;
  const double without =
      interference_at_headset(scenes[0], aggressors, config, scratch).value();
  aggressors.insert(aggressors.begin() + 2, Interferer{&scenes[0], true, 1});
  const double with =
      interference_at_headset(scenes[0], aggressors, config, scratch).value();
  EXPECT_EQ(bits(with), bits(without));
  EXPECT_EQ(bits(with),
            bits(reference_interference(scenes[0], aggressors, config).value()));
}

}  // namespace
}  // namespace movr::arena
