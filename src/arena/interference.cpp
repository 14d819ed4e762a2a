#include <arena/interference.hpp>

#include <bit>
#include <cmath>
#include <cstdint>

#include <phy/link.hpp>
#include <phy/radio.hpp>

namespace movr::arena {

namespace {

using Emitter = InterferenceScratch::Emitter;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The victim-side work for emissions from `position` at `tx_power` into
/// the victim's headset: done once per call for each distinct pair, then
/// shared. Every value is the one phy::hop_power and phy::wideband_power
/// compute for that path, by the same expression.
const Emitter& victim_side(const core::Scene& victim, geom::Vec2 position,
                           rf::DbmPower tx_power,
                           InterferenceScratch& scratch) {
  for (std::size_t i = 0; i < scratch.emitters_used; ++i) {
    const Emitter& e = scratch.emitters[i];
    if (same_bits(e.position.x, position.x) &&
        same_bits(e.position.y, position.y) &&
        same_bits(e.tx_power.value(), tx_power.value())) {
      return e;
    }
  }
  if (scratch.emitters_used == scratch.emitters.size()) {
    scratch.emitters.emplace_back();
  }
  Emitter& e = scratch.emitters[scratch.emitters_used++];
  e.position = position;
  e.tx_power = tx_power;
  const phy::RadioNode& headset = victim.headset().node();
  e.paths = victim.paths_view(position, headset.position());
  const std::vector<channel::Path>& paths = *e.paths;
  const std::size_t n = paths.size();
  e.amplitude.resize(n);
  e.rx.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const rf::DbmPower path_power = tx_power - paths[i].loss;
    e.amplitude[i] = std::sqrt(path_power.milliwatts());
    e.rx[i] = headset.response_toward(paths[i].arrival_azimuth);
  }
  const phy::LinkConfig& link = victim.config().link;
  const int samples = phy::frequency_points(link);
  e.phasors.resize(static_cast<std::size_t>(samples) * n);
  for (int k = 0; k < samples; ++k) {
    const double lambda = phy::sample_wavelength(link, k);
    std::complex<double>* row =
        e.phasors.data() + static_cast<std::size_t>(k) * n;
    for (std::size_t i = 0; i < n; ++i) {
      row[i] = phy::path_phasor(paths[i].length_m, lambda);
    }
  }
  return e;
}

/// Power (mW) of one aggressor's emission over the victim-side work `e`,
/// with the aggressor's own transmit response.
template <typename FTx>
double emission_mw(const Emitter& e, FTx&& tx_response,
                   const phy::LinkConfig& link, rf::Decibels extra_loss,
                   std::vector<std::complex<double>>& bases) {
  const std::vector<channel::Path>& paths = *e.paths;
  bases.resize(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    bases[i] = e.amplitude[i] * tx_response(paths[i].departure_azimuth) *
               e.rx[i];
  }
  return phy::wideband_power(bases, e.phasors, link, extra_loss).milliwatts();
}

}  // namespace

rf::DbmPower interference_at_headset(const core::Scene& victim,
                                     std::span<const Interferer> aggressors,
                                     const InterferenceConfig& config,
                                     InterferenceScratch& scratch) {
  scratch.emitters_used = 0;
  const phy::LinkConfig& link = victim.config().link;
  double total_mw = 0.0;
  const geom::Vec2 victim_ap = victim.ap().node().position();
  for (const Interferer& aggressor : aggressors) {
    if (aggressor.scene == nullptr || aggressor.scene == &victim) {
      continue;
    }
    const core::Scene& other = *aggressor.scene;
    const phy::RadioNode& other_ap = other.ap().node();
    if ((other_ap.position() - victim_ap).norm() >= config.same_ap_epsilon_m) {
      // A foreign AP transmits concurrently; its beam (steered for its
      // own user) leaks into the victim's aperture over the victim
      // room's paths.
      const Emitter& e =
          victim_side(victim, other_ap.position(), other_ap.tx_power(),
                      scratch);
      total_mw += emission_mw(
          e, [&](double az) { return other_ap.response_toward(az); }, link,
          link.implementation_loss, scratch.bases);
    }
    if (aggressor.via_reflector &&
        aggressor.reflector < other.reflector_count()) {
      // The leased reflector re-radiates its amplified output — stable or
      // not, that energy lands in the room; a compressed front end's
      // garbage interferes just as hard.
      const core::MovrReflector& reflector =
          other.reflector(aggressor.reflector);
      const auto state =
          reflector.front_end().process(other.reflector_input(reflector));
      const auto& tx_array = reflector.front_end().tx_array();
      const Emitter& e =
          victim_side(victim, reflector.position(), state.output, scratch);
      total_mw += emission_mw(
          e,
          [&](double az) {
            return phy::array_response(tx_array, reflector.to_local(az));
          },
          link, victim.config().rx_side_loss, scratch.bases);
    }
  }
  return rf::DbmPower::from_milliwatts(total_mw > 0.0 ? total_mw : 1e-30);
}

rf::DbmPower interference_at_headset(const core::Scene& victim,
                                     std::span<const Interferer> aggressors,
                                     const InterferenceConfig& config) {
  InterferenceScratch scratch;
  return interference_at_headset(victim, aggressors, config, scratch);
}

double sinr_penalty_db(const core::Scene& victim,
                       std::span<const Interferer> aggressors,
                       const InterferenceConfig& config,
                       InterferenceScratch& scratch) {
  const double interference_mw =
      interference_at_headset(victim, aggressors, config, scratch)
          .milliwatts();
  const double noise_mw =
      phy::link_noise_floor(victim.config().link).milliwatts();
  if (interference_mw <= 1e-29 || noise_mw <= 0.0) {
    return 0.0;
  }
  return 10.0 * std::log10(1.0 + interference_mw / noise_mw);
}

double sinr_penalty_db(const core::Scene& victim,
                       std::span<const Interferer> aggressors,
                       const InterferenceConfig& config) {
  InterferenceScratch scratch;
  return sinr_penalty_db(victim, aggressors, config, scratch);
}

}  // namespace movr::arena
