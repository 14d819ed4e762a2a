#include <phy/link.hpp>

#include <algorithm>
#include <cmath>
#include <numbers>

#include <rf/noise.hpp>
#include <rf/propagation.hpp>

namespace movr::phy {

rf::DbmPower link_noise_floor(const LinkConfig& config) {
  return rf::noise_floor(config.bandwidth_hz, config.noise_figure);
}

namespace {

/// The frequency average shared by both wideband_power forms: `field_at(k)`
/// is the coherent field at frequency point k.
template <typename FieldAt>
rf::DbmPower mean_power(int samples, FieldAt&& field_at,
                        rf::Decibels extra_loss) {
  double total_mw = 0.0;
  for (int k = 0; k < samples; ++k) {
    total_mw += std::norm(field_at(k));
  }
  total_mw /= static_cast<double>(samples);
  if (total_mw <= 0.0) {
    return rf::DbmPower{};  // no energy: the -300 dBm sentinel
  }
  return rf::DbmPower::from_milliwatts(total_mw) - extra_loss;
}

}  // namespace

int frequency_points(const LinkConfig& config) {
  return std::max(config.frequency_samples, 1);
}

double sample_wavelength(const LinkConfig& config, int k) {
  const int samples = frequency_points(config);
  const double offset =
      samples == 1
          ? 0.0
          : ((static_cast<double>(k) + 0.5) / static_cast<double>(samples) -
             0.5) *
                config.bandwidth_hz;
  return rf::wavelength(config.carrier_hz + offset);
}

std::complex<double> path_phasor(double length_m, double lambda) {
  return std::polar(1.0, -2.0 * std::numbers::pi * length_m / lambda);
}

rf::DbmPower wideband_power(std::span<const PathComponent> components,
                            const LinkConfig& config,
                            rf::Decibels extra_loss) {
  // Average the received *power* over frequency points spanning the channel:
  // a 2.16 GHz-wide OFDM signal (or a swept measurement tone) experiences
  // the frequency-averaged fade, not a single-tone null. Across the band
  // only the electrical phase of each path moves appreciably.
  return mean_power(
      frequency_points(config),
      [&](int k) {
        const double lambda = sample_wavelength(config, k);
        std::complex<double> field{0.0, 0.0};
        for (const PathComponent& c : components) {
          field += c.base * path_phasor(c.length_m, lambda);
        }
        return field;
      },
      extra_loss);
}

rf::DbmPower wideband_power(std::span<const std::complex<double>> bases,
                            std::span<const std::complex<double>> phasors,
                            const LinkConfig& config,
                            rf::Decibels extra_loss) {
  const std::size_t n = bases.size();
  return mean_power(
      frequency_points(config),
      [&](int k) {
        const std::complex<double>* row =
            phasors.data() + static_cast<std::size_t>(k) * n;
        std::complex<double> field{0.0, 0.0};
        for (std::size_t i = 0; i < n; ++i) {
          field += bases[i] * row[i];
        }
        return field;
      },
      extra_loss);
}

rf::DbmPower received_power(const RadioNode& tx, const RadioNode& rx,
                            std::span<const channel::Path> paths,
                            const LinkConfig& config) {
  return hop_power(
      tx.tx_power(), paths,
      [&](double az) { return tx.response_toward(az); },
      [&](double az) { return rx.response_toward(az); }, config,
      config.implementation_loss);
}

rf::Decibels link_snr(const RadioNode& tx, const RadioNode& rx,
                      std::span<const channel::Path> paths,
                      const LinkConfig& config) {
  return received_power(tx, rx, paths, config) - link_noise_floor(config);
}

}  // namespace movr::phy
