// Link-budget evaluation: from traced paths and steered arrays to received
// power and SNR. This is the function every experiment in the paper reduces
// to: "place radios, steer beams, read the SNR".
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <span>
#include <vector>

#include <channel/path.hpp>
#include <phy/radio.hpp>
#include <rf/units.hpp>

namespace movr::phy {

struct LinkConfig {
  double carrier_hz{24.0e9};       // 24 GHz ISM band, as the prototype
  double bandwidth_hz{2.16e9};     // one 802.11ad channel
  rf::Decibels noise_figure{7.0};
  /// Fixed end-to-end implementation loss (filters, pointing, polarization
  /// mismatch). Calibrates the LOS SNR in the 5x5 m room to the paper's
  /// measured ~25 dB mean (close-to-AP placements reach 30-35 dB, Sec. 5.2)
  /// while keeping far-corner LOS above the max-rate threshold.
  rf::Decibels implementation_loss{11.0};
  /// Frequency points averaged across the channel when summing multipath.
  /// A 2.16 GHz OFDM signal (and a swept measurement tone) sees the
  /// *frequency-averaged* channel, not a single-tone fade: without this,
  /// deterministic single-frequency nulls produce artifacts no wideband
  /// radio would measure. 1 = narrowband (single tone).
  int frequency_samples{8};
};

/// Receiver noise floor for this link configuration.
rf::DbmPower link_noise_floor(const LinkConfig& config);

/// One propagation path reduced to its band-centre complex amplitude (in
/// sqrt-milliwatts, including antenna responses) plus its length, which
/// sets how the phase rotates across the channel.
struct PathComponent {
  std::complex<double> base;
  double length_m{0.0};
};

/// Frequency-averaged received power of a set of path components, minus
/// `extra_loss`. The building block behind received_power and the
/// via-reflector hops in movr::core::Scene.
rf::DbmPower wideband_power(std::span<const PathComponent> components,
                            const LinkConfig& config, rf::Decibels extra_loss);

/// Number of frequency points wideband_power averages over (at least 1).
int frequency_points(const LinkConfig& config);

/// Wavelength of frequency point `k` of frequency_points(config): evenly
/// spread across the channel, or the carrier for a single point.
double sample_wavelength(const LinkConfig& config, int k);

/// Unit phasor of a path's electrical phase at wavelength `lambda`, the
/// only place that phase is defined.
std::complex<double> path_phasor(double length_m, double lambda);

/// wideband_power with the electrical phasors evaluated up front, for
/// callers that sum many transmitters over one path set. `phasors` holds
/// frequency_points(config) rows of bases.size() entries: row k, entry i
/// is path_phasor(length of path i, sample_wavelength(config, k)). Same
/// operations in the same order as the components form, so the same bits.
rf::DbmPower wideband_power(std::span<const std::complex<double>> bases,
                            std::span<const std::complex<double>> phasors,
                            const LinkConfig& config, rf::Decibels extra_loss);

/// Frequency-averaged power of a transmission at `tx_power` over `paths`,
/// with arbitrary endpoint responses: `tx_response` and `rx_response` map
/// a global azimuth to a complex far-field factor. Builds the components
/// on the stack for up to kStackPaths paths, so a warmed caller does not
/// touch the heap.
template <typename FTx, typename FRx>
rf::DbmPower hop_power(rf::DbmPower tx_power,
                       std::span<const channel::Path> paths, FTx&& tx_response,
                       FRx&& rx_response, const LinkConfig& config,
                       rf::Decibels extra_loss) {
  constexpr std::size_t kStackPaths = 32;
  std::array<PathComponent, kStackPaths> stack;
  std::vector<PathComponent> heap;
  std::span<PathComponent> components{stack.data(),
                                      std::min(paths.size(), kStackPaths)};
  if (paths.size() > kStackPaths) {
    heap.resize(paths.size());
    components = heap;
  }
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const channel::Path& path = paths[i];
    const rf::DbmPower path_power = tx_power - path.loss;
    const double amplitude = std::sqrt(path_power.milliwatts());
    components[i] = {amplitude * tx_response(path.departure_azimuth) *
                         rx_response(path.arrival_azimuth),
                     path.length_m};
  }
  return wideband_power(components, config, extra_loss);
}

/// Received power at `rx` for a transmission from `tx` over `paths`,
/// with both arrays at their current steering. Multipath is summed
/// coherently with deterministic per-path phases from the path lengths.
rf::DbmPower received_power(const RadioNode& tx, const RadioNode& rx,
                            std::span<const channel::Path> paths,
                            const LinkConfig& config);

/// SNR of the same reception.
rf::Decibels link_snr(const RadioNode& tx, const RadioNode& rx,
                      std::span<const channel::Path> paths,
                      const LinkConfig& config);

}  // namespace movr::phy
