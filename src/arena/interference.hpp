// Mutual interference between concurrent beams in a shared room.
//
// N users on K APs means up to K concurrent transmissions (same-AP users
// are airtime-multiplexed, not concurrent — that is what
// ChannelState::airtime_share models). Each foreign AP's beam, and each
// leased reflector's re-radiated beam, leaks some power into a victim
// headset's aperture; narrow 60 GHz beams make that leakage small but
// angle-dependent — a victim whose boresight happens to sweep past an
// aggressor eats orders of magnitude more than one pointed away.
//
// No new RF model: aggressor emissions reuse the scene's own array-factor
// and multipath machinery (phy::received_power / wideband_power over the
// victim room's ray paths), exactly as the in-band signal does. The sum of
// interference powers is folded into an SNR penalty,
//
//     penalty_dB = 10 log10(1 + I / N0),
//
// i.e. the dB gap between SNR and SINR, which the session subtracts from
// the strategy's true SNR before rate selection — the existing
// ChannelState path carries it from there.
//
// Cost: a victim sees every other user as an aggressor, but those sit on
// a handful of AP and reflector positions. Within one call, everything on
// the victim's side of an emission — the victim room's paths from the
// emitter, each path's amplitude at the emitter's power, the victim
// headset's response toward each arrival and each path's phasor at every
// frequency point — depends only on (emitter position, transmit power).
// It is computed once per such pair and shared by every aggressor that
// matches it bit for bit; each aggressor then adds only its own transmit
// response. No value computed in one call is read by the next: between
// two victims' evaluations the aggressors move and re-steer, so a cache
// of their state would return stale values.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include <core/scene.hpp>

namespace movr::arena {

/// One concurrently transmitting user, as seen from a victim.
struct Interferer {
  /// The aggressor's world: its AP position/steering/power, and — when it
  /// rides a reflector — that reflector's authoritative register state
  /// (the lease makes the holder's clone the physical truth).
  const core::Scene* scene{nullptr};
  /// Set while the aggressor's link is via a reflector: the reflector's
  /// TX array re-radiates amplified power into the room, and the AP's
  /// beam is pointed at the reflector rather than its own headset.
  bool via_reflector{false};
  std::size_t reflector{0};
};

struct InterferenceConfig {
  /// AP positions closer than this are the same physical AP — same-AP
  /// users share airtime instead of interfering.
  double same_ap_epsilon_m{0.05};
};

/// Caller-owned working memory of interference_at_headset. Each call
/// starts it over; reusing one across calls only keeps the buffers' capacity,
/// so a warmed call does not touch the heap.
struct InterferenceScratch {
  /// The victim-side work for emissions from one position at one power.
  struct Emitter {
    geom::Vec2 position;
    rf::DbmPower tx_power;
    core::ChannelOracle::PathsView paths;
    std::vector<double> amplitude;          // per path
    std::vector<std::complex<double>> rx;   // victim headset, per path
    /// Per frequency point, per path (phy::wideband_power's layout).
    std::vector<std::complex<double>> phasors;
  };
  std::vector<Emitter> emitters;
  std::size_t emitters_used{0};
  /// One aggressor's per-path components.
  std::vector<std::complex<double>> bases;
};

/// Total interference power arriving at the victim's headset from every
/// aggressor (foreign APs + their leased reflectors), over the victim
/// room's ray paths at the victim's current steering.
rf::DbmPower interference_at_headset(const core::Scene& victim,
                                     std::span<const Interferer> aggressors,
                                     const InterferenceConfig& config,
                                     InterferenceScratch& scratch);
/// The same with a scratch of its own.
rf::DbmPower interference_at_headset(const core::Scene& victim,
                                     std::span<const Interferer> aggressors,
                                     const InterferenceConfig& config);

/// The SNR -> SINR gap in dB (>= 0) for that interference level.
double sinr_penalty_db(const core::Scene& victim,
                       std::span<const Interferer> aggressors,
                       const InterferenceConfig& config,
                       InterferenceScratch& scratch);
/// The same with a scratch of its own.
double sinr_penalty_db(const core::Scene& victim,
                       std::span<const Interferer> aggressors,
                       const InterferenceConfig& config);

}  // namespace movr::arena
