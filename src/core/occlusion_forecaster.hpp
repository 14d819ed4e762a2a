// Occlusion forecasting: predict LOS blockage before it lands.
//
// The reactive tier (LinkManager + HealthMonitor) only moves after the SNR
// has already collapsed; the paper's future-work section argues pose
// knowledge should drive the link instead. This forecaster extrapolates the
// headset trajectory (PredictiveTracker's velocity fit over the recent pose
// history) and walks the predicted positions against the room's obstacle
// geometry via the Scene's line-of-sight probe: if the direct AP beam is
// clear *now* but a predicted position a few tens of ms ahead has its LOS
// obstructed, it emits a LinkRiskWindow — consumed by LinkManager (proactive
// handover), RedundancyController (pre-armed FEC) and the transport
// (speculative dual-path reception).
//
// Contract (see DESIGN.md §10): a risk window is a *belief*, never physics.
// Consumers may spend resources on it (handover early, deepen parity,
// buffer a second beam) but must never let a wrong window make the link
// worse than the reactive baseline — containment is tested by the chaos
// knob below, which garbles forecasts at a configurable rate up to 100%.
#pragma once

#include <cstdint>
#include <optional>
#include <random>

#include <core/predictive_tracker.hpp>
#include <core/scene.hpp>
#include <geom/vec2.hpp>
#include <sim/time.hpp>

namespace movr::core {

/// A forecast interval during which the direct LOS is expected to be
/// obstructed. Absolute sim times; confidence in [0, 1].
struct LinkRiskWindow {
  sim::TimePoint t_start{};
  sim::TimePoint t_end{};
  double confidence{0.0};

  bool contains(sim::TimePoint t) const { return t >= t_start && t < t_end; }
};

class OcclusionForecaster {
 public:
  struct Config {
    /// Pose-history / velocity-fit parameters (history length is what
    /// matters here; the steering fields are unused by the forecaster).
    PredictiveTracker::Config tracker{};
    /// How far ahead the trajectory is extrapolated.
    sim::Duration horizon{std::chrono::milliseconds{60}};
    /// Granularity of the extrapolation walk.
    sim::Duration step{std::chrono::milliseconds{10}};
    /// Below this fitted speed the player counts as stationary: whatever
    /// blockage may come is not motion-induced, so no forecast is made.
    double min_speed_mps{0.05};
    /// LOS obstruction above this many dB counts as blocked (matches
    /// channel::Path::is_blocked's default). Must stay below the path
    /// solver's dynamic range (DESIGN.md §10.1); the constructor rejects a
    /// config that breaks this.
    double blocked_threshold_db{3.0};
    /// Minimum pose history before any forecast is attempted. Combined
    /// with PredictiveTracker::has_velocity_fit this is the "no
    /// prediction, not zero-velocity prediction" rule.
    std::size_t min_samples{3};
    /// Forced-misprediction knob for containment testing: with this
    /// probability per forecast the honest answer is inverted — a real
    /// risk window is suppressed, a clear horizon grows a spurious
    /// high-confidence window. 1.0 = every forecast wrong. Draws come
    /// from a dedicated RNG stream so enabling chaos never perturbs any
    /// other seeded trajectory.
    double chaos_rate{0.0};
    std::uint64_t chaos_seed{0x9e3779b97f4a7c15ull};
  };

  OcclusionForecaster() : OcclusionForecaster{Config{}} {}
  /// Throws std::invalid_argument unless blocked_threshold_db is below the
  /// path solver's default dynamic range, which every Scene solves with.
  explicit OcclusionForecaster(Config config);

  const Config& config() const { return config_; }

  /// Feeds one pose sample as the consumer measured it (bias and noise
  /// included — garbage in, garbage forecasts out; containment is the
  /// consumer's job).
  void on_pose(sim::TimePoint now, geom::Vec2 position) {
    tracker_.add_sample(now, position);
  }

  /// Forecast from the current pose history against the scene's current
  /// obstacle geometry. Returns a window only when the *current* position
  /// is clear but an extrapolated one inside the horizon is blocked —
  /// already-degraded links belong to the reactive tier.
  std::optional<LinkRiskWindow> forecast(const Scene& scene,
                                         sim::TimePoint now);

  const PredictiveTracker& tracker() const { return tracker_; }

  /// Is the direct AP -> `headset` line of sight obstructed by more than
  /// blocked_threshold_db in the scene's current room? Answered from the
  /// LOS leg alone (Scene::los_obstruction): no multipath solve, no oracle
  /// state touched, no heap.
  bool los_blocked(const Scene& scene, geom::Vec2 headset) const;

  struct Counters {
    long forecasts{0};       ///< forecast() calls
    long windows_issued{0};  ///< non-nullopt results (post-chaos)
    long no_fit_skips{0};    ///< skipped: history too short / degenerate
    long chaos_garbled{0};   ///< forecasts inverted by the chaos knob
  };
  const Counters& counters() const { return counters_; }

  void reset() {
    tracker_.reset();
    chaos_rng_.seed(config_.chaos_seed);
    counters_ = Counters{};
  }

 private:
  Config config_;
  PredictiveTracker tracker_;
  std::mt19937_64 chaos_rng_;
  Counters counters_;
};

}  // namespace movr::core
