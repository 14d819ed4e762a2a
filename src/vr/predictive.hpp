// The predictive MoVR strategy: MovrStrategy plus an occlusion forecaster.
//
// Each frame it feeds the headset pose (as the tracking system measured it
// — an injected bias rides along, see add_pose_bias_drift) to the
// forecaster, hands any risk window to the LinkManager's proactive path,
// and, while a window is open, offers the session an alternate beam for
// speculative dual-path reception. Splitting the receive aperture across
// two beams is not free: the serving path pays `split_penalty_db` while
// speculation is armed, which is exactly what makes a wrong forecast
// genuinely (but boundedly) costly — the misprediction containment gates
// in bench/predictive.cpp measure that cost against the reactive baseline.
#pragma once

#include <optional>
#include <random>
#include <string_view>

#include <core/link_manager.hpp>
#include <core/occlusion_forecaster.hpp>
#include <core/scene.hpp>
#include <rf/units.hpp>
#include <sim/simulator.hpp>
#include <vr/qoe.hpp>
#include <vr/session.hpp>

namespace movr::vr {

class PredictiveMovrStrategy final : public LinkStrategy {
 public:
  struct Config {
    core::LinkManager::Config manager{};
    core::OcclusionForecaster::Config forecaster{};
    /// SNR cost of splitting the headset's receive aperture across the
    /// serving and speculative beams while a risk window is armed.
    rf::Decibels split_penalty{3.0};
  };

  PredictiveMovrStrategy(sim::Simulator& simulator, core::Scene& scene,
                         std::mt19937_64 rng)
      : PredictiveMovrStrategy{simulator, scene, rng, Config{}} {}
  PredictiveMovrStrategy(sim::Simulator& simulator, core::Scene& scene,
                         std::mt19937_64 rng, Config config)
      : simulator_{simulator},
        scene_{scene},
        config_{config},
        manager_{simulator, scene, rng, config.manager},
        forecaster_{config.forecaster} {}

  rf::Decibels on_frame() override;
  std::string_view name() const override { return "movr+predict"; }
  bool pin_lowest_rate() const override {
    return manager_.mode() == core::LinkManager::Mode::kDegraded;
  }
  bool link_stressed() const override {
    const core::LinkManager::Mode mode = manager_.mode();
    return mode == core::LinkManager::Mode::kHandoverPending ||
           mode == core::LinkManager::Mode::kDegraded;
  }
  bool predicted_stress() const override { return manager_.risk_active(); }
  std::optional<rf::Decibels> speculative_alt_snr() override { return alt_; }
  std::optional<PredictiveLinkStats> predictive_stats() const override;

  /// Constant offset added to every pose sample fed to the forecaster —
  /// the handle vr::add_pose_bias_drift turns into a sensor fault.
  void set_pose_bias(geom::Vec2 bias) { pose_bias_ = bias; }

  core::LinkManager& manager() { return manager_; }
  const core::LinkManager& manager() const { return manager_; }
  const core::OcclusionForecaster& forecaster() const { return forecaster_; }

 private:
  sim::Simulator& simulator_;
  core::Scene& scene_;
  Config config_;
  core::LinkManager manager_;
  core::OcclusionForecaster forecaster_;
  geom::Vec2 pose_bias_{};
  /// Alternate-beam SNR offered to the session this frame (reset each
  /// frame; set only while a risk window is open and an alternate exists).
  std::optional<rf::Decibels> alt_;
  /// Misprediction tracking: a window that closes without the LOS ever
  /// actually blocking was a false alarm.
  bool window_open_{false};
  bool window_hit_{false};
  int mispredictions_{0};
};

}  // namespace movr::vr
