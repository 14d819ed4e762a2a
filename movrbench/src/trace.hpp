// The traced pass's instruments, all outside the library: spans recorded
// around calls into each module's public functions, plus replays that time
// a public function on the workload's own inputs after the run.
//
// Every decorator forwards to the wrapped object unchanged and consumes no
// simulation RNG, so a traced run is bit-identical to an untraced one; the
// workloads check that and count a mismatch as a failed check.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include <core/channel_oracle.hpp>
#include <core/link_manager.hpp>
#include <core/scene.hpp>
#include <geom/vec2.hpp>
#include <sim/simulator.hpp>
#include <vr/motion.hpp>
#include <vr/session.hpp>

#include "harness.hpp"

namespace movrbench {

/// Durations of one kind of span, kept in memory until the run ends.
class Spans {
 public:
  void add(double ns) { ns_.push_back(ns); }
  double p(double q) const { return percentile(ns_, q); }

 private:
  std::vector<double> ns_;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host time between successive simulated frames: tick() once per frame.
class FrameClock {
 public:
  void tick();
  /// Forgets the previous frame: the next tick starts a new session.
  void restart() { last_ = -1; }
  /// Host time the benchmark itself spent inside the current frame (probe
  /// slices, replays), left out of that frame's interval.
  void exclude(std::int64_t ns) { excluded_ += ns; }
  const Spans& frame_ns() const { return frame_ns_; }

 private:
  std::int64_t last_{-1};
  std::int64_t excluded_{0};
  Spans frame_ns_;
};

/// vr::Motion decorator: times position_at and ticks an optional frame
/// clock (the session asks for the pose once per frame).
class TimedMotion final : public vr::Motion {
 public:
  TimedMotion(std::unique_ptr<vr::Motion> inner, Spans& spans,
              FrameClock* frames)
      : inner_{std::move(inner)}, spans_{spans}, frames_{frames} {}

  geom::Vec2 position_at(sim::TimePoint t) override;

  /// Every pose handed out, in order (the workload's endpoint set).
  const std::vector<geom::Vec2>& poses() const { return poses_; }

 private:
  std::unique_ptr<vr::Motion> inner_;
  Spans& spans_;
  FrameClock* frames_;
  std::vector<geom::Vec2> poses_;
};

/// vr::LinkStrategy decorator: times on_frame (the link manager's per-frame
/// decision) and forwards every other hook unchanged.
class TimedStrategy final : public vr::LinkStrategy {
 public:
  TimedStrategy(vr::LinkStrategy& inner, Spans& spans, FrameClock* frames)
      : inner_{inner}, spans_{spans}, frames_{frames} {}

  rf::Decibels on_frame() override;
  std::string_view name() const override { return inner_.name(); }
  bool pin_lowest_rate() const override { return inner_.pin_lowest_rate(); }
  bool link_stressed() const override { return inner_.link_stressed(); }
  bool predicted_stress() const override { return inner_.predicted_stress(); }
  std::optional<rf::Decibels> speculative_alt_snr() override {
    return inner_.speculative_alt_snr();
  }
  std::optional<vr::PredictiveLinkStats> predictive_stats() const override {
    return inner_.predictive_stats();
  }

 private:
  vr::LinkStrategy& inner_;
  Spans& spans_;
  FrameClock* frames_;
};

/// Drives `simulator` to `end` exactly as Simulator::run_until does, one
/// step() at a time (a marker event at `end` stops the loop; run_until then
/// settles events due at `end` itself). Each step is timed into `step_ns`
/// when it is non-null. Traced and untraced runs both come through here,
/// so both execute the same event sequence.
void drive(sim::Simulator& simulator, sim::TimePoint end, Spans* step_ns);

/// Schedules a Transport::ledger_snapshot() probe every 20 ms of simulated
/// time before `end`; each probe is one check (the ledger must close).
/// `transport` is read when the probe fires.
void schedule_ledger_probes(sim::Simulator& simulator, sim::TimePoint end,
                            const vr::Session& session, Checks& checks);

// --- the per-layer record --------------------------------------------

/// Everything the traced pass measures, one field per per-layer metric.
/// Layers a workload bypasses keep their zero defaults, so every workload
/// reports the same metric set.
struct Layers {
  // sim
  std::uint64_t events{0};
  /// CPU seconds of the untraced runs' timed phase, as measured.
  double timed_cpu_s{0.0};
  Spans step_ns;
  std::uint64_t control_sent{0};
  std::uint64_t control_dropped{0};
  std::uint64_t control_duplicates{0};
  // vr
  FrameClock frames;
  Spans motion_ns;
  Qoe qoe;
  // core
  Spans link_ns;
  std::uint64_t handovers{0};
  std::uint64_t proactive_handovers{0};
  std::uint64_t risk_windows{0};
  std::uint64_t mispredictions{0};
  double calibrate_ms{0.0};
  double coverage_map_ms{0.0};
  double speedup_2t{0.0};
  double covered_frac{0.0};
  // channel
  core::ChannelOracle::Stats oracle;
  double solve_us{0.0};
  double solve_batch_us{0.0};
  // rf, phy, hw
  double field_ns{0.0};
  double array_response_ns{0.0};
  double gain_control_us{0.0};
  // arena
  double victim_us{0.0};
  double interference_share{0.0};
  std::uint64_t lease_grants{0};
  std::uint64_t lease_denials{0};
  std::uint64_t lease_revocations{0};
  std::uint64_t evictions{0};
  // net
  std::uint64_t packets{0};
  std::uint64_t retransmits{0};
  std::uint64_t fec_recovered{0};
  std::uint64_t spec_saves{0};
  std::uint64_t spec_copies{0};
  std::uint64_t queue_hwm{0};
  // log
  std::uint64_t log_records{0};
  std::uint64_t log_bytes{0};
  double log_ns_per_record{0.0};
  double log_verify_ms{0.0};
  // the trace itself: traced over untraced time of the same work
  double overhead_ratio{0.0};

  void add_link(const core::LinkManager::Stats& stats);
  /// Transport counters, read after the session finished.
  void add_transport(const net::Transport& transport);
  /// Times rf::PhasedArray::field, phy::array_response (720 angles on every
  /// array of `scene`), PathSolver::solve and solve_batch (per query, AP
  /// and reflectors to each of `poses`) and GainController::run (on a clone
  /// of the reflectors).
  void replay(const core::Scene& scene, const std::vector<geom::Vec2>& poses);
};

/// Writes every per-layer metric, in a fixed order.
void emit_layers(Result& result, const Layers& layers);

}  // namespace movrbench
