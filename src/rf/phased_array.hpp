// Uniform linear phased array (ULA) of patch elements.
//
// This is the antenna on the AP, the headset, and both faces of the MoVR
// reflector. The paper's arrays are PCB patch arrays with ~10 degree beams
// steerable electronically in sub-microseconds; a 10-element half-wavelength
// ULA of 5.5 dBi patches reproduces that beamwidth and a ~15.5 dBi peak.
//
// Local angle convention: the array lies along its local x axis, elements at
// x_i = i * spacing. Angles are measured CCW from that axis, so boresight is
// 90 degrees and the steerable sector is (0, 180) — matching the 40..140
// degree axes of the paper's Figs. 7 and 8. Angles in (180, 360) are behind
// the ground plane.
#pragma once

#include <atomic>
#include <complex>
#include <vector>

#include <rf/phase_shifter.hpp>
#include <rf/units.hpp>

namespace movr::rf {

class PhasedArray {
 public:
  struct Config {
    int elements{10};
    double spacing_wavelengths{0.5};
    /// Peak gain of one patch element, toward its broadside.
    Decibels element_gain{5.5};
    /// Element power-pattern exponent: pattern ~ cos^exponent(angle from
    /// broadside). 1.2 approximates a microstrip patch.
    double element_exponent{1.2};
    /// Attenuation of radiation behind the ground plane.
    Decibels front_to_back{30.0};
    /// Residual scattering floor relative to peak: even a deep pattern null
    /// leaks this much (enclosure reflections, element mismatch).
    Decibels scattering_floor{-35.0};
    /// Phase-shifter resolution; 0 = analog (the HMC-933 prototype).
    int phase_bits{0};
  };

  /// What the array radiates toward one local angle at one steering.
  struct Response {
    std::complex<double> field;  ///< field(angle)
    Decibels gain;               ///< gain(angle, field)
  };

  PhasedArray() : PhasedArray(Config{}) {}
  explicit PhasedArray(const Config& config);

  const Config& config() const { return config_; }

  /// Points the main beam at `local_angle_rad` (radians, boresight = pi/2).
  /// Models electronic steering: per-element phase commands through the
  /// phase shifters. Sub-microsecond in hardware; the simulator charges
  /// Config-independent fixed time for it at the protocol layer.
  void steer(double local_angle_rad);

  double steering() const { return steering_; }

  /// Field and gain toward `local_angle_rad` with the current steering, bit
  /// for bit what field() and gain(angle, field) compute, memoised by
  /// (steering, angle) so a repeated query skips the element sum.
  Response response(double local_angle_rad) const;

  /// Realised power gain (dBi) toward `local_angle_rad` with the current
  /// steering, including element pattern, array factor, quantisation error
  /// and the scattering floor. response(angle).gain.
  Decibels gain(double local_angle_rad) const;

  /// The same gain from `field_at_angle == field(local_angle_rad)`, already
  /// evaluated. Not memoised.
  Decibels gain(double local_angle_rad,
                std::complex<double> field_at_angle) const;

  /// The gain toward `local_angle_rad` with the beam steered to
  /// `steering_rad` instead of the current steering: bit for bit what a
  /// copy would report after steer(steering_rad), without the copy. Shares
  /// response()'s memo.
  Decibels gain_if_steered(double steering_rad, double local_angle_rad) const;

  /// Gain at the steering angle with ideal phases: element gain + 10 log N.
  Decibels peak_gain() const;

  /// Half-power beamwidth (radians) at broadside: 0.886 * lambda / (N * d).
  double beamwidth_3db() const;

  /// Complex far-field amplitude (normalised to peak = 1) toward the angle —
  /// exposed so the channel can sum multipath coherently. The raw element
  /// sum, not memoised.
  std::complex<double> field(double local_angle_rad) const;

 private:
  /// Direct-mapped memo of Response by the bit patterns of (wrapped
  /// steering, local angle), allocated on first use (DESIGN.md §8.1). The
  /// key holds everything an entry depends on besides the config, which an
  /// array never changes, so steer() invalidates nothing. A copy starts
  /// empty; a move carries the table along with the phases it was computed
  /// under. Concurrent const lookups are safe (a table-wide seqlock), as
  /// Scene's const queries are.
  class ResponseMemo {
   public:
    ResponseMemo() = default;
    ResponseMemo(const ResponseMemo&) noexcept {}
    ResponseMemo& operator=(const ResponseMemo&) noexcept {
      reset(nullptr);
      return *this;
    }
    ResponseMemo(ResponseMemo&& other) noexcept
        : table_{other.table_.exchange(nullptr)} {}
    ResponseMemo& operator=(ResponseMemo&& other) noexcept {
      reset(other.table_.exchange(nullptr));  // self-move keeps the table
      return *this;
    }
    ~ResponseMemo() { reset(nullptr); }

    /// The memoised value for the key, else `compute()`, stored.
    template <typename Compute>
    Response lookup(double steering, double local_angle_rad,
                    Compute&& compute) const;

   private:
    struct Table;
    void reset(Table* table) noexcept;
    mutable std::atomic<Table*> table_{nullptr};
  };

  // Declared first, so an assignment empties the memo before it changes
  // anything the entries were computed under.
  ResponseMemo memo_;
  Config config_;
  PhaseShifter shifter_;
  double steering_{1.5707963267948966};  // boresight
  std::vector<double> element_phases_;   // realised phases, radians
  double array_db_{0.0};                 // 10 log10(elements)

  double element_pattern_db(double local_angle_rad) const;
  /// Progressive per-element phase command that points the beam at the
  /// (wrapped) local angle `steering`.
  double progressive_phase(double steering) const;
  /// The element sum toward an angle, element i carrying phase_at(i).
  template <typename PhaseAt>
  std::complex<double> field_with(double local_angle_rad,
                                  PhaseAt&& phase_at) const;
};

}  // namespace movr::rf
