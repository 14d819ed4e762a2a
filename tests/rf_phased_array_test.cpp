#include <rf/phased_array.hpp>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>

#include <gtest/gtest.h>

#include <geom/angle.hpp>
#include <phy/radio.hpp>
#include <rf/phase_shifter.hpp>

namespace movr::rf {
namespace {

using movr::geom::deg_to_rad;
using movr::geom::kPi;

TEST(PhaseShifter, AnalogPassesThrough) {
  const PhaseShifter analog{0};
  EXPECT_NEAR(analog.realize(1.234), 1.234, 1e-12);
}

TEST(PhaseShifter, WrapsInput) {
  const PhaseShifter analog{0};
  EXPECT_NEAR(analog.realize(-0.5), movr::geom::kTwoPi - 0.5, 1e-12);
}

TEST(PhaseShifter, QuantizesToLevels) {
  const PhaseShifter two_bit{2};  // steps of pi/2
  EXPECT_NEAR(two_bit.realize(0.1), 0.0, 1e-12);
  EXPECT_NEAR(two_bit.realize(0.8), kPi / 2.0, 1e-12);
}

TEST(PhaseShifter, QuantizationErrorBounded) {
  const PhaseShifter four_bit{4};
  const double step = movr::geom::kTwoPi / 16.0;
  for (double p = 0.0; p < movr::geom::kTwoPi; p += 0.01) {
    const double realized = four_bit.realize(p);
    EXPECT_LE(movr::geom::angular_distance(realized, p), step / 2.0 + 1e-9);
  }
}

TEST(PhasedArray, RejectsBadConfig) {
  PhasedArray::Config zero_elements;
  zero_elements.elements = 0;
  EXPECT_THROW(PhasedArray{zero_elements}, std::invalid_argument);
  PhasedArray::Config bad_spacing;
  bad_spacing.spacing_wavelengths = 0.0;
  EXPECT_THROW(PhasedArray{bad_spacing}, std::invalid_argument);
}

TEST(PhasedArray, PeakGainFormula) {
  PhasedArray array;  // 10 elements, 5.5 dBi each
  EXPECT_NEAR(array.peak_gain().value(), 15.5, 1e-9);
}

TEST(PhasedArray, BeamwidthNearTenDegrees) {
  PhasedArray array;
  EXPECT_NEAR(movr::geom::rad_to_deg(array.beamwidth_3db()), 10.15, 0.2);
}

TEST(PhasedArray, GainAtBoresightEqualsPeak) {
  PhasedArray array;
  array.steer(kPi / 2.0);
  EXPECT_NEAR(array.gain(kPi / 2.0).value(), array.peak_gain().value(), 0.01);
}

// Property: wherever the beam is steered (within the sector), the realised
// gain toward the steering angle is within a fraction of a dB of peak, and
// it is the maximum over all directions.
class SteeringProperty : public ::testing::TestWithParam<double> {};

TEST_P(SteeringProperty, PeakAtSteeringAngle) {
  PhasedArray array;
  const double steer = deg_to_rad(GetParam());
  array.steer(steer);
  const double at_steer = array.gain(steer).value();
  // Element pattern reduces off-boresight peak slightly; allow that.
  EXPECT_GT(at_steer, array.peak_gain().value() - 3.0);
  for (double a = deg_to_rad(5.0); a < deg_to_rad(175.0);
       a += deg_to_rad(1.0)) {
    EXPECT_LE(array.gain(a).value(), at_steer + 0.2)
        << "direction " << movr::geom::rad_to_deg(a);
  }
}

TEST_P(SteeringProperty, HalfPowerAtHalfBeamwidth) {
  PhasedArray array;
  const double steer = deg_to_rad(GetParam());
  array.steer(steer);
  const double bw = array.beamwidth_3db();
  // Beam broadens away from broadside by ~1/sin(steer).
  const double broadening = 1.0 / std::max(std::sin(steer), 0.3);
  const double at_peak = array.gain(steer).value();
  const double at_edge = array.gain(steer + bw / 2.0 * broadening).value();
  EXPECT_NEAR(at_peak - at_edge, 3.0, 1.7);
}

INSTANTIATE_TEST_SUITE_P(Sector, SteeringProperty,
                         ::testing::Values(50.0, 65.0, 80.0, 90.0, 105.0,
                                           120.0, 140.0));

TEST(PhasedArray, BackLobeSuppressed) {
  PhasedArray array;
  array.steer(kPi / 2.0);
  // Directly behind the ground plane.
  const double behind = array.gain(-kPi / 2.0).value();
  EXPECT_LT(behind, array.peak_gain().value() - 20.0);
}

TEST(PhasedArray, SidelobesBelowMainLobe) {
  PhasedArray array;
  array.steer(kPi / 2.0);
  const double peak = array.gain(kPi / 2.0).value();
  // Outside two beamwidths, everything is at least 10 dB down.
  const double bw = array.beamwidth_3db();
  for (double a = deg_to_rad(10.0); a < deg_to_rad(170.0);
       a += deg_to_rad(0.5)) {
    if (std::abs(a - kPi / 2.0) > 2.0 * bw) {
      EXPECT_LT(array.gain(a).value(), peak - 10.0)
          << movr::geom::rad_to_deg(a);
    }
  }
}

TEST(PhasedArray, FieldNormalisedAtSteering) {
  PhasedArray array;
  array.steer(deg_to_rad(70.0));
  EXPECT_NEAR(std::abs(array.field(deg_to_rad(70.0))), 1.0, 1e-6);
}

TEST(PhasedArray, QuantisedShiftersLoseLittleGain) {
  PhasedArray::Config analog_cfg;
  PhasedArray::Config quant_cfg;
  quant_cfg.phase_bits = 4;
  PhasedArray analog{analog_cfg};
  PhasedArray quant{quant_cfg};
  const double steer = deg_to_rad(63.0);
  analog.steer(steer);
  quant.steer(steer);
  const double loss = analog.gain(steer).value() - quant.gain(steer).value();
  EXPECT_GE(loss, -0.1);
  EXPECT_LT(loss, 1.0);  // 4-bit shifters cost well under 1 dB
}

TEST(PhasedArray, CoarseQuantisationCostsMore) {
  PhasedArray::Config coarse_cfg;
  coarse_cfg.phase_bits = 1;
  PhasedArray coarse{coarse_cfg};
  PhasedArray analog;
  // Average loss over several steering angles: 1-bit shifters hurt.
  double total_loss = 0.0;
  int n = 0;
  for (double deg = 45.0; deg <= 135.0; deg += 10.0) {
    const double steer = deg_to_rad(deg);
    coarse.steer(steer);
    analog.steer(steer);
    total_loss += analog.gain(steer).value() - coarse.gain(steer).value();
    ++n;
  }
  EXPECT_GT(total_loss / n, 1.0);
}

TEST(PhasedArray, MoreElementsNarrowerBeam) {
  PhasedArray::Config big_cfg;
  big_cfg.elements = 20;
  PhasedArray small;
  PhasedArray big{big_cfg};
  EXPECT_LT(big.beamwidth_3db(), small.beamwidth_3db());
  EXPECT_GT(big.peak_gain().value(), small.peak_gain().value());
}

// --- bit-for-bit pins of gain() and phy::array_response ------------------
//
// The formulas below are the array model written out once more, evaluating
// the field separately for the gain and the phase exactly as the original
// one-argument gain() did. The library may evaluate the field once and
// share it, but every result must stay the same double.

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

double reference_element_db(const PhasedArray::Config& c, double angle) {
  const double a = movr::geom::wrap_two_pi(angle);
  const double s = std::sin(a);
  if (s <= 0.0) {
    return c.element_gain.value() - c.front_to_back.value();
  }
  const double pattern_db = 10.0 * c.element_exponent * std::log10(s);
  return c.element_gain.value() +
         std::max(pattern_db, c.scattering_floor.value());
}

double reference_gain_db(const PhasedArray& array, double angle) {
  const PhasedArray::Config& c = array.config();
  const double af_power = std::norm(array.field(angle));
  const double af_db = 10.0 * std::log10(std::max(af_power, 1e-12));
  const double af_floored = std::max(af_db, c.scattering_floor.value());
  const double array_db = 10.0 * std::log10(static_cast<double>(c.elements));
  return array_db + af_floored + reference_element_db(c, angle);
}

std::complex<double> reference_response(const PhasedArray& array,
                                        double angle) {
  const double amplitude =
      std::sqrt(Decibels{reference_gain_db(array, angle)}.linear());
  const std::complex<double> f = array.field(angle);
  const double mag = std::abs(f);
  if (mag < 1e-12) {
    return {amplitude, 0.0};
  }
  return amplitude * (f / mag);
}

void expect_pinned(const PhasedArray& array, double angle) {
  const double gain = array.gain(angle).value();
  EXPECT_EQ(bits(gain), bits(reference_gain_db(array, angle))) << angle;
  EXPECT_EQ(bits(array.gain(angle, array.field(angle)).value()), bits(gain))
      << angle;
  const std::complex<double> got = phy::array_response(array, angle);
  const std::complex<double> want = reference_response(array, angle);
  EXPECT_EQ(bits(got.real()), bits(want.real())) << angle;
  EXPECT_EQ(bits(got.imag()), bits(want.imag())) << angle;
}

TEST(PhasedArray, GainAndResponseMatchReferenceBitForBit) {
  for (const int phase_bits : {0, 3}) {
    PhasedArray::Config config;
    config.phase_bits = phase_bits;
    PhasedArray array{config};
    for (const double steer_deg : {90.0, 40.0, 67.5, 121.0, 140.0, 250.0}) {
      array.steer(deg_to_rad(steer_deg));
      for (int i = 0; i < 720; ++i) {
        // Half-degree grid plus an irrational offset, over the full circle
        // (front sector, endfire and the back lobe).
        expect_pinned(array, deg_to_rad(0.5 * i + 0.123456789));
      }
    }
  }
}

TEST(PhasedArray, DeepNullTakesFlooredBranchBitForBit) {
  // Ten analog elements at half-wavelength spacing steered to boresight:
  // the element phases advance by 2*pi/10 per element toward
  // cos(angle) = 0.2, so the ten phasors cancel to rounding noise.
  PhasedArray array;
  array.steer(kPi / 2.0);
  const double null_angle = std::acos(0.2);
  ASSERT_LT(std::abs(array.field(null_angle)), 1e-12)
      << "the angle is not a deep null; the branch is not exercised";
  expect_pinned(array, null_angle);
  const std::complex<double> response = phy::array_response(array, null_angle);
  EXPECT_EQ(response.imag(), 0.0);
  EXPECT_GT(response.real(), 0.0);
}

TEST(PhasedArray, GainIfSteeredMatchesSteeredCopyBitForBit) {
  for (const int phase_bits : {0, 3}) {
    PhasedArray::Config config;
    config.phase_bits = phase_bits;
    const PhasedArray array{config};
    for (const double steer : {0.3, 1.2, kPi / 2.0, 2.6, -0.7, 8.0}) {
      PhasedArray copy{config};
      copy.steer(steer);
      for (int i = 0; i < 720; ++i) {
        const double angle = deg_to_rad(0.5 * i + 0.123456789);
        EXPECT_EQ(bits(array.gain_if_steered(steer, angle).value()),
                  bits(copy.gain(angle).value()))
            << steer << " " << angle;
      }
    }
  }
}

}  // namespace
}  // namespace movr::rf
