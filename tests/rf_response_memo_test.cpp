// Differential tests of PhasedArray's response memo against the raw kernel.
//
// response(), gain(angle), gain_if_steered() and phy::array_response read
// through the memo; field() and gain(angle, field) are the un-memoised
// kernel. Every memoised answer must equal the kernel's to the last bit,
// whatever sequence of steers, queries, copies and assignments led to it.
#include <rf/phased_array.hpp>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include <geom/angle.hpp>
#include <phy/radio.hpp>

namespace movr::rf {
namespace {

using movr::geom::deg_to_rad;
using movr::geom::kPi;
using movr::geom::kTwoPi;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The kernel's gain toward `angle` with `array`'s current steering.
double kernel_gain(const PhasedArray& array, double angle) {
  return array.gain(angle, array.field(angle)).value();
}

/// phy::array_response written out over the kernel.
std::complex<double> kernel_response(const PhasedArray& array, double angle) {
  const std::complex<double> f = array.field(angle);
  const double amplitude = std::sqrt(array.gain(angle, f).linear());
  const double mag = std::abs(f);
  if (mag < 1e-12) {
    return {amplitude, 0.0};
  }
  return amplitude * (f / mag);
}

/// Checks every memoised entry point toward `angle` against the kernel.
void expect_matches_kernel(const PhasedArray& array, double angle) {
  const std::complex<double> f = array.field(angle);
  const PhasedArray::Response r = array.response(angle);
  EXPECT_EQ(bits(r.field.real()), bits(f.real())) << angle;
  EXPECT_EQ(bits(r.field.imag()), bits(f.imag())) << angle;
  EXPECT_EQ(bits(r.gain.value()), bits(kernel_gain(array, angle))) << angle;
  EXPECT_EQ(bits(array.gain(angle).value()), bits(kernel_gain(array, angle)))
      << angle;
  const std::complex<double> got = phy::array_response(array, angle);
  const std::complex<double> want = kernel_response(array, angle);
  EXPECT_EQ(bits(got.real()), bits(want.real())) << angle;
  EXPECT_EQ(bits(got.imag()), bits(want.imag())) << angle;
}

/// gain_if_steered(steering, angle) against the kernel of a steered copy.
void expect_steered_matches_kernel(const PhasedArray& array, double steering,
                                   double angle) {
  PhasedArray steered{array.config()};
  steered.steer(steering);
  EXPECT_EQ(bits(array.gain_if_steered(steering, angle).value()),
            bits(kernel_gain(steered, angle)))
      << steering << " " << angle;
}

/// Steerings and angles that recur, so the memo hits, including the signed
/// zeros, both sides of the 2*pi wrap and the back lobe.
const std::vector<double>& steerings() {
  static const std::vector<double> v{
      kPi / 2.0, deg_to_rad(40.0), deg_to_rad(121.0), 0.0, -0.0,
      kTwoPi,    -1e-17,           kTwoPi + 0.3,      -0.7, 8.0};
  return v;
}

const std::vector<double>& angles() {
  static const std::vector<double> v{
      kPi / 2.0,        std::acos(0.2), 0.0,  -0.0,
      kTwoPi,           -1e-17,         1.1,  kTwoPi + 1.1,
      deg_to_rad(40.0), 4.5,            -2.0, deg_to_rad(121.0) + 1e-9};
  return v;
}

PhasedArray::Config config_with_bits(int phase_bits) {
  PhasedArray::Config config;
  config.phase_bits = phase_bits;
  return config;
}

TEST(ResponseMemo, InterleavedSteerQueryAndGainIfSteeredMatchKernel) {
  for (const int phase_bits : {0, 3}) {
    PhasedArray array{config_with_bits(phase_bits)};
    std::mt19937_64 rng{static_cast<std::uint64_t>(17 + phase_bits)};
    std::uniform_int_distribution<std::size_t> pick_op{0, 2};
    std::uniform_int_distribution<std::size_t> pick_steer{
        0, steerings().size() - 1};
    std::uniform_int_distribution<std::size_t> pick_angle{
        0, angles().size() - 1};
    for (int step = 0; step < 4000; ++step) {
      const double steering = steerings()[pick_steer(rng)];
      const double angle = angles()[pick_angle(rng)];
      switch (pick_op(rng)) {
        case 0:
          array.steer(steering);
          break;
        case 1:
          expect_matches_kernel(array, angle);
          break;
        default:
          // Shares the table with response(): the entry it stores must be
          // the one response() would compute after steer(steering).
          expect_steered_matches_kernel(array, steering, angle);
          break;
      }
    }
  }
}

TEST(ResponseMemo, SameAngleUnderEachSteeringMatchesKernel) {
  // Consecutive queries that differ only in steering: an entry found under
  // the wrong steering would answer for the next one.
  for (const int phase_bits : {0, 3}) {
    PhasedArray array{config_with_bits(phase_bits)};
    for (int pass = 0; pass < 2; ++pass) {
      for (int i = 0; i < 720; ++i) {
        const double angle = deg_to_rad(0.5 * i + 0.123456789);
        for (const double steering : steerings()) {
          expect_steered_matches_kernel(array, steering, angle);
          array.steer(steering);
          expect_matches_kernel(array, angle);
        }
      }
    }
  }
}

TEST(ResponseMemo, CollidingKeysMatchKernel) {
  // Far more distinct keys than the table has slots, revisited in turn:
  // every slot is written, evicted and refilled under other keys many
  // times over.
  PhasedArray array{config_with_bits(3)};
  std::vector<double> many;
  for (int i = 0; i < 1000; ++i) {
    many.push_back(deg_to_rad(0.36 * i + 0.01));
  }
  for (int pass = 0; pass < 3; ++pass) {
    for (const double steering : {deg_to_rad(60.0), deg_to_rad(100.0)}) {
      array.steer(steering);
      for (const double angle : many) {
        expect_matches_kernel(array, angle);
      }
    }
  }
}

TEST(ResponseMemo, FreshTableAnswersOnlyForKeysItHolds) {
  // The all-zero key (steering +0, angle +0) looked up right after the
  // table is allocated by another key: a slot that was never written must
  // not pass for an entry.
  for (const int phase_bits : {0, 3}) {
    PhasedArray array{config_with_bits(phase_bits)};
    array.steer(0.0);
    expect_matches_kernel(array, 1.0);
    expect_matches_kernel(array, 0.0);
    PhasedArray steered_later{config_with_bits(phase_bits)};
    expect_steered_matches_kernel(steered_later, 0.0, 1.0);
    expect_steered_matches_kernel(steered_later, 0.0, 0.0);
  }
}

TEST(ResponseMemo, DeepNullMatchesKernel) {
  PhasedArray array;
  array.steer(kPi / 2.0);
  const double null_angle = std::acos(0.2);
  ASSERT_LT(std::abs(array.field(null_angle)), 1e-12)
      << "the angle is not a deep null; the branch is not exercised";
  for (int repeat = 0; repeat < 3; ++repeat) {
    expect_matches_kernel(array, null_angle);
    expect_steered_matches_kernel(array, kPi / 2.0, null_angle);
  }
  EXPECT_EQ(phy::array_response(array, null_angle).imag(), 0.0);
}

TEST(ResponseMemo, CopiesAndAssignmentsAnswerForTheirOwnState) {
  PhasedArray original{config_with_bits(0)};
  original.steer(deg_to_rad(70.0));
  for (const double angle : angles()) {
    expect_matches_kernel(original, angle);  // warm the memo
  }

  // A copy re-steered elsewhere answers for its new steering; the original
  // keeps answering for its own.
  PhasedArray copy = original;
  for (const double angle : angles()) {
    expect_matches_kernel(copy, angle);
  }
  copy.steer(deg_to_rad(110.0));
  for (const double angle : angles()) {
    expect_matches_kernel(copy, angle);
    expect_matches_kernel(original, angle);
  }

  // Assigning over an array warmed under another config (other element
  // count, quantised phases) at the same steering: the keys coincide, so a
  // memo kept across the assignment would answer with the old config.
  PhasedArray::Config other = config_with_bits(3);
  other.elements = 6;
  PhasedArray assigned{other};
  assigned.steer(deg_to_rad(70.0));
  for (const double angle : angles()) {
    expect_matches_kernel(assigned, angle);
  }
  assigned = original;
  for (const double angle : angles()) {
    expect_matches_kernel(assigned, angle);
  }
  assigned.steer(deg_to_rad(40.0));
  for (const double angle : angles()) {
    expect_matches_kernel(assigned, angle);
    expect_steered_matches_kernel(assigned, deg_to_rad(70.0), angle);
  }

  // Moves carry the memo along with the phases it was computed under.
  PhasedArray moved = std::move(copy);
  for (const double angle : angles()) {
    expect_matches_kernel(moved, angle);
  }
  PhasedArray move_assigned{other};
  move_assigned.steer(deg_to_rad(110.0));
  for (const double angle : angles()) {
    expect_matches_kernel(move_assigned, angle);
  }
  move_assigned = std::move(moved);
  for (const double angle : angles()) {
    expect_matches_kernel(move_assigned, angle);
  }
  move_assigned.steer(deg_to_rad(70.0));
  for (const double angle : angles()) {
    expect_matches_kernel(move_assigned, angle);
  }

  PhasedArray& self = original;
  original = self;
  for (const double angle : angles()) {
    expect_matches_kernel(original, angle);
  }
}

}  // namespace
}  // namespace movr::rf
