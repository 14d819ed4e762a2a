#include <rf/phased_array.hpp>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include <geom/angle.hpp>

namespace movr::rf {

namespace {
constexpr double kTwoPi = movr::geom::kTwoPi;

// 64 slots of 40 bytes. At 128, movrbench's 32-user arena ran no faster
// and its peak memory rose by more than 5%.
constexpr unsigned kMemoBits = 6;
constexpr std::size_t kMemoSlots = std::size_t{1} << kMemoBits;

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }
double double_of(std::uint64_t b) { return std::bit_cast<double>(b); }

std::size_t memo_slot(std::uint64_t steering, std::uint64_t angle) {
  std::uint64_t h = angle ^ (steering * 0x9e3779b97f4a7c15ull);
  h ^= h >> 31;
  h *= 0xbf58476d1ce4e5b9ull;
  return static_cast<std::size_t>(h >> (64 - kMemoBits));
}
}  // namespace

struct PhasedArray::ResponseMemo::Table {
  struct Slot {
    std::atomic<std::uint64_t> steering;
    std::atomic<std::uint64_t> angle;
    std::atomic<std::uint64_t> field_re;
    std::atomic<std::uint64_t> field_im;
    std::atomic<std::uint64_t> gain;

    void store(std::uint64_t s, std::uint64_t a, const Response& r) {
      steering.store(s, std::memory_order_relaxed);
      angle.store(a, std::memory_order_relaxed);
      field_re.store(bits_of(r.field.real()), std::memory_order_relaxed);
      field_im.store(bits_of(r.field.imag()), std::memory_order_relaxed);
      gain.store(bits_of(r.gain.value()), std::memory_order_relaxed);
    }
  };

  /// Every slot starts out holding the first entry computed — a real key
  /// with its exact value — so an unwritten slot never answers for another
  /// key and no empty marker is needed.
  Table(std::uint64_t s, std::uint64_t a, const Response& r) {
    for (Slot& slot : slots) {
      slot.store(s, a, r);
    }
  }

  /// Even when no write is in flight. A writer makes it odd, fills one
  /// slot and makes it even again; a lookup that sees it odd or changed
  /// counts a miss and recomputes, so a reader never returns a torn entry.
  std::atomic<std::uint64_t> seq{0};
  std::array<Slot, kMemoSlots> slots;
};

void PhasedArray::ResponseMemo::reset(Table* table) noexcept {
  delete table_.exchange(table, std::memory_order_acq_rel);
}

template <typename Compute>
PhasedArray::Response PhasedArray::ResponseMemo::lookup(
    double steering, double local_angle_rad, Compute&& compute) const {
  const std::uint64_t s = bits_of(steering);
  const std::uint64_t a = bits_of(local_angle_rad);
  Table* table = table_.load(std::memory_order_acquire);
  if (table == nullptr) {
    const Response value = compute();
    auto fresh = std::make_unique<Table>(s, a, value);
    if (table_.compare_exchange_strong(table, fresh.get(),
                                       std::memory_order_release,
                                       std::memory_order_relaxed)) {
      fresh.release();
    }
    return value;
  }
  Table::Slot& slot = table->slots[memo_slot(s, a)];
  const std::uint64_t seq = table->seq.load(std::memory_order_acquire);
  if (seq % 2 == 0 && slot.steering.load(std::memory_order_relaxed) == s &&
      slot.angle.load(std::memory_order_relaxed) == a) {
    const Response hit{
        {double_of(slot.field_re.load(std::memory_order_relaxed)),
         double_of(slot.field_im.load(std::memory_order_relaxed))},
        Decibels{double_of(slot.gain.load(std::memory_order_relaxed))}};
    std::atomic_thread_fence(std::memory_order_acquire);
    if (table->seq.load(std::memory_order_relaxed) == seq) {
      return hit;
    }
  }
  const Response value = compute();
  std::uint64_t expected = seq;
  if (seq % 2 == 0 &&
      table->seq.compare_exchange_strong(expected, seq + 1,
                                         std::memory_order_relaxed)) {
    std::atomic_thread_fence(std::memory_order_release);
    slot.store(s, a, value);
    table->seq.store(seq + 2, std::memory_order_release);
  }
  return value;
}

PhasedArray::PhasedArray(const Config& config)
    : config_{config},
      shifter_{config.phase_bits},
      array_db_{10.0 * std::log10(static_cast<double>(config.elements))} {
  if (config_.elements < 1) {
    throw std::invalid_argument{"PhasedArray: need at least one element"};
  }
  if (config_.spacing_wavelengths <= 0.0) {
    throw std::invalid_argument{"PhasedArray: spacing must be positive"};
  }
  element_phases_.resize(static_cast<std::size_t>(config_.elements));
  steer(steering_);
}

double PhasedArray::progressive_phase(double steering) const {
  // Element i is advanced so that contributions add in phase toward the
  // steering angle. k*d in radians per element:
  const double kd = kTwoPi * config_.spacing_wavelengths;
  return -kd * std::cos(steering);
}

void PhasedArray::steer(double local_angle_rad) {
  steering_ = movr::geom::wrap_two_pi(local_angle_rad);
  const double progressive = progressive_phase(steering_);
  for (std::size_t i = 0; i < element_phases_.size(); ++i) {
    element_phases_[i] = shifter_.realize(progressive * static_cast<double>(i));
  }
}

template <typename PhaseAt>
std::complex<double> PhasedArray::field_with(double local_angle_rad,
                                             PhaseAt&& phase_at) const {
  const double kd = kTwoPi * config_.spacing_wavelengths;
  const double psi = kd * std::cos(local_angle_rad);
  std::complex<double> sum{0.0, 0.0};
  for (std::size_t i = 0; i < element_phases_.size(); ++i) {
    const double phase = psi * static_cast<double>(i) + phase_at(i);
    sum += std::polar(1.0, phase);
  }
  return sum / static_cast<double>(config_.elements);
}

std::complex<double> PhasedArray::field(double local_angle_rad) const {
  return field_with(local_angle_rad,
                    [this](std::size_t i) { return element_phases_[i]; });
}

PhasedArray::Response PhasedArray::response(double local_angle_rad) const {
  return memo_.lookup(steering_, local_angle_rad, [&] {
    const std::complex<double> f = field(local_angle_rad);
    return Response{f, gain(local_angle_rad, f)};
  });
}

Decibels PhasedArray::gain_if_steered(double steering_rad,
                                      double local_angle_rad) const {
  // steer() would store exactly these phases, so the entry is the one
  // response() computes after steer(steering_rad): the table is shared.
  const double steering = movr::geom::wrap_two_pi(steering_rad);
  const auto compute = [&] {
    const double progressive = progressive_phase(steering);
    const std::complex<double> f =
        field_with(local_angle_rad, [&](std::size_t i) {
          return shifter_.realize(progressive * static_cast<double>(i));
        });
    return Response{f, gain(local_angle_rad, f)};
  };
  return memo_.lookup(steering, local_angle_rad, compute).gain;
}

double PhasedArray::element_pattern_db(double local_angle_rad) const {
  const double a = movr::geom::wrap_two_pi(local_angle_rad);
  const double s = std::sin(a);
  if (s <= 0.0) {
    // Behind the ground plane: flat back lobe.
    return config_.element_gain.value() - config_.front_to_back.value();
  }
  // Angle from broadside has cosine == sin(local angle).
  const double pattern_db = 10.0 * config_.element_exponent * std::log10(s);
  // A single patch never nulls perfectly toward the endfire directions.
  const double floored =
      std::max(pattern_db, config_.scattering_floor.value());
  return config_.element_gain.value() + floored;
}

Decibels PhasedArray::gain(double local_angle_rad) const {
  return response(local_angle_rad).gain;
}

Decibels PhasedArray::gain(double local_angle_rad,
                           std::complex<double> field_at_angle) const {
  const double af_power = std::norm(field_at_angle);
  const double af_db =
      10.0 * std::log10(std::max(af_power, 1e-12));
  const double af_floored = std::max(af_db, config_.scattering_floor.value());
  return Decibels{array_db_ + af_floored + element_pattern_db(local_angle_rad)};
}

Decibels PhasedArray::peak_gain() const {
  return Decibels{array_db_ + config_.element_gain.value()};
}

double PhasedArray::beamwidth_3db() const {
  return 0.886 / (static_cast<double>(config_.elements) *
                  config_.spacing_wavelengths);
}

}  // namespace movr::rf
