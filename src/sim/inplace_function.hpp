// A fixed-buffer std::function replacement for the event queue's handlers.
//
// Every event the simulator schedules used to pay one heap allocation for
// its std::function capture (the transport's per-MPDU lambdas carry a
// Packet plus coin parameters — well past the small-buffer optimisation).
// At 90 Hz with several events per tick that allocation churn IS the
// steady-state cost of the tick path, so the handler type stores its
// callable inline: construction from any callable that fits is
// allocation-free by construction, and callables that do not fit fail to
// compile (static_assert) instead of silently spilling to the heap.
//
// Semantics are the slice of std::function the event queue needs:
// emplace a callable in place, call, empty-test, destroy. The queue
// constructs each handler directly in a slot whose storage never moves,
// invokes it there and destroys it there (DESIGN.md §9.5), so the type is
// neither copyable nor movable and the stored callable need not be either.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace movr::sim {

template <typename Signature, std::size_t Capacity = 120>
class InplaceFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InplaceFunction<R(Args...), Capacity> {
 public:
  InplaceFunction() = default;
  InplaceFunction(const InplaceFunction&) = delete;
  InplaceFunction& operator=(const InplaceFunction&) = delete;

  ~InplaceFunction() { reset(); }

  /// Destroys the held callable, if any, and constructs `f` in its place.
  /// ops_ is set only once the callable is built, so a throwing constructor
  /// leaves the function empty.
  template <typename F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= Capacity,
                  "callable too large for InplaceFunction buffer — shrink "
                  "the capture or raise Capacity");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "callable over-aligned for InplaceFunction buffer");
    reset();
    ::new (static_cast<void*>(buffer_)) Fn(std::forward<F>(f));
    ops_ = &ops_for<Fn>;
  }

  /// Destroys the held callable; the function is empty afterwards.
  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) {
        ops_->destroy(buffer_);
      }
      ops_ = nullptr;
    }
  }

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) const {
    return ops_->invoke(buffer_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(const std::byte*, Args&&...);
    void (*destroy)(std::byte*);  // null when there is nothing to destroy
  };

  template <typename Fn>
  static void destroy_fn(std::byte* buf) { reinterpret_cast<Fn*>(buf)->~Fn(); }

  template <typename Fn>
  static constexpr Ops ops_for{
      [](const std::byte* buf, Args&&... args) -> R {
        // Handlers are semantically mutable calls (std::function parity):
        // the stored callable may update captured state between firings.
        return (*const_cast<Fn*>(reinterpret_cast<const Fn*>(buf)))(
            std::forward<Args>(args)...);
      },
      std::is_trivially_destructible_v<Fn> ? nullptr : &destroy_fn<Fn>,
  };

  alignas(std::max_align_t) mutable std::byte buffer_[Capacity];
  const Ops* ops_{nullptr};
};

}  // namespace movr::sim
