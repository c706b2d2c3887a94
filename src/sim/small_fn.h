// Move-only callable with inline storage — the payload type of every DES
// event callback, resource continuation and the recurring slot. Replaces
// std::function in the DES hot path: capturing a callback costs zero heap
// allocations, and moving one is a memcpy-sized relocation instead of a
// manager-function round trip.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace harmony::sim {

// An R() callable (void() by default) with `Capacity` bytes of inline
// storage. A callable larger than Capacity is a compile error (grow the
// capacity at the call site) — silently heap-boxing would defeat the
// allocation-free contract the simulator's event slots rely on.
template <std::size_t Capacity = 48, typename R = void>
class SmallFn {
 public:
  SmallFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, SmallFn> &&
                                        std::is_invocable_r_v<R, std::decay_t<F>&>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    emplace(std::forward<F>(f));
  }

  SmallFn(SmallFn&& other) noexcept { move_from(other); }
  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;
  ~SmallFn() { reset(); }

  // Destroys the held callable, if any, and constructs `f` in its place. If
  // that construction throws, the SmallFn is left empty.
  template <typename F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= Capacity, "callable exceeds SmallFn capacity");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "callable is over-aligned for SmallFn storage");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "SmallFn requires nothrow-movable callables");
    reset();
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));  // lint: allow-naked-new placement into inline storage
    invoke_ = [](void* p) -> R { return (*static_cast<Fn*>(p))(); };
    manage_ = [](void* dst, void* src) {
      if (dst != nullptr)
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));  // lint: allow-naked-new placement relocate
      static_cast<Fn*>(src)->~Fn();
    };
  }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  R operator()() { return invoke_(buf_); }

  void reset() noexcept {
    if (invoke_ != nullptr) {
      manage_(nullptr, buf_);
      invoke_ = nullptr;
      manage_ = nullptr;
    }
  }

 private:
  // Relocates `other`'s payload into this object and leaves `other` empty.
  void move_from(SmallFn& other) noexcept {
    if (other.invoke_ != nullptr) {
      other.manage_(buf_, other.buf_);
      invoke_ = other.invoke_;
      manage_ = other.manage_;
      other.invoke_ = nullptr;
      other.manage_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[Capacity];
  R (*invoke_)(void*) = nullptr;
  // manage_(dst, src): move-construct src's payload into dst (when dst is
  // non-null), then destroy src's payload. One pointer covers both relocate
  // and destroy so the inline footprint stays two words past the buffer.
  void (*manage_)(void*, void*) = nullptr;
};

}  // namespace harmony::sim
