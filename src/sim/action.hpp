// Move-only callable with an inline buffer: the event path's action type.
//
// std::function copies its target and, in libstdc++, heap-allocates any
// capture wider than two pointers, so every hop of every DMA burst paid
// one allocation. sim::Action stores captures of up to kInlineBytes in
// place and moves them without touching the heap; wider captures (cold
// paths only) fall back to one heap block, like std::function.
#ifndef EDGEMM_SIM_ACTION_HPP
#define EDGEMM_SIM_ACTION_HPP

#include <cstddef>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"

namespace edgemm::sim {

namespace detail {

/// Callables whose null state must map to an empty Action.
template <typename T>
inline constexpr bool kNullable = std::is_pointer_v<T> || std::is_member_pointer_v<T>;
template <typename R, typename... Args>
inline constexpr bool kNullable<std::function<R(Args...)>> = true;

}  // namespace detail

/// A move-only `void()` callable. Empty when default-constructed, built
/// from nullptr, or built from an empty std::function or null function
/// pointer; invoking an empty Action is an invariant violation.
class Action {
 public:
  /// Inline capacity: four pointers. The widest hot capture is a
  /// run_on join or a std::function wrapped by a caller (32 bytes in
  /// libstdc++); the burst path's captures are at most three words.
  static constexpr std::size_t kInlineBytes = 4 * sizeof(void*);

  /// True when a callable of type F is stored without a heap block.
  template <typename F>
  static constexpr bool fits_inline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<F>;

  Action() noexcept = default;
  Action(std::nullptr_t) noexcept {}  // NOLINT: implicit like std::function

  template <typename F, typename D = std::decay_t<F>>
    requires(!std::is_same_v<D, Action> && std::is_invocable_r_v<void, D&>)
  Action(F&& f) {  // NOLINT: implicit so lambdas convert at call sites
    if constexpr (detail::kNullable<D>) {
      if (!f) return;
    }
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  Action(Action&& other) noexcept : ops_(other.ops_) { take(other); }
  Action& operator=(Action&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      take(other);
    }
    return *this;
  }
  Action& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  Action(const Action&) = delete;
  Action& operator=(const Action&) = delete;
  ~Action() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() {
    EDGEMM_ASSERT(ops_ != nullptr);
    ops_->invoke(buf_);
  }

 private:
  struct Ops {
    void (*invoke)(void* target);
    /// Move-constructs the target into `to` and destroys it in `from`;
    /// nullptr = a bitwise copy of the buffer suffices.
    void (*relocate)(void* to, void* from) noexcept;
    /// nullptr = trivially destructible.
    void (*destroy)(void* target) noexcept;
  };

  template <typename D>
  static D* inline_target(void* p) noexcept {
    return std::launder(static_cast<D*>(p));
  }
  template <typename D>
  static D* heap_target(void* p) noexcept {
    return *std::launder(static_cast<D**>(p));
  }

  template <typename D>
  static constexpr bool kBitwise =
      std::is_trivially_copyable_v<D> && std::is_trivially_destructible_v<D>;

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* p) { (*inline_target<D>(p))(); },
      kBitwise<D> ? nullptr
                  : +[](void* to, void* from) noexcept {
                      D* src = inline_target<D>(from);
                      ::new (to) D(std::move(*src));
                      src->~D();
                    },
      kBitwise<D> ? nullptr
                  : +[](void* p) noexcept { inline_target<D>(p)->~D(); }};

  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* p) { (*heap_target<D>(p))(); }, nullptr,
      [](void* p) noexcept { delete heap_target<D>(p); }};

  /// Moves `other`'s target into this (ops_ already copied) and empties it.
  void take(Action& other) noexcept {
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(buf_, other.buf_);
    } else {
      std::memcpy(buf_, other.buf_, kInlineBytes);
    }
    other.ops_ = nullptr;
  }

  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  const Ops* ops_ = nullptr;
  alignas(void*) unsigned char buf_[kInlineBytes];
};

}  // namespace edgemm::sim

#endif  // EDGEMM_SIM_ACTION_HPP
