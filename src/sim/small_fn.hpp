#pragma once

#include <cassert>
#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

/// \file small_fn.hpp
/// The repository's one callback type: a move-only callable wrapper with an
/// inline buffer whose size each alias picks for its own captures.
///
/// `std::function` heap-allocates any capture above 16 bytes, and it must be
/// copyable, so a callback that travels through several layers is copied at
/// each hand-off. Nearly every continuation on the message path captures
/// more than that. `SmallFn<Sig, Capacity>` stores any callable of up to
/// `Capacity` bytes in place, moves instead of copying, and falls back to
/// the heap only for a callable that does not fit.
///
/// Each layer names its own alias with a capacity sized for the hot captures
/// stored in it (the capture audit in docs/architecture.md, "Event engine
/// hot path"): the engine's `Engine::Callback` holds the largest,
/// `ucx::CompletionFn`, `cmi::PeFn`, `core::DoneFn` and the future callbacks
/// hold less. A wider alias can hold a narrower one inline, which is how a
/// callback passes down the stack without an allocation. The
/// `HotUcxCaptureShapesStayInline` test pins the audited shapes.

namespace cux::sim {

template <class Sig, std::size_t Capacity = 144>
class SmallFn;

/// Callable wrappers that can be empty: wrapping an empty one yields an
/// empty SmallFn, so `if (cb)` keeps its meaning across a hand-off.
template <class T>
inline constexpr bool is_nullable_fn_v = false;
template <class Sig, std::size_t Capacity>
inline constexpr bool is_nullable_fn_v<SmallFn<Sig, Capacity>> = true;
template <class Sig>
inline constexpr bool is_nullable_fn_v<std::function<Sig>> = true;

template <class R, class... Args, std::size_t Capacity>
class SmallFn<R(Args...), Capacity> {
 public:
  static constexpr std::size_t kInlineCapacity = Capacity;

  SmallFn() noexcept = default;
  SmallFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::remove_cvref_t<F>, SmallFn> &&
                                        std::is_invocable_r_v<R, std::remove_cvref_t<F>&, Args...>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (is_nullable_fn_v<Fn>) {
      if (!f) return;
    }
    if constexpr (fitsInline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::ops;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &HeapOps<Fn>::ops;
    }
  }

  SmallFn(SmallFn&& other) noexcept : ops_(other.ops_) {
    if (ops_) ops_->relocate(storage_, other.storage_);
    other.ops_ = nullptr;
  }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_) ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  /// Destroys the held callable (no-op when empty).
  void reset() noexcept {
    if (ops_) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Invokes the callable. An empty `void` callback is a no-op; any other
  /// empty callback must not be invoked.
  R operator()(Args... args) {
    if constexpr (std::is_void_v<R>) {
      if (ops_) ops_->invoke(storage_, std::forward<Args>(args)...);
    } else {
      assert(ops_ && "invoked an empty SmallFn");
      return ops_->invoke(storage_, std::forward<Args>(args)...);
    }
  }

  /// True when a callable of type `Fn` is stored without a heap allocation
  /// (exposed for the capture-size regression tests).
  template <typename Fn>
  [[nodiscard]] static constexpr bool fitsInline() noexcept {
    return sizeof(Fn) <= kInlineCapacity && alignof(Fn) <= kAlign &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

 private:
  /// Pointer alignment: every audited capture is pointers, integers and
  /// standard containers, and the narrower alignment keeps the wrapper at
  /// Capacity + 8 bytes, so one alias nests in another without padding.
  static constexpr std::size_t kAlign = alignof(void*);
  static_assert(Capacity >= sizeof(void*) && Capacity % kAlign == 0,
                "capacity must hold the heap fallback pointer and keep alignment");

  struct Ops {
    R (*invoke)(void*, Args&&...);
    void (*relocate)(void* dst, void* src) noexcept;  ///< move-construct dst, destroy src
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  struct InlineOps {
    static R invoke(void* p, Args&&... args) {
      return (*std::launder(reinterpret_cast<Fn*>(p)))(std::forward<Args>(args)...);
    }
    static void relocate(void* dst, void* src) noexcept {
      Fn* s = std::launder(reinterpret_cast<Fn*>(src));
      ::new (dst) Fn(std::move(*s));
      s->~Fn();
    }
    static void destroy(void* p) noexcept { std::launder(reinterpret_cast<Fn*>(p))->~Fn(); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn* get(void* p) noexcept { return *std::launder(reinterpret_cast<Fn**>(p)); }
    static R invoke(void* p, Args&&... args) { return (*get(p))(std::forward<Args>(args)...); }
    static void relocate(void* dst, void* src) noexcept { ::new (dst) Fn*(get(src)); }
    static void destroy(void* p) noexcept { delete get(p); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  const Ops* ops_ = nullptr;
  alignas(kAlign) std::byte storage_[kInlineCapacity];
};

}  // namespace cux::sim
