#pragma once

#include <cassert>
#include <coroutine>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/pooled.hpp"
#include "sim/small_fn.hpp"

/// \file future.hpp
/// Single-threaded simulation futures.
///
/// These deliberately do NOT involve threads or atomics: the whole simulated
/// machine runs on one OS thread inside the event engine, so a future is just
/// a shared completion flag plus a list of continuations (both plain
/// callbacks and suspended coroutines). Fulfilling a future resumes waiters
/// synchronously at the current virtual time; callers that need a scheduling
/// delay model it explicitly before calling set().
///
/// The shared state is a sim::Pooled block (intrusive refcount, recycled
/// storage). Nearly every future has at most one coroutine waiter and one
/// callback, so both are stored inline; a second of either spills into a
/// vector. A state can also count down a join (allOf): set() fires when the
/// last expected arrival lands.
///
/// This is the same abstraction Charm4py exposes to Python programs [17] and
/// what the channel API suspends on.

namespace cux::sim {

template <class T>
class Future;

namespace detail {

struct Unit {};

template <class T>
struct FutureState {
  using Value = std::conditional_t<std::is_void_v<T>, Unit, T>;
  /// Capacity 48: the audited captures are an object pointer, a Promise or
  /// request handle plus a pointer, or an MPI status (docs/architecture.md).
  using Callback =
      std::conditional_t<std::is_void_v<T>, SmallFn<void(), 48>, SmallFn<void(const Value&), 48>>;

  std::optional<Value> value;
  std::coroutine_handle<> waiter;
  Callback callback;
  std::vector<std::coroutine_handle<>> more_waiters;
  std::vector<Callback> more_callbacks;
  std::size_t join_pending = 0;  ///< arrivals still expected (allOf)

  [[nodiscard]] bool ready() const noexcept { return value.has_value(); }

  void addWaiter(std::coroutine_handle<> h) {
    if (!waiter) {
      waiter = h;
    } else {
      more_waiters.push_back(h);
    }
  }

  void addCallback(Callback cb) {
    if (!callback) {
      callback = std::move(cb);
    } else {
      more_callbacks.push_back(std::move(cb));
    }
  }

  template <class Cb>
  void run(Cb& cb) {
    if constexpr (std::is_void_v<T>) {
      cb();
    } else {
      cb(*value);
    }
  }

  /// Callbacks first, then coroutine waiters, each in registration order.
  void fulfil(Value v) {
    assert(!ready() && "future fulfilled twice");
    value.emplace(std::move(v));
    Callback cb = std::move(callback);
    auto cbs = std::move(more_callbacks);
    const std::coroutine_handle<> w = std::exchange(waiter, nullptr);
    auto ws = std::move(more_waiters);
    if (cb) run(cb);
    for (auto& c : cbs) run(c);
    if (w) w.resume();
    for (auto h : ws) h.resume();
  }
};

}  // namespace detail

/// Write end of a future. Copyable; all copies refer to the same state.
template <class T>
class Promise {
  using State = detail::FutureState<T>;

 public:
  Promise() : state_(Pooled<State>::make()) {}

  [[nodiscard]] Future<T> future() const noexcept;

  void set(typename State::Value v) const
    requires(!std::is_void_v<T>)
  {
    fulfil(std::move(v));
  }
  void set() const
    requires std::is_void_v<T>
  {
    fulfil(detail::Unit{});
  }
  [[nodiscard]] bool ready() const noexcept { return state_->ready(); }

  /// Join counting (allOf): expect `n` arrivals; the n-th arrive() sets the
  /// promise. The count lives in the pooled state, not in a separate block.
  void expect(std::size_t n) const noexcept { state_->join_pending = n; }
  void arrive() const
    requires std::is_void_v<T>
  {
    assert(state_->join_pending > 0);
    if (--state_->join_pending == 0) set();
  }

 private:
  void fulfil(typename State::Value v) const {
    // Hold a reference while continuations run: one of them may drop the
    // last other handle to this state.
    const Pooled<State> keep = state_;
    keep->fulfil(std::move(v));
  }

  Pooled<State> state_;
};

/// Read end of a future: awaitable from coroutines, or subscribe a callback.
template <class T>
class Future {
  using State = detail::FutureState<T>;

 public:
  /// Callback type accepted by onReady(): `void(const T&)`, or `void()` for
  /// Future<void>.
  using Callback = typename State::Callback;

  explicit Future(Pooled<State> s) noexcept : state_(std::move(s)) {}

  [[nodiscard]] bool ready() const noexcept { return state_->ready(); }

  /// The fulfilled value; only valid once ready().
  [[nodiscard]] const typename State::Value& get() const
    requires(!std::is_void_v<T>)
  {
    assert(ready());
    return *state_->value;
  }

  /// Runs `cb` when the future completes (immediately if already complete).
  void onReady(Callback cb) const {
    if (state_->ready()) {
      state_->run(cb);
    } else {
      state_->addCallback(std::move(cb));
    }
  }

  // --- coroutine support -----------------------------------------------
  bool await_ready() const noexcept { return state_->ready(); }
  void await_suspend(std::coroutine_handle<> h) const { state_->addWaiter(h); }
  T await_resume() const {
    if constexpr (!std::is_void_v<T>) return *state_->value;
  }

 private:
  Pooled<State> state_;
};

template <class T>
Future<T> Promise<T>::future() const noexcept {
  return Future<T>{state_};
}

}  // namespace cux::sim
