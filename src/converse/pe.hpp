#pragma once

#include "sim/engine.hpp"
#include "sim/small_fn.hpp"
#include "sim/time.hpp"

/// \file pe.hpp
/// A Processing Element: one CPU core running one scheduler, matching the
/// paper's non-SMP configuration (one PE per process, one process per GPU).
///
/// The PE serialises all software work assigned to it: handler executions,
/// entry-method invocations and callback deliveries queue up behind each
/// other in virtual time. exec() is the single funnel — it charges the given
/// software overhead, starting no earlier than the PE's current busy horizon,
/// and then runs the continuation.

namespace cux::cmi {

/// Work run on a PE (exec, Converse::runOn/inject). Capacity 112: the
/// largest audited capture is a DeviceComm send injection (context, PEs,
/// pointer, size, tag and a core::DoneFn); a PeFn plus the PE pointer still
/// fits Engine::Callback inline.
using PeFn = sim::SmallFn<void(), 112>;

class Pe {
 public:
  Pe(sim::Engine& engine, int id) : engine_(engine), id_(id) {}
  Pe(const Pe&) = delete;
  Pe& operator=(const Pe&) = delete;
  Pe(Pe&&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }

  /// Serialised execution: `fn` runs after `overhead` of PE time, queued
  /// behind any previously scheduled work on this PE.
  void exec(sim::Duration overhead, PeFn fn) {
    const sim::TimePoint start =
        engine_.now() > busy_until_ ? engine_.now() : busy_until_;
    busy_until_ = start + overhead;
    hooked_schedule(busy_until_, std::move(fn));
  }

  /// Extends the PE's busy horizon without scheduling anything; used to
  /// account for work performed inline by a continuation already running on
  /// this PE (e.g. packing bytes inside a send call).
  void charge(sim::Duration overhead) noexcept {
    const sim::TimePoint start =
        engine_.now() > busy_until_ ? engine_.now() : busy_until_;
    busy_until_ = start + overhead;
  }

  [[nodiscard]] sim::TimePoint busyUntil() const noexcept { return busy_until_; }
  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }

  /// Hook invoked around every exec() continuation; the Converse runtime
  /// installs one that tracks the "current PE" for proxy sends.
  sim::SmallFn<void(int pe, PeFn&), 16> run_hook;

 private:
  void hooked_schedule(sim::TimePoint t, PeFn fn) {
    engine_.schedule(t, [this, fn = std::move(fn)]() mutable {
      if (run_hook) {
        run_hook(id_, fn);
      } else {
        fn();
      }
    });
  }

  sim::Engine& engine_;
  int id_;
  sim::TimePoint busy_until_ = 0;
};

}  // namespace cux::cmi
