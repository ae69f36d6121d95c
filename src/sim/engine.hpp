#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/small_fn.hpp"
#include "sim/time.hpp"

/// \file engine.hpp
/// Single-threaded discrete-event simulation engine.
///
/// Every component of the reproduction (network links, CUDA streams, PE
/// schedulers, UCX protocol state machines) advances virtual time by
/// scheduling callbacks here. Determinism guarantee: events with equal
/// timestamps fire in scheduling order (a monotonically increasing sequence
/// number breaks ties), so repeated runs produce identical traces.
///
/// Hot-path design: the common (never-cancelled) event performs zero hash
/// lookups and zero per-event heap allocations. Callbacks live in a
/// generation-tagged slot pool (`SmallFn` inline storage, recycled through a
/// free list); the priority queue holds 24-byte POD entries only. An
/// `EventId` encodes {slot, generation}: cancellation bumps the slot's
/// generation, turning the queued entry into a tombstone that pop skips with
/// a single array compare — no cancelled-set, no pending-set.

namespace cux::sim {

/// Identifier of a scheduled event; usable with Engine::cancel(). Encodes a
/// slot index (low 32 bits) and that slot's generation at scheduling time
/// (high 32 bits); stale ids fail the generation check in cancel().
using EventId = std::uint64_t;

class Engine {
 public:
  using Callback = SmallFn;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time.
  [[nodiscard]] TimePoint now() const noexcept { return now_; }

  /// Schedules `cb` at absolute virtual time `t` (clamped to now()). A
  /// past-time schedule increments pastClamped().
  EventId schedule(TimePoint t, Callback cb);

  /// Schedules `cb` after `delay` nanoseconds of virtual time.
  EventId after(Duration delay, Callback cb) { return schedule(now_ + delay, std::move(cb)); }

  /// Cancels a pending event. Cancelling an already-fired or unknown id is a
  /// no-op and returns false. (Caveat: an id whose slot has since cycled
  /// through exactly 2^32 generations could be confused with a live event;
  /// that requires 4 billion events reusing one slot while the stale id is
  /// retained, which no workload in this repository approaches.)
  bool cancel(EventId id);

  /// Runs until the event queue drains or stop() is called.
  void run();

  /// Runs until virtual time would exceed `t`; remaining events stay queued.
  /// Returns true if no live events remain (drained). Clock contract: on a
  /// normal return — drained or first-future-event — now() == max(t, entry
  /// now()), so callers stepping in fixed windows read a consistent clock
  /// whether or not events existed in the window; a runUntil(t) with
  /// t < now() leaves the clock untouched (time never rewinds). When
  /// interrupted by stop(), now() stays at the last processed event.
  bool runUntil(TimePoint t);

  /// Executes exactly one event if available; returns false on empty queue.
  bool step();

  /// Requests the current — or, if none is active, the NEXT — run()/
  /// runUntil() call to return before processing further events. Exactly one
  /// run call consumes the request: a stop() issued outside the run loop is
  /// honored by the next run call (which returns immediately) rather than
  /// silently discarded, and the call after that proceeds normally.
  void stop() noexcept { stopped_ = true; }

  /// Whether a stop() request is pending (not yet consumed by a run call).
  [[nodiscard]] bool stopRequested() const noexcept { return stopped_; }

  [[nodiscard]] bool empty() const noexcept { return live_events_ == 0; }
  [[nodiscard]] std::uint64_t eventsProcessed() const noexcept { return processed_; }
  [[nodiscard]] std::uint64_t eventsScheduled() const noexcept { return scheduled_; }

  /// Number of schedule() calls whose target time lay in the past and was
  /// clamped to now(). A nonzero count means some caller computed a
  /// delivery time before the current instant.
  [[nodiscard]] std::uint64_t pastClamped() const noexcept { return past_clamped_; }

 private:
  /// Heap entry: POD only, so priority-queue sifts move 24 bytes instead of
  /// a type-erased callable. `seq` is the global scheduling sequence number
  /// providing FIFO order among equal timestamps.
  struct HeapEntry {
    TimePoint time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;  // FIFO among simultaneous events
    }
  };

  /// Callbacks live in fixed-size blocks so pool growth never moves a stored
  /// callable (a std::vector<Callback> would relocate every element through
  /// the ops table on reallocation).
  static constexpr std::uint32_t kSlotBlockShift = 10;
  static constexpr std::uint32_t kSlotBlockSize = 1u << kSlotBlockShift;

  bool popAndRun();
  void pushHeap(HeapEntry e);
  void popHeap() noexcept;
  [[nodiscard]] std::uint32_t acquireSlot();
  void releaseSlot(std::uint32_t slot) noexcept;
  [[nodiscard]] Callback& slotCb(std::uint32_t slot) noexcept {
    return cb_blocks_[slot >> kSlotBlockShift][slot & (kSlotBlockSize - 1)];
  }
  [[nodiscard]] bool stale(const HeapEntry& e) const noexcept {
    return slot_gen_[e.slot] != e.gen;
  }

  std::vector<HeapEntry> heap_;  ///< binary min-heap via std::push_heap/pop_heap
  std::vector<std::unique_ptr<Callback[]>> cb_blocks_;
  std::vector<std::uint32_t> slot_gen_;  ///< current generation of each slot
  std::vector<std::uint32_t> free_slots_;
  TimePoint now_ = 0;
  std::uint64_t scheduled_ = 0;  ///< total events ever scheduled (also the seq source)
  std::uint64_t processed_ = 0;
  std::uint64_t live_events_ = 0;
  std::uint64_t past_clamped_ = 0;
  bool stopped_ = false;
};

}  // namespace cux::sim
