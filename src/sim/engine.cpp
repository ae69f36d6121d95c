#include "sim/engine.hpp"

#include <algorithm>
#include <utility>

namespace cux::sim {

std::uint32_t Engine::acquireSlot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(slot_gen_.size());
  if ((slot >> kSlotBlockShift) == cb_blocks_.size()) {
    cb_blocks_.push_back(std::make_unique<Callback[]>(kSlotBlockSize));
  }
  slot_gen_.push_back(0);
  return slot;
}

void Engine::releaseSlot(std::uint32_t slot) noexcept {
  // Bumping the generation invalidates both the outstanding EventId and any
  // tombstoned heap entry still referencing this slot; the slot itself can
  // be reused immediately.
  ++slot_gen_[slot];
  free_slots_.push_back(slot);
}

void Engine::pushHeap(HeapEntry e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Engine::popHeap() noexcept {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

EventId Engine::schedule(TimePoint t, Callback cb) {
  if (t < now_) {
    ++past_clamped_;
    t = now_;
  }
  const std::uint32_t slot = acquireSlot();
  slotCb(slot) = std::move(cb);
  const std::uint32_t gen = slot_gen_[slot];
  pushHeap(HeapEntry{t, scheduled_++, slot, gen});
  ++live_events_;
  return (static_cast<EventId>(gen) << 32) | slot;
}

bool Engine::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slot_gen_.size() || slot_gen_[slot] != gen) {
    return false;  // never scheduled, fired, or already cancelled
  }
  slotCb(slot).reset();
  releaseSlot(slot);  // heap entry becomes a tombstone, skipped on pop
  --live_events_;
  return true;
}

bool Engine::popAndRun() {
  while (!heap_.empty()) {
    const HeapEntry top = heap_.front();
    popHeap();
    if (stale(top)) continue;  // cancelled: tombstone, nothing to release
    // Move the callback out before running it: reentrant schedule() calls may
    // recycle the slot, and a block-stored callback must not be live while its
    // slot is on the free list.
    Callback cb = std::move(slotCb(top.slot));
    releaseSlot(top.slot);
    --live_events_;
    now_ = top.time;
    ++processed_;
    cb();
    return true;
  }
  return false;
}

void Engine::run() {
  while (!stopped_ && popAndRun()) {
  }
  // Consume the stop request (whether it interrupted this call or was
  // pending at entry): each stop() affects exactly one run call.
  stopped_ = false;
}

bool Engine::runUntil(TimePoint t) {
  while (!stopped_) {
    // Skip tombstoned heads without advancing time past t.
    while (!heap_.empty() && stale(heap_.front())) popHeap();
    if (heap_.empty()) {
      // Drained: the clock still advances to the window boundary so callers
      // read a consistent elapsed time whether or not events existed.
      if (t > now_) now_ = t;
      return true;
    }
    if (heap_.front().time > t) {
      if (t > now_) now_ = t;  // never rewind when t < now()
      return false;
    }
    popAndRun();
  }
  stopped_ = false;
  // A tombstone-only heap has no live work: agree with empty() instead of
  // reporting "not drained" off the raw heap size.
  return empty();
}

bool Engine::step() { return popAndRun(); }

}  // namespace cux::sim
