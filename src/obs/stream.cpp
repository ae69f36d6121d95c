#include "obs/sink.hpp"
#include "obs/span.hpp"

/// \file stream.cpp
/// The enabled side of obs::SpanCollector: open-span slot pool, retirement,
/// and the hand-off to the sink. Out of line so span.hpp only
/// forward-declares obs::Sink.

namespace cux::obs {

void SpanCollector::enableStreaming(const StreamConfig& cfg, Sink* sink) {
  enabled_ = true;
  cfg_ = cfg;
  sink_ = sink;
  slots_.reserve(cfg.reserve_open_spans);
  free_slots_.reserve(cfg.reserve_open_spans);
  open_index_.reserve(cfg.reserve_open_spans);
}

std::uint64_t SpanCollector::open(sim::TimePoint t, int src_pe, int dst_pe,
                                  std::uint64_t bytes, const char* kind) {
  const std::uint64_t id = ++begun_;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    slots_.back().events.reserve(cfg_.events_per_span);
  }
  OpenSpan& os = slots_[slot];
  os.info = SpanInfo{t, t, src_pe, dst_pe, bytes, 0, kind, Phase::ApiSend, true};
  os.events.push_back(SpanEvent{id, t, Phase::ApiSend, src_pe, bytes});
  open_index_.emplace(id, slot);
  ++open_;
  if (open_ > open_hwm_) open_hwm_ = open_;
  return id;
}

void SpanCollector::record(std::uint64_t span, sim::TimePoint t, Phase p, int pe,
                           std::uint64_t aux) {
  const auto it = open_index_.find(span);
  if (it == open_index_.end()) {
    // Span already retired: the record has nowhere to attach. Counted, not
    // stored — the one fidelity loss bounded memory accepts, surfaced in
    // dumpStats. An id that was never minted is ignored.
    if (span <= begun_) ++dropped_events_;
    return;
  }
  OpenSpan& os = slots_[it->second];
  os.events.push_back(SpanEvent{span, t, p, pe, aux});
  if (t > os.info.end) os.info.end = t;
}

void SpanCollector::retire(std::uint64_t span, sim::TimePoint t, Phase p, int pe) {
  const auto it = open_index_.find(span);
  if (it == open_index_.end()) {
    if (span <= begun_) ++double_closes_;
    return;
  }
  const std::uint32_t slot = it->second;
  OpenSpan& os = slots_[slot];
  os.info.open = false;
  os.info.terminal = p;
  if (t > os.info.end) os.info.end = t;
  os.events.push_back(SpanEvent{span, t, p, pe, 0});
  --open_;
  ++closed_;
  ++terminal_counts_[static_cast<std::size_t>(p)];
  if (os.info.tag != 0) unbindTag(os.info.tag, span);

  if (sink_ != nullptr) sink_->onSpanRetired(span, os.info, os.events.data(), os.events.size());

  os.events.clear();  // keeps capacity — the slot pool is allocation-free at steady state
  open_index_.erase(it);
  free_slots_.push_back(slot);
}

void SpanCollector::bind(std::uint64_t span, std::uint64_t tag) {
  const auto it = open_index_.find(span);
  if (it == open_index_.end()) return;
  slots_[it->second].info.tag = tag;
  tag_to_span_[tag] = span;
}

const SpanInfo* SpanCollector::span(std::uint64_t id) const noexcept {
  const auto it = open_index_.find(id);
  return it == open_index_.end() ? nullptr : &slots_[it->second].info;
}

}  // namespace cux::obs
