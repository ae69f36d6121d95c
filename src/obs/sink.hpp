#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <vector>

#include "obs/phase.hpp"

/// \file sink.hpp
/// Pluggable consumers of the span collector. The collector pushes each
/// retired span (with its full event list, which is recycled immediately
/// after the call). Windowed aggregates are opt-in: an
/// obs::WindowAggregator (window.hpp) is itself a sink, and at finish() it
/// emits its windows to the sink downstream of it. Sinks allocate only for
/// their own output or retained storage and never touch the simulation —
/// the stream is one-directional by construction, which is what keeps
/// observability trace-invisible.

namespace cux::obs {

struct WindowConfig;
struct WindowKey;
struct WindowStats;

class Sink {
 public:
  virtual ~Sink() = default;

  /// One span reached a terminal phase. `events` is only valid for the
  /// duration of the call.
  virtual void onSpanRetired(std::uint64_t id, const SpanInfo& info,
                             const SpanEvent* events, std::size_t n_events) = 0;

  /// One windowed aggregate, emitted in deterministic key order by
  /// WindowAggregator::finish. Ignored unless overridden.
  virtual void onWindow(const WindowKey& /*key*/, const WindowStats& /*stats*/,
                        const WindowConfig& /*cfg*/) {}

  /// End of stream: flush buffers, close framing. Idempotent.
  virtual void finish() {}
};

/// Counts retirements and windows, emits nothing. The zero-cost default and
/// the sink the trace-invariance tests run with.
class NullSink final : public Sink {
 public:
  void onSpanRetired(std::uint64_t, const SpanInfo&, const SpanEvent*,
                     std::size_t) override {
    ++spans_;
  }
  void onWindow(const WindowKey&, const WindowStats&, const WindowConfig&) override {
    ++windows_;
  }
  [[nodiscard]] std::uint64_t spans() const noexcept { return spans_; }
  [[nodiscard]] std::uint64_t windows() const noexcept { return windows_; }

 private:
  std::uint64_t spans_ = 0;
  std::uint64_t windows_ = 0;
};

/// Streaming JSONL writer: one self-describing JSON object per line, typed
/// "span" / "window" / "util". MultiPath/RailChunk event aux words are
/// decoded to route/bytes fields (never emitted as raw packed integers).
/// Schema is validated in CI by tools/check_obs_stream.py.
class JsonlSink final : public Sink {
 public:
  explicit JsonlSink(std::ostream& os) : os_(&os) {}

  void onSpanRetired(std::uint64_t id, const SpanInfo& info, const SpanEvent* events,
                     std::size_t n_events) override;
  void onWindow(const WindowKey& key, const WindowStats& stats,
                const WindowConfig& cfg) override;
  void finish() override;

  /// Extra line type for the utilization timelines (driven by the sweep
  /// tool, not the collector — hw may not link against obs the other way).
  void utilLine(const char* res_class, std::uint64_t window, std::uint64_t window_ns,
                std::uint64_t busy_ns, std::uint64_t capacity_ns);

  [[nodiscard]] std::uint64_t lines() const noexcept { return lines_; }

 private:
  std::ostream* os_;
  std::uint64_t lines_ = 0;
};

/// Keeps every retired span with its events, indexed by span id: the
/// whole-run view that obs::writePerfetto and the tests read. Memory is
/// O(spans), so attach it only to runs whose every span is wanted.
class RetainSink final : public Sink {
 public:
  void onSpanRetired(std::uint64_t id, const SpanInfo& info, const SpanEvent* events,
                     std::size_t n_events) override {
    retained_[id] = SpanExemplar{info, {events, events + n_events}};
  }

  /// Retired spans in id order.
  [[nodiscard]] const std::map<std::uint64_t, SpanExemplar>& retained() const noexcept {
    return retained_;
  }
  /// Retired span `id`, or null.
  [[nodiscard]] const SpanExemplar* find(std::uint64_t id) const {
    const auto it = retained_.find(id);
    return it == retained_.end() ? nullptr : &it->second;
  }

 private:
  std::map<std::uint64_t, SpanExemplar> retained_;
};

/// Forwards every call to each attached sink, in attach order, so one
/// collector can feed several consumers.
class FanoutSink final : public Sink {
 public:
  /// Attaches `sink`; null is ignored, so optional consumers attach
  /// unconditionally.
  void add(Sink* sink) {
    if (sink != nullptr) sinks_.push_back(sink);
  }

  void onSpanRetired(std::uint64_t id, const SpanInfo& info, const SpanEvent* events,
                     std::size_t n_events) override {
    for (Sink* s : sinks_) s->onSpanRetired(id, info, events, n_events);
  }
  void onWindow(const WindowKey& key, const WindowStats& stats,
                const WindowConfig& cfg) override {
    for (Sink* s : sinks_) s->onWindow(key, stats, cfg);
  }
  void finish() override {
    for (Sink* s : sinks_) s->finish();
  }

 private:
  std::vector<Sink*> sinks_;
};

}  // namespace cux::obs
