#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <vector>

#include "obs/phase.hpp"
#include "obs/sink.hpp"
#include "sim/time.hpp"

/// \file window.hpp
/// Windowed span aggregation, as an opt-in obs::Sink: attached to a
/// collector, it folds each retired span into a window keyed by (kind, log2
/// size-class, simulated-time window index). A window holds per-phase log2
/// latency histograms, terminal/retry/fallback counts, and a deterministic
/// exemplar sample of full spans. Memory is O(windows), independent of
/// message count; a collector without an aggregator builds no windows.

namespace cux::obs {

struct WindowConfig {
  /// Simulated-time width of one aggregation window. 100 us spans a few
  /// hundred messages at the latencies the Summit model produces.
  sim::Duration window_ns = 100'000;
  /// Full spans (info + events) kept per window as exemplars.
  std::size_t exemplars_per_window = 2;
};

/// log2(ns) latency histogram — same 65-bucket bit_width layout as
/// Registry::Hist so downstream tooling shares the decode.
struct LatHist {
  static constexpr std::size_t kBuckets = 65;
  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  void observe(std::uint64_t ns) noexcept {
    ++buckets[std::bit_width(ns)];
    ++count;
    sum += ns;
  }
};

struct WindowKey {
  const char* kind = "";     ///< static string from SpanInfo::kind
  std::uint32_t size_class = 0;  ///< bit_width(bytes): 0 = 0 B, 17 = 64 KiB..128 KiB-1
  std::uint64_t window = 0;      ///< span end-time / window_ns
};

/// Content comparison (strcmp, not pointer order) so iteration order — and
/// therefore every emitted stream — is deterministic across processes.
struct WindowKeyLess {
  bool operator()(const WindowKey& a, const WindowKey& b) const noexcept {
    const int c = std::strcmp(a.kind, b.kind);
    if (c != 0) return c < 0;
    if (a.size_class != b.size_class) return a.size_class < b.size_class;
    return a.window < b.window;
  }
};

struct WindowStats {
  std::uint64_t spans = 0;
  std::uint64_t completed = 0;
  std::uint64_t errored = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t retries = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t early_arrivals = 0;
  std::uint64_t multipath_events = 0;
  std::uint64_t bytes = 0;
  LatHist total;       ///< begin -> terminal (Completed spans only)
  LatHist meta;        ///< begin -> MetaArrived
  LatHist post_delay;  ///< MetaArrived -> RecvPosted (recv posted late)
  LatHist early_wait;  ///< EarlyArrival -> matched (paper's limitation)
  LatHist data;        ///< recv-ready -> Completed
  /// The N lexicographically-smallest spans by (begin, src_pe, dst_pe,
  /// bytes, tag), so the sample does not depend on the order spans retire in.
  std::vector<SpanExemplar> exemplars;
};

class WindowAggregator final : public Sink {
 public:
  using Map = std::map<WindowKey, WindowStats, WindowKeyLess>;

  /// `downstream` receives the windows at finish(); it may be null (the
  /// windows are then only read through windows()/size()). Borrowed, not
  /// owned.
  explicit WindowAggregator(const WindowConfig& cfg = {}, Sink* downstream = nullptr) noexcept
      : cfg_(cfg), downstream_(downstream) {
    if (cfg_.window_ns == 0) cfg_.window_ns = 1;
  }

  /// Folds one retired span (summary + its own event list) into the window
  /// it terminated in. Allocation happens only on a new window or a new
  /// exemplar, both bounded.
  void fold(const SpanInfo& info, const SpanEvent* events, std::size_t n_events);

  void onSpanRetired(std::uint64_t, const SpanInfo& info, const SpanEvent* events,
                     std::size_t n_events) override {
    fold(info, events, n_events);
  }

  /// Emits every window to the downstream sink in deterministic key order,
  /// finishes it, and forgets the windows, so the aggregator starts the next
  /// run empty (and a second finish() emits nothing).
  void finish() override;

  [[nodiscard]] const Map& windows() const noexcept { return map_; }
  [[nodiscard]] std::size_t size() const noexcept { return map_.size(); }

 private:
  void insertExemplar(WindowStats& w, const SpanInfo& info, const SpanEvent* events,
                      std::size_t n_events);

  WindowConfig cfg_;
  Sink* downstream_;
  Map map_;
};

}  // namespace cux::obs
