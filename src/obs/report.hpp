#pragma once

#include <cstdint>
#include <vector>

#include "obs/phase.hpp"

/// \file report.hpp
/// Per-phase latency breakdown derived from retired spans: the quantities
/// the paper's end-to-end figures cannot show. Intervals (all in
/// microseconds of virtual time):
///
///   total      ApiSend -> terminal           full message lifecycle
///   meta       ApiSend -> MetaArrived        host metadata leg (converse)
///   post_delay MetaArrived -> RecvPosted     the paper's posting limitation
///   early_wait EarlyArrival -> matched       payload parked unexpected
///   data       post/match -> Completed       payload movement + delivery
///
/// An interval is only sampled for spans that recorded both endpoints, so
/// e.g. early_wait has samples only for transfers that really did arrive
/// before the receive was posted.

namespace cux::obs {

struct Breakdown {
  std::vector<double> total, meta, post_delay, early_wait, data;
  std::uint64_t spans = 0;
  std::uint64_t completed = 0;
  std::uint64_t errored = 0;
  std::uint64_t matched_posted = 0;
  std::uint64_t matched_unexpected = 0;
  std::uint64_t retries = 0;
  std::uint64_t fallbacks = 0;
  /// Multi-path accounting from MultiPath/RailChunk events (aux packs
  /// route index << 48 | bytes): events seen, and bytes per route index.
  std::uint64_t multipath_events = 0;
  std::vector<std::uint64_t> path_bytes;

  /// Folds one span from its summary + own event list into the sample
  /// vectors. A Sink calls it at retirement time, so a Breakdown never
  /// needs the run retained.
  void accumulateSpan(const SpanInfo& info, const SpanEvent* events,
                      std::size_t n_events);
};

/// p in [0, 100]; sorts `v` in place. Returns 0 for an empty vector.
[[nodiscard]] double percentile(std::vector<double>& v, double p);

}  // namespace cux::obs
