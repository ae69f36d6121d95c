#pragma once

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/sink.hpp"
#include "sim/trace.hpp"

/// \file perfetto.hpp
/// Chrome trace_event JSON export of the spans a RetainSink kept (plus,
/// optionally, the flat Tracer timeline and counter tracks), loadable in
/// ui.perfetto.dev or chrome://tracing.
///
/// Layout: each PE is a process ("PE n"). A message span renders as an async
/// duration event on the sender PE (named "<kind> <bytes>B") with its phase
/// transitions nested as instants; the receiver-side intervals the paper's
/// totals hide — post-delay (metadata arrival -> receive posted), early-wait
/// (payload queued unexpected -> matched) and data (posted/matched ->
/// delivered) — render as their own async events on the receiver PE. An
/// "inflight-spans" counter track per PE shows concurrency, and Tracer
/// records (when a tracer is passed) appear as instant events.

namespace cux::obs {

/// One named counter series rendered as a Perfetto counter track (pid 0).
/// Used for the resource-utilization timelines: (ts_us, value) samples.
struct CounterTrack {
  std::string name;
  std::vector<std::pair<double, double>> points;
};

void writePerfetto(std::ostream& os, const RetainSink& spans,
                   const sim::Tracer* trace = nullptr,
                   const std::vector<CounterTrack>* counters = nullptr);

}  // namespace cux::obs
