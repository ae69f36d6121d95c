#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

/// \file phase.hpp
/// The span vocabulary shared by the collector, the windowed aggregator and
/// the sinks: the phase taxonomy, the per-event and per-span records, and the
/// aux-word encoding helpers. Split out of span.hpp so sink.hpp / window.hpp
/// can consume the record types without pulling in the collector.

namespace cux::obs {

/// Phase taxonomy of one message lifecycle. Order is not semantically
/// meaningful; each phase is recorded with its own timestamp.
enum class Phase : std::uint8_t {
  ApiSend,            ///< span begin: top-level send entered (model layer / lrts)
  MetaSent,           ///< host-side metadata handed to converse
  MetaArrived,        ///< metadata envelope reached the receiving model layer
  RecvPosted,         ///< lrtsRecvDevice posted the machine-layer receive
  PayloadSent,        ///< UCX tagged send issued (eager payload or rendezvous RTS)
  EarlyArrival,       ///< payload arrived before the receive was posted (paper's limitation)
  MatchedPosted,      ///< arrival matched an already-posted receive
  MatchedUnexpected,  ///< posted receive matched a queued early arrival
  RndvData,           ///< rendezvous data landed at the receiver
  RndvAts,            ///< rendezvous ATS completed the sender
  Retry,              ///< reliability-layer retransmission of a leg
  Fallback,           ///< device send degraded to the host-staged route
  RecvRepost,         ///< receive re-posted after a terminal rendezvous failure
  CollChunk,          ///< pipelined collective segment handed to the p2p layer
  CollReduce,         ///< modelled reduction kernel launched on a collective segment
  PeFailed,           ///< peer PE declared dead by the failure detector
  MultiPath,          ///< multi-path split: per-route bytes of one transfer
                      ///< (aux = packRouteBytes(route, bytes))
  RailChunk,          ///< multi-rail striping: per-rail bytes of an
                      ///< inter-node transfer (aux encoded as MultiPath)
  Completed,          ///< terminal: data delivered to the receiver
  Errored,            ///< terminal: transfer failed permanently
  Cancelled,          ///< terminal: receive cancelled
};
inline constexpr std::size_t kPhaseCount = static_cast<std::size_t>(Phase::Cancelled) + 1;

[[nodiscard]] const char* name(Phase p);

[[nodiscard]] constexpr bool terminal(Phase p) noexcept {
  return p == Phase::Completed || p == Phase::Errored || p == Phase::Cancelled;
}

// --- MultiPath/RailChunk aux-word encoding ----------------------------------
// One 64-bit aux packs the route (or rail) index in the top 16 bits and the
// bytes moved on that route in the low 48 (enough for 256 TB per event).
// Every encoder and decoder in the tree goes through these helpers so the
// layout is defined exactly once.

inline constexpr std::uint64_t kAuxBytesMask = (std::uint64_t{1} << 48) - 1;

[[nodiscard]] constexpr std::uint64_t packRouteBytes(unsigned route,
                                                     std::uint64_t bytes) noexcept {
  return (static_cast<std::uint64_t>(route) << 48) | (bytes & kAuxBytesMask);
}
[[nodiscard]] constexpr unsigned unpackRoute(std::uint64_t aux) noexcept {
  return static_cast<unsigned>(aux >> 48);
}
[[nodiscard]] constexpr std::uint64_t unpackRouteBytes(std::uint64_t aux) noexcept {
  return aux & kAuxBytesMask;
}
/// True for the phases whose aux carries the packed route/bytes word.
[[nodiscard]] constexpr bool routedPhase(Phase p) noexcept {
  return p == Phase::MultiPath || p == Phase::RailChunk;
}

/// One recorded phase transition.
struct SpanEvent {
  std::uint64_t span = 0;
  sim::TimePoint time = 0;
  Phase phase = Phase::ApiSend;
  std::int32_t pe = -1;
  std::uint64_t aux = 0;  ///< phase-specific (bytes, attempt number, ...)
};

/// Per-span summary maintained incrementally, carried alongside the span's
/// own event list while it is open.
struct SpanInfo {
  sim::TimePoint begin = 0;
  sim::TimePoint end = 0;  ///< max event time seen so far
  std::int32_t src_pe = -1;
  std::int32_t dst_pe = -1;
  std::uint64_t bytes = 0;
  std::uint64_t tag = 0;         ///< bound wire tag (0 = none bound)
  const char* kind = "";         ///< static string: "charm", "ampi", ...
  Phase terminal = Phase::ApiSend;  ///< valid only when !open
  bool open = false;
};

/// One full span: its summary and its own event list (a window exemplar,
/// or a RetainSink entry).
struct SpanExemplar {
  SpanInfo info;
  std::vector<SpanEvent> events;
};

/// First-occurrence timestamp of each phase for one span; kNone = unseen.
/// Shared by the breakdown report, the window aggregator and the
/// critical-path attribution, which all derive intervals the same way.
struct PhaseTimes {
  static constexpr sim::TimePoint kNone = ~sim::TimePoint{0};
  sim::TimePoint at[kPhaseCount];
  PhaseTimes() {
    for (auto& t : at) t = kNone;
  }
  void see(Phase p, sim::TimePoint t) noexcept {
    auto& slot = at[static_cast<std::size_t>(p)];
    if (t < slot) slot = t;
  }
  [[nodiscard]] bool has(Phase p) const noexcept {
    return at[static_cast<std::size_t>(p)] != kNone;
  }
  [[nodiscard]] sim::TimePoint get(Phase p) const noexcept {
    return at[static_cast<std::size_t>(p)];
  }
};

}  // namespace cux::obs
