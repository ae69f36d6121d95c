#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "obs/phase.hpp"
#include "sim/time.hpp"

/// \file critpath.hpp
/// Critical-path attribution: decomposes each iteration's wall time into
/// where the time actually went — compute, link wait per link class,
/// recv-post delay, early-arrival wait, and retry/fallback overhead.
///
/// Method: every span contributes labelled time segments derived from its
/// phase timestamps (the same interval derivations as obs::Breakdown and the
/// window aggregator). For one iteration window [mark[i], mark[i+1]) the
/// segments are clipped and the window is partitioned by a boundary sweep:
/// each elementary sub-interval is charged to the highest-priority category
/// among the segments covering it (overhead > waits > wire classes), and
/// whatever no segment covers is compute/idle residual. Because the sweep
/// partitions the window exactly, the per-category components sum to the
/// iteration wall time *by construction* — the sweep tool still cross-checks
/// the 1% acceptance bound and fails loudly if the invariant ever breaks.

namespace cux::obs {

/// Attribution categories, in charge priority order (lower enum value wins
/// an overlap). Compute is never assigned from a segment — it is the
/// uncovered residual.
enum class CritCat : std::uint8_t {
  Retry,      ///< retransmission + fallback overhead
  PostDelay,  ///< metadata arrived, receive not yet posted (paper limitation)
  EarlyWait,  ///< payload queued unexpected, waiting for the post
  LinkNic,    ///< inter-node wire time (NIC rails)
  LinkNvLink, ///< intra-node device wire time (NVLink bricks / X-Bus)
  LinkShm,    ///< host-staged / shared-memory wire time
  HostMeta,   ///< converse metadata leg (host path)
  Compute,    ///< residual: no communication segment covers it
};
inline constexpr std::size_t kCritCatCount = static_cast<std::size_t>(CritCat::Compute) + 1;

[[nodiscard]] const char* name(CritCat c);

struct CritPathConfig {
  /// PEs per node (PE/gpus_per_node = node id) for same- vs cross-node
  /// classification of the data leg; 0 = unknown, classify as NVLink.
  int gpus_per_node = 0;
  /// Host-staged placement: the data leg rides shm, not NVLink.
  bool host_staged = false;
};

class CritPath {
 public:
  CritPath() = default;
  explicit CritPath(const CritPathConfig& cfg) : cfg_(cfg) {}

  /// Derives and stores the labelled segments of one span. Works
  /// incrementally, so it can run from a Sink at retirement time.
  void addSpan(const SpanInfo& info, const SpanEvent* events, std::size_t n_events);

  struct Iteration {
    sim::TimePoint begin = 0;
    sim::TimePoint end = 0;
    double wall_us = 0;
    /// Per-category microseconds, indexed by CritCat; sums to wall_us.
    std::array<double, kCritCatCount> us{};
  };

  /// Partitions each [marks[i], marks[i+1]) window. Needs >= 2 marks.
  [[nodiscard]] std::vector<Iteration> attribute(
      const std::vector<sim::TimePoint>& marks) const;

  [[nodiscard]] std::size_t segments() const noexcept { return segs_.size(); }

 private:
  struct Seg {
    sim::TimePoint a = 0;
    sim::TimePoint b = 0;
    CritCat cat = CritCat::Compute;
  };

  void emitSeg(sim::TimePoint a, sim::TimePoint b, CritCat cat) {
    if (b > a) segs_.push_back(Seg{a, b, cat});
  }

  CritPathConfig cfg_;
  std::vector<Seg> segs_;
};

}  // namespace cux::obs
