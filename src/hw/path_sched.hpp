#pragma once

#include <cstdint>
#include <vector>

#include "hw/machine.hpp"
#include "sim/time.hpp"

/// \file path_sched.hpp
/// Occupancy-aware chunk scheduler over a candidate multi-path route set.
///
/// A large device transfer is split into chunks and each chunk is assigned
/// to the route with the least projected completion time under the current
/// FIFO link occupancy (deterministic tie-break: lowest route index). The
/// projection is a dry run of the same store-and-forward math Link::reserve
/// uses, so the schedule the projection predicts is exactly the schedule a
/// subsequent commit produces. Routes come from Machine::deviceRoutes in a
/// deterministic order, which makes the whole schedule a pure function of
/// topology, occupancy, and chunk sizes — no randomness, so repeated runs
/// route every chunk identically.

namespace cux::hw {

class PathScheduler {
 public:
  /// Chunking policy. Transfers below `min_split_bytes` stay single-path:
  /// they are still pipelined in `chunk_bytes` chunks, but every chunk rides
  /// the one route that projected best at submission time.
  struct Params {
    std::uint64_t chunk_bytes = 512 * 1024;
    std::uint64_t min_split_bytes = 2 * 1024 * 1024;
  };

  static constexpr std::size_t npos = ~std::size_t{0};

  explicit PathScheduler(std::vector<Machine::Route> routes);

  [[nodiscard]] std::size_t numRoutes() const noexcept { return routes_.size(); }
  [[nodiscard]] const Machine::Route& route(std::size_t i) const { return routes_[i]; }

  /// Completion time of `bytes` submitted at `submit` on route `i` under the
  /// links' current occupancy: a store-and-forward chain of
  /// max(t, freeAt) + latency + bytes/bandwidth per link. Pure projection —
  /// reserves nothing.
  [[nodiscard]] sim::TimePoint project(std::size_t i, sim::TimePoint submit,
                                       std::uint64_t bytes) const;

  /// Route with the least projected completion for `bytes` at `submit`;
  /// ties break towards the lowest route index. `exclude` bars one route
  /// from selection (the re-route step of per-chunk fault recovery); it is
  /// ignored when it is the only route left.
  [[nodiscard]] std::size_t best(sim::TimePoint submit, std::uint64_t bytes,
                                 std::size_t exclude = npos) const;

  /// Reserves `bytes` on route `i` from `submit` (store-and-forward through
  /// the route's links) and returns the arrival time of the last byte.
  /// `chunk_overhead` extends the occupancy of the route's bottleneck link
  /// after its reservation, modelling per-chunk staging management — the
  /// same idiom the single-rail rendezvous pipeline applies to the NIC.
  sim::TimePoint commit(std::size_t i, sim::TimePoint submit, std::uint64_t bytes,
                        sim::Duration chunk_overhead = 0);

  /// Bytes committed so far, index-aligned with the route set.
  [[nodiscard]] const std::vector<std::uint64_t>& bytesPerRoute() const noexcept {
    return bytes_per_route_;
  }

  /// Number of chunks `bytes` splits into under `p` (at least 1).
  [[nodiscard]] static std::uint64_t numChunks(std::uint64_t bytes, const Params& p) {
    if (bytes <= p.chunk_bytes) return 1;
    return (bytes + p.chunk_bytes - 1) / p.chunk_bytes;
  }

 private:
  std::vector<Machine::Route> routes_;
  std::vector<std::size_t> bottleneck_;  ///< per route: index of the slowest link
  std::vector<std::uint64_t> bytes_per_route_;
};

}  // namespace cux::hw
