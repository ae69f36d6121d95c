#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "model/model.hpp"

namespace cux::hw {
struct System;
}

/// \file osu.hpp
/// GPU-adapted OSU micro-benchmarks (paper Section IV-B), implemented for
/// every stack in the evaluation: Charm++, AMPI, OpenMPI and Charm4py, each
/// in a host-staging (-H) and a GPU-aware (-D) variant.
///
/// * latency: ping-pong; one-way latency in microseconds per message size.
/// * bandwidth: window of back-to-back non-blocking sends answered by a
///   reply; MB/s per message size (window = 64 as in the OSU suite).
///
/// Every data point runs on a freshly constructed simulated machine so link
/// occupancy does not leak between sizes.

namespace cux::osu {

enum class Stack { Charm, Ampi, Ompi, Charm4py };
enum class Mode { HostStaging, Device };       ///< -H vs -D series
enum class Placement { IntraNode, InterNode };

[[nodiscard]] const char* name(Stack s);
[[nodiscard]] const char* suffix(Mode m);  // "H" / "D"

struct Point {
  std::size_t bytes = 0;
  double value = 0;  ///< microseconds (latency) or MB/s (bandwidth)
};

struct BenchConfig {
  Stack stack = Stack::Charm;
  Mode mode = Mode::Device;
  Placement place = Placement::IntraNode;
  std::vector<std::size_t> sizes;  ///< empty = defaultSizes()
  int iters = 50;
  int warmup = 10;
  int window = 64;  ///< bandwidth only
  model::Model model = model::summit(2);
  /// Called with the freshly constructed simulated machine before any
  /// traffic runs — the hook for enabling span collection with its sinks,
  /// or utilization recording. Spans stay off without it.
  std::function<void(hw::System&)> setup;
  /// Called with the simulated machine after the benchmark's engine run
  /// finishes, before teardown — the hook for reading spans/metrics out of a
  /// data point (each point runs on a fresh machine).
  std::function<void(hw::System&)> inspect;
};

/// Message sizes of the paper's figures: 1 B to 4 MB, powers of two.
[[nodiscard]] std::vector<std::size_t> defaultSizes();

/// One-way latency series (paper Figs. 10 and 11).
[[nodiscard]] std::vector<Point> runLatency(const BenchConfig& cfg);

/// Bandwidth series (paper Figs. 12 and 13).
[[nodiscard]] std::vector<Point> runBandwidth(const BenchConfig& cfg);

/// Bidirectional bandwidth (osu_bibw): both endpoints stream a window at
/// each other simultaneously; reports combined MB/s. MPI stacks only.
[[nodiscard]] std::vector<Point> runBiBandwidth(const BenchConfig& cfg);

/// Multi-pair latency (osu_multi_lat): every PE of the first half ping-pongs
/// with its partner in the second half concurrently; reports the average
/// one-way latency under full-machine load. MPI stacks only.
[[nodiscard]] std::vector<Point> runMultiLatency(const BenchConfig& cfg);

// Per-stack entry points (used internally and by the ablation benches).
[[nodiscard]] double latencyPoint(const BenchConfig& cfg, std::size_t bytes);
[[nodiscard]] double bandwidthPoint(const BenchConfig& cfg, std::size_t bytes);

namespace detail {
double mpiBiBandwidth(const BenchConfig& cfg, std::size_t bytes);
double mpiMultiLatency(const BenchConfig& cfg, std::size_t bytes);
double charmLatency(const BenchConfig& cfg, std::size_t bytes);
double charmBandwidth(const BenchConfig& cfg, std::size_t bytes);
double mpiLatency(const BenchConfig& cfg, std::size_t bytes);     // AMPI + OpenMPI
double mpiBandwidth(const BenchConfig& cfg, std::size_t bytes);   // AMPI + OpenMPI
double c4pLatency(const BenchConfig& cfg, std::size_t bytes);
double c4pBandwidth(const BenchConfig& cfg, std::size_t bytes);
/// PEs used for the benchmark pair under a placement.
[[nodiscard]] std::pair<int, int> pickPes(const BenchConfig& cfg);
}  // namespace detail

}  // namespace cux::osu
