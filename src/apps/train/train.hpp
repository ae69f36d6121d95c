#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "apps/osu/osu.hpp"
#include "coll/coll.hpp"
#include "model/model.hpp"

/// \file train.hpp
/// Synchronous data-parallel SGD in the ChainerMN style (the paper's Python
/// motivation: "GPU-aware communication is critical for distributed deep
/// learning frameworks such as ChainerMN"): every rank holds a model
/// replica, runs modelled forward/backward kernels per layer, and gradients
/// are summed across ranks with the pipelined GPU-aware allreduce from
/// src/coll.
///
/// Gradient bucketing: layers are grouped — in backward order — into
/// buckets of ~bucket_bytes; a bucket's allreduce launches as soon as its
/// last backward kernel completes, while backward for earlier layers keeps
/// running. Buckets use distinct collective tag slots (Charm4py: distinct
/// channel lanes), so their allreduces also overlap each other. The step
/// statistics expose exactly that overlap: `allreduce_wall_us` (union
/// interval from first bucket launch to last completion) is less than
/// `bucket_sum_us` (the serial sum) when pipelining works.
///
/// Bucket gradient buffers are pool allocations (hw::DevicePool) taken at
/// the start of every backward pass and returned after the optimizer step —
/// the CuPy/ChainerMN allocation pattern: step 0 faults the pool in, every
/// later step runs allocation-free.
///
/// Checkpoint/restart: every rank carries persistent model state (a sampled
/// slice of weights plus momentum, updated from the *reduced* gradients each
/// step) and PUPs it into a driver-held store every `checkpoint_every`
/// completed steps. When a scheduled fail-stop PE failure (TrainFault)
/// aborts a step mid-allreduce, every rank — survivors and the dead rank's
/// drained coroutine alike — abandons the step without touching model
/// state; the driver then rebuilds a fresh machine, restores all ranks from
/// the newest checkpoint present for every rank, and reruns the remaining
/// steps. Because the momentum-SGD update consumes bit-exact integer-valued
/// reduced gradients, the recovered run's final model digest is bit-identical
/// to an unfailed run's.
///
/// The same templated rank program runs on three stacks: AMPI
/// (ampi::Rank), Charm++ array sections (coll::SectionRank), and Charm4py
/// channel groups (coll::C4pRank). OpenMPI has no training driver.

namespace cux::hw {
struct System;
}

namespace cux::train {

using osu::Stack;

/// A scheduled fail-stop failure for the training job: PE `kill_pe` (== the
/// rank index; one worker per PE) halts at virtual time `kill_at_us` on the
/// first attempt. The restart attempts run failure-free — the job outlives
/// the machine that failed, not the other way round.
struct TrainFault {
  int kill_pe = -1;       ///< -1: no failure injected
  double kill_at_us = 0;  ///< virtual microseconds
};

struct TrainConfig {
  int nodes = 2;
  int ranks = 8;  ///< data-parallel workers, one per PE (a PE subset)
  int steps = 3;
  /// Parameters (doubles) per layer, forward order. Default: an 8-layer,
  /// ~3.7 M-parameter encoder/decoder shape.
  std::vector<std::uint64_t> layer_params = {64 * 1024,   256 * 1024, 512 * 1024,
                                             1024 * 1024, 1024 * 1024, 512 * 1024,
                                             256 * 1024,  64 * 1024};
  /// Gradient-bucket target size (ChainerMN/Horovod fusion buffer).
  std::uint64_t bucket_bytes = 4ull * 1024 * 1024;
  /// Algorithm and pipelining of the gradient allreduce.
  coll::CollConfig coll{};
  /// Stage gradients through host memory around the allreduce (the
  /// non-GPU-aware baseline).
  bool host_staged = false;
  /// Fill real gradient values in backward kernels and check the reduced
  /// sums bit-exactly after the last step (requires backed device memory).
  bool verify = true;
  // Modelled kernel costs, as memory traffic per parameter.
  double fwd_bytes_per_param = 16.0;
  double bwd_bytes_per_param = 32.0;
  double opt_bytes_per_param = 24.0;
  /// Fail-stop injection for the first attempt (off by default).
  TrainFault fault{};
  /// PUP model state into the driver-held store every N completed steps
  /// (0 disables checkpointing — a failure then restarts from step 0).
  int checkpoint_every = 1;
  /// Restart attempts allowed before the job is declared failed.
  int max_restarts = 3;
  /// Machine every attempt is built from, resized to `nodes`; the first
  /// attempt adds `fault`'s PE failure to its fault schedule.
  model::Model model = model::summit(2);
  /// Called with each freshly constructed simulated machine (one per
  /// attempt) before any traffic runs — the hook for span
  /// collection or utilization recording.
  std::function<void(hw::System&)> setup;

  [[nodiscard]] std::uint64_t totalParams() const {
    std::uint64_t t = 0;
    for (const std::uint64_t p : layer_params) t += p;
    return t;
  }
};

/// Rank-0 timing of one training step (virtual microseconds).
struct StepStat {
  double step_us = 0;           ///< full step wall
  double compute_us = 0;        ///< forward + backward kernel wall
  double allreduce_wall_us = 0; ///< first bucket launch -> last bucket done
  double bucket_sum_us = 0;     ///< sum of per-bucket allreduce durations
  double optimizer_us = 0;

  /// < 1 iff bucket allreduces overlapped each other (and backward).
  [[nodiscard]] double overlapRatio() const {
    return bucket_sum_us > 0 ? allreduce_wall_us / bucket_sum_us : 0;
  }
};

struct TrainResult {
  Stack stack{};
  int ranks = 0;
  int buckets = 0;
  std::vector<StepStat> steps;
  bool verified = false;  ///< gradient sums matched the analytic value
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  double total_us = 0;  ///< summed over all attempts (lost work included)

  // --- failure/recovery outcome -------------------------------------------
  bool failed = false;     ///< recovery gave up (max_restarts exhausted)
  bool recovered = false;  ///< a fail-stop hit and the job still finished
  int restarts = 0;        ///< checkpoint/restart cycles taken
  int completed_steps = 0; ///< rank-0 steps completed across attempts
  /// Ranks that neither finished nor took the abort exit, summed over
  /// attempts. Always 0 when the drain layers hold their no-hang guarantee;
  /// `gpucomm_sweep --metric failstop` turns nonzero into a failing exit.
  int hung_ranks = 0;
  /// FNV-1a over rank 0's final model state (weights, momentum, step). An
  /// injected failure + restart must reproduce the unfailed run's digest
  /// bit-for-bit — pinned by tests/test_failstop.cpp.
  std::uint64_t model_digest = 0;

  [[nodiscard]] double avgStepUs() const {
    if (steps.empty()) return 0;
    double s = 0;
    for (const StepStat& st : steps) s += st.step_us;
    return s / static_cast<double>(steps.size());
  }
  /// Mean overlap ratio over steady-state steps (skips step 0, which pays
  /// the pool fault-in).
  [[nodiscard]] double avgOverlap() const {
    if (steps.empty()) return 0;
    double s = 0;
    int n = 0;
    for (std::size_t i = steps.size() > 1 ? 1 : 0; i < steps.size(); ++i) {
      s += steps[i].overlapRatio();
      ++n;
    }
    return n > 0 ? s / n : 0;
  }
};

/// Builds a fresh simulated machine and runs the workload on `stack`.
/// Throws std::invalid_argument for Stack::Ompi.
[[nodiscard]] TrainResult runTrain(const TrainConfig& cfg, Stack stack);

}  // namespace cux::train
