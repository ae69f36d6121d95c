#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>

/// \file config.hpp
/// Tunables of the mini-UCX layer: protocol thresholds and per-operation
/// software costs. Calibration values and their provenance live in
/// src/model/summit_model.cpp.

namespace cux::ucx {

/// Tag-matching engine selection. `Bucketed` is the production matcher
/// (hash-bucketed exact tags + ordered wildcard list, O(1)-amortized);
/// `Linear` retains the original deque scans as a reference implementation
/// for semantic cross-checks — the randomized property test and the
/// trace-hash equality test replay identical traffic through both and
/// assert bit-identical behaviour.
enum class MatcherImpl : std::uint8_t { Bucketed, Linear };

struct UcxConfig {
  /// Which tag-matching engine the workers run (see MatcherImpl).
  MatcherImpl matcher = MatcherImpl::Bucketed;

  /// Host-memory messages at or below this size use the eager protocol
  /// (payload copied and shipped with the header); larger ones rendezvous.
  std::size_t host_eager_threshold = 8192;

  /// Device-memory messages at or below this size use the eager protocol via
  /// the GDRCopy-style low-latency transport; larger ones rendezvous.
  std::size_t device_eager_threshold = 4096;

  /// Chunk size of the pipelined host-staging rendezvous used for inter-node
  /// device transfers (UCX's cuda_copy pipeline).
  std::size_t rndv_pipeline_chunk = 256 * 1024;

  /// Sender-side software cost of ucp_tag_send_nb.
  double send_overhead_us = 0.3;
  /// Receiver-side matching/completion cost.
  double recv_overhead_us = 0.3;
  /// Processing cost of each rendezvous control message (RTS/CTS/ATS).
  double rndv_handshake_us = 0.5;
  /// Per-chunk staging-buffer management cost of the pipelined protocol;
  /// occupies the NIC stage, capping effective device bandwidth below wire
  /// speed (paper: ~10 of 12.5 GB/s).
  double rndv_pipeline_overhead_us = 4.0;

  /// Per-chunk cost of inter-node host rendezvous from unregistered
  /// (pageable) memory: UCX stages through pre-registered bounce buffers,
  /// and the copy into them shares the CPU with the NIC posting. This is why
  /// the -H variants cannot reach wire speed even though EDR is the
  /// bottleneck for both paths.
  double host_rndv_chunk_overhead_us = 12.0;

  /// Whether the GDRCopy library was detected. The paper notes (Sec. IV-B1)
  /// that detection is essential for low small-message latency; when false,
  /// small device messages are staged with cudaMemcpy instead (ablation).
  bool gdrcopy_enabled = true;
  /// GDRCopy BAR-mapped copy: very low latency, modest bandwidth.
  double gdr_latency_us = 0.6;
  double gdr_bandwidth_gbps = 6.0;

  /// cudaMemcpy-based staging cost for small device messages when GDRCopy is
  /// absent (call + copy-engine latency dominate).
  double cuda_stage_latency_us = 6.0;

  /// Size of the control/header portion accompanying every message.
  std::size_t header_bytes = 64;

  // --- multi-path / multi-rail transfers -----------------------------------
  /// Occupancy-aware multi-path engine for device rendezvous data legs:
  /// intra-node transfers split across the direct NVLink route, neighbor-
  /// GPU-staged routes, and optionally the host shm bounce; inter-node
  /// transfers stripe across the machine's NIC rails. Requires
  /// MachineConfig::nvlink_bricks >= 2 (intra) or nic_rails >= 2 (inter) to
  /// add bandwidth; with the default single-brick/single-rail machine it
  /// degenerates to the single route. Disabled (default) is bit-identical
  /// to the single-route protocol.
  struct MultipathConfig {
    bool enabled = false;
    /// Chunk granularity of a split transfer (also its pipeline depth).
    std::size_t chunk_bytes = 512 * 1024;
    /// Transfers below this stay single-path: still chunk-pipelined, but
    /// every chunk rides the route that projects best at start.
    std::size_t min_split_bytes = 2 * 1024 * 1024;
    /// Neighbor-GPU staged routes enumerated per intra-node transfer.
    int max_staged_routes = 1;
    /// Whether the device->shm->device bounce joins the candidate set.
    bool host_bounce = false;
    /// Submit all chunks as one CUDA-graph launch (one cuda_call_us +
    /// cuda_graph_launch_us for the batch); off = one cuda_call_us per
    /// chunk, serialised on the submitting CPU.
    bool cuda_graphs = true;
    /// Per-chunk forwarding-management cost of a staged or host-bounce
    /// route, charged to the route's bottleneck link (the NIC-rail analogue
    /// is rndv_pipeline_overhead_us).
    double stage_chunk_overhead_us = 2.0;
  };
  MultipathConfig multipath;

  // --- reliability (active only while the fault injector is enabled) -------
  /// Maximum number of retransmissions per wire message after the original
  /// attempt; exhausting them surfaces ReqState::Error through the
  /// completion callback instead of hanging.
  int max_retries = 5;
  /// Retry backoff base: attempt k is declared lost (and retransmitted)
  /// retry_base_us * 2^k after it was sent.
  double retry_base_us = 50.0;

  /// Heartbeat failure-detector timeout: a scheduled fail-stop PE death at
  /// time T is announced to every subscriber (and starts failing requests
  /// with ReqState::PeerFailed) at T + failure_detect_us. Models the
  /// heartbeat round-trip + suspicion threshold of a real detector without
  /// per-heartbeat events — the simulation knows the schedule, so detection
  /// is one event per failure. Must be shorter than the full retry budget
  /// (retry_base_us * 2^max_retries) or requests exhaust into plain Error
  /// before the detector fires.
  double failure_detect_us = 500.0;

  /// Rejects configurations that would hang or misbehave silently (a zero
  /// pipeline chunk spins the chunked rendezvous forever; negative overheads
  /// schedule events into the past; a non-positive backoff base retries in a
  /// zero-length loop). Called from the Context constructor.
  void validate() const {
    auto fail = [](const std::string& what) { throw std::invalid_argument("UcxConfig: " + what); };
    if (rndv_pipeline_chunk == 0) fail("rndv_pipeline_chunk must be nonzero");
    if (send_overhead_us < 0) fail("send_overhead_us must be non-negative");
    if (recv_overhead_us < 0) fail("recv_overhead_us must be non-negative");
    if (rndv_handshake_us < 0) fail("rndv_handshake_us must be non-negative");
    if (rndv_pipeline_overhead_us < 0) fail("rndv_pipeline_overhead_us must be non-negative");
    if (host_rndv_chunk_overhead_us < 0) fail("host_rndv_chunk_overhead_us must be non-negative");
    if (gdr_latency_us < 0) fail("gdr_latency_us must be non-negative");
    if (gdr_bandwidth_gbps <= 0) fail("gdr_bandwidth_gbps must be positive");
    if (cuda_stage_latency_us < 0) fail("cuda_stage_latency_us must be non-negative");
    if (failure_detect_us <= 0) fail("failure_detect_us must be positive");
    if (max_retries < 0) fail("max_retries must be non-negative");
    if (max_retries > 62) fail("max_retries overflows the exponential backoff");
    if (retry_base_us <= 0) fail("retry_base_us must be positive");
    if (multipath.chunk_bytes == 0) fail("multipath.chunk_bytes must be nonzero");
    if (multipath.min_split_bytes == 0) fail("multipath.min_split_bytes must be nonzero");
    if (multipath.max_staged_routes < 0) fail("multipath.max_staged_routes must be non-negative");
    if (multipath.stage_chunk_overhead_us < 0) {
      fail("multipath.stage_chunk_overhead_us must be non-negative");
    }
    // The last retry deadline is retry_base_us * 2^max_retries; bounding the
    // shift alone is not enough — the multiplication by the (nanosecond)
    // base wraps uint64 first, which would yield a bogus tiny deadline.
    if (std::ldexp(retry_base_us * 1e3, max_retries) >= 9.2e18) {
      fail("retry_base_us * 2^max_retries overflows the 64-bit ns clock");
    }
  }
};

}  // namespace cux::ucx
