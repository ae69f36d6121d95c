#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "hw/system.hpp"
#include "ucx/config.hpp"
#include "ucx/request.hpp"
#include "ucx/worker.hpp"

/// \file context.hpp
/// The mini-UCX application context (ucp_context): owns one Worker per PE
/// and implements the send-side protocol selection.
///
/// Protocol matrix (mirrors UCX on Summit as described in Sec. IV-B1):
///
/// | memory | size                     | protocol                            |
/// |--------|--------------------------|-------------------------------------|
/// | host   | <= host_eager_threshold  | eager (copy-out, header+payload)    |
/// | host   | larger                   | rendezvous zero-copy over host path |
/// | device | <= device_eager_threshold| eager via GDRCopy (or cudaMemcpy    |
/// |        |                          | staging when GDRCopy not detected)  |
/// | device | larger, intra-node       | rendezvous via CUDA-IPC direct path |
/// | device | larger, inter-node       | rendezvous, pipelined host staging  |

namespace cux::ucx {

class Context {
 public:
  Context(hw::System& sys, const UcxConfig& cfg);
  ~Context();
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  [[nodiscard]] hw::System& system() noexcept { return sys_; }
  [[nodiscard]] const UcxConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] int numWorkers() const noexcept { return static_cast<int>(workers_.size()); }

  /// Worker bound to PE `pe` (one per PE, created eagerly at construction).
  [[nodiscard]] Worker& worker(int pe) { return *workers_.at(static_cast<std::size_t>(pe)); }

  /// Non-blocking tagged send of `len` bytes at `buf` (host or device
  /// memory; classification decides the protocol) from `src_pe` to `dst_pe`.
  /// `buf` must remain valid until `cb` fires.
  RequestPtr tagSend(int src_pe, int dst_pe, const void* buf, std::uint64_t len, Tag tag,
                     CompletionFn cb);

  /// Active-message-style send whose payload is an owned byte vector
  /// (Converse host messages). Its logical length is payload.size() plus
  /// `unbacked`, bytes the message stands for but does not carry. Protocol
  /// choice, wire time, bytesSent() and the delivered `len` use the logical
  /// length, so timing matches tagSend on host memory of that size; the
  /// payload vector is handed to the receiving handler.
  RequestPtr amSend(int src_pe, int dst_pe, Tag tag, std::vector<std::byte> payload,
                    CompletionFn cb = {}, std::uint64_t unbacked = 0);

  /// Like tagSend, but a device-memory source is first staged to the host
  /// (cudaMemcpy D2H through the GPU egress link) and then sent as a host
  /// message under the same tag. This is the degraded route DeviceComm falls
  /// back to when the GPU-aware path exhausts its retries or the link is
  /// down; a pre-posted receive for the tag still matches.
  RequestPtr tagSendHostStaged(int src_pe, int dst_pe, const void* buf, std::uint64_t len,
                               Tag tag, CompletionFn cb);

  // --- statistics ---------------------------------------------------------
  [[nodiscard]] std::uint64_t sendsStarted() const noexcept { return sends_started_; }
  [[nodiscard]] std::uint64_t bytesSent() const noexcept { return bytes_sent_; }
  /// Retransmissions issued by the reliability layer (0 unless the fault
  /// injector is enabled).
  [[nodiscard]] std::uint64_t retransmits() const noexcept { return retransmits_; }
  /// Sends that exhausted max_retries and completed with ReqState::Error.
  [[nodiscard]] std::uint64_t sendErrors() const noexcept { return send_errors_; }
  /// Multi-path scheduler accounting (all zero unless multipath is enabled).
  [[nodiscard]] std::uint64_t multipathTransfers() const noexcept { return mp_transfers_; }
  [[nodiscard]] std::uint64_t multipathSplits() const noexcept { return mp_splits_; }
  [[nodiscard]] std::uint64_t multipathChunks() const noexcept { return mp_chunks_; }
  [[nodiscard]] std::uint64_t multipathReroutes() const noexcept { return mp_reroutes_; }
  /// Duplicate deliveries suppressed across all workers (retransmit raced a
  /// jitter-delayed original).
  [[nodiscard]] std::uint64_t duplicatesSuppressed() const noexcept {
    std::uint64_t n = 0;
    for (const auto& w : workers_) n += w->duplicatesSuppressed();
    return n;
  }

  // --- failure detector (active only with scheduled PE failures) -----------

  /// Subscribes to failure-detector announcements: `fn(pe, when)` runs once
  /// per scheduled sim::PeFailure, at failure time + failure_detect_us, from
  /// an engine event. Subscribe before engine.run(); announcements fired
  /// before subscription are not replayed. With no scheduled failures the
  /// detector schedules nothing, keeping trace hashes bit-identical.
  /// Returns a handle for removePeerFailureSub — subscribers that can die
  /// before the Context (sections, channel groups) MUST deregister in their
  /// destructor or a later announcement runs into freed memory.
  int onPeerFailure(std::function<void(int pe, sim::TimePoint when)> fn) {
    peer_failure_subs_.emplace_back(next_failure_sub_, std::move(fn));
    return next_failure_sub_++;
  }

  void removePeerFailureSub(int handle) {
    for (auto it = peer_failure_subs_.begin(); it != peer_failure_subs_.end(); ++it) {
      if (it->first == handle) {
        peer_failure_subs_.erase(it);
        return;
      }
    }
  }

  /// Detector's view: true once `pe`'s scheduled failure has passed the
  /// detection horizon at time `t` (i.e. t >= failure time +
  /// failure_detect_us). Between the failure and the horizon the PE is dead
  /// but not yet *known* dead — traffic blackholes, requests keep retrying.
  [[nodiscard]] bool peerKnownDead(sim::TimePoint t, int pe) const noexcept {
    if (!sys_.fault.enabled()) return false;
    const sim::Duration horizon = sim::usec(cfg_.failure_detect_us);
    for (const sim::PeFailure& f : sys_.fault.config().pe_failures) {
      if (f.pe == pe && t >= f.at + horizon) return true;
    }
    return false;
  }

  /// PE failures announced so far (one per scheduled failure once its
  /// detection horizon passes).
  [[nodiscard]] std::uint64_t peFailuresDetected() const noexcept {
    return pe_failures_detected_;
  }
  /// Requests completed with ReqState::PeerFailed.
  [[nodiscard]] std::uint64_t peerFailedRequests() const noexcept { return peer_failed_reqs_; }

  // --- allocation-light message path --------------------------------------

  /// Pooled Request allocation: every send/recv/AM request comes from the
  /// freelist-backed RequestPool (request.hpp), so the steady state performs
  /// no heap allocation per request. Pool lifetime is safe even when a
  /// RequestPtr outlives this Context (the arena is shared into the
  /// control blocks).
  [[nodiscard]] RequestPtr makeRequest() { return req_pool_.make(); }
  [[nodiscard]] std::uint64_t requestPoolHits() const noexcept { return req_pool_.hits(); }
  [[nodiscard]] std::uint64_t requestPoolMisses() const noexcept { return req_pool_.misses(); }

  /// Takes a recycled eager-payload buffer (resized to `len`) or allocates a
  /// fresh one on a pool miss. Buffers return through recycleBuffer() once
  /// the receive-side memcpy has consumed them.
  [[nodiscard]] std::vector<std::byte> takeBuffer(std::uint64_t len);
  /// Returns an eager-payload buffer to the bounded pool (dropped if the
  /// pool is full or the buffer grew past the retention cap).
  void recycleBuffer(std::vector<std::byte>&& buf);
  [[nodiscard]] std::uint64_t bufferPoolHits() const noexcept { return buf_hits_; }
  [[nodiscard]] std::uint64_t bufferPoolMisses() const noexcept { return buf_misses_; }

  /// Aggregated matching-engine statistics across all workers
  /// (`gpucomm_sweep --metric match`).
  [[nodiscard]] Worker::MatchStats matchStats() const {
    Worker::MatchStats total;
    for (const auto& w : workers_) {
      const Worker::MatchStats s = w->matchStats();
      total.posted += s.posted;
      total.unexpected += s.unexpected;
      total.posted_hwm = total.posted_hwm > s.posted_hwm ? total.posted_hwm : s.posted_hwm;
      total.unexpected_hwm =
          total.unexpected_hwm > s.unexpected_hwm ? total.unexpected_hwm : s.unexpected_hwm;
      total.posted_buckets += s.posted_buckets;
      total.unexpected_buckets += s.unexpected_buckets;
      total.posted_max_chain =
          total.posted_max_chain > s.posted_max_chain ? total.posted_max_chain : s.posted_max_chain;
      total.unexpected_max_chain = total.unexpected_max_chain > s.unexpected_max_chain
                                       ? total.unexpected_max_chain
                                       : s.unexpected_max_chain;
      total.scan_steps += s.scan_steps;
    }
    return total;
  }

 private:
  friend class Worker;

  /// Sender-side staging cost for a small device buffer (GDRCopy or
  /// cudaMemcpy fallback); also used on the receive side for un-staging.
  [[nodiscard]] sim::TimePoint stageDeviceEager(sim::TimePoint t, int pe, std::uint64_t len,
                                                bool egress);

  /// Protocol selection body shared by tagSend and the host-staged fallback
  /// (which re-enters it with src_device forced off after the D2H copy).
  /// `req` carries the completion callback (Request::on_complete).
  void startSend(int src_pe, int dst_pe, const void* buf, std::uint64_t len, Tag tag,
                 bool src_device, RequestPtr req);

  void sendEager(int src_pe, int dst_pe, const void* buf, std::uint64_t len, Tag tag,
                 bool src_device, RequestPtr req);
  void sendRndv(int src_pe, int dst_pe, const void* buf, std::uint64_t len, Tag tag,
                bool src_device, RequestPtr req);

  /// Result of the rendezvous data movement. `ok == false` means a leg
  /// (CTS or data) exhausted its retransmission budget: the sender has been
  /// scheduled to complete with ReqState::Error and the receiver must fail
  /// its request too instead of waiting forever.
  struct RndvResult {
    sim::TimePoint data_arrival = 0;
    bool ok = true;
  };

  /// Executes the rendezvous data movement once the receiver has matched.
  /// Called by Worker::startRndvTransfer; returns the data arrival time and
  /// schedules sender-side completion (Done via ATS, or Error).
  RndvResult rndvTransfer(const Worker::Incoming& msg, int dst_pe, void* dst_buf);

  /// Multi-path data leg of a device->device rendezvous (replaces the
  /// single-route leg when UcxConfig::multipath is enabled): enumerates the
  /// machine's candidate routes, splits the payload into chunks, and commits
  /// each chunk to the route with the least projected completion time. The
  /// aggregate arrival is the latest chunk arrival. Fault semantics are per
  /// chunk: a dropped chunk re-routes through a surviving path (the route
  /// the lost attempt used is excluded from the retry) before the caller's
  /// host-staged fallback engages via the normal Error completion.
  RndvResult multipathRndvData(const Worker::Incoming& msg, int dst_pe, sim::TimePoint t_match);

  // --- reliability (active only while the fault injector is enabled) -------

  /// True when transfers consult the fault injector and the retry state
  /// machine runs. When false every send takes the fault-free code path
  /// unchanged, keeping trace hashes bit-identical to pre-fault builds.
  [[nodiscard]] bool reliable() const noexcept { return sys_.fault.enabled(); }

  /// Attempt k is declared lost (and retransmitted) this long after it was
  /// sent: retry_base_us * 2^k, the classic exponential backoff.
  /// UcxConfig::validate() rejects configurations whose last deadline would
  /// wrap the 64-bit nanosecond clock, and the shift is saturated here as
  /// well so an overflow can never produce a bogus (tiny) deadline.
  [[nodiscard]] sim::Duration retryDelay(int attempt) const noexcept {
    const sim::Duration base = sim::usec(cfg_.retry_base_us);
    if (base == 0) return 0;
    if (attempt >= 63 || base > (~sim::Duration{0} >> attempt)) {
      return sim::Duration{1} << 62;  // saturated: ~146 years of virtual time
    }
    return base << attempt;
  }

  /// In-flight state of one reliable wire message: the Incoming template
  /// cloned for each (re)transmission attempt, plus delivery tracking.
  struct WireState;

  /// Transmits attempt `attempt` of `ws` at the current engine time: consults
  /// the injector, schedules the arrival (unless dropped) and the retry
  /// deadline. Exhausting max_retries surfaces ReqState::Error through the
  /// completion callback — an operation never hangs.
  void reliableTransmit(const std::shared_ptr<WireState>& ws, int attempt);

  /// Synchronous retry loop for receiver-driven control messages (CTS/ATS)
  /// whose delivery time is computed inline rather than via onArrival.
  /// Returns {arrival time, ok}; `ok == false` after max_retries losses.
  std::pair<sim::TimePoint, bool> faultedCtrl(int src_pe, int dst_pe, sim::TimePoint send_t,
                                              sim::Duration flight, Tag tag, const char* what);

  hw::System& sys_;
  UcxConfig cfg_;
  std::vector<std::unique_ptr<Worker>> workers_;
  int stats_provider_ = 0;  ///< obs registry handle (dtor deregisters)
  std::uint64_t sends_started_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t send_errors_ = 0;
  // Multi-path scheduler accounting (see multipathRndvData).
  std::uint64_t mp_transfers_ = 0;   ///< data legs routed through the scheduler
  std::uint64_t mp_splits_ = 0;      ///< legs whose bytes used more than one route
  std::uint64_t mp_chunks_ = 0;      ///< chunks committed across all legs
  std::uint64_t mp_reroutes_ = 0;    ///< chunk retries steered to a different route
  std::uint64_t mp_bytes_direct_ = 0;
  std::uint64_t mp_bytes_staged_ = 0;
  std::uint64_t mp_bytes_host_ = 0;
  std::uint64_t mp_bytes_rail_ = 0;
  std::uint64_t pe_failures_detected_ = 0;
  std::uint64_t peer_failed_reqs_ = 0;
  std::vector<std::pair<int, std::function<void(int, sim::TimePoint)>>> peer_failure_subs_;
  int next_failure_sub_ = 1;

  // --- pools (see docs/architecture.md, "tag-matching engine") -------------
  /// Retention caps bound idle memory by BYTES, not entry count: eager
  /// payloads are small (<= host_eager_threshold), so a fixed entry count
  /// would either waste memory on large buffers or thrash on bursts of
  /// thousands of small in-flight messages. A single buffer above
  /// kMaxPooledBufferBytes is never retained.
  static constexpr std::size_t kMaxPooledBytes = 8 * 1024 * 1024;
  static constexpr std::size_t kMaxPooledBufferBytes = 512 * 1024;
  RequestPool req_pool_;
  std::vector<std::vector<std::byte>> buf_pool_;
  std::size_t buf_pool_bytes_ = 0;  ///< sum of pooled capacities
  std::uint64_t buf_hits_ = 0;
  std::uint64_t buf_misses_ = 0;
};

}  // namespace cux::ucx
