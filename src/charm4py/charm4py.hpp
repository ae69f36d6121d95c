#pragma once

#include <cstdint>
#include <memory>
#include <cstring>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "charm/charm.hpp"
#include "hw/cuda.hpp"
#include "obs/span.hpp"
#include "sim/fifo.hpp"
#include "sim/future.hpp"
#include "sim/task.hpp"

/// \file charm4py.hpp
/// Charm4py's Channel API over the Charm++ runtime (paper Sections II-E and
/// III-D), with the Python/Cython layer replaced by a calibrated overhead
/// model: every user-level call pays the interpreter + Cython crossing cost
/// (py_call_us); completions that wake a suspended coroutine pay the
/// future-fulfilment cost (py_wakeup_us); host payload copies run at Python
/// buffer-copy bandwidth (py_host_copy_gbps).
///
/// Channels provide explicit ordered send/receive semantics between two
/// chares; a receive suspends the calling coroutine on a future until the
/// message arrives (paper: "retains asynchrony by suspending the caller
/// object until the respective communication is complete"). The GPU-aware
/// path hands device pointers straight to the Charm++ runtime, which routes
/// them through LrtsSendDevice exactly as in Fig. 9.

namespace cux::c4p {

class Charm4py;

/// One endpoint of a channel, bound to a PE. All calls must run from that
/// PE's context (a coroutine started with Charm4py::startOn).
class ChannelEnd {
 public:
  /// Sends `bytes` at `buf` (host or device) to the peer end.
  /// The returned future completes when the buffer is reusable.
  [[nodiscard]] sim::Future<void> send(const void* buf, std::uint64_t bytes);

  /// Receives the next in-order message into `buf` (capacity `bytes`).
  [[nodiscard]] sim::Future<void> recv(void* buf, std::uint64_t bytes);

  [[nodiscard]] int pe() const noexcept { return pe_; }

  /// True once the failure detector declared either endpoint's PE dead: the
  /// channel is aborted, and send/recv complete immediately without wire
  /// traffic (drain semantics — the caller observes the failure here, never
  /// through a hang).
  [[nodiscard]] bool aborted() const;

 private:
  friend class Charm4py;
  Charm4py* owner_ = nullptr;
  std::uint64_t chan_ = 0;
  int side_ = 0;  ///< 0 or 1
  int pe_ = -1;
};

/// A bidirectional ordered connection between two chares (paper [14]).
struct Channel {
  ChannelEnd* a = nullptr;
  ChannelEnd* b = nullptr;
};

class Charm4py {
 public:
  explicit Charm4py(ck::Runtime& rt);
  Charm4py(const Charm4py&) = delete;
  Charm4py& operator=(const Charm4py&) = delete;
  ~Charm4py();

  [[nodiscard]] ck::Runtime& runtime() noexcept { return rt_; }
  [[nodiscard]] hw::System& system() noexcept { return rt_.system(); }

  /// Establishes a channel between chares on `pe_a` and `pe_b`.
  Channel makeChannel(int pe_a, int pe_b);

  // --- failure model --------------------------------------------------------

  /// True once the detector declared a PE of either end dead. A dead
  /// channel's send/recv complete immediately (no seq consumed, no wire
  /// traffic); its queued state was orphaned at announcement time.
  [[nodiscard]] bool channelDead(std::uint64_t chan) const {
    return dead_chans_.count(chan) != 0;
  }
  /// Detector's announcement already processed for `pe`.
  [[nodiscard]] bool peFailed(int pe) const {
    return pe >= 0 && static_cast<std::size_t>(pe) < pe_dead_.size() &&
           pe_dead_[static_cast<std::size_t>(pe)] != 0;
  }
  /// Receives failed (promise force-completed) by failure sweeps.
  [[nodiscard]] std::uint64_t failedRecvs() const noexcept { return failed_recvs_; }
  /// Queued envelopes discarded because their channel died.
  [[nodiscard]] std::uint64_t orphanedEnvelopes() const noexcept { return orphaned_envelopes_; }
  /// send/recv calls refused (completed immediately) on dead channels.
  [[nodiscard]] std::uint64_t abortedOps() const noexcept { return aborted_ops_; }

  /// Launches a Python coroutine on `pe` (entry method invocation).
  void startOn(int pe, cmi::PeFn fn);

  // --- charm.lib CUDA helpers (paper Fig. 8) -----------------------------
  /// The host-staging path calls these through Charm4py's Cython layer, so
  /// each pays the Python call overhead on top of the CUDA cost.
  void cudaDtoH(int pe, void* h_dst, const void* d_src, std::uint64_t n, cuda::Stream& s);
  void cudaHtoD(int pe, void* d_dst, const void* h_src, std::uint64_t n, cuda::Stream& s);
  [[nodiscard]] sim::Future<void> streamSynchronize(int pe, cuda::Stream& s);

  /// Charges one Python-call overhead on `pe` (exposed for workload code
  /// that models extra interpreter work).
  void chargePyCall(int pe);

  // --- remote invocation with futures (charm4py's `ret=True`) -------------
  /// Runs `fn` on `target_pe` as a remote entry-method invocation and
  /// returns a future, fulfilled on the calling PE with the result — the
  /// charm4py pattern `fut = proxy.method(args, ret=True); fut.get()`.
  /// R must be trivially copyable (it travels in the reply message).
  template <class R, class F>
  [[nodiscard]] sim::Future<R> invoke(int from_pe, int target_pe, F fn) {
    static_assert(std::is_trivially_copyable_v<R>, "results travel by bytes");
    chargePyCall(from_pe);
    sim::Promise<R> promise;
    const std::uint64_t id = next_call_++;
    PendingCall call;
    call.run = [fn = std::move(fn)]() {
      R r = fn();
      std::vector<std::byte> out(sizeof(R));
      std::memcpy(out.data(), &r, sizeof(R));
      return out;
    };
    call.deliver = [this, promise](std::vector<std::byte> bytes, int pe) {
      R r{};
      std::memcpy(&r, bytes.data(), sizeof(R));
      rt_.cmi().pe(pe).exec(sim::usec(rt_.costs().py_wakeup_us),
                            [promise, r] { promise.set(r); });
    };
    calls_.emplace(id, std::move(call));
    sendInvoke(from_pe, target_pe, id);
    return promise.future();
  }

 private:
  friend class ChannelEnd;
  struct PerPeChare;

  struct Envelope {
    std::uint64_t bytes = 0;
    std::uint64_t dtag = 0;
    /// Lifecycle span of an inlined message (0 when observability is off);
    /// device-path envelopes correlate through `dtag` instead. Carried
    /// unconditionally so message contents do not depend on observability.
    std::uint64_t span = 0;
    std::uint32_t seq = 0;
    bool inlined = false;
    /// Payload of an inlined envelope, from the UCX eager pool; empty when
    /// the source was unbacked (`bytes` still counts it).
    std::vector<std::byte> data;
    bool src_host = false;  ///< host payload: the receiver pays a Python copy
  };
  struct PendingRecv {
    void* buf = nullptr;
    std::uint64_t capacity = 0;
    sim::Promise<void> done;
  };
  /// Per-direction endpoint state, keyed by (channel, receiving side).
  struct EndpointState {
    sim::Fifo<Envelope> arrived;       // in-order, ready to match
    sim::Fifo<PendingRecv> waiting;    // recvs posted before arrival
    std::uint32_t seq_out = 0;         // next seq this side sends
    std::uint32_t seq_expected = 0;    // next in-order seq to accept
    std::vector<Envelope> out_of_order;
  };

  struct PendingCall {
    std::function<std::vector<std::byte>()> run;
    std::function<void(std::vector<std::byte>, int pe)> deliver;
  };

  sim::Future<void> sendImpl(ChannelEnd& end, const void* buf, std::uint64_t bytes);
  sim::Future<void> recvImpl(ChannelEnd& end, void* buf, std::uint64_t bytes);
  void onEnvelope(int pe, std::uint64_t chan, int side, Envelope env);
  /// `matched` is the span phase recorded for inlined envelopes consumed by
  /// this pass: MatchedPosted when called from onEnvelope (a receive was
  /// already waiting), MatchedUnexpected when called from recvImpl (the
  /// envelope arrived first).
  void matchOne(int pe, EndpointState& st, obs::Phase matched);
  EndpointState& endpoint(std::uint64_t chan, int side);
  void sendInvoke(int from_pe, int target_pe, std::uint64_t id);
  /// Detector announcement: marks channels with an end on `pe` dead, fails
  /// waiting receives on both sides (survivors observe the failure, the dead
  /// side's coroutines drain to their abort exit) and orphans queued
  /// envelopes.
  void onPeFailed(int pe);
  /// Discards a queued envelope of a dead channel: closes its span
  /// (Errored), counts it and recycles an inline payload. The payload
  /// (device path) never lands — its machine-layer receive was never posted.
  void orphanEnvelope(int pe, Envelope& env);

  ck::Runtime& rt_;
  std::vector<ck::Proxy<PerPeChare>> chares_;  // one per PE
  std::vector<std::unique_ptr<ChannelEnd>> ends_;
  std::unordered_map<std::uint64_t, EndpointState> endpoints_;  // key: chan*2+side
  std::unordered_map<std::uint64_t, PendingCall> calls_;
  std::uint64_t next_chan_ = 0;
  std::uint64_t next_call_ = 0;
  std::unordered_set<std::uint64_t> dead_chans_;
  std::vector<char> pe_dead_;
  std::uint64_t failed_recvs_ = 0;
  std::uint64_t orphaned_envelopes_ = 0;
  std::uint64_t aborted_ops_ = 0;
  int failure_sub_ = 0;    ///< detector subscription (dtor deregisters)
  int stats_provider_ = 0; ///< obs registry handle (dtor deregisters)
};

}  // namespace cux::c4p
