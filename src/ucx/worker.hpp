#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <memory>
#include <optional>
#include <vector>

#include "sim/bucket_fifo.hpp"
#include "ucx/request.hpp"

/// \file worker.hpp
/// Per-PE communication endpoint, the moral equivalent of a ucp_worker.
///
/// A Worker owns the tag-matching engine: the posted-receive store, the
/// unexpected-message store, and persistent "handler" receives used by the
/// Converse machine layer to accept arbitrary-size host messages (standing in
/// for the wildcard pre-posted receives of the real UCX machine layer).
///
/// Matching semantics mirror UCX/MPI:
///  * arriving messages scan posted receives in post order;
///  * newly posted receives scan the unexpected queue in arrival order;
///  * persistent handlers are consulted after posted receives, so explicit
///    receives and machine-layer traffic can share the worker (in practice
///    the MSG_BITS of the tag keep their tag spaces disjoint).
///
/// Two implementations provide those semantics (UcxConfig::matcher):
///
///  * `Bucketed` (default): posted full-mask receives and unexpected messages
///    live in sim::BucketFifo stores hashed by full tag, wildcard-mask
///    receives in a separate insertion-ordered store. Exact lookups are O(1)
///    expected; a shared monotonic sequence number arbitrates exact-vs-
///    wildcard candidates so post order is preserved bit-for-bit across the
///    split. Cancellation is O(1) through the request's slot back-pointer.
///  * `Linear`: the original deque scans, retained as the reference matcher
///    for the randomized cross-check and trace-hash equality tests.
///
/// See the "tag-matching engine" section of docs/architecture.md.

namespace cux::ucx {

class Context;

/// Persistent receive handler: owns the payload.
/// Unbacked payloads (simulated-only transfers) arrive as empty vectors with
/// `payload_valid == false`. `len` is the logical length: an amSend payload
/// holds `len` minus its unbacked bytes.
struct Delivery {
  std::vector<std::byte> payload;
  bool payload_valid = true;
  Tag tag = 0;
  int src_pe = -1;
  std::uint64_t len = 0;
};
/// Registered once per handler; the audited captures are an object pointer
/// and a PE index.
using HandlerFn = sim::SmallFn<void(Delivery), 16>;

class Worker {
 public:
  Worker(Context& ctx, int pe) : ctx_(ctx), pe_(pe) {}
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  [[nodiscard]] int pe() const noexcept { return pe_; }
  [[nodiscard]] Context& context() noexcept { return ctx_; }

  /// Posts a receive for a message matching `tag` under `mask`
  /// (ucp_tag_recv_nb). `buf` must stay valid until completion; `cb` is
  /// stored in the returned request (Request::on_complete).
  RequestPtr tagRecv(void* buf, std::uint64_t len, Tag tag, Tag mask, CompletionFn cb);

  /// Registers a persistent handler for messages matching `tag` under `mask`.
  /// The handler owns delivered payloads; it keeps firing until the worker is
  /// destroyed. Used by the machine layer for Converse host messages.
  void setHandler(Tag tag, Tag mask, HandlerFn fn);

  /// A provider invoked at match time to supply the destination buffer (and
  /// completion callback) for a matching message — the receiver-side half of
  /// an active-message receive: data lands directly in the provided buffer
  /// (host or device) with no pre-posted request and no unexpected-queue
  /// detour. Returning {nullptr, ...} declines the message (it then falls
  /// through to plain handlers / the unexpected queue).
  using BufferProvider =
      std::function<std::pair<void*, CompletionFn>(std::uint64_t len, Tag tag, int src_pe)>;

  /// Registers a persistent buffer-providing handler; consulted after posted
  /// receives but before plain handlers.
  void setBufferedHandler(Tag tag, Tag mask, BufferProvider fn);

  /// Cancels a pending posted receive; returns false if it already matched.
  /// O(1) under the bucketed matcher: the request's match_slot back-pointer
  /// unlinks it directly, no scan of the other posted receives.
  bool cancelRecv(const RequestPtr& req);

  /// Probe metadata of a pending unexpected message (ucp_tag_probe_nb with
  /// remove=0): tag, length and source of the first match, if any. Exact
  /// (kFullMask) probes are O(1) expected under the bucketed matcher.
  struct ProbeInfo {
    Tag tag = 0;
    std::uint64_t len = 0;
    int src_pe = -1;
  };
  [[nodiscard]] std::optional<ProbeInfo> probe(Tag tag, Tag mask) const;

  // --- statistics --------------------------------------------------------
  [[nodiscard]] std::size_t postedCount() const noexcept {
    return posted_.size() + posted_exact_.size() + posted_wild_.size();
  }
  [[nodiscard]] std::size_t unexpectedCount() const noexcept {
    return unexpected_.size() + unexpected_idx_.size();
  }
  /// Largest size the posted-receive store ever reached.
  [[nodiscard]] std::size_t postedHighWatermark() const noexcept { return posted_hwm_; }
  /// Largest size the unexpected queue ever reached; retransmission storms
  /// inflate it, and the fault-injection tests assert it stays bounded.
  [[nodiscard]] std::size_t unexpectedHighWatermark() const noexcept {
    return unexpected_hwm_ > unexpected_idx_.highWatermark() ? unexpected_hwm_
                                                             : unexpected_idx_.highWatermark();
  }
  /// Duplicate deliveries suppressed by the reliability layer
  /// (a retransmit racing a jitter-delayed original).
  [[nodiscard]] std::uint64_t duplicatesSuppressed() const noexcept { return dups_suppressed_; }
  /// Total matcher node visits (bucket chains, wildcard list, and — under the
  /// reference matcher — linear scans). The O(1) regression tests assert on
  /// deltas of this counter.
  [[nodiscard]] std::uint64_t matchScanSteps() const noexcept {
    return posted_exact_.scanSteps() + posted_wild_.scanSteps() + unexpected_idx_.scanSteps() +
           linear_scan_steps_;
  }

  /// Snapshot of the matching engine's occupancy for sweeps/diagnostics
  /// (`gpucomm_sweep --metric match`).
  struct MatchStats {
    std::size_t posted = 0;
    std::size_t unexpected = 0;
    std::size_t posted_hwm = 0;
    std::size_t unexpected_hwm = 0;
    std::size_t posted_buckets = 0;
    std::size_t unexpected_buckets = 0;
    std::size_t posted_max_chain = 0;
    std::size_t unexpected_max_chain = 0;
    std::uint64_t scan_steps = 0;
  };
  [[nodiscard]] MatchStats matchStats() const;

 private:
  friend class Context;

  /// A posted receive; its completion callback lives in `req`.
  struct PostedRecv {
    RequestPtr req;
    void* buf = nullptr;
    std::uint64_t len = 0;
    Tag tag = 0;
    Tag mask = 0;
  };

  /// An arriving message the matching engine operates on. Exactly one of the
  /// two shapes is populated: eager (payload travelled with the header) or
  /// rendezvous (payload still lives at src_ptr on the sender).
  ///
  /// Field order packs the struct to 88 bytes so an arrival capture
  /// (worker pointer + Incoming) fits Engine::Callback's inline buffer;
  /// audit sizes before adding fields (see docs/architecture.md). The
  /// sender's completion callback is not copied in here: it stays in
  /// `send_req` (Request::on_complete). Matching-engine
  /// bookkeeping (arrival sequence numbers, bucket links) deliberately lives
  /// in the BucketFifo nodes, not here, to hold that budget.
  ///
  /// Reliable-mode duplicate suppression does not live here: retransmits of
  /// one wire message share their Context::WireState, and only the first
  /// arrival is delivered (see Context::reliableTransmit) — O(1) state per
  /// in-flight message instead of a per-worker ever-growing seen-set.
  struct Incoming {
    Tag tag = 0;
    std::uint64_t len = 0;           ///< logical length (amSend: unbacked bytes included)
    const void* src_ptr = nullptr;   ///< rendezvous: payload still at the sender
    std::vector<std::byte> payload;  ///< eager: payload travelled with the header
    RequestPtr send_req;             ///< rendezvous: sender-side request and its completion
    /// Owner of a rendezvous payload whose storage is not anchored by the
    /// caller (amSend's owned vectors). The receiver-side copy holds this
    /// until the memcpy from src_ptr has executed, which can be *after* the
    /// sender-side ATS completion fires.
    std::shared_ptr<const std::vector<std::byte>> payload_owner;
    int src_pe = -1;
    bool is_rndv = false;
    bool payload_valid = true;
    bool src_device = false;  ///< receiver pays the un-staging cost for device eager
  };

  [[nodiscard]] bool linearMatcher() const;
  void onArrival(Incoming msg);
  /// Accounting for a retransmit copy suppressed before delivery (the
  /// original already arrived); called by Context::reliableTransmit.
  void noteDuplicateSuppressed(int src_pe, std::uint64_t len, Tag tag);
  /// Routes a matched pair to the eager or rendezvous completion path.
  void dispatchMatch(PostedRecv r, Incoming msg);
  void completeRecvFromEager(PostedRecv r, Incoming msg);
  void startRndvTransfer(PostedRecv r, Incoming msg);
  void deliverToHandler(HandlerFn& fn, Incoming msg);

  struct Handler {
    Tag tag;
    Tag mask;
    HandlerFn fn;
  };
  struct BufferedHandler {
    Tag tag;
    Tag mask;
    BufferProvider fn;
  };

  Context& ctx_;
  int pe_;

  // --- bucketed matcher (UcxConfig::matcher == MatcherImpl::Bucketed) ------
  // Exact (kFullMask) posted receives, hashed by full tag; FIFO per tag.
  sim::BucketFifo<PostedRecv> posted_exact_;
  // Wildcard-mask posted receives in post order (findOrdered scans).
  sim::BucketFifo<PostedRecv> posted_wild_;
  // Unexpected messages, hashed by full tag AND threaded on an arrival-order
  // list, so exact receives probe one chain and wildcard receives walk
  // arrival order.
  sim::BucketFifo<Incoming> unexpected_idx_;
  /// Shared post/arrival sequence counter. A message arrival compares the
  /// earliest exact candidate's seq against the earliest matching wildcard's
  /// seq and takes the smaller — exactly the receive a single post-ordered
  /// scan would have found first.
  std::uint64_t match_seq_ = 0;

  // --- reference linear matcher (MatcherImpl::Linear) ----------------------
  std::deque<PostedRecv> posted_;
  std::deque<Incoming> unexpected_;

  std::deque<Handler> handlers_;  // deque: handler addresses stay stable
  std::deque<BufferedHandler> buffered_handlers_;
  std::size_t posted_hwm_ = 0;
  std::size_t unexpected_hwm_ = 0;
  std::uint64_t dups_suppressed_ = 0;
  mutable std::uint64_t linear_scan_steps_ = 0;
};

}  // namespace cux::ucx
