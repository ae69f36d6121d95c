#include <cassert>
#include <cstring>
#include <utility>

#include "hw/cuda.hpp"
#include "hw/path_sched.hpp"
#include "ucx/context.hpp"
#include "ucx/worker.hpp"

namespace cux::ucx {

namespace {

[[nodiscard]] bool tagsMatch(Tag msg_tag, Tag recv_tag, Tag mask) noexcept {
  return (msg_tag & mask) == (recv_tag & mask);
}

}  // namespace

// ---------------------------------------------------------------------------
// Context
// ---------------------------------------------------------------------------

Context::Context(hw::System& sys, const UcxConfig& cfg) : sys_(sys), cfg_(cfg) {
  cfg_.validate();
  const int pes = sys.config.numPes();
  workers_.reserve(static_cast<std::size_t>(pes));
  for (int pe = 0; pe < pes; ++pe) workers_.push_back(std::make_unique<Worker>(*this, pe));
  // Re-home the scattered per-context stats behind the System's registry:
  // a snapshot provider runs only when someone dumps, so the send/recv hot
  // paths keep their plain member counters.
  stats_provider_ = sys_.obs.addStatsProvider([this](obs::Registry& r) {
    r.setGauge("ucx.sends_started", sends_started_);
    r.setGauge("ucx.bytes_sent", bytes_sent_);
    r.setGauge("ucx.retransmits", retransmits_);
    r.setGauge("ucx.send_errors", send_errors_);
    r.setGauge("ucx.pe_failures_detected", pe_failures_detected_);
    r.setGauge("ucx.peer_failed_reqs", peer_failed_reqs_);
    r.setGauge("ucx.duplicates_suppressed", duplicatesSuppressed());
    r.setGauge("ucx.mp.transfers", mp_transfers_);
    r.setGauge("ucx.mp.splits", mp_splits_);
    r.setGauge("ucx.mp.chunks", mp_chunks_);
    r.setGauge("ucx.mp.reroutes", mp_reroutes_);
    r.setGauge("ucx.mp.bytes.direct", mp_bytes_direct_);
    r.setGauge("ucx.mp.bytes.staged", mp_bytes_staged_);
    r.setGauge("ucx.mp.bytes.host", mp_bytes_host_);
    r.setGauge("ucx.mp.bytes.rail", mp_bytes_rail_);
    r.setGauge("ucx.req_pool.hits", req_pool_.hits());
    r.setGauge("ucx.req_pool.misses", req_pool_.misses());
    r.setGauge("ucx.buf_pool.hits", buf_hits_);
    r.setGauge("ucx.buf_pool.misses", buf_misses_);
    r.setGauge("ucx.buf_pool.bytes", buf_pool_bytes_);
    const Worker::MatchStats s = matchStats();
    r.setGauge("ucx.match.posted", s.posted);
    r.setGauge("ucx.match.unexpected", s.unexpected);
    r.setGauge("ucx.match.posted_hwm", s.posted_hwm);
    r.setGauge("ucx.match.unexpected_hwm", s.unexpected_hwm);
    r.setGauge("ucx.match.posted_max_chain", s.posted_max_chain);
    r.setGauge("ucx.match.unexpected_max_chain", s.unexpected_max_chain);
    r.setGauge("ucx.match.scan_steps", s.scan_steps);
  });
  // Failure detector: one announcement event per scheduled fail-stop PE
  // death, at failure time + failure_detect_us (modelling the heartbeat
  // round-trip + suspicion threshold without per-heartbeat traffic). With no
  // scheduled failures nothing is scheduled — the engine timeline, and hence
  // the trace hashes, stay bit-identical to a failure-free build.
  if (sys_.fault.enabled() && sys_.fault.anyPeFailures()) {
    for (const sim::PeFailure& f : sys_.fault.config().pe_failures) {
      const sim::TimePoint when = f.at + sim::usec(cfg_.failure_detect_us);
      sys_.engine.schedule(when, [this, pe = f.pe, when] {
        ++pe_failures_detected_;
        sys_.trace.record(when, sim::TraceCat::PeFail, pe, pe, 0, 0, "detected");
        // Copy: a subscriber's callback may register further subscribers
        // (e.g. a shrink() building a replacement section mid-announcement).
        auto subs = peer_failure_subs_;
        for (const auto& [id, fn] : subs) fn(pe, when);
      });
    }
  }
}

Context::~Context() { sys_.obs.removeStatsProvider(stats_provider_); }

// ---------------------------------------------------------------------------
// Reliability layer (active only while the fault injector is enabled)
// ---------------------------------------------------------------------------

/// In-flight state of one reliable wire message. Every (re)transmission
/// attempt shares this state, so duplicate suppression is exact and O(1):
/// the first arriving copy flips `delivered` and takes `proto`; later copies
/// see the flag and are dropped before they touch the matching engine.
struct Context::WireState {
  Worker::Incoming proto;
  int src_pe = -1;
  int dst_pe = -1;
  sim::MsgClass cls = sim::MsgClass::Eager;
  /// Control message (rendezvous RTS): flies at control latency, and the
  /// sender request is completed later by the ATS (or by exhaustion here).
  bool ctrl = false;
  RequestPtr req;  ///< carries the completion callback (Request::on_complete)
  bool delivered = false;
};

void Context::reliableTransmit(const std::shared_ptr<WireState>& ws, int attempt) {
  sim::Engine& engine = sys_.engine;
  const sim::TimePoint now = engine.now();
  const auto dec = sys_.fault.decide(now, ws->cls, ws->src_pe, ws->dst_pe);
  if (dec.drop) {
    sys_.trace.record(now, sim::TraceCat::Drop, ws->src_pe, ws->dst_pe, ws->proto.len,
                      ws->proto.tag, ws->ctrl ? "rts" : "wire");
  } else {
    const hw::Path path = sys_.machine.hostToHostPath(ws->src_pe, ws->dst_pe);
    const sim::TimePoint arrival =
        (ws->ctrl ? hw::Machine::ctrlTransfer(path, now, cfg_.header_bytes)
                  : sys_.machine.transfer(path, now, ws->proto.len + cfg_.header_bytes)) +
        dec.delay;
    engine.schedule(arrival, [this, ws] {
      if (ws->delivered) {
        // A retransmit raced the delivered copy: suppress it here, at the
        // shared in-flight state, so a duplicate can never double-deliver or
        // grow the unexpected queue. (proto's scalars stay valid after the
        // move below — only the payload storage was taken.)
        worker(ws->dst_pe).noteDuplicateSuppressed(ws->src_pe, ws->proto.len, ws->proto.tag);
        return;
      }
      // Fail-stop: a copy in flight when the destination died blackholes at
      // arrival (the injector only faults at transmit time, so an in-flight
      // message to a PE that dies mid-flight must be dropped here). The
      // sender stays Pending and the retry machinery surfaces PeerFailed.
      if (sys_.fault.peDead(sys_.engine.now(), ws->dst_pe)) {
        sys_.trace.record(sys_.engine.now(), sim::TraceCat::Drop, ws->src_pe, ws->dst_pe,
                          ws->proto.len, ws->proto.tag, "pe-dead");
        return;
      }
      ws->delivered = true;
      // Sender completion models the transport-level ack: Done at first
      // delivery (rendezvous RTS senders instead complete via ATS).
      if (!ws->ctrl && ws->req) {
        ws->req->data_delivered = true;
        if (ws->req->state == ReqState::Pending) {
          ws->req->state = ReqState::Done;
          ws->req->complete();
        }
      }
      worker(ws->dst_pe).onArrival(std::move(ws->proto));
    });
  }
  // Retry deadline: attempt k is declared lost retry_base_us * 2^k after it
  // was sent. Exhaustion surfaces ReqState::Error — an operation never hangs.
  engine.schedule(now + retryDelay(attempt), [this, ws, attempt] {
    if (ws->delivered) return;
    // Once the failure detector has declared either endpoint dead, stop
    // retrying and surface the dedicated terminal state. This bounds the
    // failure latency of a pending request by the detection horizon plus one
    // backoff interval — strictly before plain exhaustion with the default
    // knobs (500 us detect vs ~3.1 ms cumulative backoff).
    const sim::TimePoint t = sys_.engine.now();
    if (peerKnownDead(t, ws->dst_pe) || peerKnownDead(t, ws->src_pe)) {
      ++peer_failed_reqs_;
      sys_.trace.record(t, sim::TraceCat::PeFail, ws->src_pe, ws->dst_pe, ws->proto.len,
                        ws->proto.tag, "peer-failed");
      sys_.obs.spans.phase(sys_.obs.spans.spanForTag(ws->proto.tag), t, obs::Phase::PeFailed,
                           ws->src_pe);
      if (ws->req && ws->req->state == ReqState::Pending) {
        ws->req->state = ReqState::PeerFailed;
        ws->req->complete();
      }
      return;
    }
    if (attempt >= cfg_.max_retries) {
      ++send_errors_;
      sys_.trace.record(sys_.engine.now(), sim::TraceCat::Drop, ws->src_pe, ws->dst_pe,
                        ws->proto.len, ws->proto.tag, "retries-exhausted");
      if (ws->req && ws->req->state == ReqState::Pending) {
        ws->req->state = ReqState::Error;
        ws->req->complete();
      }
      return;
    }
    ++retransmits_;
    sys_.trace.record(sys_.engine.now(), sim::TraceCat::Retry, ws->src_pe, ws->dst_pe,
                      ws->proto.len, ws->proto.tag, ws->ctrl ? "rts" : "wire");
    sys_.obs.spans.phase(sys_.obs.spans.spanForTag(ws->proto.tag), sys_.engine.now(),
                         obs::Phase::Retry, ws->src_pe,
                         static_cast<std::uint64_t>(attempt) + 1);
    reliableTransmit(ws, attempt + 1);
  });
}

std::pair<sim::TimePoint, bool> Context::faultedCtrl(int src_pe, int dst_pe,
                                                     sim::TimePoint send_t, sim::Duration flight,
                                                     Tag tag, const char* what) {
  for (int attempt = 0;; ++attempt) {
    // A control leg to or from a known-dead PE can never succeed: fail it at
    // the decision point instead of burning the whole retry budget.
    if (peerKnownDead(send_t, src_pe) || peerKnownDead(send_t, dst_pe)) {
      sys_.trace.record(send_t, sim::TraceCat::PeFail, src_pe, dst_pe, 0, tag, what);
      return {send_t + flight, false};
    }
    const auto dec = sys_.fault.decide(send_t, sim::MsgClass::RndvCtrl, src_pe, dst_pe);
    if (!dec.drop) return {send_t + flight + dec.delay, true};
    sys_.trace.record(send_t, sim::TraceCat::Drop, src_pe, dst_pe, 0, tag, what);
    if (attempt >= cfg_.max_retries) return {send_t + flight, false};
    ++retransmits_;
    sys_.trace.record(send_t, sim::TraceCat::Retry, src_pe, dst_pe, 0, tag, what);
    sys_.obs.spans.phase(sys_.obs.spans.spanForTag(tag), send_t, obs::Phase::Retry, src_pe,
                         static_cast<std::uint64_t>(attempt) + 1);
    send_t += retryDelay(attempt);
  }
}

sim::TimePoint Context::stageDeviceEager(sim::TimePoint t, int pe, std::uint64_t len,
                                         bool egress) {
  if (cfg_.gdrcopy_enabled) {
    // GDRCopy: CPU-driven copy through the BAR window; does not occupy the
    // NVLink brick the way bulk DMA does.
    return t + sim::usec(cfg_.gdr_latency_us) + sim::transferTime(len, cfg_.gdr_bandwidth_gbps);
  }
  // Fallback: cudaMemcpy staging through the copy engine (the slow path the
  // paper warns about when GDRCopy is not detected).
  const hw::GpuId gpu = sys_.machine.gpuOfPe(pe);
  hw::Link& link = egress ? sys_.machine.gpuUp(gpu) : sys_.machine.gpuDown(gpu);
  return link.reserve(t + sim::usec(cfg_.cuda_stage_latency_us), len);
}

std::vector<std::byte> Context::takeBuffer(std::uint64_t len) {
  if (!buf_pool_.empty()) {
    std::vector<std::byte> v = std::move(buf_pool_.back());
    buf_pool_.pop_back();
    buf_pool_bytes_ -= v.capacity();
    if (v.capacity() >= len) {
      ++buf_hits_;
    } else {
      ++buf_misses_;  // undersized recycled buffer: resize reallocates below
    }
    v.resize(len);
    return v;
  }
  ++buf_misses_;
  std::vector<std::byte> v;
  v.resize(len);
  return v;
}

void Context::recycleBuffer(std::vector<std::byte>&& buf) {
  if (buf.capacity() == 0 || buf.capacity() > kMaxPooledBufferBytes ||
      buf_pool_bytes_ + buf.capacity() > kMaxPooledBytes) {
    return;  // dropped: keep idle memory bounded
  }
  buf.clear();
  buf_pool_bytes_ += buf.capacity();
  buf_pool_.push_back(std::move(buf));
}

RequestPtr Context::tagSend(int src_pe, int dst_pe, const void* buf, std::uint64_t len, Tag tag,
                            CompletionFn cb) {
  auto req = makeRequest();
  req->peer_pe = dst_pe;
  req->bytes = len;
  req->matched_tag = tag;
  req->on_complete = std::move(cb);
  ++sends_started_;
  bytes_sent_ += len;
  startSend(src_pe, dst_pe, buf, len, tag, sys_.memory.isDevice(buf), req);
  return req;
}

void Context::startSend(int src_pe, int dst_pe, const void* buf, std::uint64_t len, Tag tag,
                        bool src_device, RequestPtr req) {
  const std::uint64_t eager_limit = src_device ? cfg_.device_eager_threshold
                                               : cfg_.host_eager_threshold;
  if (len <= eager_limit) {
    sys_.trace.record(sys_.engine.now(), sim::TraceCat::UcxSend, src_pe, dst_pe, len, tag,
                      src_device ? "eager-device" : "eager-host");
    sendEager(src_pe, dst_pe, buf, len, tag, src_device, std::move(req));
  } else {
    sys_.trace.record(sys_.engine.now(), sim::TraceCat::UcxSend, src_pe, dst_pe, len, tag,
                      src_device ? "rndv-device" : "rndv-host");
    sendRndv(src_pe, dst_pe, buf, len, tag, src_device, std::move(req));
  }
}

RequestPtr Context::tagSendHostStaged(int src_pe, int dst_pe, const void* buf, std::uint64_t len,
                                      Tag tag, CompletionFn cb) {
  if (!sys_.memory.isDevice(buf)) return tagSend(src_pe, dst_pe, buf, len, tag, std::move(cb));

  auto req = makeRequest();
  req->peer_pe = dst_pe;
  req->bytes = len;
  req->matched_tag = tag;
  req->on_complete = std::move(cb);
  ++sends_started_;
  bytes_sent_ += len;

  // Degraded route: cudaMemcpy D2H through the GPU egress link first, then a
  // plain host-memory send under the same tag (a pre-posted receive still
  // matches). This is the path the real machine layer takes when the
  // GPU-aware transport is unavailable.
  sim::Engine& engine = sys_.engine;
  const hw::GpuId gpu = sys_.machine.gpuOfPe(src_pe);
  const sim::TimePoint staged =
      sys_.machine.gpuUp(gpu).reserve(engine.now() + sim::usec(cfg_.cuda_stage_latency_us), len);
  engine.schedule(staged, [this, src_pe, dst_pe, buf, len, tag, req]() mutable {
    startSend(src_pe, dst_pe, buf, len, tag, /*src_device=*/false, std::move(req));
  });
  return req;
}

RequestPtr Context::amSend(int src_pe, int dst_pe, Tag tag, std::vector<std::byte> payload,
                           CompletionFn cb, std::uint64_t unbacked) {
  const std::uint64_t len = payload.size() + unbacked;
  auto req = makeRequest();
  req->peer_pe = dst_pe;
  req->bytes = len;
  req->matched_tag = tag;
  req->on_complete = std::move(cb);
  ++sends_started_;
  bytes_sent_ += len;

  sim::Engine& engine = sys_.engine;
  Worker& dst = worker(dst_pe);

  if (len <= cfg_.host_eager_threshold) {
    const sim::TimePoint t0 = engine.now() + sim::usec(cfg_.send_overhead_us);
    if (reliable()) {
      Worker::Incoming msg;
      msg.tag = tag;
      msg.src_pe = src_pe;
      msg.len = len;
      msg.payload = std::move(payload);
      auto ws = std::make_shared<WireState>();
      ws->proto = std::move(msg);
      ws->src_pe = src_pe;
      ws->dst_pe = dst_pe;
      ws->cls = sim::MsgClass::Am;
      ws->req = req;
      engine.schedule(t0, [this, ws] { reliableTransmit(ws, 0); });
      return req;
    }
    engine.schedule(t0, [req] {
      req->state = ReqState::Done;
      req->complete();
    });
    const hw::Path path = sys_.machine.hostToHostPath(src_pe, dst_pe);
    const sim::TimePoint arrival = sys_.machine.transfer(path, t0, len + cfg_.header_bytes);
    Worker::Incoming msg;
    msg.tag = tag;
    msg.src_pe = src_pe;
    msg.len = len;
    msg.payload = std::move(payload);
    engine.schedule(arrival,
                    [&dst, msg = std::move(msg)]() mutable { dst.onArrival(std::move(msg)); });
    return req;
  }

  // Large owned payload: rendezvous timing; the vector lives in the in-flight
  // message, and the "transfer" pulls from its storage. Ownership travels as
  // `payload_owner`: the receiver-side copy can execute after the
  // sender-side ATS completion when recv_overhead exceeds the ATS control
  // latency, so tying the payload's lifetime to the sender callback (as an
  // earlier revision did) is a use-after-free.
  auto shared_payload = std::make_shared<const std::vector<std::byte>>(std::move(payload));
  const sim::TimePoint t0 = engine.now() + sim::usec(cfg_.send_overhead_us);
  Worker::Incoming msg;
  msg.tag = tag;
  msg.src_pe = src_pe;
  msg.len = len;
  msg.is_rndv = true;
  msg.src_ptr = shared_payload->data();
  msg.send_req = req;
  msg.payload_owner = std::move(shared_payload);
  if (reliable()) {
    // The RTS is a control message: retransmitted until one copy is
    // delivered; sender completion then comes via the ATS (rndvTransfer), or
    // via Error here if every RTS attempt is lost.
    auto ws = std::make_shared<WireState>();
    ws->proto = std::move(msg);
    ws->src_pe = src_pe;
    ws->dst_pe = dst_pe;
    ws->cls = sim::MsgClass::RndvCtrl;
    ws->ctrl = true;
    ws->req = req;
    engine.schedule(t0, [this, ws] { reliableTransmit(ws, 0); });
    return req;
  }
  const hw::Path path = sys_.machine.hostToHostPath(src_pe, dst_pe);
  const sim::TimePoint rts_arrival = hw::Machine::ctrlTransfer(path, t0, cfg_.header_bytes);
  engine.schedule(rts_arrival,
                  [&dst, msg = std::move(msg)]() mutable { dst.onArrival(std::move(msg)); });
  return req;
}

void Context::sendEager(int src_pe, int dst_pe, const void* buf, std::uint64_t len, Tag tag,
                        bool src_device, RequestPtr req) {
  sim::Engine& engine = sys_.engine;
  sim::TimePoint t0 = engine.now() + sim::usec(cfg_.send_overhead_us);
  if (src_device) t0 = stageDeviceEager(t0, src_pe, len, /*egress=*/true);

  Worker::Incoming msg;
  msg.tag = tag;
  msg.src_pe = src_pe;
  msg.len = len;
  msg.src_device = src_device;
  if (sys_.memory.dereferenceable(buf) && len > 0) {
    msg.payload = takeBuffer(len);
    std::memcpy(msg.payload.data(), buf, len);
  } else {
    msg.payload_valid = (len == 0);
  }

  if (reliable()) {
    // Sender completion models the transport ack: Done on first delivered
    // attempt (never locally at t0, which would hide a lost message), Error
    // after the retry budget.
    auto ws = std::make_shared<WireState>();
    ws->proto = std::move(msg);
    ws->src_pe = src_pe;
    ws->dst_pe = dst_pe;
    ws->cls = sim::MsgClass::Eager;
    ws->req = std::move(req);
    engine.schedule(t0, [this, ws] { reliableTransmit(ws, 0); });
    return;
  }

  // Eager sends complete locally once the payload has been captured.
  engine.schedule(t0, [req = std::move(req)] {
    req->state = ReqState::Done;
    req->complete();
  });

  const hw::Path path = sys_.machine.hostToHostPath(src_pe, dst_pe);
  const sim::TimePoint arrival = sys_.machine.transfer(path, t0, len + cfg_.header_bytes);
  Worker& dst = worker(dst_pe);
  engine.schedule(arrival,
                  [&dst, msg = std::move(msg)]() mutable { dst.onArrival(std::move(msg)); });
}

void Context::sendRndv(int src_pe, int dst_pe, const void* buf, std::uint64_t len, Tag tag,
                       bool src_device, RequestPtr req) {
  sim::Engine& engine = sys_.engine;
  const sim::TimePoint t0 = engine.now() + sim::usec(cfg_.send_overhead_us);

  Worker::Incoming msg;
  msg.tag = tag;
  msg.src_pe = src_pe;
  msg.len = len;
  msg.is_rndv = true;
  msg.src_ptr = buf;
  msg.src_device = src_device;
  msg.send_req = req;

  if (reliable()) {
    auto ws = std::make_shared<WireState>();
    ws->proto = std::move(msg);
    ws->src_pe = src_pe;
    ws->dst_pe = dst_pe;
    ws->cls = sim::MsgClass::RndvCtrl;
    ws->ctrl = true;
    ws->req = std::move(req);
    engine.schedule(t0, [this, ws] { reliableTransmit(ws, 0); });
    return;
  }

  const hw::Path ctrl_path = sys_.machine.hostToHostPath(src_pe, dst_pe);
  const sim::TimePoint rts_arrival =
      hw::Machine::ctrlTransfer(ctrl_path, t0, cfg_.header_bytes);
  Worker& dst = worker(dst_pe);
  engine.schedule(rts_arrival,
                  [&dst, msg = std::move(msg)]() mutable { dst.onArrival(std::move(msg)); });
}

Context::RndvResult Context::rndvTransfer(const Worker::Incoming& msg, int dst_pe,
                                          void* dst_buf) {
  sim::Engine& engine = sys_.engine;
  hw::Machine& machine = sys_.machine;
  const int src_pe = msg.src_pe;
  const bool src_device = msg.src_device;
  const bool dst_device = sys_.memory.isDevice(dst_buf);
  const std::uint64_t len = msg.len;

  const sim::TimePoint t_match = engine.now() + sim::usec(cfg_.rndv_handshake_us);
  sys_.trace.record(engine.now(), sim::TraceCat::UcxRndv, dst_pe, src_pe, len, msg.tag,
                    "matched");

  const bool same_node = machine.sameNode(src_pe, dst_pe);

  // One pass of the data movement starting at `start`; returns the arrival
  // time. Sets `cts_ok = false` when the reliable CTS leg exhausted its
  // retry budget (inter-node device pipeline only — the other shapes are
  // receiver pulls with no sender-bound control message).
  auto computeOnce = [&](sim::TimePoint start, bool& cts_ok) -> sim::TimePoint {
    cts_ok = true;
    if (src_device && dst_device && same_node) {
      // CUDA-IPC-style direct pull across NVLink (possibly via X-Bus).
      return machine.transfer(machine.deviceToDevicePath(src_pe, dst_pe), start, len);
    }
    if (src_device && dst_device) {
      // Inter-node: pipelined host staging in chunks (the UCX cuda pipeline).
      // CTS travels back to the sender, which then pushes chunks through
      // D2H -> NIC -> NIC -> H2D; per-link FIFO occupancy pipelines chunks.
      sim::TimePoint cts_arrival;
      if (reliable()) {
        const sim::Duration flight =
            hw::Machine::ctrlTransfer(machine.hostToHostPath(dst_pe, src_pe), start,
                                      cfg_.header_bytes) -
            start;
        const auto [t, ok] = faultedCtrl(dst_pe, src_pe, start, flight, msg.tag, "cts");
        if (!ok) {
          cts_ok = false;
          return t;
        }
        cts_arrival = t + sim::usec(cfg_.rndv_handshake_us);
      } else {
        cts_arrival = hw::Machine::ctrlTransfer(machine.hostToHostPath(dst_pe, src_pe), start,
                                                cfg_.header_bytes) +
                      sim::usec(cfg_.rndv_handshake_us);
      }
      const std::uint64_t chunk = cfg_.rndv_pipeline_chunk;
      hw::Link& up = machine.gpuUp(machine.gpuOfPe(src_pe));
      hw::Link& nic_up = machine.nicUp(machine.nodeOfPe(src_pe));
      hw::Link& nic_down = machine.nicDown(machine.nodeOfPe(dst_pe));
      hw::Link& down = machine.gpuDown(machine.gpuOfPe(dst_pe));
      std::uint64_t remaining = len;
      sim::TimePoint last = cts_arrival;
      while (remaining > 0) {
        const std::uint64_t c = remaining < chunk ? remaining : chunk;
        const sim::TimePoint a = up.reserve(cts_arrival, c);
        const sim::TimePoint b = nic_up.reserve(a, c);
        // Chunk management occupies the injection stage, capping the pipeline
        // below wire speed (paper: ~10 of 12.5 GB/s).
        nic_up.setFreeAt(nic_up.freeAt() + sim::usec(cfg_.rndv_pipeline_overhead_us));
        const sim::TimePoint d = nic_down.reserve(b, c);
        last = down.reserve(d, c);
        remaining -= c;
      }
      return last;
    }
    if (!src_device && !dst_device && !same_node) {
      // Inter-node host rendezvous from unregistered (pageable) memory: UCX
      // chunks through pre-registered bounce buffers; the bounce copy shares
      // the CPU with NIC posting, so each chunk occupies the injection stage
      // beyond its wire time. This is what keeps the -H variants below the
      // GPU-aware pipeline even though EDR bounds both.
      const std::uint64_t chunk = cfg_.rndv_pipeline_chunk;
      hw::Link& nic_up = machine.nicUp(machine.nodeOfPe(src_pe));
      hw::Link& nic_down = machine.nicDown(machine.nodeOfPe(dst_pe));
      std::uint64_t remaining = len;
      sim::TimePoint last = start;
      while (remaining > 0) {
        const std::uint64_t c = remaining < chunk ? remaining : chunk;
        const sim::TimePoint b = nic_up.reserve(start, c);
        nic_up.setFreeAt(nic_up.freeAt() + sim::usec(cfg_.host_rndv_chunk_overhead_us));
        last = nic_down.reserve(b, c);
        remaining -= c;
      }
      return last;
    }
    // Mixed or intra-node host: compose egress/host/ingress segments.
    hw::Path path;
    if (src_device) path.append(machine.deviceEgressPath(src_pe));
    path.append(machine.hostToHostPath(src_pe, dst_pe));
    if (dst_device) path.append(machine.deviceIngressPath(dst_pe));
    const sim::TimePoint arrival = machine.transfer(path, start, len);
    return path.empty() ? start : arrival;  // empty path: self-send
  };

  sim::TimePoint data_arrival = 0;
  bool failed = false;
  if (cfg_.multipath.enabled && src_device && dst_device && src_pe != dst_pe) {
    // Multi-path engine: replaces both the single computation and the
    // whole-leg retry loop — fault decisions happen per chunk inside, so a
    // lost chunk re-routes instead of replaying the entire transfer.
    const RndvResult r = multipathRndvData(msg, dst_pe, t_match);
    data_arrival = r.data_arrival;
    failed = !r.ok;
  } else if (!reliable()) {
    bool cts_ok = true;
    data_arrival = computeOnce(t_match, cts_ok);
  } else {
    // Reliable data leg: each attempt is faulted at transmit time; a dropped
    // attempt is retransmitted after the backoff, re-running the link
    // reservations (the retransmission occupies real wire time).
    sim::TimePoint start = t_match;
    for (int attempt = 0;; ++attempt) {
      if (peerKnownDead(start, src_pe) || peerKnownDead(start, dst_pe)) {
        sys_.trace.record(start, sim::TraceCat::PeFail, src_pe, dst_pe, len, msg.tag,
                          "rndv-data");
        failed = true;
        data_arrival = start;
        break;
      }
      const auto dec = sys_.fault.decide(start, sim::MsgClass::RndvData, src_pe, dst_pe);
      if (!dec.drop) {
        bool cts_ok = true;
        data_arrival = computeOnce(start, cts_ok) + dec.delay;
        failed = !cts_ok;
        break;
      }
      sys_.trace.record(start, sim::TraceCat::Drop, src_pe, dst_pe, len, msg.tag, "rndv-data");
      if (attempt >= cfg_.max_retries) {
        failed = true;
        data_arrival = start;
        break;
      }
      ++retransmits_;
      sys_.trace.record(start, sim::TraceCat::Retry, src_pe, dst_pe, len, msg.tag, "rndv-data");
      sys_.obs.spans.phase(sys_.obs.spans.spanForTag(msg.tag), start, obs::Phase::Retry, src_pe,
                           static_cast<std::uint64_t>(attempt) + 1);
      start += retryDelay(attempt);
    }
  }

  const RequestPtr& send_req = msg.send_req;

  if (failed) {
    // The CTS or data leg exhausted its budget (or a peer is known dead):
    // the transfer fails permanently. Sender completes here — PeerFailed
    // when the detector blames a dead endpoint, Error otherwise; the caller
    // fails the receive side (RndvResult::ok == false).
    const bool peer_dead =
        peerKnownDead(data_arrival, src_pe) || peerKnownDead(data_arrival, dst_pe);
    if (peer_dead) {
      ++peer_failed_reqs_;
      sys_.obs.spans.phase(sys_.obs.spans.spanForTag(msg.tag), data_arrival,
                           obs::Phase::PeFailed, src_pe);
    } else {
      ++send_errors_;
    }
    sys_.trace.record(data_arrival, sim::TraceCat::Drop, src_pe, dst_pe, len, msg.tag,
                      "rndv-failed");
    engine.schedule(data_arrival, [send_req, peer_dead] {
      if (send_req && send_req->state == ReqState::Pending) {
        send_req->state = peer_dead ? ReqState::PeerFailed : ReqState::Error;
        send_req->complete();
      }
    });
    return {data_arrival, false};
  }

  // Rendezvous data leg succeeded: record the (scheduled) arrival; the ATS
  // leg is appended below once its arrival time is known.
  sys_.obs.spans.phase(sys_.obs.spans.spanForTag(msg.tag), data_arrival, obs::Phase::RndvData,
                       dst_pe, len);

  // Sender-side completion: ATS control message back after the data is out.
  // Under faults the ATS is receiver-driven and retried; if every attempt is
  // lost, the data did arrive (receiver completes Done) but the sender can
  // never learn it — it completes with Error.
  sim::TimePoint ats_arrival;
  bool ats_ok = true;
  if (reliable()) {
    const sim::Duration flight =
        hw::Machine::ctrlTransfer(machine.hostToHostPath(dst_pe, src_pe), data_arrival,
                                  cfg_.header_bytes) -
        data_arrival;
    const auto [t, ok] = faultedCtrl(dst_pe, src_pe, data_arrival, flight, msg.tag, "ats");
    ats_arrival = t + sim::usec(cfg_.rndv_handshake_us);
    ats_ok = ok;
    if (!ats_ok) {
      if (peerKnownDead(ats_arrival, src_pe) || peerKnownDead(ats_arrival, dst_pe)) {
        ++peer_failed_reqs_;
      } else {
        ++send_errors_;
      }
    }
  } else {
    ats_arrival = hw::Machine::ctrlTransfer(machine.hostToHostPath(dst_pe, src_pe), data_arrival,
                                            cfg_.header_bytes) +
                  sim::usec(cfg_.rndv_handshake_us);
  }
  sys_.obs.spans.phase(sys_.obs.spans.spanForTag(msg.tag), ats_arrival, obs::Phase::RndvAts,
                       src_pe, ats_ok ? 1 : 0);
  const bool ats_peer_dead =
      !ats_ok && (peerKnownDead(ats_arrival, src_pe) || peerKnownDead(ats_arrival, dst_pe));
  engine.schedule(ats_arrival, [send_req, ats_ok, ats_peer_dead] {
    if (send_req && send_req->state == ReqState::Pending) {
      // The data leg finished before the ATS was even attempted, so the
      // receiver has the payload either way; an Error (or PeerFailed, when
      // the detector blames a dead endpoint) here means only the ack was
      // lost. Callers must not resend: the matched receive is consumed, and
      // a resend under the same tag could never match.
      send_req->data_delivered = true;
      send_req->state =
          ats_ok ? ReqState::Done : (ats_peer_dead ? ReqState::PeerFailed : ReqState::Error);
      send_req->complete();
    }
  });
  return {data_arrival, true};
}

Context::RndvResult Context::multipathRndvData(const Worker::Incoming& msg, int dst_pe,
                                               sim::TimePoint t_match) {
  hw::Machine& machine = sys_.machine;
  const int src_pe = msg.src_pe;
  const std::uint64_t len = msg.len;
  const UcxConfig::MultipathConfig& mp = cfg_.multipath;
  const bool same_node = machine.sameNode(src_pe, dst_pe);
  constexpr std::size_t npos = hw::PathScheduler::npos;

  // Inter-node the sender drives chunk submission, so the CTS must travel
  // back first — same shape and fault handling as the single-rail pipeline.
  // Intra-node stays a receiver pull (CUDA-IPC semantics), no CTS.
  sim::TimePoint start = t_match;
  if (!same_node) {
    const sim::Duration flight =
        hw::Machine::ctrlTransfer(machine.hostToHostPath(dst_pe, src_pe), start,
                                  cfg_.header_bytes) -
        start;
    if (reliable()) {
      const auto [t, ok] = faultedCtrl(dst_pe, src_pe, start, flight, msg.tag, "cts");
      if (!ok) return {t, false};
      start = t + sim::usec(cfg_.rndv_handshake_us);
    } else {
      start += flight + sim::usec(cfg_.rndv_handshake_us);
    }
  }

  hw::PathScheduler sched(
      machine.deviceRoutes(src_pe, dst_pe, mp.max_staged_routes, same_node && mp.host_bounce));
  if (sched.numRoutes() == 0) return {start, true};  // same GPU: nothing to move

  const hw::PathScheduler::Params pp{mp.chunk_bytes, mp.min_split_bytes};
  const std::uint64_t nchunks = hw::PathScheduler::numChunks(len, pp);
  ++mp_transfers_;
  mp_chunks_ += nchunks;

  // Chunk submission overhead: one batched CUDA-graph launch covers every
  // chunk (cuda::Graph semantics), otherwise each chunk pays its own
  // runtime call, serialised on the submitting CPU.
  const sim::Duration call = sim::usec(sys_.config.cuda_call_us);
  const sim::Duration graph_cost = call + sim::usec(sys_.config.cuda_graph_launch_us);

  // Below the split threshold the transfer stays single-path: chunks still
  // pipeline, but all on the one route that projects best at submission.
  const bool split = len >= mp.min_split_bytes && sched.numRoutes() > 1;
  std::size_t locked = npos;

  const std::uint64_t span = sys_.obs.spans.spanForTag(msg.tag);
  sim::TimePoint last = start;
  std::uint64_t remaining = len;
  for (std::uint64_t i = 0; i < nchunks; ++i) {
    const std::uint64_t c = remaining < mp.chunk_bytes ? remaining : mp.chunk_bytes;
    remaining -= c;
    sim::TimePoint t =
        start + (mp.cuda_graphs ? graph_cost : static_cast<sim::Duration>(i + 1) * call);
    std::size_t exclude = npos;
    for (int attempt = 0;; ++attempt) {
      // Route this attempt rides; a lost attempt consumes no wire time, but
      // its choice is what the retry steers away from.
      std::size_t pick;
      if (!split && exclude == npos) {
        if (locked == npos) locked = sched.best(t, c);
        pick = locked;
      } else {
        pick = sched.best(t, c, exclude);
      }
      sim::Duration delay = 0;
      if (reliable()) {
        if (peerKnownDead(t, src_pe) || peerKnownDead(t, dst_pe)) {
          sys_.trace.record(t, sim::TraceCat::PeFail, src_pe, dst_pe, c, msg.tag, "mp-chunk");
          return {t, false};
        }
        const auto dec = sys_.fault.decide(t, sim::MsgClass::RndvData, src_pe, dst_pe);
        if (dec.drop) {
          sys_.trace.record(t, sim::TraceCat::Drop, src_pe, dst_pe, c, msg.tag, "mp-chunk");
          if (attempt >= cfg_.max_retries) return {t, false};
          ++retransmits_;
          sys_.trace.record(t, sim::TraceCat::Retry, src_pe, dst_pe, c, msg.tag, "mp-chunk");
          sys_.obs.spans.phase(span, t, obs::Phase::Retry, src_pe,
                               static_cast<std::uint64_t>(attempt) + 1);
          if (sched.numRoutes() > 1) {
            // Re-route: the retry is barred from the lost attempt's route,
            // so a chunk on a downed/lossy path moves to a surviving one
            // before the caller's host-staged fallback ever engages.
            exclude = pick;
            ++mp_reroutes_;
          }
          t += retryDelay(attempt);
          continue;
        }
        delay = dec.delay;
      }
      const char* kind = sched.route(pick).kind;
      const sim::Duration chunk_overhead =
          std::strcmp(kind, "rail") == 0
              ? sim::usec(cfg_.rndv_pipeline_overhead_us)
              : (std::strcmp(kind, "direct") == 0 ? 0
                                                  : sim::usec(mp.stage_chunk_overhead_us));
      const sim::TimePoint arrival = sched.commit(pick, t, c, chunk_overhead) + delay;
      if (arrival > last) last = arrival;
      break;
    }
  }

  // Per-route accounting: one MultiPath/RailChunk span event per route that
  // carried bytes (aux = obs::packRouteBytes(route, bytes)), and the
  // registry byte counters by route kind.
  const std::vector<std::uint64_t>& per_route = sched.bytesPerRoute();
  std::size_t routes_used = 0;
  for (std::size_t r = 0; r < per_route.size(); ++r) {
    if (per_route[r] == 0) continue;
    ++routes_used;
    const char* kind = sched.route(r).kind;
    const bool rail = std::strcmp(kind, "rail") == 0;
    if (rail) {
      mp_bytes_rail_ += per_route[r];
    } else if (std::strcmp(kind, "direct") == 0) {
      mp_bytes_direct_ += per_route[r];
    } else if (std::strcmp(kind, "staged") == 0) {
      mp_bytes_staged_ += per_route[r];
    } else {
      mp_bytes_host_ += per_route[r];
    }
    sys_.obs.spans.phase(span, last, rail ? obs::Phase::RailChunk : obs::Phase::MultiPath,
                         src_pe, obs::packRouteBytes(static_cast<unsigned>(r), per_route[r]));
  }
  if (routes_used > 1) ++mp_splits_;
  return {last, true};
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

bool Worker::linearMatcher() const { return ctx_.config().matcher == MatcherImpl::Linear; }

void Worker::dispatchMatch(PostedRecv r, Incoming msg) {
  if (msg.is_rndv) {
    startRndvTransfer(std::move(r), std::move(msg));
  } else {
    completeRecvFromEager(std::move(r), std::move(msg));
  }
}

RequestPtr Worker::tagRecv(void* buf, std::uint64_t len, Tag tag, Tag mask, CompletionFn cb) {
  RequestPtr req = ctx_.makeRequest();
  req->on_complete = std::move(cb);
  PostedRecv r{req, buf, len, tag, mask};

  // A hit in the unexpected store below ends the early-arrival wait: the
  // payload got here before this receive was posted (the paper's
  // limitation); the span timeline records how long it sat queued.
  obs::SpanCollector& spans = ctx_.system().obs.spans;

  if (linearMatcher()) {
    // Reference matcher: scan the unexpected queue in arrival order.
    for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
      ++linear_scan_steps_;
      if (tagsMatch(it->tag, tag, mask)) {
        Incoming msg = std::move(*it);
        unexpected_.erase(it);
        spans.phase(spans.spanForTag(msg.tag), ctx_.system().engine.now(),
                    obs::Phase::MatchedUnexpected, pe_, msg.len);
        dispatchMatch(std::move(r), std::move(msg));
        return req;
      }
    }
    req->match_queue = Request::MatchQueue::Linear;
    posted_.push_back(std::move(r));
    if (posted_.size() > posted_hwm_) posted_hwm_ = posted_.size();
    return req;
  }

  // Bucketed matcher. An exact (kFullMask) receive probes the hash chain of
  // its full tag; a wildcard receive walks the store in arrival order. The
  // chain is FIFO and collisions are filtered by the predicate, so the first
  // satisfying entry is the earliest-arrived match either way — exactly what
  // the linear scan would have found.
  const std::uint32_t hit =
      mask == kFullMask
          ? unexpected_idx_.findChain(tag, [tag](const Incoming& m) { return m.tag == tag; })
          : unexpected_idx_.findOrdered(
                [tag, mask](const Incoming& m) { return tagsMatch(m.tag, tag, mask); });
  if (hit != sim::BucketFifo<Incoming>::kNil) {
    Incoming msg = unexpected_idx_.take(hit);
    spans.phase(spans.spanForTag(msg.tag), ctx_.system().engine.now(),
                obs::Phase::MatchedUnexpected, pe_, msg.len);
    dispatchMatch(std::move(r), std::move(msg));
    return req;
  }
  // No match: post. The shared sequence number records where this receive
  // sits in post order relative to the other store (see onArrival).
  const std::uint64_t seq = match_seq_++;
  if (mask == kFullMask) {
    req->match_queue = Request::MatchQueue::Exact;
    req->match_slot = posted_exact_.push(tag, seq, std::move(r));
  } else {
    req->match_queue = Request::MatchQueue::Wildcard;
    req->match_slot = posted_wild_.push(tag & mask, seq, std::move(r));
  }
  const std::size_t live = posted_exact_.size() + posted_wild_.size();
  if (live > posted_hwm_) posted_hwm_ = live;
  return req;
}

void Worker::setHandler(Tag tag, Tag mask, HandlerFn fn) {
  handlers_.push_back(Handler{tag, mask, std::move(fn)});
}

void Worker::setBufferedHandler(Tag tag, Tag mask, BufferProvider fn) {
  buffered_handlers_.push_back(BufferedHandler{tag, mask, std::move(fn)});
}

std::optional<Worker::ProbeInfo> Worker::probe(Tag tag, Tag mask) const {
  if (linearMatcher()) {
    for (const Incoming& msg : unexpected_) {
      ++linear_scan_steps_;
      if (tagsMatch(msg.tag, tag, mask)) return ProbeInfo{msg.tag, msg.len, msg.src_pe};
    }
    return std::nullopt;
  }
  const std::uint32_t hit =
      mask == kFullMask
          ? unexpected_idx_.findChain(tag, [tag](const Incoming& m) { return m.tag == tag; })
          : unexpected_idx_.findOrdered(
                [tag, mask](const Incoming& m) { return tagsMatch(m.tag, tag, mask); });
  if (hit == sim::BucketFifo<Incoming>::kNil) return std::nullopt;
  const Incoming& msg = unexpected_idx_.at(hit);
  return ProbeInfo{msg.tag, msg.len, msg.src_pe};
}

bool Worker::cancelRecv(const RequestPtr& req) {
  if (!req) return false;
  // The completion is delivered through the engine like every other
  // completion: invoking it synchronously would reenter worker state
  // mid-operation (the callback may repost, cancel, or send) and give
  // cancellation an ordering no other completion path has.
  auto deliverCancel = [this, &req] {
    req->state = ReqState::Cancelled;
    if (req->on_complete) {
      sim::Engine& engine = ctx_.system().engine;
      engine.schedule(engine.now(), [req] { req->complete(); });
    }
  };
  switch (req->match_queue) {
    case Request::MatchQueue::Exact:
    case Request::MatchQueue::Wildcard: {
      // O(1): the request remembers its slot; liveAt + identity guard reject
      // a stale slot id that was recycled for another receive.
      auto& store =
          req->match_queue == Request::MatchQueue::Exact ? posted_exact_ : posted_wild_;
      const std::uint32_t slot = req->match_slot;
      if (!store.liveAt(slot) || store.at(slot).req != req) return false;
      (void)store.take(slot);
      req->match_slot = Request::kNoSlot;
      req->match_queue = Request::MatchQueue::None;
      deliverCancel();
      return true;
    }
    case Request::MatchQueue::Linear:
      for (auto it = posted_.begin(); it != posted_.end(); ++it) {
        ++linear_scan_steps_;
        if (it->req == req) {
          posted_.erase(it);
          req->match_queue = Request::MatchQueue::None;
          deliverCancel();
          return true;
        }
      }
      return false;
    case Request::MatchQueue::None:
      break;  // never posted, or already matched/cancelled
  }
  return false;
}

void Worker::noteDuplicateSuppressed(int src_pe, std::uint64_t len, Tag tag) {
  // Reliable-mode duplicate suppression: a retransmit racing a late
  // (jitter-delayed) original must not double-deliver. The decision is made
  // in Context::reliableTransmit off the shared WireState; this is the
  // receiver-side accounting for it.
  ++dups_suppressed_;
  hw::System& sys = ctx_.system();
  sys.trace.record(sys.engine.now(), sim::TraceCat::Drop, pe_, src_pe, len, tag, "duplicate");
}

void Worker::onArrival(Incoming msg) {
  obs::SpanCollector& spans = ctx_.system().obs.spans;
  const std::uint64_t arrival_span = spans.spanForTag(msg.tag);
  if (linearMatcher()) {
    // Reference matcher: scan posted receives in post order.
    bool matched = false;
    for (auto it = posted_.begin(); it != posted_.end(); ++it) {
      ++linear_scan_steps_;
      if (tagsMatch(msg.tag, it->tag, it->mask)) {
        PostedRecv r = std::move(*it);
        posted_.erase(it);
        r.req->match_queue = Request::MatchQueue::None;
        spans.phase(arrival_span, ctx_.system().engine.now(), obs::Phase::MatchedPosted, pe_,
                    msg.len);
        dispatchMatch(std::move(r), std::move(msg));
        matched = true;
        break;
      }
    }
    if (matched) return;
  } else {
    // Earliest exact candidate: the chain keyed by the full tag is FIFO, so
    // its first entry carrying this tag is the earliest-posted exact receive.
    const std::uint32_t ex = posted_exact_.findChain(
        msg.tag, [tag = msg.tag](const PostedRecv& r) { return r.tag == tag; });
    // Earliest wildcard candidate: post-order walk of the wildcard store.
    const std::uint32_t wi = posted_wild_.findOrdered(
        [tag = msg.tag](const PostedRecv& r) { return tagsMatch(tag, r.tag, r.mask); });
    constexpr std::uint32_t kNil = sim::BucketFifo<PostedRecv>::kNil;
    if (ex != kNil || wi != kNil) {
      // Arbitrate by post sequence number: the smaller seq is the receive a
      // single post-ordered scan would have reached first.
      const bool exact_wins =
          ex != kNil && (wi == kNil || posted_exact_.seqOf(ex) < posted_wild_.seqOf(wi));
      auto& store = exact_wins ? posted_exact_ : posted_wild_;
      PostedRecv r = store.take(exact_wins ? ex : wi);
      r.req->match_slot = Request::kNoSlot;
      r.req->match_queue = Request::MatchQueue::None;
      spans.phase(arrival_span, ctx_.system().engine.now(), obs::Phase::MatchedPosted, pe_,
                  msg.len);
      dispatchMatch(std::move(r), std::move(msg));
      return;
    }
  }
  // Active-message style: a buffered handler supplies the destination at
  // match time, so even rendezvous payloads start moving immediately — no
  // metadata wait, no unexpected queue (the paper's Sec. VI improvement).
  for (BufferedHandler& bh : buffered_handlers_) {
    if (!tagsMatch(msg.tag, bh.tag, bh.mask)) continue;
    auto [buf, cb] = bh.fn(msg.len, msg.tag, msg.src_pe);
    if (buf == nullptr && msg.len > 0) continue;  // declined
    PostedRecv r{ctx_.makeRequest(), buf, msg.len, msg.tag, kFullMask};
    r.req->on_complete = std::move(cb);
    dispatchMatch(std::move(r), std::move(msg));
    return;
  }
  for (Handler& h : handlers_) {
    if (tagsMatch(msg.tag, h.tag, h.mask)) {
      deliverToHandler(h.fn, std::move(msg));
      return;
    }
  }
  // No receive posted yet: the payload outran the metadata/post. This is
  // the early arrival the paper's totals hide — the matching tagRecv later
  // records MatchedUnexpected, closing the wait interval.
  spans.phase(arrival_span, ctx_.system().engine.now(), obs::Phase::EarlyArrival, pe_, msg.len);
  if (linearMatcher()) {
    unexpected_.push_back(std::move(msg));
    if (unexpected_.size() > unexpected_hwm_) unexpected_hwm_ = unexpected_.size();
  } else {
    const Tag t = msg.tag;
    const std::uint64_t seq = match_seq_++;
    unexpected_idx_.push(t, seq, std::move(msg));
  }
}

Worker::MatchStats Worker::matchStats() const {
  MatchStats s;
  s.posted = postedCount();
  s.unexpected = unexpectedCount();
  s.posted_hwm = posted_hwm_;
  s.unexpected_hwm = unexpectedHighWatermark();
  s.posted_buckets = posted_exact_.bucketCount();
  s.unexpected_buckets = unexpected_idx_.bucketCount();
  s.posted_max_chain = posted_exact_.maxChainLength();
  s.unexpected_max_chain = unexpected_idx_.maxChainLength();
  s.scan_steps = matchScanSteps();
  return s;
}

void Worker::completeRecvFromEager(PostedRecv r, Incoming msg) {
  assert(msg.len <= r.len && "eager message truncation (recv buffer too small)");
  Context& ctx = ctx_;
  sim::Engine& engine = ctx.system().engine;
  sim::TimePoint t = engine.now() + sim::usec(ctx.config().recv_overhead_us);
  const bool dst_device = ctx.system().memory.isDevice(r.buf);
  if (dst_device) t = ctx.stageDeviceEager(t, pe_, msg.len, /*egress=*/false);

  RequestPtr req = r.req;
  req->matched_tag = msg.tag;
  req->bytes = msg.len;
  req->peer_pe = msg.src_pe;
  void* buf = r.buf;
  // Capture the payload fields individually instead of the whole Incoming:
  // the completion then fits Engine::Callback's inline buffer.
  engine.schedule(t, [this, req = std::move(req), buf, payload = std::move(msg.payload),
                      payload_valid = msg.payload_valid, tag = msg.tag, src_pe = msg.src_pe,
                      len = msg.len]() mutable {
    hw::System& sys = ctx_.system();
    if (payload_valid && !payload.empty() && sys.memory.dereferenceable(buf)) {
      std::memcpy(buf, payload.data(), payload.size());
    }
    // The payload has been consumed: its storage goes back to the eager pool
    // so the steady-state path stops allocating per message.
    ctx_.recycleBuffer(std::move(payload));
    req->state = ReqState::Done;
    sys.trace.record(sys.engine.now(), sim::TraceCat::UcxRecv, pe_, src_pe, len, tag, "eager");
    req->complete();
  });
}

void Worker::startRndvTransfer(PostedRecv r, Incoming msg) {
  assert(msg.len <= r.len && "rendezvous message truncation (recv buffer too small)");
  Context& ctx = ctx_;
  sim::Engine& engine = ctx.system().engine;
  const Context::RndvResult res = ctx.rndvTransfer(msg, pe_, r.buf);

  RequestPtr req = r.req;
  req->matched_tag = msg.tag;
  req->bytes = msg.len;
  req->peer_pe = msg.src_pe;

  if (!res.ok) {
    // A rendezvous leg exhausted its retransmission budget (or a peer died):
    // fail the receive terminally (the sender's failure is already
    // scheduled) instead of leaving the request pending forever.
    const bool peer_dead = ctx.peerKnownDead(res.data_arrival, msg.src_pe) ||
                           ctx.peerKnownDead(res.data_arrival, pe_);
    const int pe = pe_;
    const Tag tag = msg.tag;
    const int src_pe = msg.src_pe;
    const std::uint64_t len = msg.len;
    engine.schedule(res.data_arrival, [&sys = ctx.system(), req, pe, tag, src_pe, len,
                                       peer_dead] {
      req->state = peer_dead ? ReqState::PeerFailed : ReqState::Error;
      sys.trace.record(sys.engine.now(), sim::TraceCat::UcxRecv, pe, src_pe, len, tag,
                       "rndv-failed");
      req->complete();
    });
    return;
  }

  const sim::TimePoint done = res.data_arrival + sim::usec(ctx.config().recv_overhead_us);
  void* buf = r.buf;
  const void* src = msg.src_ptr;
  const std::uint64_t len = msg.len;
  const int pe = pe_;
  const Tag tag = msg.tag;
  const int src_pe = msg.src_pe;
  // `owner` keeps an amSend-owned payload alive until this copy executes;
  // the sender-side ATS completion may already have fired by then.
  engine.schedule(done, [&sys = ctx.system(), req = std::move(req), buf, src, len, pe, tag,
                         src_pe, owner = std::move(msg.payload_owner)] {
    cuda::moveBytes(sys, buf, src, len);
    req->state = ReqState::Done;
    sys.trace.record(sys.engine.now(), sim::TraceCat::UcxRecv, pe, src_pe, len, tag, "rndv");
    req->complete();
  });
}

void Worker::deliverToHandler(HandlerFn& fn, Incoming msg) {
  Context& ctx = ctx_;
  sim::Engine& engine = ctx.system().engine;
  if (!msg.is_rndv) {
    const sim::TimePoint t = engine.now() + sim::usec(ctx.config().recv_overhead_us);
    Delivery d;
    d.payload = std::move(msg.payload);
    d.payload_valid = msg.payload_valid;
    d.tag = msg.tag;
    d.src_pe = msg.src_pe;
    d.len = msg.len;
    HandlerFn* fp = &fn;  // handlers_ entries are stable for the worker's life
    engine.schedule(t, [fp, d = std::move(d)]() mutable { (*fp)(std::move(d)); });
    return;
  }
  // Rendezvous into a handler: the payload is copied once, into the
  // Delivery's own host buffer, when the data has arrived. rndvTransfer only
  // classifies the destination, and nullptr classifies as host memory too.
  // An amSend payload copies only the bytes its vector holds; `len` also
  // counts its unbacked bytes.
  const bool src_deref = ctx.system().memory.dereferenceable(msg.src_ptr);
  const Tag tag = msg.tag;
  const int src_pe = msg.src_pe;
  const std::uint64_t len = msg.len;
  const auto* src = static_cast<const std::byte*>(msg.src_ptr);
  const Context::RndvResult res = ctx.rndvTransfer(msg, pe_, /*dst_buf=*/nullptr);
  if (!res.ok) return;  // transfer failed permanently; the sender saw Error
  const sim::TimePoint done = res.data_arrival + sim::usec(ctx.config().recv_overhead_us);
  HandlerFn* fp = &fn;
  engine.schedule(done, [fp, src_deref, src, len, tag, src_pe,
                         owner = std::move(msg.payload_owner)] {
    Delivery d;
    if (owner) {
      d.payload = *owner;
    } else if (src_deref) {
      d.payload.assign(src, src + len);
    }
    d.payload_valid = src_deref;
    d.tag = tag;
    d.src_pe = src_pe;
    d.len = len;
    (*fp)(std::move(d));
  });
}

}  // namespace cux::ucx
