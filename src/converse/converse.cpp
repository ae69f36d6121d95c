#include "converse/converse.hpp"

#include <cassert>
#include <cstring>

namespace cux::cmi {

Converse::Converse(hw::System& sys, ucx::Context& ucx, const model::LayerCosts& costs,
                   core::TagScheme tags)
    : sys_(sys), ucx_(ucx), costs_(costs), tags_(tags) {
  assert(tags_.valid() && "tag scheme bit widths must sum to 64");
  const int pes = sys.config.numPes();
  if (costs_.smp_comm_thread) {
    for (int n = 0; n < sys.config.num_nodes; ++n) {
      comm_threads_.push_back(std::make_unique<Pe>(sys.engine, -1 - n));
    }
  }
  pes_.reserve(static_cast<std::size_t>(pes));
  for (int i = 0; i < pes; ++i) {
    pes_.push_back(std::make_unique<Pe>(sys.engine, i));
    Pe& pe = *pes_.back();
    pe.run_hook = [this](int id, PeFn& fn) {
      const int prev = current_pe_;
      current_pe_ = id;
      fn();
      current_pe_ = prev;
    };
    // Persistent wildcard receive for host-side messages, standing in for
    // the machine layer's pre-posted receives.
    ucx_.worker(i).setHandler(tags_.make(core::MsgType::Host, 0, 0), tags_.typeMask(),
                              [this, i](ucx::Delivery d) { onHostMessage(i, std::move(d)); });
  }
}

int Converse::registerHandler(HandlerFn fn) {
  handlers_.push_back(std::move(fn));
  return static_cast<int>(handlers_.size()) - 1;
}

void Converse::send(int src_pe, int dst_pe, int handler, std::vector<std::byte> raw,
                    std::uint64_t unbacked) {
  assert(handler >= 0 && handler < static_cast<int>(handlers_.size()));
  assert(raw.size() >= Message::kHeaderBytes && "send() needs room for the header");
  const auto h32 = static_cast<std::uint32_t>(handler);
  const auto s32 = static_cast<std::uint32_t>(src_pe);
  std::memcpy(raw.data(), &h32, 4);
  std::memcpy(raw.data() + 4, &s32, 4);

  // The send call occupies the sending PE; the message is injected into UCX
  // once the PE's preceding software work (including this call's cost) has
  // retired, so back-to-back sends stagger realistically.
  Pe& src = pe(src_pe);
  sys_.trace.record(sys_.engine.now(), sim::TraceCat::CmiSend, src_pe, dst_pe,
                    raw.size() + unbacked, static_cast<std::uint64_t>(handler), "");
  src.charge(sim::usec(costs_.cmi_send_us));
  const ucx::Tag tag =
      tags_.make(core::MsgType::Host, static_cast<std::uint64_t>(src_pe), 0);
  inject(src_pe, [this, src_pe, dst_pe, tag, unbacked, raw = std::move(raw)]() mutable {
    ucx_.amSend(src_pe, dst_pe, tag, std::move(raw), {}, unbacked);
  });
}

void Converse::inject(int src_pe, PeFn fn) {
  Pe& src = pe(src_pe);
  if (!costs_.smp_comm_thread) {
    sys_.engine.schedule(src.busyUntil(), std::move(fn));
    return;
  }
  // SMP build: hand the operation to the node's comm thread once the worker
  // PE's software retires; the comm thread serialises all of the node's
  // network traffic.
  Pe& ct = *comm_threads_[static_cast<std::size_t>(sys_.machine.nodeOfPe(src_pe))];
  sys_.engine.schedule(src.busyUntil(), [&ct, fn = std::move(fn), this]() mutable {
    ct.exec(sim::usec(costs_.comm_thread_us), std::move(fn));
  });
}

void Converse::runOn(int pe_id, PeFn fn, sim::Duration overhead) {
  pe(pe_id).exec(overhead, std::move(fn));
}

void Converse::onHostMessage(int dst_pe, ucx::Delivery d) {
  Message msg;
  msg.raw = std::move(d.payload);
  if (msg.raw.size() < Message::kHeaderBytes) return;  // malformed; drop
  std::uint32_t handler = 0;
  std::uint32_t src = 0;
  std::memcpy(&handler, msg.raw.data(), 4);
  std::memcpy(&src, msg.raw.data() + 4, 4);
  msg.src_pe = static_cast<int>(src);
  assert(handler < handlers_.size());
  sys_.trace.record(sys_.engine.now(), sim::TraceCat::CmiSched, dst_pe, msg.src_pe, d.len,
                    handler, "");
  HandlerFn& fn = handlers_[handler];
  if (costs_.smp_comm_thread) {
    // SMP build: the node's comm thread picks messages off the network and
    // forwards them to the worker PE's queue.
    Pe& ct = *comm_threads_[static_cast<std::size_t>(sys_.machine.nodeOfPe(dst_pe))];
    ct.exec(sim::usec(costs_.comm_thread_us),
            [this, dst_pe, &fn, msg = std::move(msg)]() mutable {
              pe(dst_pe).exec(sim::usec(costs_.cmi_sched_us),
                              [&fn, msg = std::move(msg)]() mutable { fn(std::move(msg)); });
            });
    return;
  }
  pe(dst_pe).exec(sim::usec(costs_.cmi_sched_us),
                  [&fn, msg = std::move(msg)]() mutable { fn(std::move(msg)); });
}

}  // namespace cux::cmi
