#include <cstdio>
#include <cstring>
#include <memory>

#include "converse/converse.hpp"
#include "core/device_comm.hpp"
#include "hw/cuda.hpp"
#include "model/model.hpp"
#include "ucx/am.hpp"
#include "ucx/context.hpp"

/// Extension bench: the two improvements the paper's conclusion proposes
/// (Sec. VI), implemented and measured against the baseline design:
///
///  1. baseline  — the paper's mechanism: GPU payload under a machine
///     generated tag, metadata through a Converse message, receive posted
///     only after the metadata arrives ("a noticeable limitation ... the
///     delay in posting the receive");
///  2. user-tag  — both sides derive the tag from an application value, so
///     the receive is pre-posted before the send even starts;
///  3. active msg — GPU-capable UCX active messages: the receiver-side
///     allocator supplies the destination buffer at match time.
///
/// One-way completion time of a single inter-node device transfer.

using namespace cux;

namespace {

struct Setup {
  Setup() : m(model::summit(2)) {
    m.machine.backed_device_memory = false;
    sys = std::make_unique<hw::System>(m.machine);
    ctx = std::make_unique<ucx::Context>(*sys, m.ucx);
    cmi = std::make_unique<cmi::Converse>(*sys, *ctx, m.costs);
    dev = std::make_unique<core::DeviceComm>(*cmi);
  }
  model::Model m;
  std::unique_ptr<hw::System> sys;
  std::unique_ptr<ucx::Context> ctx;
  std::unique_ptr<cmi::Converse> cmi;
  std::unique_ptr<core::DeviceComm> dev;
};

constexpr int kSrc = 0, kDst = 6;

double baseline(std::size_t n) {
  Setup s;
  cuda::DeviceBuffer a(*s.sys, kSrc, n), b(*s.sys, kDst, n);
  sim::TimePoint done = 0;
  // Metadata handler: posts the receive only when the metadata message
  // arrives (paper Sec. III flow).
  const int h = s.cmi->registerHandler([&](cmi::Message msg) {
    std::uint64_t tag = 0;
    std::memcpy(&tag, msg.payload().data(), 8);
    s.dev->lrtsRecvDevice(kDst, core::DeviceRdmaOp{b.get(), n, tag},
                          core::DeviceRecvType::Charm, [&] { done = s.sys->engine.now(); });
  });
  s.cmi->runOn(kSrc, [&] {
    core::CmiDeviceBuffer buf{a.get(), n, 0};
    s.dev->lrtsSendDevice(kSrc, kDst, buf);
    std::vector<std::byte> meta(cmi::Message::kHeaderBytes + 8);
    std::memcpy(meta.data() + cmi::Message::kHeaderBytes, &buf.tag, 8);
    s.cmi->send(kSrc, kDst, h, std::move(meta));
  });
  s.sys->engine.run();
  return sim::toUs(done);
}

double userTag(std::size_t n) {
  Setup s;
  cuda::DeviceBuffer a(*s.sys, kSrc, n), b(*s.sys, kDst, n);
  sim::TimePoint done = 0;
  constexpr std::uint64_t kTag = 0xC0FFEE;
  // Receive pre-posted before the sender moves: no metadata message at all.
  s.cmi->runOn(kDst, [&] {
    s.dev->lrtsRecvDeviceUserTag(kDst, b.get(), n, kTag, core::DeviceRecvType::Charm,
                                 [&] { done = s.sys->engine.now(); });
  });
  s.cmi->runOn(kSrc, [&] {
    core::CmiDeviceBuffer buf{a.get(), n, 0};
    s.dev->lrtsSendDeviceUserTag(kSrc, kDst, buf, kTag);
  });
  s.sys->engine.run();
  return sim::toUs(done);
}

double activeMessage(std::size_t n) {
  Setup s;
  ucx::ActiveMessages am(*s.ctx);
  cuda::DeviceBuffer a(*s.sys, kSrc, n), b(*s.sys, kDst, n);
  sim::TimePoint done = 0;
  am.registerAm(kDst, /*id=*/1, [&](std::uint64_t, int) { return b.get(); },
                [&](void*, std::uint64_t, int) { done = s.sys->engine.now(); });
  s.cmi->runOn(kSrc, [&] { am.amSend(kSrc, kDst, 1, a.get(), n); });
  s.sys->engine.run();
  return sim::toUs(done);
}

}  // namespace

int main() {
  std::printf("# Extension: the paper's Sec. VI proposals, implemented\n");
  std::printf("# one-way inter-node device transfer completion (us)\n\n");
  std::printf("%-10s %12s %12s %12s %14s\n", "size", "baseline", "user-tag", "active-msg",
              "best saving");
  for (std::size_t n : {8u, 4096u, 65536u, 1u << 20, 4u << 20}) {
    const double base = baseline(n);
    const double ut = userTag(n);
    const double amv = activeMessage(n);
    std::printf("%-10zu %12.2f %12.2f %12.2f %13.1f%%\n", n, base, ut, amv,
                100.0 * (base - std::min(ut, amv)) / base);
  }
  std::printf(
      "\nBoth proposals remove the metadata round trip and the delayed receive\n"
      "post; the gain is a fixed few microseconds, so it matters most for small\n"
      "and mid-sized messages — exactly the regime the paper highlights.\n");
  return 0;
}
