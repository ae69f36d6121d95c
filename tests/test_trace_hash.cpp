#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "converse/converse.hpp"
#include "core/device_comm.hpp"
#include "hw/cuda.hpp"
#include "model/model.hpp"
#include "obs/sink.hpp"
#include "sim/rng.hpp"
#include "ucx/context.hpp"

/// Trace-hash determinism: the engine's contract is that identical
/// configurations produce bit-identical event orderings. These tests pin
/// that down with an order-sensitive hash over the full trace timeline —
/// any reordering of equal-timestamp events (e.g. a broken FIFO tie-break
/// after an engine change) flips the hash.

namespace {

using namespace cux;

TEST(TraceHash, OrderSensitive) {
  sim::Tracer a, b;
  a.enable();
  b.enable();
  a.record(10, sim::TraceCat::UcxSend, 0, 1, 64, 7, "x");
  a.record(10, sim::TraceCat::UcxRecv, 1, 0, 64, 7, "y");
  b.record(10, sim::TraceCat::UcxRecv, 1, 0, 64, 7, "y");
  b.record(10, sim::TraceCat::UcxSend, 0, 1, 64, 7, "x");
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_NE(a.hash(), sim::Tracer{}.hash());
}

/// Span-collector configuration under test: off, or on (windowed
/// aggregation through a sink).
enum class ObsMode { Off, Streaming };

std::uint64_t mixedUcxTrafficHash(const sim::FaultConfig& fault = {},
                                  ucx::MatcherImpl matcher = ucx::MatcherImpl::Bucketed,
                                  ObsMode obs = ObsMode::Off) {
  model::Model m = model::summit(2);
  m.ucx.matcher = matcher;
  m.machine.fault = fault;
  obs::NullSink sink;
  hw::System sys(m.machine);
  sys.trace.enable();
  if (obs == ObsMode::Streaming) sys.obs.spans.enableStreaming({}, &sink);
  ucx::Context ctx(sys, m.ucx);
  sim::SplitMix64 rng(42);

  // Host and device, eager and rendezvous, intra- and inter-node, posted
  // receives and unexpected arrivals, plus owned-payload active messages.
  std::vector<std::vector<std::byte>> host_bufs;
  std::vector<cuda::DeviceBuffer> dev_bufs;
  const std::uint64_t sizes[] = {64, 4096, 16384, 512 * 1024};
  int pair = 0;
  for (std::uint64_t size : sizes) {
    for (int dst_pe : {1, 6}) {  // same node / other node
      const auto tag = static_cast<ucx::Tag>(0x100 + pair++);
      host_bufs.emplace_back(size);
      host_bufs.emplace_back(size);
      auto& src = host_bufs[host_bufs.size() - 2];
      auto& dst = host_bufs.back();
      rng.fill(src.data(), src.size());
      if (rng.below(2) == 0) {  // half posted-first, half unexpected
        ctx.worker(dst_pe).tagRecv(dst.data(), size, tag, ucx::kFullMask, {});
        ctx.tagSend(0, dst_pe, src.data(), size, tag, {});
      } else {
        ctx.tagSend(0, dst_pe, src.data(), size, tag, {});
        ctx.worker(dst_pe).tagRecv(dst.data(), size, tag, ucx::kFullMask, {});
      }
      dev_bufs.emplace_back(sys, 0, size);
      dev_bufs.emplace_back(sys, dst_pe, size);
      auto& dsrc = dev_bufs[dev_bufs.size() - 2];
      auto& ddst = dev_bufs.back();
      const auto dtag = static_cast<ucx::Tag>(0x200 + pair);
      ctx.worker(dst_pe).tagRecv(ddst.get(), size, dtag, ucx::kFullMask, {});
      ctx.tagSend(0, dst_pe, dsrc.get(), size, dtag, {});
    }
  }
  ctx.worker(7).setHandler(0x9, ucx::kFullMask, [](ucx::Delivery) {});
  for (std::uint64_t size : {256u, 65536u}) {
    std::vector<std::byte> payload(size);
    rng.fill(payload.data(), payload.size());
    ctx.amSend(2, 7, 0x9, std::move(payload), {});
  }
  sys.engine.run();
  return sys.trace.hash();
}

TEST(TraceHash, MixedUcxTrafficBitIdenticalAcrossRuns) {
  const auto h1 = mixedUcxTrafficHash();
  const auto h2 = mixedUcxTrafficHash();
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, sim::Tracer{}.hash());  // the workload actually traced something
}

std::uint64_t deviceCommHash(bool smp, const sim::FaultConfig& fault = {},
                             ucx::MatcherImpl matcher = ucx::MatcherImpl::Bucketed,
                             ObsMode obs = ObsMode::Off) {
  model::Model m = model::summit(2);
  m.ucx.matcher = matcher;
  m.costs.smp_comm_thread = smp;
  m.machine.fault = fault;
  obs::NullSink sink;
  hw::System sys(m.machine);
  sys.trace.enable();
  if (obs == ObsMode::Streaming) sys.obs.spans.enableStreaming({}, &sink);
  ucx::Context ctx(sys, m.ucx);
  cmi::Converse cmi(sys, ctx, m.costs);
  core::DeviceComm dev(cmi);
  std::vector<std::unique_ptr<cuda::DeviceBuffer>> bufs;
  for (int i = 0; i < 8; ++i) {
    bufs.push_back(std::make_unique<cuda::DeviceBuffer>(sys, 0, 8192));
    bufs.push_back(std::make_unique<cuda::DeviceBuffer>(sys, 6, 8192));
    auto* src = bufs[bufs.size() - 2].get();
    auto* dst = bufs.back().get();
    cmi.runOn(0, [&dev, &cmi, src, dst, i] {
      core::CmiDeviceBuffer buf{src->get(), 8192, 0};
      dev.lrtsSendDevice(0, 6, buf);
      const auto device_tag = buf.tag;
      if (i % 2 == 0) {
        core::CmiDeviceBuffer ubuf{src->get(), 8192, 0};
        dev.lrtsSendDeviceUserTag(0, 6, ubuf, static_cast<std::uint64_t>(i));
        dev.lrtsRecvDeviceUserTag(6, dst->get(), 8192, static_cast<std::uint64_t>(i),
                                  core::DeviceRecvType::Raw, {});
      }
      cmi.runOn(6, [&dev, dst, device_tag] {
        dev.lrtsRecvDevice(6, core::DeviceRdmaOp{dst->get(), 8192, device_tag},
                           core::DeviceRecvType::Raw, {});
      });
    });
  }
  sys.engine.run();
  return sys.trace.hash();
}

TEST(TraceHash, DeviceCommBitIdenticalAcrossRuns) {
  EXPECT_EQ(deviceCommHash(false), deviceCommHash(false));
  EXPECT_EQ(deviceCommHash(true), deviceCommHash(true));
  // SMP routing really changes the timeline (comm-thread serialisation).
  EXPECT_NE(deviceCommHash(false), deviceCommHash(true));
}

// The bucketed matcher's contract: on fault-free traces it is bit-identical
// to the reference linear matcher — same matches, same timestamps, same
// event order — for the full protocol mix (eager/rendezvous, host/device,
// posted/unexpected, active messages) and for the machine-layer device path.
TEST(TraceHash, BucketedMatcherBitIdenticalToLinearReference) {
  EXPECT_EQ(mixedUcxTrafficHash({}, ucx::MatcherImpl::Bucketed),
            mixedUcxTrafficHash({}, ucx::MatcherImpl::Linear));
  EXPECT_EQ(deviceCommHash(false, {}, ucx::MatcherImpl::Bucketed),
            deviceCommHash(false, {}, ucx::MatcherImpl::Linear));
  EXPECT_EQ(deviceCommHash(true, {}, ucx::MatcherImpl::Bucketed),
            deviceCommHash(true, {}, ucx::MatcherImpl::Linear));
}

// The determinism contract of the fault injector: while DISABLED it must be
// invisible — no random numbers consumed, no reliability branches taken, no
// sequence numbers assigned — so the trace hash is bit-identical to a
// configuration that never mentions faults at all. This holds even when drop
// probabilities and outage windows are configured but enabled == false.
TEST(TraceHash, DisabledInjectorIsBitIdenticalToNoInjector) {
  sim::FaultConfig configured_but_off;
  configured_but_off.enabled = false;
  configured_but_off.seed = 0xDEAD;
  configured_but_off.setAllClasses(sim::FaultPolicy{0.5, 25.0});
  configured_but_off.down_windows.push_back(sim::LinkDownWindow{0, sim::msec(1.0), -1, -1});

  EXPECT_EQ(mixedUcxTrafficHash(), mixedUcxTrafficHash(configured_but_off));
  EXPECT_EQ(deviceCommHash(false), deviceCommHash(false, configured_but_off));
  EXPECT_EQ(deviceCommHash(true), deviceCommHash(true, configured_but_off));
}

// The observability contract (mirroring the injector's): span collection
// writes only to its own buffers — windowed aggregation and sink fan-out
// happen at retirement, on the observer's side of the fence. It never
// touches sim::Tracer, schedules engine events, or consumes randomness, so
// enabling it leaves the trace hash bit-identical. This must hold on the
// clean timeline AND on a faulty one, where the Retry/Fallback/Errored span
// phases fire too.
TEST(TraceHash, StreamingObservabilityIsTraceInvisible) {
  EXPECT_EQ(mixedUcxTrafficHash({}, ucx::MatcherImpl::Bucketed, ObsMode::Off),
            mixedUcxTrafficHash({}, ucx::MatcherImpl::Bucketed, ObsMode::Streaming));
  EXPECT_EQ(deviceCommHash(false, {}, ucx::MatcherImpl::Bucketed, ObsMode::Off),
            deviceCommHash(false, {}, ucx::MatcherImpl::Bucketed, ObsMode::Streaming));
  EXPECT_EQ(deviceCommHash(true, {}, ucx::MatcherImpl::Bucketed, ObsMode::Off),
            deviceCommHash(true, {}, ucx::MatcherImpl::Bucketed, ObsMode::Streaming));
  const auto loss = sim::FaultConfig::uniformLoss(0.1, 3);
  EXPECT_EQ(mixedUcxTrafficHash(loss, ucx::MatcherImpl::Bucketed, ObsMode::Off),
            mixedUcxTrafficHash(loss, ucx::MatcherImpl::Bucketed, ObsMode::Streaming));
  EXPECT_EQ(deviceCommHash(false, loss, ucx::MatcherImpl::Bucketed, ObsMode::Off),
            deviceCommHash(false, loss, ucx::MatcherImpl::Bucketed, ObsMode::Streaming));
}

// Enabled faults are themselves deterministic: a fixed seed reproduces the
// exact loss/retry/duplicate timeline; a different seed produces a
// different one (at 10% drop over this much traffic, collision of the two
// full timelines is implausible).
TEST(TraceHash, EnabledInjectorIsSeedDeterministic) {
  const auto faulty = [](std::uint64_t seed) {
    return mixedUcxTrafficHash(sim::FaultConfig::uniformLoss(0.1, seed));
  };
  EXPECT_EQ(faulty(1), faulty(1));
  EXPECT_NE(faulty(1), faulty(2));
  // ...and injecting faults really does alter the timeline.
  EXPECT_NE(faulty(1), mixedUcxTrafficHash());
}

}  // namespace
