#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <vector>

#include "charm/charm.hpp"
#include "model/model.hpp"
#include "sim/rng.hpp"
#include "ucx/context.hpp"

/// The host message path of Charm++ entry methods: a message is sized once,
/// packed behind room for the Converse header, and copied again only where
/// a layer needs its own bytes (a rendezvous delivery, an unpacked vector).

// --------------------------------------------------------------------------
// Global allocation counter (same technique as test_obs.cpp): the tests
// sample it around one send and its delivery.
// --------------------------------------------------------------------------

static std::uint64_t g_heap_allocs = 0;
static std::uint64_t g_heap_bytes = 0;

void* operator new(std::size_t n) {
  ++g_heap_allocs;
  g_heap_bytes += n;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  ++g_heap_allocs;
  g_heap_bytes += n;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace cux;

struct Heap {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};

struct CharmFixture {
  CharmFixture() : m(model::summit(2)) {
    sys = std::make_unique<hw::System>(m.machine);
    ctx = std::make_unique<ucx::Context>(*sys, m.ucx);
    rt = std::make_unique<ck::Runtime>(*sys, *ctx, m);
  }
  model::Model m;
  std::unique_ptr<hw::System> sys;
  std::unique_ptr<ucx::Context> ctx;
  std::unique_ptr<ck::Runtime> rt;
};

struct Receiver : ck::Chare {
  void post(std::span<ck::Buffer> bufs) { bufs[0].setDestination(dst, cap); }
  void recvBuf(ck::Buffer, std::uint64_t n) {
    ++calls;
    got_n = n;
  }
  // The shape of AMPI's inline message: a byte vector between small args.
  void recvVec(std::uint32_t src, std::vector<std::byte> data, std::uint8_t valid,
               std::uint64_t span) {
    ++calls;
    got_n = src + valid + span;
    got = std::move(data);
  }

  void* dst = nullptr;
  std::uint64_t cap = 0;
  int calls = 0;
  std::uint64_t got_n = 0;
  std::vector<std::byte> got;
};

struct Registrar {
  Registrar() { ck::setPostEntry<&Receiver::recvBuf, &Receiver::post>(); }
};

/// Heap use of one send from PE 0 to PE 7 and its delivery. A first send
/// of the same shape warms the engine's slot pool and the UCX pools.
template <class Send>
Heap measureSecondSend(CharmFixture& f, Send send) {
  f.rt->startOn(0, send);
  f.sys->engine.run();
  const Heap before{g_heap_allocs, g_heap_bytes};
  f.rt->startOn(0, send);
  f.sys->engine.run();
  return {g_heap_allocs - before.allocs, g_heap_bytes - before.bytes};
}

class PackedHostSend : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PackedHostSend, BufferIsCopiedOnceIntoOneAllocation) {
  Registrar reg;
  CharmFixture f;
  const std::size_t n = GetParam();
  ASSERT_LT(n, f.m.costs.host_pack_threshold) << "the buffer must be packed";
  std::vector<std::byte> src(n), dst(n);
  sim::SplitMix64 rng(21);
  rng.fill(src.data(), n);
  auto proxy = f.rt->create<Receiver>(7);
  proxy.local()->dst = dst.data();
  proxy.local()->cap = n;

  const Heap h = measureSecondSend(f, [&] {
    proxy.send<&Receiver::recvBuf>(ck::Buffer(src.data(), n), std::uint64_t{n});
  });
  EXPECT_EQ(proxy.local()->calls, 2);
  EXPECT_EQ(proxy.local()->got_n, n);
  EXPECT_EQ(src, dst);
  // One message allocation, plus for a rendezvous-sized message the
  // receiver's delivered copy; the rest is small bookkeeping.
  const std::uint64_t copies = n > f.m.ucx.host_eager_threshold ? 2 : 1;
  EXPECT_LE(h.bytes, copies * n + 2048) << h.allocs << " allocations";
  EXPECT_LE(h.allocs, 12u);
}

TEST_P(PackedHostSend, ByteVectorIsPackedOnceAndUnpackedOnce) {
  CharmFixture f;
  const std::size_t n = GetParam();
  std::vector<std::byte> payload(n);
  sim::SplitMix64 rng(22);
  rng.fill(payload.data(), n);
  auto proxy = f.rt->create<Receiver>(7);

  const Heap h = measureSecondSend(f, [&] {
    proxy.send<&Receiver::recvVec>(std::uint32_t{3}, payload, std::uint8_t{1}, std::uint64_t{5});
  });
  EXPECT_EQ(proxy.local()->calls, 2);
  EXPECT_EQ(proxy.local()->got_n, 9u);
  EXPECT_EQ(proxy.local()->got, payload);
  // The packed message, the unpacked vector, and for a rendezvous-sized
  // message the receiver's delivered copy.
  const std::uint64_t copies = n > f.m.ucx.host_eager_threshold ? 3 : 2;
  EXPECT_LE(h.bytes, copies * n + 2048) << h.allocs << " allocations";
  EXPECT_LE(h.allocs, 12u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PackedHostSend, ::testing::Values(4096, 65536),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           return std::to_string(i.param / 1024) + "KiB";
                         });

// --------------------------------------------------------------------------
// Converse wire bytes: handler at offset 0, source PE at 4, payload at 8.
// --------------------------------------------------------------------------

class ConverseWire : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ConverseWire, HeaderIsWrittenIntoTheReservedRoom) {
  model::Model m = model::summit(1);
  hw::System sys(m.machine);
  ucx::Context ctx(sys, m.ucx);
  cmi::Converse cmi(sys, ctx, m.costs);
  const std::size_t n = GetParam();
  std::vector<std::byte> payload(n);
  sim::SplitMix64 rng(23);
  rng.fill(payload.data(), n);

  (void)cmi.registerHandler([](cmi::Message) { FAIL() << "wrong handler"; });
  std::vector<std::byte> wire;
  int src_pe = -1;
  const int h = cmi.registerHandler([&](cmi::Message msg) {
    src_pe = msg.src_pe;
    wire = std::move(msg.raw);
  });
  ck::Packer p(cmi::Message::kHeaderBytes, cmi::Message::kHeaderBytes + n);
  p.raw(payload.data(), n);
  cmi.runOn(2, [&] { cmi.send(2, 5, h, p.take()); });
  sys.engine.run();

  ASSERT_EQ(wire.size(), cmi::Message::kHeaderBytes + n);
  std::uint32_t handler = 0;
  std::uint32_t source = 0;
  std::memcpy(&handler, wire.data(), 4);
  std::memcpy(&source, wire.data() + 4, 4);
  EXPECT_EQ(handler, 1u);
  EXPECT_EQ(source, 2u);
  EXPECT_EQ(src_pe, 2);
  EXPECT_EQ(std::memcmp(wire.data() + cmi::Message::kHeaderBytes, payload.data(), n), 0);
  sys.obs.refresh();
  EXPECT_EQ(sys.obs.registry.gaugeValue("ucx.bytes_sent"), cmi::Message::kHeaderBytes + n);
}

INSTANTIATE_TEST_SUITE_P(EagerAndRendezvous, ConverseWire, ::testing::Values(16, 65536),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           return std::to_string(i.param) + "B";
                         });

}  // namespace
