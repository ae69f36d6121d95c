#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <new>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "ampi/ampi.hpp"
#include "charm/charm.hpp"
#include "charm4py/charm4py.hpp"
#include "model/model.hpp"
#include "sim/rng.hpp"
#include "ucx/context.hpp"

/// The host message path of Charm++ entry methods: a message is sized once,
/// packed behind room for the Converse header, and copied again only where
/// a layer needs its own bytes (a rendezvous delivery, an unpacked vector).
/// An unbacked inline payload travels as its length only, on Charm++, AMPI
/// and Charm4py alike.

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
    done_at.push_back(ckRuntime().system().engine.now());
  }
  // A byte vector between small args.
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
  std::vector<sim::TimePoint> done_at;
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

// --------------------------------------------------------------------------
// Unbacked inline payloads: Charm++ packed buffers, AMPI and Charm4py eager
// messages carry the length of an unbacked source and none of its bytes.
// --------------------------------------------------------------------------

enum class InlineStack { Charm, Ampi, Charm4py };
const char* const kInlineStackNames[] = {"Charm", "Ampi", "Charm4py"};

struct InlineCase {
  InlineStack stack;
  std::size_t bytes;
};

void PrintTo(const InlineCase& c, std::ostream* os) {
  *os << kInlineStackNames[static_cast<int>(c.stack)] << " " << c.bytes << " B";
}

struct InlineRun {
  Heap heap;                          ///< the whole run, set-up included
  std::vector<sim::TimePoint> done;   ///< when each receive completed
  std::vector<std::byte> dst;         ///< the destination afterwards
};

sim::FutureTask c4pSend(c4p::ChannelEnd* end, const void* buf, std::size_t n, int sends) {
  for (int i = 0; i < sends; ++i) co_await end->send(buf, n);
}
sim::FutureTask c4pRecv(c4p::ChannelEnd* end, void* buf, std::size_t n, int sends,
                        std::vector<sim::TimePoint>* done, hw::System* sys) {
  for (int i = 0; i < sends; ++i) {
    co_await end->recv(buf, n);
    done->push_back(sys->engine.now());
  }
}

/// `sends` messages of `n` bytes from PE 0 to PE 7 (the next node) into a
/// backed destination that starts out holding its own pattern. The source
/// is unbacked host memory, or a backed pattern.
InlineRun runInline(InlineCase c, bool backed_src, int sends) {
  InlineRun out;
  const std::size_t n = c.bytes;
  std::vector<std::byte> src(backed_src ? n : 0);
  sim::SplitMix64(31).fill(src.data(), src.size());
  std::vector<std::byte> dst(n);
  sim::SplitMix64(32).fill(dst.data(), n);
  const Heap before{g_heap_allocs, g_heap_bytes};
  {
    CharmFixture f;
    const void* from = backed_src ? src.data() : f.sys->memory.allocHostUnbacked(n);
    switch (c.stack) {
      case InlineStack::Charm: {
        Registrar reg;
        auto proxy = f.rt->create<Receiver>(7);
        proxy.local()->dst = dst.data();
        proxy.local()->cap = n;
        f.rt->startOn(0, [&] {
          for (int i = 0; i < sends; ++i) {
            proxy.send<&Receiver::recvBuf>(ck::Buffer(from, n), std::uint64_t{n});
          }
        });
        f.sys->engine.run();
        out.done = proxy.local()->done_at;
        break;
      }
      case InlineStack::Ampi: {
        ampi::World world(*f.rt, 8);
        world.run([&](ampi::Rank& r) -> sim::FutureTask {
          for (int i = 0; i < sends; ++i) {
            if (r.rank() == 0) co_await r.send(from, n, 7, i);
            if (r.rank() == 7) {
              co_await r.recv(dst.data(), n, 0, i);
              out.done.push_back(f.sys->engine.now());
            }
          }
        });
        f.sys->engine.run();
        break;
      }
      case InlineStack::Charm4py: {
        c4p::Charm4py py(*f.rt);
        auto ch = py.makeChannel(0, 7);
        py.startOn(0, [&] { (void)c4pSend(ch.a, from, n, sends); });
        py.startOn(7, [&] { (void)c4pRecv(ch.b, dst.data(), n, sends, &out.done, f.sys.get()); });
        f.sys->engine.run();
        break;
      }
    }
  }
  out.heap = {g_heap_allocs - before.allocs, g_heap_bytes - before.bytes};
  out.dst = std::move(dst);
  return out;
}

class UnbackedInline : public ::testing::TestWithParam<InlineCase> {};

TEST_P(UnbackedInline, TravelsAsItsLengthAndLeavesTheDestination) {
  const InlineCase c = GetParam();
  ASSERT_LT(c.bytes, model::summit(2).costs.host_pack_threshold) << "the payload must be inline";
  (void)runInline(c, /*backed_src=*/false, 1);  // registers entry methods, warms static pools
  const InlineRun one = runInline(c, false, 1);
  const InlineRun two = runInline(c, false, 2);
  const InlineRun backed = runInline(c, true, 2);
  ASSERT_EQ(two.done.size(), 2u);

  // A backed destination keeps its bytes: nothing is copied from an
  // unbacked source (the UCX payload_valid rule).
  std::vector<std::byte> pattern(c.bytes);
  sim::SplitMix64(32).fill(pattern.data(), c.bytes);
  EXPECT_EQ(two.dst, pattern);
  std::vector<std::byte> src(c.bytes);
  sim::SplitMix64(31).fill(src.data(), c.bytes);
  EXPECT_EQ(backed.dst, src);

  // The second send adds no block of the payload's size anywhere.
  EXPECT_LT(two.heap.bytes - one.heap.bytes, 2048u)
      << two.heap.allocs - one.heap.allocs << " allocations";

  // Virtual time is that of the backed send of the same size.
  EXPECT_EQ(two.done, backed.done);
}

INSTANTIATE_TEST_SUITE_P(
    Stacks, UnbackedInline,
    ::testing::Values(InlineCase{InlineStack::Charm, 4096}, InlineCase{InlineStack::Charm, 65536},
                      InlineCase{InlineStack::Ampi, 4096}, InlineCase{InlineStack::Ampi, 65536},
                      InlineCase{InlineStack::Charm4py, 4096},
                      InlineCase{InlineStack::Charm4py, 65536}),
    [](const ::testing::TestParamInfo<InlineCase>& i) {
      return std::string(kInlineStackNames[static_cast<int>(i.param.stack)]) + "_" +
             std::to_string(i.param.bytes / 1024) + "KiB";
    });

}  // namespace
