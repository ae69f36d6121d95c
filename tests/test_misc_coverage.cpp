#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "charm/charm.hpp"
#include "hw/cuda.hpp"
#include "model/model.hpp"
#include "sim/rng.hpp"
#include "ucx/rma.hpp"

namespace {

using namespace cux;

struct Fix {
  explicit Fix(int nodes = 1) : m(model::summit(nodes)) {
    sys = std::make_unique<hw::System>(m.machine);
    ctx = std::make_unique<ucx::Context>(*sys, m.ucx);
    rt = std::make_unique<ck::Runtime>(*sys, *ctx, m);
  }
  model::Model m;
  std::unique_ptr<hw::System> sys;
  std::unique_ptr<ucx::Context> ctx;
  std::unique_ptr<ck::Runtime> rt;
};

// --------------------------------------------------------------------------
// Entry-method argument matrix
// --------------------------------------------------------------------------

struct ArgChare : ck::Chare {
  void noArgs() { ++no_args; }
  void manyScalars(std::uint8_t a, std::int16_t b, std::uint32_t c, std::int64_t d, float e,
                   double f, bool g) {
    scalar_sum = a + b + static_cast<double>(c) + static_cast<double>(d) + e + f + (g ? 1 : 0);
  }
  void mixed(std::string s, std::vector<double> v, int tail) {
    got_s = std::move(s);
    got_v = std::move(v);
    got_tail = tail;
  }
  void bufferSandwich(std::string before, ck::Buffer buf, std::string after) {
    got_s = before + "|" + after;
    got_buf_size = buf.size();
  }
  void sandwichPost(std::span<ck::Buffer> bufs) { bufs[0].setDestination(dst, cap); }

  int no_args = 0;
  double scalar_sum = 0;
  std::string got_s;
  std::vector<double> got_v;
  int got_tail = 0;
  std::uint64_t got_buf_size = 0;
  void* dst = nullptr;
  std::uint64_t cap = 0;
};

TEST(CharmEntryMatrix, NoArgumentEntry) {
  Fix f;
  auto p = f.rt->create<ArgChare>(1);
  f.rt->startOn(0, [&] { p.send<&ArgChare::noArgs>(); });
  f.sys->engine.run();
  EXPECT_EQ(p.local()->no_args, 1);
}

TEST(CharmEntryMatrix, SevenScalarTypes) {
  Fix f;
  auto p = f.rt->create<ArgChare>(2);
  f.rt->startOn(0, [&] {
    p.send<&ArgChare::manyScalars>(std::uint8_t{200}, std::int16_t{-300}, 70000u,
                                   std::int64_t{-5'000'000'000}, 1.5f, 2.25, true);
  });
  f.sys->engine.run();
  EXPECT_DOUBLE_EQ(p.local()->scalar_sum,
                   200.0 - 300.0 + 70000.0 - 5'000'000'000.0 + 1.5 + 2.25 + 1.0);
}

TEST(CharmEntryMatrix, StringVectorAndScalar) {
  Fix f;
  auto p = f.rt->create<ArgChare>(3);
  std::vector<double> v{1.0, 2.0, 3.0};
  f.rt->startOn(0, [&] { p.send<&ArgChare::mixed>(std::string("héllo"), v, -9); });
  f.sys->engine.run();
  EXPECT_EQ(p.local()->got_s, "héllo");
  EXPECT_EQ(p.local()->got_v, v);
  EXPECT_EQ(p.local()->got_tail, -9);
}

TEST(CharmEntryMatrix, BufferBetweenHostArgs) {
  ck::setPostEntry<&ArgChare::bufferSandwich, &ArgChare::sandwichPost>();
  Fix f;
  auto p = f.rt->create<ArgChare>(4);
  cuda::DeviceBuffer src(*f.sys, 0, 32768), dst(*f.sys, 4, 32768);
  p.local()->dst = dst.get();
  p.local()->cap = 32768;
  f.rt->startOn(0, [&] {
    p.send<&ArgChare::bufferSandwich>(std::string("pre"), ck::Buffer(src.get(), 32768),
                                      std::string("post"));
  });
  f.sys->engine.run();
  EXPECT_EQ(p.local()->got_s, "pre|post");
  EXPECT_EQ(p.local()->got_buf_size, 32768u);
}

TEST(CharmEntryMatrix, LargeVectorArgumentsRoundTrip) {
  Fix f;
  auto p = f.rt->create<ArgChare>(5);
  std::vector<double> big(20000);
  sim::SplitMix64 rng(1);
  for (auto& x : big) x = rng.uniform();
  f.rt->startOn(0, [&] { p.send<&ArgChare::mixed>(std::string(), big, 1); });
  f.sys->engine.run();
  EXPECT_EQ(p.local()->got_v, big);
}

// --------------------------------------------------------------------------
// RMA stress: many concurrent operations on one window
// --------------------------------------------------------------------------

TEST(RmaStress, ConcurrentPutsToDisjointOffsets) {
  Fix f(2);
  ucx::Rma rma(*f.ctx);
  std::vector<std::byte> window(12 * 256);
  auto rkey = rma.memMap(6, window.data(), window.size());
  std::vector<std::vector<std::byte>> srcs;
  int done = 0;
  for (int pe = 0; pe < 12; ++pe) {
    srcs.emplace_back(256, static_cast<std::byte>(pe + 1));
    rma.put(pe, srcs.back().data(), 256, rkey, static_cast<std::uint64_t>(pe) * 256,
            [&](ucx::Request&) { ++done; });
  }
  f.sys->engine.run();
  EXPECT_EQ(done, 12);
  for (int pe = 0; pe < 12; ++pe) {
    EXPECT_EQ(window[static_cast<std::size_t>(pe) * 256], static_cast<std::byte>(pe + 1));
  }
  EXPECT_EQ(rma.puts(), 12u);
}

TEST(RmaStress, FetchAddBuildsASharedCounterAcrossNodes) {
  Fix f(4);
  ucx::Rma rma(*f.ctx);
  std::uint64_t counter = 0;
  auto rkey = rma.memMap(0, &counter, 8);
  constexpr int kOps = 96;  // 4 ops from each of 24 PEs
  for (int i = 0; i < kOps; ++i) {
    rma.atomicFetchAdd(i % 24, rkey, 0, 1, nullptr);
  }
  f.sys->engine.run();
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(rma.atomics(), static_cast<std::uint64_t>(kOps));
}

// --------------------------------------------------------------------------
// Converse ordering under SMP mode
// --------------------------------------------------------------------------

TEST(SmpOrdering, MessagesBetweenPairStayFifoThroughCommThread) {
  model::Model m = model::summit(1);
  m.costs.smp_comm_thread = true;
  hw::System sys(m.machine);
  ucx::Context ctx(sys, m.ucx);
  cmi::Converse cmi(sys, ctx, m.costs);
  std::vector<int> order;
  const int h = cmi.registerHandler([&](cmi::Message msg) {
    int v = 0;
    std::memcpy(&v, msg.payload().data(), 4);
    order.push_back(v);
  });
  cmi.runOn(0, [&] {
    for (int i = 0; i < 15; ++i) {
      std::vector<std::byte> p(cmi::Message::kHeaderBytes + 4);
      std::memcpy(p.data() + cmi::Message::kHeaderBytes, &i, 4);
      cmi.send(0, 3, h, std::move(p));
    }
  });
  sys.engine.run();
  ASSERT_EQ(order.size(), 15u);
  for (int i = 0; i < 15; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

}  // namespace
