#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "apps/osu/osu.hpp"
#include "charm/pup.hpp"
#include "converse/pe.hpp"
#include "sim/engine.hpp"

namespace {

using namespace cux;

// --------------------------------------------------------------------------
// PUP-lite serialisation
// --------------------------------------------------------------------------

TEST(Pup, TrivialTypesRoundTrip) {
  ck::Packer p;
  p.pack(42);
  p.pack(3.25);
  p.pack(static_cast<std::uint8_t>(7));
  struct POD {
    int a;
    double b;
  };
  p.pack(POD{1, 2.0});
  const auto bytes = p.take();
  ck::Unpacker u(bytes);
  EXPECT_EQ(u.unpack<int>(), 42);
  EXPECT_DOUBLE_EQ(u.unpack<double>(), 3.25);
  EXPECT_EQ(u.unpack<std::uint8_t>(), 7);
  const auto pod = u.unpack<POD>();
  EXPECT_EQ(pod.a, 1);
  EXPECT_DOUBLE_EQ(pod.b, 2.0);
  EXPECT_EQ(u.remaining(), 0u);
}

TEST(Pup, VectorsAndStringsRoundTrip) {
  ck::Packer p;
  std::vector<std::uint32_t> v{1, 2, 3, 4};
  p.pack(v);
  p.pack(std::string("hello pup"));
  p.pack(std::vector<double>{});
  const auto bytes = p.take();
  ck::Unpacker u(bytes);
  EXPECT_EQ(u.unpack<std::vector<std::uint32_t>>(), v);
  EXPECT_EQ(u.unpack<std::string>(), "hello pup");
  EXPECT_TRUE(u.unpack<std::vector<double>>().empty());
}

TEST(Pup, BulkBytesTracksPayloadCopies) {
  ck::Packer p;
  p.pack(7);  // scalar: not bulk
  EXPECT_EQ(p.bulkBytes(), 0u);
  p.pack(std::vector<std::uint8_t>(1000, 1));
  EXPECT_EQ(p.bulkBytes(), 1000u);
  p.pack(std::string(50, 'x'));
  EXPECT_EQ(p.bulkBytes(), 1050u);
}

TEST(Pup, UnbackedRunRoundTrip) {
  const std::vector<std::byte> backed{std::byte{1}, std::byte{2}, std::byte{3}};
  ck::Packer p;
  p.pack(7);
  p.pack(ck::HostBytes{nullptr, 4096});  // unbacked: kind byte and length word only
  p.pack(ck::HostBytes{backed.data(), backed.size()});
  p.pack(ck::HostBytes{});
  p.pack(9);
  constexpr std::size_t kRunHeader = 1 + sizeof(std::uint64_t);
  EXPECT_EQ(ck::packedSize(ck::HostBytes{nullptr, 4096}), kRunHeader);
  EXPECT_EQ(p.size(), 2 * sizeof(int) + 3 * kRunHeader + backed.size());
  EXPECT_EQ(p.unbackedBytes(), 4096u);
  EXPECT_EQ(p.bulkBytes(), 4096u + backed.size());  // unbacked runs are charged alike
  const auto bytes = p.take();
  ck::Unpacker u(bytes);
  EXPECT_EQ(u.unpack<int>(), 7);
  const auto run = u.unpack<ck::HostBytes>();
  EXPECT_EQ(run.data, nullptr);
  EXPECT_EQ(run.size, 4096u);
  const auto got = u.unpack<ck::HostBytes>();
  ASSERT_EQ(got.size, backed.size());
  ASSERT_NE(got.data, nullptr);
  EXPECT_EQ(std::memcmp(got.data, backed.data(), backed.size()), 0);
  const auto empty = u.unpack<ck::HostBytes>();
  EXPECT_EQ(empty.size, 0u);
  EXPECT_NE(empty.data, nullptr);  // a backed run of length zero
  EXPECT_EQ(u.unpack<int>(), 9);
  EXPECT_EQ(u.remaining(), 0u);
}

TEST(Pup, UnpackerOffsetAndSkip) {
  ck::Packer p;
  p.pack(1);
  p.pack(2);
  p.pack(3);
  const auto bytes = p.take();
  ck::Unpacker u(bytes, sizeof(int));  // start past the first int
  EXPECT_EQ(u.unpack<int>(), 2);
  u.skip(sizeof(int));
  EXPECT_EQ(u.remaining(), 0u);
}

TEST(Pup, InterleavedTypesPreserveOrder) {
  ck::Packer p;
  for (int i = 0; i < 50; ++i) {
    p.pack(i);
    p.pack(std::vector<std::uint16_t>(static_cast<std::size_t>(i % 5), static_cast<std::uint16_t>(i)));
  }
  const auto bytes = p.take();
  ck::Unpacker u(bytes);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(u.unpack<int>(), i);
    const auto v = u.unpack<std::vector<std::uint16_t>>();
    EXPECT_EQ(v.size(), static_cast<std::size_t>(i % 5));
  }
}

// --------------------------------------------------------------------------
// PE serialisation semantics
// --------------------------------------------------------------------------

TEST(Pe, ExecQueuesBehindPreviousWork) {
  sim::Engine e;
  cmi::Pe pe(e, 0);
  std::vector<sim::TimePoint> at;
  pe.exec(sim::usec(10), [&] { at.push_back(e.now()); });
  pe.exec(sim::usec(5), [&] { at.push_back(e.now()); });
  e.run();
  ASSERT_EQ(at.size(), 2u);
  EXPECT_EQ(at[0], sim::usec(10));
  EXPECT_EQ(at[1], sim::usec(15));  // queued behind the first
}

TEST(Pe, ChargeExtendsBusyHorizonWithoutScheduling) {
  sim::Engine e;
  cmi::Pe pe(e, 3);
  pe.charge(sim::usec(7));
  EXPECT_EQ(pe.busyUntil(), sim::usec(7));
  pe.charge(sim::usec(3));
  EXPECT_EQ(pe.busyUntil(), sim::usec(10));
  EXPECT_TRUE(e.empty());
}

TEST(Pe, IdleGapResetsHorizonToNow) {
  sim::Engine e;
  cmi::Pe pe(e, 0);
  pe.exec(sim::usec(5), [] {});
  e.run();  // now = 5us
  e.schedule(sim::usec(100), [] {});
  e.run();  // now = 100us, PE long idle
  pe.charge(sim::usec(2));
  EXPECT_EQ(pe.busyUntil(), sim::usec(102));
}

TEST(Pe, RunHookWrapsContinuations) {
  sim::Engine e;
  cmi::Pe pe(e, 5);
  int hook_pe = -1;
  bool ran = false;
  pe.run_hook = [&](int id, cmi::PeFn& fn) {
    hook_pe = id;
    fn();
  };
  pe.exec(0, [&] { ran = true; });
  e.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(hook_pe, 5);
}

// --------------------------------------------------------------------------
// OSU suite extensions sanity
// --------------------------------------------------------------------------

TEST(OsuExt, BiBandwidthExceedsUnidirectional) {
  osu::BenchConfig cfg;
  cfg.stack = osu::Stack::Ompi;
  cfg.mode = osu::Mode::Device;
  cfg.place = osu::Placement::InterNode;
  cfg.iters = 8;
  cfg.warmup = 2;
  cfg.window = 16;
  cfg.sizes = {4u << 20};
  const double uni = osu::runBandwidth(cfg)[0].value;
  const double bi = osu::runBiBandwidth(cfg)[0].value;
  EXPECT_GT(bi, 1.5 * uni);  // both directions carry traffic
  EXPECT_LT(bi, 2.2 * uni);
}

TEST(OsuExt, MultiPairLatencyAboveSinglePair) {
  osu::BenchConfig cfg;
  cfg.stack = osu::Stack::Ompi;
  cfg.mode = osu::Mode::Device;
  cfg.place = osu::Placement::InterNode;
  cfg.iters = 8;
  cfg.warmup = 2;
  cfg.sizes = {1u << 20};
  const double single = osu::runLatency(cfg)[0].value;
  const double multi = osu::runMultiLatency(cfg)[0].value;
  EXPECT_GT(multi, single);  // six pairs share one NIC
}

}  // namespace
