#include <gtest/gtest.h>

#include <cstring>
#include <new>
#include <vector>

#include "hw/cuda.hpp"
#include "hw/system.hpp"
#include "model/model.hpp"
#include "sim/rng.hpp"

namespace {

using namespace cux;

hw::MachineConfig summitCfg(int nodes) { return model::summit(nodes).machine; }

// --------------------------------------------------------------------------
// Topology / paths
// --------------------------------------------------------------------------

TEST(Machine, PeToGpuMapping) {
  hw::System sys(summitCfg(2));
  EXPECT_EQ(sys.machine.nodeOfPe(0), 0);
  EXPECT_EQ(sys.machine.nodeOfPe(5), 0);
  EXPECT_EQ(sys.machine.nodeOfPe(6), 1);
  EXPECT_EQ(sys.machine.gpuOfPe(7).node, 1);
  EXPECT_EQ(sys.machine.gpuOfPe(7).local, 1);
  EXPECT_TRUE(sys.machine.sameNode(0, 5));
  EXPECT_FALSE(sys.machine.sameNode(5, 6));
}

TEST(Machine, SocketAssignment) {
  hw::MachineConfig cfg = summitCfg(1);
  // 6 GPUs, 2 sockets: 0-2 on socket 0, 3-5 on socket 1 (Summit layout).
  EXPECT_EQ(cfg.socketOf(0), 0);
  EXPECT_EQ(cfg.socketOf(2), 0);
  EXPECT_EQ(cfg.socketOf(3), 1);
  EXPECT_EQ(cfg.socketOf(5), 1);
}

TEST(Machine, IntraSocketDevicePathSkipsXbus) {
  hw::System sys(summitCfg(1));
  auto path = sys.machine.deviceToDevicePath(0, 1);
  ASSERT_EQ(path.size(), 2u);  // gpu0.up, gpu1.down
  EXPECT_EQ(path[0]->name(), "n0.gpu0.up");
  EXPECT_EQ(path[1]->name(), "n0.gpu1.down");
}

TEST(Machine, CrossSocketDevicePathUsesXbus) {
  hw::System sys(summitCfg(1));
  auto path = sys.machine.deviceToDevicePath(0, 4);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[1]->name(), "n0.xbus0");
}

TEST(Machine, InterNodeDevicePathUsesNics) {
  hw::System sys(summitCfg(2));
  auto path = sys.machine.deviceToDevicePath(0, 6);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path[1]->name(), "n0.nic.up");
  EXPECT_EQ(path[2]->name(), "n1.nic.down");
}

TEST(Machine, SameDevicePathIsEmpty) {
  hw::System sys(summitCfg(1));
  EXPECT_TRUE(sys.machine.deviceToDevicePath(3, 3).empty());
  EXPECT_TRUE(sys.machine.hostToHostPath(3, 3).empty());
}

TEST(Machine, HostPathsIntraVsInter) {
  hw::System sys(summitCfg(2));
  auto intra = sys.machine.hostToHostPath(0, 1);
  ASSERT_EQ(intra.size(), 1u);
  EXPECT_EQ(intra[0]->name(), "n0.shm");
  auto inter = sys.machine.hostToHostPath(0, 6);
  ASSERT_EQ(inter.size(), 2u);
}

// --------------------------------------------------------------------------
// Link occupancy and the wormhole transfer model
// --------------------------------------------------------------------------

TEST(Link, ReserveSerialisesTransfers) {
  hw::Link link("l", {1.0, 1.0});  // 1 us latency, 1 GB/s => 1 ns per byte
  auto a1 = link.reserve(0, 1000);
  EXPECT_EQ(a1, sim::usec(1.0) + 1000);
  auto a2 = link.reserve(0, 1000);  // queued behind the first
  EXPECT_EQ(a2, 1000 + sim::usec(1.0) + 1000);
}

TEST(Machine, SingleLinkTransferCost) {
  hw::System sys(summitCfg(1));
  auto path = sys.machine.hostToHostPath(0, 1);
  const double shm_bw = sys.config.shm.bandwidth_gbps;
  const std::uint64_t bytes = 65000;
  auto arrival = sys.machine.transfer(path, 0, bytes);
  EXPECT_EQ(arrival, sim::usec(0.25) + sim::transferTime(bytes, shm_bw));
}

TEST(Machine, CutThroughDoesNotStoreAndForward) {
  // Inter-node host path: nicUp + nicDown, both 12.5 GB/s. Cut-through must
  // cost ~ one serialisation, not two.
  hw::System sys(summitCfg(2));
  auto path = sys.machine.hostToHostPath(0, 6);
  const std::uint64_t bytes = 4u << 20;
  auto arrival = sys.machine.transfer(path, 0, bytes);
  const double us = sim::toUs(arrival);
  const double one_pass = sim::toUs(sim::transferTime(bytes, 12.5));
  EXPECT_GT(us, one_pass);            // plus latencies
  EXPECT_LT(us, 1.15 * one_pass + 5);  // far less than two serialisations
}

TEST(Machine, BottleneckLinkDominates) {
  hw::System sys(summitCfg(2));
  // Device inter-node direct path: nvlink(50) + ib(12.5) + ib(12.5) + nvlink(50).
  auto path = sys.machine.deviceToDevicePath(0, 6);
  const std::uint64_t bytes = 8u << 20;
  auto arrival = sys.machine.transfer(path, 0, bytes);
  const double expected_min = sim::toUs(sim::transferTime(bytes, 12.5));
  EXPECT_GE(sim::toUs(arrival), expected_min);
  EXPECT_LT(sim::toUs(arrival), expected_min * 1.3);
}

TEST(Machine, ContentionSharesBandwidth) {
  hw::System sys(summitCfg(1));
  // Two transfers over the same shm link back-to-back take twice as long.
  auto p = sys.machine.hostToHostPath(0, 1);
  const std::uint64_t bytes = 1u << 20;
  auto a1 = sys.machine.transfer(p, 0, bytes);
  auto a2 = sys.machine.transfer(p, 0, bytes);
  EXPECT_GT(a2, a1);
  EXPECT_NEAR(sim::toUs(a2),
              2 * sim::toUs(sim::transferTime(bytes, sys.config.shm.bandwidth_gbps)) + 0.25,
              1.0);
}

TEST(Machine, ResetOccupancyClearsState) {
  hw::System sys(summitCfg(1));
  auto p = sys.machine.hostToHostPath(0, 1);
  sys.machine.transfer(p, 0, 1u << 20);
  sys.machine.resetOccupancy();
  auto a = sys.machine.transfer(p, 0, 1000);
  EXPECT_EQ(a, sim::usec(0.25) + sim::transferTime(1000, sys.config.shm.bandwidth_gbps));
}

// --------------------------------------------------------------------------
// Memory registry
// --------------------------------------------------------------------------

TEST(Memory, HostPointersClassifyAsHost) {
  hw::System sys(summitCfg(1));
  int x = 0;
  EXPECT_FALSE(sys.memory.isDevice(&x));
  EXPECT_EQ(sys.memory.deviceOf(&x), -1);
  EXPECT_TRUE(sys.memory.dereferenceable(&x));
}

TEST(Memory, DeviceAllocClassifies) {
  hw::System sys(summitCfg(1));
  void* p = cuda::deviceAlloc(sys, 3, 4096, /*backed=*/true);
  EXPECT_TRUE(sys.memory.isDevice(p));
  EXPECT_EQ(sys.memory.deviceOf(p), 3);
  EXPECT_TRUE(sys.memory.dereferenceable(p));
  // Interior pointers classify too.
  EXPECT_EQ(sys.memory.deviceOf(static_cast<char*>(p) + 4095), 3);
  // One-past-end is not inside.
  EXPECT_EQ(sys.memory.deviceOf(static_cast<char*>(p) + 4096), -1);
  cuda::deviceFree(sys, p);
  EXPECT_FALSE(sys.memory.isDevice(p));
}

TEST(Memory, UnbackedAllocationsAreNotDereferenceable) {
  hw::System sys(summitCfg(1));
  void* p = cuda::deviceAlloc(sys, 0, 1u << 30, /*backed=*/false);  // 1 GB, nothing behind it
  EXPECT_TRUE(sys.memory.isDevice(p));
  EXPECT_FALSE(sys.memory.dereferenceable(p));
  cuda::deviceFree(sys, p);
}

TEST(Memory, UnbackedHostRegions) {
  hw::System sys(summitCfg(1));
  void* p = sys.memory.allocHostUnbacked(1u << 20);
  EXPECT_FALSE(sys.memory.isDevice(p));
  EXPECT_FALSE(sys.memory.dereferenceable(p));
  sys.memory.freeDevice(p);

  // An unbacked cuda::HostStage is such a region, released on destruction.
  const std::size_t before = sys.memory.liveAllocations();
  {
    cuda::HostStage stage;
    stage.init(sys, 1u << 20, /*backed=*/false);
    EXPECT_FALSE(sys.memory.isDevice(stage.get()));
    EXPECT_EQ(sys.memory.deviceOf(stage.get()), -1);
    EXPECT_FALSE(sys.memory.dereferenceable(stage.get()));
    EXPECT_EQ(sys.memory.liveAllocations(), before + 1);
  }
  EXPECT_EQ(sys.memory.liveAllocations(), before);
}

TEST(Memory, BackedHostStageRoundTripsThroughDevice) {
  hw::System sys(summitCfg(1));
  const std::size_t n = 4096;
  cuda::HostStage out, in;
  out.init(sys, n, /*backed=*/true);
  in.init(sys, n, /*backed=*/true);
  ASSERT_TRUE(sys.memory.dereferenceable(out.get()));
  EXPECT_FALSE(sys.memory.isDevice(out.get()));
  EXPECT_EQ(sys.memory.liveAllocations(), 0u);  // ordinary host memory, not a region
  sim::SplitMix64 rng(7);
  rng.fill(out.get(), n);

  cuda::DeviceBuffer dev(sys, 0, n, /*backed=*/true);
  cuda::Stream s(sys, 0);
  s.memcpyAsync(dev.get(), out.get(), n, cuda::MemcpyKind::HostToDevice);
  s.memcpyAsync(in.get(), dev.get(), n, cuda::MemcpyKind::DeviceToHost);
  sys.engine.run();
  EXPECT_EQ(std::memcmp(in.get(), out.get(), n), 0);
}

TEST(Memory, ManyAllocationsTracked) {
  hw::System sys(summitCfg(1));
  std::vector<void*> ptrs;
  for (int i = 0; i < 100; ++i) ptrs.push_back(cuda::deviceAlloc(sys, i % 6, 128, true));
  EXPECT_EQ(sys.memory.liveAllocations(), 100u);
  for (void* p : ptrs) EXPECT_TRUE(sys.memory.isDevice(p));
  for (void* p : ptrs) cuda::deviceFree(sys, p);
  EXPECT_EQ(sys.memory.liveAllocations(), 0u);
  EXPECT_EQ(sys.memory.bytesAllocated(), 0u);
}

TEST(Memory, UnbackedInteriorAndOnePastEnd) {
  hw::System sys(summitCfg(1));
  auto* a = static_cast<char*>(sys.memory.allocDevice(2, 4096, /*backed=*/false));
  auto* b = static_cast<char*>(sys.memory.allocDevice(4, 4096, /*backed=*/false));
  EXPECT_EQ(sys.memory.deviceOf(a), 2);
  EXPECT_EQ(sys.memory.deviceOf(a + 4095), 2);
  EXPECT_FALSE(sys.memory.dereferenceable(a + 4095));
  // One past the end is in no region, not in the next one.
  EXPECT_EQ(sys.memory.find(a + 4096), nullptr);
  EXPECT_EQ(sys.memory.deviceOf(a + 4096), -1);
  EXPECT_EQ(sys.memory.deviceOf(b), 4);
  EXPECT_EQ(sys.memory.find(b + 100)->base, reinterpret_cast<std::uintptr_t>(b));
  sys.memory.freeDevice(a);
  sys.memory.freeDevice(b);
}

TEST(Memory, UnbackedSlotIsReusedAfterFree) {
  hw::System sys(summitCfg(1));
  void* a = sys.memory.allocDevice(1, 256, /*backed=*/false);
  void* b = sys.memory.allocDevice(1, 256, /*backed=*/false);
  sys.memory.freeDevice(a);
  EXPECT_EQ(sys.memory.find(a), nullptr);
  EXPECT_TRUE(sys.memory.isDevice(b));
  // The freed slot is taken again, with the new region's size and space.
  void* c = sys.memory.allocHostUnbacked(64);
  EXPECT_EQ(c, a);
  EXPECT_FALSE(sys.memory.isDevice(c));
  EXPECT_FALSE(sys.memory.dereferenceable(c));
  EXPECT_EQ(sys.memory.find(static_cast<char*>(c) + 64), nullptr);
  EXPECT_EQ(sys.memory.deviceOf(b), 1);
  sys.memory.freeDevice(b);
  sys.memory.freeDevice(c);
}

TEST(Memory, LiveAllocationsAndBytesCountBothKinds) {
  hw::System sys(summitCfg(1));
  void* backed = sys.memory.allocDevice(0, 1000, /*backed=*/true);
  void* dev = sys.memory.allocDevice(0, std::size_t{1} << 34, /*backed=*/false);
  void* host = sys.memory.allocHostUnbacked(500);
  EXPECT_EQ(sys.memory.liveAllocations(), 3u);
  EXPECT_EQ(sys.memory.bytesAllocated(), 1000u + (std::uint64_t{1} << 34) + 500u);
  sys.memory.freeDevice(dev);
  EXPECT_EQ(sys.memory.liveAllocations(), 2u);
  EXPECT_EQ(sys.memory.bytesAllocated(), 1500u);
  sys.memory.freeDevice(backed);
  sys.memory.freeDevice(host);
  EXPECT_EQ(sys.memory.liveAllocations(), 0u);
  EXPECT_EQ(sys.memory.bytesAllocated(), 0u);
}

TEST(Memory, OversizedUnbackedRegionThrows) {
  hw::System sys(summitCfg(1));
  constexpr std::size_t kMax = hw::MemoryRegistry::kMaxUnbackedBytes;
  EXPECT_THROW((void)sys.memory.allocDevice(0, kMax + 1, /*backed=*/false), std::bad_alloc);
  EXPECT_THROW((void)sys.memory.allocHostUnbacked(kMax + 1), std::bad_alloc);
  EXPECT_EQ(sys.memory.liveAllocations(), 0u);
  EXPECT_EQ(sys.memory.bytesAllocated(), 0u);
  // The largest region fits, and its last byte stays inside it.
  auto* p = static_cast<char*>(sys.memory.allocDevice(5, kMax, /*backed=*/false));
  EXPECT_EQ(sys.memory.deviceOf(p + (kMax - 1)), 5);
  sys.memory.freeDevice(p);
}

TEST(Memory, FullSlotTableThrowsInsteadOfAliasing) {
  hw::System sys(summitCfg(1));
  constexpr std::size_t kSlots = hw::MemoryRegistry::kMaxUnbackedRegions;
  std::vector<void*> ptrs;
  ptrs.reserve(kSlots);
  for (std::size_t i = 0; i < kSlots; ++i) {
    ptrs.push_back(sys.memory.allocDevice(static_cast<int>(i % 6), 8, /*backed=*/false));
  }
  EXPECT_THROW((void)sys.memory.allocDevice(0, 8, /*backed=*/false), std::bad_alloc);
  EXPECT_THROW((void)sys.memory.allocHostUnbacked(8), std::bad_alloc);
  EXPECT_EQ(sys.memory.liveAllocations(), kSlots);
  EXPECT_EQ(sys.memory.deviceOf(ptrs.back()), static_cast<int>((kSlots - 1) % 6));
  // Freeing one region makes room for exactly one more.
  sys.memory.freeDevice(ptrs[7]);
  EXPECT_EQ(sys.memory.allocHostUnbacked(8), ptrs[7]);
  EXPECT_THROW((void)sys.memory.allocHostUnbacked(8), std::bad_alloc);
}

TEST(MemoryDeathTest, DereferencingAnUnbackedPointerFaults) {
  hw::System sys(summitCfg(1));
  auto* dev = static_cast<volatile char*>(sys.memory.allocDevice(0, 64, /*backed=*/false));
  auto* host = static_cast<volatile char*>(sys.memory.allocHostUnbacked(64));
  EXPECT_DEATH((void)dev[0], "");
  EXPECT_DEATH((void)host[63], "");
  sys.memory.freeDevice(const_cast<char*>(dev));
  sys.memory.freeDevice(const_cast<char*>(host));
}

// --------------------------------------------------------------------------
// CUDA shim
// --------------------------------------------------------------------------

TEST(Cuda, MemcpyKindInference) {
  hw::System sys(summitCfg(1));
  cuda::DeviceBuffer d(sys, 0, 64);
  int h = 0;
  EXPECT_EQ(cuda::inferKind(sys, d.get(), &h), cuda::MemcpyKind::HostToDevice);
  EXPECT_EQ(cuda::inferKind(sys, &h, d.get()), cuda::MemcpyKind::DeviceToHost);
  EXPECT_EQ(cuda::inferKind(sys, d.get(), d.get()), cuda::MemcpyKind::DeviceToDevice);
  int h2 = 0;
  EXPECT_EQ(cuda::inferKind(sys, &h, &h2), cuda::MemcpyKind::HostToHost);
}

TEST(Cuda, RoundTripPreservesData) {
  hw::System sys(summitCfg(1));
  const std::size_t n = 4096;
  std::vector<unsigned char> src(n), back(n, 0);
  sim::SplitMix64 rng(1);
  rng.fill(src.data(), n);

  cuda::DeviceBuffer dev(sys, 0, n);
  cuda::Stream s(sys, 0);
  s.memcpyAsync(dev.get(), src.data(), n, cuda::MemcpyKind::HostToDevice);
  s.memcpyAsync(back.data(), dev.get(), n, cuda::MemcpyKind::DeviceToHost);
  bool done = false;
  s.synchronize().onReady([&] { done = true; });
  sys.engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(src, back);
}

TEST(Cuda, CopiesAreDeferredUntilCompletion) {
  hw::System sys(summitCfg(1));
  std::vector<unsigned char> src(1024, 0xAB);
  cuda::DeviceBuffer dev(sys, 0, 1024);
  std::memset(dev.get(), 0, 1024);
  cuda::Stream s(sys, 0);
  s.memcpyAsync(dev.get(), src.data(), 1024, cuda::MemcpyKind::HostToDevice);
  // Before the engine runs, device memory must be untouched (CUDA async
  // semantics: visibility at completion).
  EXPECT_EQ(static_cast<unsigned char*>(dev.get())[0], 0);
  sys.engine.run();
  EXPECT_EQ(static_cast<unsigned char*>(dev.get())[0], 0xAB);
}

TEST(Cuda, StreamOpsExecuteInOrder) {
  hw::System sys(summitCfg(1));
  cuda::Stream s(sys, 0);
  std::vector<int> order;
  s.launch(sim::usec(10), [&] { order.push_back(1); });
  s.launch(sim::usec(1), [&] { order.push_back(2); });
  s.launch(0, [&] { order.push_back(3); });
  sys.engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Cuda, MemcpyTimingMatchesLinkBandwidth) {
  hw::System sys(summitCfg(1));
  const std::uint64_t n = 64u << 20;  // 64 MB over 50 GB/s nvlink ~ 1342 us
  cuda::DeviceBuffer dev(sys, 0, n, /*backed=*/false);
  void* host = sys.memory.allocHostUnbacked(n);
  cuda::Stream s(sys, 0);
  s.memcpyAsync(dev.get(), host, n, cuda::MemcpyKind::HostToDevice);
  sim::TimePoint done_at = 0;
  s.synchronize().onReady([&] { done_at = sys.engine.now(); });
  sys.engine.run();
  const double us = sim::toUs(done_at);
  const double transfer = sim::toUs(sim::transferTime(n, 50.0));
  EXPECT_NEAR(us, transfer, 15.0);
  sys.memory.freeDevice(host);
}

TEST(Cuda, SynchronizeOnIdleStreamStillCosts) {
  hw::System sys(summitCfg(1));
  cuda::Stream s(sys, 0);
  sim::TimePoint at = 0;
  s.synchronize().onReady([&] { at = sys.engine.now(); });
  sys.engine.run();
  EXPECT_EQ(at, sim::usec(sys.config.cuda_sync_us));
}

TEST(Cuda, UnbackedCopiesSkipByteMovement) {
  hw::System sys(summitCfg(1));
  cuda::DeviceBuffer dev(sys, 0, 1024, /*backed=*/false);
  std::vector<unsigned char> host(1024, 7);
  cuda::Stream s(sys, 0);
  // Must not crash despite the PROT_NONE destination.
  s.memcpyAsync(dev.get(), host.data(), 1024, cuda::MemcpyKind::HostToDevice);
  s.memcpyAsync(host.data(), dev.get(), 1024, cuda::MemcpyKind::DeviceToHost);
  sys.engine.run();
  EXPECT_EQ(host[0], 7);  // unchanged: source was unbacked
}

TEST(Cuda, KernelTimingIncludesLaunchOverhead) {
  hw::System sys(summitCfg(1));
  cuda::Stream s(sys, 0);
  sim::TimePoint done_at = 0;
  s.launch(sim::usec(100), [&] { done_at = sys.engine.now(); });
  sys.engine.run();
  EXPECT_EQ(done_at,
            sim::usec(sys.config.cuda_call_us + sys.config.kernel_launch_us + 100.0));
}

// --------------------------------------------------------------------------
// DevicePool: the CuPy-style caching allocator behind pipelined collectives
// and the training workload's gradient buckets.
// --------------------------------------------------------------------------

TEST(DevicePool, RoundsUpToBinAndReusesFreedBlocks) {
  hw::System sys(summitCfg(1));
  const bool backed = sys.config.backed_device_memory;
  void* a = sys.pool.alloc(0, 100, backed);  // rounds to 512
  EXPECT_EQ(sys.pool.misses(), 1u);
  EXPECT_EQ(sys.pool.hits(), 0u);
  EXPECT_EQ(sys.pool.bytesLive(), 512u);
  sys.pool.free(a);
  EXPECT_EQ(sys.pool.bytesLive(), 0u);
  EXPECT_EQ(sys.pool.bytesCached(), 512u);
  // A request in the same 512-byte class is a hit and returns the block.
  void* b = sys.pool.alloc(0, 300, backed);
  EXPECT_EQ(b, a);
  EXPECT_EQ(sys.pool.hits(), 1u);
  EXPECT_EQ(sys.pool.misses(), 1u);
  sys.pool.free(b);
}

TEST(DevicePool, DistinctClassesDoNotShareBlocks) {
  hw::System sys(summitCfg(1));
  const bool backed = sys.config.backed_device_memory;
  void* a = sys.pool.alloc(0, 512, backed);
  sys.pool.free(a);
  // Different device, different size class, different backing: all misses.
  void* other_dev = sys.pool.alloc(1, 512, backed);
  void* other_size = sys.pool.alloc(0, 1024, backed);
  EXPECT_NE(other_dev, a);
  EXPECT_NE(other_size, a);
  EXPECT_EQ(sys.pool.hits(), 0u);
  EXPECT_EQ(sys.pool.misses(), 3u);
  sys.pool.free(other_dev);
  sys.pool.free(other_size);
}

TEST(DevicePool, TrimReleasesCachedBlocks) {
  hw::System sys(summitCfg(1));
  const bool backed = sys.config.backed_device_memory;
  void* a = sys.pool.alloc(0, 4096, backed);
  void* b = sys.pool.alloc(0, 8192, backed);
  sys.pool.free(a);
  sys.pool.free(b);
  EXPECT_EQ(sys.pool.bytesCached(), 4096u + 8192u);
  sys.pool.trim();
  EXPECT_EQ(sys.pool.bytesCached(), 0u);
  // After a trim the next allocation goes back through the registry.
  void* c = sys.pool.alloc(0, 4096, backed);
  EXPECT_EQ(sys.pool.hits(), 0u);
  EXPECT_EQ(sys.pool.misses(), 3u);
  sys.pool.free(c);
}

TEST(DevicePool, HighWatermarkTracksPeakLiveBytes) {
  hw::System sys(summitCfg(1));
  const bool backed = sys.config.backed_device_memory;
  void* a = sys.pool.alloc(0, 1024, backed);
  void* b = sys.pool.alloc(0, 2048, backed);
  EXPECT_EQ(sys.pool.bytesHighWatermark(), 3072u);
  sys.pool.free(a);
  sys.pool.free(b);
  // Reuse from cache does not raise the watermark.
  void* c = sys.pool.alloc(0, 2048, backed);
  EXPECT_EQ(sys.pool.bytesHighWatermark(), 3072u);
  sys.pool.free(c);
}

TEST(DevicePool, BackedBlocksKeepContentsAcrossReuse) {
  hw::System sys(summitCfg(1));
  if (!sys.config.backed_device_memory) GTEST_SKIP() << "needs backed device memory";
  auto* p = static_cast<double*>(sys.pool.alloc(0, 8 * 64, true));
  for (int j = 0; j < 64; ++j) p[j] = 3.0 * j;
  sys.pool.free(p);
  auto* q = static_cast<double*>(sys.pool.alloc(0, 8 * 64, true));
  ASSERT_EQ(q, p);  // same cached region
  EXPECT_DOUBLE_EQ(q[63], 3.0 * 63);
  sys.pool.free(q);
}

}  // namespace
