#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "ampi/ampi.hpp"
#include "apps/osu/osu.hpp"
#include "core/device_comm.hpp"
#include "hw/cuda.hpp"
#include "sim/engine.hpp"
#include "sim/future.hpp"
#include "sim/pooled.hpp"
#include "ucx/request.hpp"

/// Heap allocations per message of a warmed-up 8-byte ping-pong on every
/// stack above UCX. Each benchmark point builds a fresh machine, so the
/// difference between a long and a short run cancels setup and teardown and
/// leaves only the steady-state per-message cost.

// --------------------------------------------------------------------------
// Global allocation counter (same technique as test_obs.cpp).
// --------------------------------------------------------------------------

static std::uint64_t g_heap_allocs = 0;

void* operator new(std::size_t n) {
  ++g_heap_allocs;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  ++g_heap_allocs;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace cux;

struct Budget {
  const char* label;
  osu::Stack stack;
  osu::Mode mode;
  double max_per_msg;
};

std::uint64_t allocsForRun(osu::BenchConfig cfg, int iters) {
  cfg.iters = iters;
  const std::uint64_t before = g_heap_allocs;
  (void)osu::latencyPoint(cfg, cfg.sizes.front());
  return g_heap_allocs - before;
}

class AllocBudget : public ::testing::TestWithParam<Budget> {};

TEST_P(AllocBudget, PingPongAllocationsPerMessage) {
  const Budget& b = GetParam();
  osu::BenchConfig cfg;
  cfg.stack = b.stack;
  cfg.mode = b.mode;
  cfg.place = osu::Placement::IntraNode;
  cfg.sizes = {8};
  cfg.warmup = 10;
  constexpr int kShort = 40;
  constexpr int kLong = 240;
  (void)allocsForRun(cfg, kShort);  // warm the process-wide pools
  const std::uint64_t lo = allocsForRun(cfg, kShort);
  const std::uint64_t hi = allocsForRun(cfg, kLong);
  ASSERT_GE(hi, lo);
  // A ping-pong iteration is two messages.
  const double per_msg = static_cast<double>(hi - lo) / (2.0 * (kLong - kShort));
  std::printf("%s-%s: %.2f allocations per message\n", osu::name(b.stack), osu::suffix(b.mode),
              per_msg);
  EXPECT_LE(per_msg, b.max_per_msg);
}

// Bounds per message. Before pooled futures, requests and move-only
// callbacks, the same measurement gave Charm++ H 20.58 / D 15.00, AMPI
// 29.66 / 25.00, OpenMPI 23.66 / 9.00, Charm4py 36.85 / 24.18. What remains is the
// packed Converse message itself (one per Charm++, AMPI and Charm4py
// message), the unpacked inline payload (AMPI-H, Charm4py-H), Charm4py-H's
// inline payload copy, and Charm4py's channel deques growing a block every
// few messages. OpenMPI sits directly on UCX and allocates nothing.
INSTANTIATE_TEST_SUITE_P(
    Stacks, AllocBudget,
    ::testing::Values(Budget{"CharmH", osu::Stack::Charm, osu::Mode::HostStaging, 1.05},
                      Budget{"CharmD", osu::Stack::Charm, osu::Mode::Device, 1.05},
                      Budget{"AmpiH", osu::Stack::Ampi, osu::Mode::HostStaging, 2.05},
                      Budget{"AmpiD", osu::Stack::Ampi, osu::Mode::Device, 1.05},
                      Budget{"OmpiH", osu::Stack::Ompi, osu::Mode::HostStaging, 0.0},
                      Budget{"OmpiD", osu::Stack::Ompi, osu::Mode::Device, 0.0},
                      Budget{"Charm4pyH", osu::Stack::Charm4py, osu::Mode::HostStaging, 3.25},
                      Budget{"Charm4pyD", osu::Stack::Charm4py, osu::Mode::Device, 1.25}),
    [](const ::testing::TestParamInfo<Budget>& i) { return std::string(i.param.label); });

// The hot captures of the callback aliases stay inline (extends
// test_sim.cpp's HotUcxCaptureShapesStayInline with the aliases of the
// layers above the engine; see the capture audit in docs/architecture.md).
TEST(CallbackAliases, HotCapturesStayInline) {
  // core::DoneFn: a Charm++ entry continuation (chare + pooled rendezvous
  // state), and an AMPI/Charm4py completion (request or promise + status
  // or PE pointer and a wake-up cost).
  struct EntryContinuation {
    void* obj;
    sim::Pooled<int> state;
  };
  static_assert(core::DoneFn::fitsInline<EntryContinuation>());
  struct ModelCompletion {
    sim::Promise<void> done;
    void* pe;
    double wake_us;
    ampi::Status status;
  };
  static_assert(core::DoneFn::fitsInline<ModelCompletion>());
  // ucx::CompletionFn: DeviceComm's receive completion (context, PE, the
  // RDMA op and the model's DoneFn).
  struct RecvCompletion {
    void* comm;
    int pe;
    core::DeviceRdmaOp op;
    core::DoneFn cb;
  };
  static_assert(ucx::CompletionFn::fitsInline<RecvCompletion>());
  // cmi::PeFn: a Converse send injection (context, PEs, tag, message).
  struct ConverseInjection {
    void* cmi;
    int src_pe, dst_pe;
    ucx::Tag tag;
    std::vector<std::byte> raw;
  };
  static_assert(cmi::PeFn::fitsInline<ConverseInjection>());
  // Future callbacks: an MPI status write-back (request + status pointer)
  // and a join arrival (a promise).
  struct StatusWriteBack {
    ampi::Request r;
    ampi::Status* st;
  };
  static_assert(sim::Future<void>::Callback::fitsInline<StatusWriteBack>());
  // cuda::Stream::Effect: a copy (system, dst, src, bytes) and coll's combine
  // kernel (rank, destination, source, count, op).
  struct CombineKernel {
    void* rank;
    void* dst;
    const void* src;
    std::uint64_t count;
    int op;
  };
  static_assert(cuda::Stream::Effect::fitsInline<CombineKernel>());
  // Each alias nests in the next wider one without an allocation.
  static_assert(cmi::PeFn::fitsInline<core::DoneFn>());
  static_assert(sim::Engine::Callback::fitsInline<cmi::PeFn>());
  static_assert(sim::Engine::Callback::fitsInline<ucx::CompletionFn>());
}

}  // namespace
