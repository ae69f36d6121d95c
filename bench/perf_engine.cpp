#include <benchmark/benchmark.h>

#include "core/tag_scheme.hpp"
#include "hw/cuda.hpp"
#include "model/model.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "ucx/context.hpp"

/// Real-time (wall-clock) performance of the simulator's hot paths with
/// google-benchmark: event-queue throughput under the schedule/cancel mixes
/// the communication layers actually generate, tag matching, memory
/// classification, and end-to-end simulated messages per second. These are
/// the costs a user of this library actually pays to run the figure benches.
///
/// The engine cases feed BENCH_engine.json (see EXPERIMENTS.md): run with
///   perf_engine --benchmark_filter=BM_Engine --benchmark_format=json
/// before and after touching src/sim/engine.* and record both.

using namespace cux;

namespace {

// --------------------------------------------------------------------------
// Event-engine throughput
// --------------------------------------------------------------------------

/// Schedule-heavy mix: N events at random times, zero cancellations. This is
/// the common case — the figure benches cancel nothing.
void BM_EngineScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine e;
    sim::SplitMix64 rng(7);
    for (int i = 0; i < n; ++i) {
      e.schedule(rng.below(1'000'000), [] {});
    }
    e.run();
    benchmark::DoNotOptimize(e.eventsProcessed());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1024)->Arg(16384)->Arg(131072);

/// Schedule with a payload capture the size of a completion continuation
/// (request pointer + completion function), the dominant event shape in
/// ucx.cpp; exercises the callback type's small-buffer path.
void BM_EngineScheduleRunCapture(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  struct FakeReq {
    std::uint64_t a = 0, b = 0;
  };
  auto req = std::make_shared<FakeReq>();
  std::uint64_t sink = 0;
  std::function<void(FakeReq&)> cb = [&sink](FakeReq& r) { sink += r.a; };
  for (auto _ : state) {
    sim::Engine e;
    sim::SplitMix64 rng(11);
    for (int i = 0; i < n; ++i) {
      e.schedule(rng.below(1'000'000), [req, cb] {
        req->a++;
        cb(*req);
      });
    }
    e.run();
    benchmark::DoNotOptimize(e.eventsProcessed());
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineScheduleRunCapture)->Arg(16384);

/// Timeout-style mix: a fraction of events is cancelled before it fires
/// (retransmit timers, cancelled receives). Arg0 = events, Arg1 = percent
/// cancelled.
void BM_EngineScheduleCancelMix(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int pct = static_cast<int>(state.range(1));
  for (auto _ : state) {
    sim::Engine e;
    sim::SplitMix64 rng(13);
    std::vector<sim::EventId> ids;
    ids.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      ids.push_back(e.schedule(rng.below(1'000'000), [] {}));
    }
    for (int i = 0; i < n; ++i) {
      if (static_cast<int>(rng.below(100)) < pct) e.cancel(ids[static_cast<std::size_t>(i)]);
    }
    e.run();
    benchmark::DoNotOptimize(e.eventsProcessed());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineScheduleCancelMix)->Args({16384, 10})->Args({16384, 50})->Args({16384, 90});

/// Cancel-and-reschedule churn: every event is immediately replaced, the
/// worst case for cancellation bookkeeping (progress-timer resets).
void BM_EngineRescheduleChurn(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine e;
    sim::SplitMix64 rng(17);
    sim::EventId id = e.schedule(1, [] {});
    for (int i = 0; i < n; ++i) {
      e.cancel(id);
      id = e.schedule(rng.below(1'000'000), [] {});
    }
    e.run();
    benchmark::DoNotOptimize(e.eventsProcessed());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineRescheduleChurn)->Arg(16384);

/// Fan-out cascade: each fired event schedules `fan` children for two
/// generations — the shape of a Jacobi halo exchange (one entry method
/// scheduling per-neighbour sends) or an OSU bandwidth window.
void BM_EngineFanout(benchmark::State& state) {
  const int roots = static_cast<int>(state.range(0));
  const int fan = static_cast<int>(state.range(1));
  for (auto _ : state) {
    sim::Engine e;
    for (int r = 0; r < roots; ++r) {
      e.schedule(static_cast<sim::TimePoint>(r), [&e, fan] {
        for (int c = 0; c < fan; ++c) {
          e.after(static_cast<sim::Duration>(c + 1), [&e, fan] {
            for (int g = 0; g < fan; ++g) {
              e.after(static_cast<sim::Duration>(g + 1), [] {});
            }
          });
        }
      });
    }
    e.run();
    benchmark::DoNotOptimize(e.eventsProcessed());
  }
  state.SetItemsProcessed(state.iterations() * roots * (1 + fan + fan * fan));
}
BENCHMARK(BM_EngineFanout)->Args({256, 6})->Args({64, 16});

/// Self-rescheduling chain: serialised-PE-style execution where each event
/// schedules its successor; measures bare per-event latency (queue nearly
/// empty, no batching effects).
void BM_EngineChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine e;
    int remaining = n;
    std::function<void()> step = [&] {
      if (--remaining > 0) e.after(1, step);
    };
    e.schedule(0, step);
    e.run();
    benchmark::DoNotOptimize(e.eventsProcessed());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineChain)->Arg(16384);

// --------------------------------------------------------------------------
// Protocol-layer hot paths
// --------------------------------------------------------------------------

void BM_TagSchemeMakeDecode(benchmark::State& state) {
  core::TagScheme t;
  sim::SplitMix64 rng(1);
  std::uint64_t acc = 0;
  for (auto _ : state) {
    const auto tag = t.make(core::MsgType::Device, rng.below(1u << 20), rng.below(1u << 20));
    acc += t.peOf(tag) + t.cntOf(tag) + static_cast<std::uint64_t>(t.typeOf(tag));
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TagSchemeMakeDecode);

void BM_MemoryClassification(benchmark::State& state) {
  model::Model m = model::summit(1);
  hw::System sys(m.machine);
  std::vector<void*> ptrs;
  for (int i = 0; i < 256; ++i) {
    ptrs.push_back(cuda::deviceAlloc(sys, i % 6, 4096, false));
  }
  sim::SplitMix64 rng(3);
  int hits = 0;
  for (auto _ : state) {
    hits += sys.memory.isDevice(ptrs[rng.below(ptrs.size())]) ? 1 : 0;
  }
  benchmark::DoNotOptimize(hits);
  for (void* p : ptrs) cuda::deviceFree(sys, p);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemoryClassification);

// The matcher benches run both engines (BENCH_ucx_matching.json): `bucketed`
// is the production matcher, `linear` the retained reference matcher, both
// on the pooled message path, so the pair isolates matcher cost. Setup (System/Context construction) is hoisted out
// of the timing loop; every iteration fully drains the queues, so one
// Context serves all iterations. Each send is drained through the engine
// immediately (steady-state matching at depth N), so the event heap stays
// shallow and the measurement isolates the matcher instead of the engine's
// O(log pending) heap under an 8k-event burst.

/// Posted-queue depth: posts N exact receives, then delivers N matching
/// messages in reverse tag order (each arrival's match sits at the tail of a
/// post-ordered scan — the linear matcher's worst case, the bucketed
/// matcher's common case).
void BM_UcxTagMatching(benchmark::State& state, ucx::MatcherImpl impl) {
  const int n = static_cast<int>(state.range(0));
  model::Model m = model::summit(1);
  hw::System sys(m.machine);
  ucx::UcxConfig cfg = m.ucx;
  cfg.matcher = impl;
  ucx::Context ctx(sys, cfg);
  std::vector<std::byte> buf(64);
  std::vector<std::byte> src(64);
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) {
      ctx.worker(1).tagRecv(buf.data(), 64, static_cast<ucx::Tag>(i), ucx::kFullMask, {});
    }
    for (int i = n - 1; i >= 0; --i) {
      ctx.tagSend(0, 1, src.data(), 64, static_cast<ucx::Tag>(i), {});
      sys.engine.run();
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK_CAPTURE(BM_UcxTagMatching, bucketed, ucx::MatcherImpl::Bucketed)
    ->Arg(64)
    ->Arg(512)
    ->Arg(4096)
    ->Arg(16384);
BENCHMARK_CAPTURE(BM_UcxTagMatching, linear, ucx::MatcherImpl::Linear)
    ->Arg(64)
    ->Arg(512)
    ->Arg(4096)
    ->Arg(16384);

/// Unexpected-queue-heavy: all N messages arrive before any receive is
/// posted, so every tagRecv scans/probes the unexpected queue. Receives are
/// posted in reverse arrival order (linear worst case).
void BM_UcxTagMatchingUnexpected(benchmark::State& state, ucx::MatcherImpl impl) {
  const int n = static_cast<int>(state.range(0));
  model::Model m = model::summit(1);
  hw::System sys(m.machine);
  ucx::UcxConfig cfg = m.ucx;
  cfg.matcher = impl;
  ucx::Context ctx(sys, cfg);
  std::vector<std::byte> buf(64);
  std::vector<std::byte> src(64);
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) {
      ctx.tagSend(0, 1, src.data(), 64, static_cast<ucx::Tag>(i), {});
      sys.engine.run();  // message lands in the unexpected queue
    }
    for (int i = n - 1; i >= 0; --i) {
      ctx.worker(1).tagRecv(buf.data(), 64, static_cast<ucx::Tag>(i), ucx::kFullMask, {});
      sys.engine.run();  // drain the matched completion
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK_CAPTURE(BM_UcxTagMatchingUnexpected, bucketed, ucx::MatcherImpl::Bucketed)
    ->Arg(512)
    ->Arg(4096);
BENCHMARK_CAPTURE(BM_UcxTagMatchingUnexpected, linear, ucx::MatcherImpl::Linear)
    ->Arg(512)
    ->Arg(4096);

/// Wildcard mix: 7 of 8 receives are exact, 1 of 8 uses a masked wildcard
/// (low tag bits) that only its own tag class can match. Exercises the
/// exact-vs-wildcard sequence arbitration on every arrival.
void BM_UcxTagMatchingWildcardMix(benchmark::State& state, ucx::MatcherImpl impl) {
  const int n = static_cast<int>(state.range(0));
  model::Model m = model::summit(1);
  hw::System sys(m.machine);
  ucx::UcxConfig cfg = m.ucx;
  cfg.matcher = impl;
  ucx::Context ctx(sys, cfg);
  std::vector<std::byte> buf(64);
  std::vector<std::byte> src(64);
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) {
      // Wildcard (mask 0x7) matches exactly the tags congruent to 0 mod 8,
      // so every receive consumes one message and the queues drain fully.
      const ucx::Tag mask = (i % 8 == 0) ? ucx::Tag{0x7} : ucx::kFullMask;
      ctx.worker(1).tagRecv(buf.data(), 64, static_cast<ucx::Tag>(i), mask, {});
    }
    for (int i = n - 1; i >= 0; --i) {
      ctx.tagSend(0, 1, src.data(), 64, static_cast<ucx::Tag>(i), {});
      sys.engine.run();
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK_CAPTURE(BM_UcxTagMatchingWildcardMix, bucketed, ucx::MatcherImpl::Bucketed)
    ->Arg(4096);
BENCHMARK_CAPTURE(BM_UcxTagMatchingWildcardMix, linear, ucx::MatcherImpl::Linear)->Arg(4096);

/// Cancellation at depth: posts N receives and cancels them all. The
/// bucketed matcher unlinks each in O(1) through the request back-pointer;
/// the linear matcher pays an O(posted) scan per cancel.
void BM_UcxCancelRecv(benchmark::State& state, ucx::MatcherImpl impl) {
  const int n = static_cast<int>(state.range(0));
  model::Model m = model::summit(1);
  hw::System sys(m.machine);
  ucx::UcxConfig cfg = m.ucx;
  cfg.matcher = impl;
  ucx::Context ctx(sys, cfg);
  std::vector<std::byte> buf(64);
  std::vector<ucx::RequestPtr> reqs;
  reqs.reserve(static_cast<std::size_t>(n));
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) {
      reqs.push_back(
          ctx.worker(1).tagRecv(buf.data(), 64, static_cast<ucx::Tag>(i), ucx::kFullMask, {}));
    }
    // Cancel in reverse post order: each target sits at the tail of the
    // remaining posted list, so the linear matcher pays its full O(posted)
    // scan per cancel while the bucketed matcher unlinks via the slot
    // back-pointer without scanning.
    for (auto it = reqs.rbegin(); it != reqs.rend(); ++it) ctx.worker(1).cancelRecv(*it);
    reqs.clear();
    sys.engine.run();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK_CAPTURE(BM_UcxCancelRecv, bucketed, ucx::MatcherImpl::Bucketed)->Arg(4096);
BENCHMARK_CAPTURE(BM_UcxCancelRecv, linear, ucx::MatcherImpl::Linear)->Arg(4096);

void BM_SimulatedMessagesPerSecond(benchmark::State& state, ucx::MatcherImpl impl) {
  // End-to-end: how many simulated eager messages the whole stack retires
  // per wall-clock second. Setup is hoisted so the per-message cost (matcher
  // + pools + engine) is what's measured.
  model::Model m = model::summit(2);
  hw::System sys(m.machine);
  ucx::UcxConfig cfg = m.ucx;
  cfg.matcher = impl;
  ucx::Context ctx(sys, cfg);
  std::vector<std::byte> src(256), dst(256);
  constexpr int kMsgs = 1000;
  int done = 0;
  for (auto _ : state) {
    for (int i = 0; i < kMsgs; ++i) {
      ctx.worker(6).tagRecv(dst.data(), 256, static_cast<ucx::Tag>(i), ucx::kFullMask,
                            [&done](ucx::Request&) { ++done; });
      ctx.tagSend(0, 6, src.data(), 256, static_cast<ucx::Tag>(i), {});
    }
    sys.engine.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * kMsgs);
}
BENCHMARK_CAPTURE(BM_SimulatedMessagesPerSecond, bucketed, ucx::MatcherImpl::Bucketed);
BENCHMARK_CAPTURE(BM_SimulatedMessagesPerSecond, linear, ucx::MatcherImpl::Linear);

}  // namespace

BENCHMARK_MAIN();
