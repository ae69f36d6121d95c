#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/small_fn.hpp"
#include "sim/future.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"

namespace {

using namespace cux;

TEST(Engine, StartsAtTimeZero) {
  sim::Engine e;
  EXPECT_EQ(e.now(), 0u);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, ExecutesInTimeOrder) {
  sim::Engine e;
  std::vector<int> order;
  e.schedule(300, [&] { order.push_back(3); });
  e.schedule(100, [&] { order.push_back(1); });
  e.schedule(200, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 300u);
}

TEST(Engine, SimultaneousEventsFifo) {
  sim::Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) e.schedule(42, [&order, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, PastSchedulesClampToNow) {
  sim::Engine e;
  sim::TimePoint seen = 1;
  e.schedule(100, [&] {
    e.schedule(10, [&] { seen = e.now(); });  // in the past: clamps to 100
  });
  e.run();
  EXPECT_EQ(seen, 100u);
}

TEST(Engine, AfterSchedulesRelative) {
  sim::Engine e;
  sim::TimePoint seen = 0;
  e.schedule(50, [&] { e.after(25, [&] { seen = e.now(); }); });
  e.run();
  EXPECT_EQ(seen, 75u);
}

TEST(Engine, CancelPreventsExecution) {
  sim::Engine e;
  bool ran = false;
  auto id = e.schedule(10, [&] { ran = true; });
  EXPECT_TRUE(e.cancel(id));
  e.run();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, CancelTwiceFails) {
  sim::Engine e;
  auto id = e.schedule(10, [] {});
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, CancelFiredEventFails) {
  sim::Engine e;
  auto id = e.schedule(10, [] {});
  e.run();
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, CancelledIdStaysDeadAfterSlotReuse) {
  // The generation tag must distinguish a recycled slot from the cancelled
  // event that used to occupy it.
  sim::Engine e;
  bool second_ran = false;
  auto id1 = e.schedule(10, [] {});
  EXPECT_TRUE(e.cancel(id1));
  auto id2 = e.schedule(20, [&] { second_ran = true; });  // may reuse id1's slot
  EXPECT_FALSE(e.cancel(id1));                            // stale id: dead forever
  e.run();
  EXPECT_TRUE(second_ran);
  EXPECT_FALSE(e.cancel(id2));  // fired
}

TEST(Engine, ManyCancellationsInterleavedWithReuse) {
  sim::Engine e;
  int ran = 0;
  std::vector<sim::EventId> ids;
  for (int round = 0; round < 50; ++round) {
    ids.clear();
    for (int i = 0; i < 20; ++i) {
      ids.push_back(e.schedule(static_cast<sim::TimePoint>(round * 100 + i), [&] { ++ran; }));
    }
    for (int i = 0; i < 20; i += 2) EXPECT_TRUE(e.cancel(ids[static_cast<std::size_t>(i)]));
  }
  e.run();
  EXPECT_EQ(ran, 50 * 10);
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.eventsScheduled(), 1000u);
  EXPECT_EQ(e.eventsProcessed(), 500u);
}

TEST(Engine, CancelFromInsideCallback) {
  sim::Engine e;
  bool victim_ran = false;
  auto victim = e.schedule(20, [&] { victim_ran = true; });
  e.schedule(10, [&] { EXPECT_TRUE(e.cancel(victim)); });
  e.run();
  EXPECT_FALSE(victim_ran);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, RunUntilSkipsCancelledHead) {
  sim::Engine e;
  int count = 0;
  auto head = e.schedule(10, [&] { ++count; });
  e.schedule(40, [&] { ++count; });
  EXPECT_TRUE(e.cancel(head));
  EXPECT_FALSE(e.runUntil(25));  // cancelled head must not fire nor advance past 25
  EXPECT_EQ(count, 0);
  EXPECT_EQ(e.now(), 25u);
  e.run();
  EXPECT_EQ(count, 1);
}

TEST(Engine, RunUntilStopsBeforeLaterEvents) {
  sim::Engine e;
  int count = 0;
  e.schedule(10, [&] { ++count; });
  e.schedule(20, [&] { ++count; });
  e.schedule(30, [&] { ++count; });
  EXPECT_FALSE(e.runUntil(25));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(e.now(), 25u);
  e.run();
  EXPECT_EQ(count, 3);
}

TEST(Engine, StopInterruptsRun) {
  sim::Engine e;
  int count = 0;
  e.schedule(10, [&] {
    ++count;
    e.stop();
  });
  e.schedule(20, [&] { ++count; });
  e.run();
  EXPECT_EQ(count, 1);
  e.run();
  EXPECT_EQ(count, 2);
}

TEST(Engine, RunUntilDrainedAdvancesClockToTarget) {
  // Callers stepping in windows read now() as "time consumed": the drained
  // path must advance the clock to the window boundary exactly like the
  // future-event path does.
  sim::Engine e;
  e.schedule(10, [] {});
  EXPECT_TRUE(e.runUntil(100));
  EXPECT_EQ(e.now(), 100u);
  // An entirely empty window advances the clock too.
  EXPECT_TRUE(e.runUntil(250));
  EXPECT_EQ(e.now(), 250u);
}

TEST(Engine, RunUntilNeverRewindsClock) {
  sim::Engine e;
  e.schedule(100, [] {});
  e.run();
  EXPECT_EQ(e.now(), 100u);
  EXPECT_TRUE(e.runUntil(50));  // drained, target in the past: clock untouched
  EXPECT_EQ(e.now(), 100u);
  e.schedule(200, [] {});
  EXPECT_FALSE(e.runUntil(50));  // future event beyond a past target
  EXPECT_EQ(e.now(), 100u);
}

TEST(Engine, RunUntilAfterStopAgreesWithEmptyOnTombstoneOnlyHeap) {
  // stop() with only cancelled tombstones left must report "drained": the
  // heap is non-empty but holds no live work (live_events_ == 0).
  sim::Engine e;
  sim::EventId victim = 0;
  e.schedule(10, [&] {
    e.stop();
    EXPECT_TRUE(e.cancel(victim));
  });
  victim = e.schedule(20, [] { FAIL() << "cancelled event fired"; });
  EXPECT_TRUE(e.runUntil(100));
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.now(), 10u);  // stop path: clock stays at the last event
}

TEST(Engine, RunUntilStopWithLiveEventsReportsNotDrained) {
  sim::Engine e;
  e.schedule(10, [&] { e.stop(); });
  e.schedule(20, [] {});
  EXPECT_FALSE(e.runUntil(100));
  EXPECT_FALSE(e.empty());
  EXPECT_EQ(e.now(), 10u);
  EXPECT_TRUE(e.runUntil(100));
  EXPECT_EQ(e.now(), 100u);
}

TEST(Engine, PendingStopIsHonoredByNextRunExactlyOnce) {
  // A stop() issued outside the run loop is a real request, not a no-op: the
  // next run call returns before processing anything, consuming the request;
  // the call after that proceeds normally.
  sim::Engine e;
  int ran = 0;
  e.schedule(10, [&] { ++ran; });
  e.stop();
  EXPECT_TRUE(e.stopRequested());
  e.run();
  EXPECT_EQ(ran, 0);
  EXPECT_FALSE(e.stopRequested());
  e.run();
  EXPECT_EQ(ran, 1);
}

TEST(Engine, PendingStopAppliesToRunUntilToo) {
  sim::Engine e;
  int ran = 0;
  e.schedule(10, [&] { ++ran; });
  e.stop();
  EXPECT_FALSE(e.runUntil(100));  // live event remains: not drained
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(e.now(), 0u);
  EXPECT_TRUE(e.runUntil(100));
  EXPECT_EQ(ran, 1);
}

TEST(Engine, CancelDuringRunUntilLeavesConsistentState) {
  sim::Engine e;
  int ran = 0;
  sim::EventId victim = e.schedule(30, [&] { ++ran; });
  e.schedule(10, [&] { EXPECT_TRUE(e.cancel(victim)); });
  e.schedule(20, [&] { ++ran; });
  EXPECT_TRUE(e.runUntil(50));  // tombstone at 30 is not live work
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(e.now(), 50u);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, PastClampedCountsSilentClamps) {
  sim::Engine e;
  EXPECT_EQ(e.pastClamped(), 0u);
  sim::TimePoint fired_at = 0;
  e.schedule(100, [&] {
    e.schedule(10, [&] { fired_at = e.now(); });  // in the past: clamped + counted
  });
  e.run();
  EXPECT_EQ(fired_at, 100u);
  EXPECT_EQ(e.pastClamped(), 1u);
}

TEST(Engine, ReentrantSchedulingFromCallback) {
  sim::Engine e;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) e.after(1, chain);
  };
  e.schedule(0, chain);
  e.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(e.now(), 99u);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto trace = [] {
    sim::Engine e;
    sim::SplitMix64 rng(7);
    std::vector<sim::TimePoint> t;
    for (int i = 0; i < 200; ++i) {
      e.schedule(rng.below(1000), [&t, &e] { t.push_back(e.now()); });
    }
    e.run();
    return t;
  };
  EXPECT_EQ(trace(), trace());
}

TEST(SmallFn, InlineAndHeapPathsBothInvoke) {
  struct Big {
    char pad[sim::SmallFn::kInlineCapacity + 8];
  };
  static_assert(sim::SmallFn::fitsInline<int*>());
  static_assert(!sim::SmallFn::fitsInline<Big[2]>());
  int small_hits = 0, big_hits = 0;
  sim::SmallFn small([&small_hits] { ++small_hits; });
  Big big{};
  big.pad[0] = 1;
  sim::SmallFn large([&big_hits, big] { big_hits += big.pad[0]; });
  small();
  small();
  large();
  EXPECT_EQ(small_hits, 2);
  EXPECT_EQ(big_hits, 1);
}

TEST(SmallFn, MoveTransfersOwnershipAndDestroys) {
  auto tracker = std::make_shared<int>(7);
  std::weak_ptr<int> alive = tracker;
  {
    sim::SmallFn a([tracker] {});
    tracker.reset();
    EXPECT_FALSE(alive.expired());
    sim::SmallFn b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(static_cast<bool>(b));
    EXPECT_FALSE(alive.expired());
    b.reset();
    EXPECT_TRUE(alive.expired());
  }
}

TEST(SmallFn, HotUcxCaptureShapesStayInline) {
  // The completion-continuation shape (shared_ptr + std::function) and the
  // arrival shape (pointer + 120-byte message) must not allocate; this is
  // the engine hot path. If this fires after growing Worker::Incoming,
  // either shrink it or bump SmallFn::kInlineCapacity.
  struct Completion {
    std::shared_ptr<int> req;
    std::function<void(int&)> cb;
  };
  static_assert(sim::SmallFn::fitsInline<Completion>());
  struct Arrival {
    void* worker;
    std::uint64_t scalars[3];  // tag, len, src_ptr
    std::vector<std::byte> payload;
    std::shared_ptr<int> req;
    std::function<void(int&)> cb;
    std::shared_ptr<const std::vector<std::byte>> owner;
    int src_pe;
    bool flags[3];
  };
  static_assert(sim::SmallFn::fitsInline<Arrival>());
}

TEST(Time, UnitConversionsRoundTrip) {
  EXPECT_EQ(sim::usec(1.0), 1000u);
  EXPECT_EQ(sim::msec(1.0), 1000000u);
  EXPECT_DOUBLE_EQ(sim::toUs(sim::usec(12.5)), 12.5);
  EXPECT_EQ(sim::usec(0.0), 0u);
  EXPECT_EQ(sim::usec(-5.0), 0u);
}

TEST(Time, TransferTimeMatchesBandwidth) {
  // 1 GB at 1 GB/s = 1 second = 1e9 ns.
  EXPECT_EQ(sim::transferTime(1'000'000'000, 1.0), 1'000'000'000u);
  // 4 MB at 50 GB/s = 80 us.
  EXPECT_NEAR(sim::toUs(sim::transferTime(4u << 20, 50.0)), 83.89, 0.1);
  EXPECT_EQ(sim::transferTime(0, 50.0), 0u);
}

TEST(Future, CallbackFiresOnSet) {
  sim::Promise<int> p;
  int seen = 0;
  p.future().onReady([&](const int& v) { seen = v; });
  EXPECT_FALSE(p.ready());
  p.set(42);
  EXPECT_EQ(seen, 42);
  EXPECT_TRUE(p.ready());
}

TEST(Future, CallbackAfterReadyFiresImmediately) {
  sim::Promise<void> p;
  p.set();
  bool seen = false;
  p.future().onReady([&] { seen = true; });
  EXPECT_TRUE(seen);
}

TEST(Future, AllOfWaitsForEveryInput) {
  std::vector<sim::Promise<void>> ps(5);
  std::vector<sim::Future<void>> fs;
  for (auto& p : ps) fs.push_back(p.future());
  auto all = sim::allOf(fs);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    EXPECT_FALSE(all.ready());
    ps[i].set();
  }
  EXPECT_TRUE(all.ready());
}

TEST(Future, AllOfEmptyIsImmediatelyReady) {
  EXPECT_TRUE(sim::allOf({}).ready());
}

sim::SimTask sleepTask(sim::Engine& e, sim::TimePoint& woke) {
  co_await sim::delay(e, sim::usec(5));
  woke = e.now();
}

TEST(Coroutine, DelayResumesAtRightTime) {
  sim::Engine e;
  sim::TimePoint woke = 0;
  (void)sleepTask(e, woke);
  e.run();
  EXPECT_EQ(woke, sim::usec(5));
}

sim::SimTask awaitFutureTask(sim::Future<int> f, int& out) {
  out = co_await f;
}

TEST(Coroutine, AwaitFutureSuspendsUntilSet) {
  sim::Engine e;
  sim::Promise<int> p;
  int out = 0;
  (void)awaitFutureTask(p.future(), out);
  EXPECT_EQ(out, 0);
  e.schedule(100, [&] { p.set(7); });
  e.run();
  EXPECT_EQ(out, 7);
}

sim::FutureTask chainTask(sim::Engine& e) {
  co_await sim::delay(e, 10);
  co_await sim::delay(e, 10);
}

TEST(Coroutine, FutureTaskCompletionObservable) {
  sim::Engine e;
  auto t = chainTask(e);
  EXPECT_FALSE(t.future().ready());
  e.run();
  EXPECT_TRUE(t.future().ready());
  EXPECT_EQ(e.now(), 20u);
}

sim::FutureTask nestedInner(sim::Engine& e) { co_await sim::delay(e, 30); }
sim::FutureTask nestedOuter(sim::Engine& e, sim::TimePoint& done) {
  co_await nestedInner(e);
  done = e.now();
}

TEST(Coroutine, TasksCompose) {
  sim::Engine e;
  sim::TimePoint done = 0;
  auto t = nestedOuter(e, done);
  e.run();
  EXPECT_EQ(done, 30u);
  EXPECT_TRUE(t.future().ready());
}

TEST(Rng, DeterministicStream) {
  sim::SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BetweenStaysInRange) {
  sim::SplitMix64 r(99);
  for (int i = 0; i < 1000; ++i) {
    auto v = r.between(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, FillIsReproducible) {
  sim::SplitMix64 a(5), b(5);
  std::vector<unsigned char> x(37), y(37);
  a.fill(x.data(), x.size());
  b.fill(y.data(), y.size());
  EXPECT_EQ(x, y);
}

}  // namespace
