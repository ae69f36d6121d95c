#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <deque>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "model/model.hpp"
#include "sim/rng.hpp"
#include "ucx/context.hpp"
#include "ucx/worker.hpp"

/// Tag-matching engine semantics and complexity guarantees.
///
/// The bucketed matcher (UcxConfig::matcher == Bucketed) must be
/// observationally identical to the retained reference linear matcher: same
/// completion order, same cancellation outcomes, same probe results, for any
/// interleaving of posts, arrivals, cancels and probes — including wildcard
/// masks racing exact receives. The seeded property test here replays
/// randomized interleavings through both engines side by side and compares
/// the full delivery logs. Complexity is pinned with the matchScanSteps()
/// counter (cancel must not scan) and with a global allocation counter
/// (steady-state eager traffic must not touch the heap).

// --------------------------------------------------------------------------
// Global allocation counter: every operator new in this binary ticks it. The
// zero-allocation test samples the counter around a steady-state traffic
// region; everything else ignores it.
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

struct Harness {
  explicit Harness(ucx::MatcherImpl impl, int nodes = 1) : m(model::summit(nodes)) {
    m.ucx.matcher = impl;
    sys = std::make_unique<hw::System>(m.machine);
    ctx = std::make_unique<ucx::Context>(*sys, m.ucx);
  }
  model::Model m;
  std::unique_ptr<hw::System> sys;
  std::unique_ptr<ucx::Context> ctx;
};

// --------------------------------------------------------------------------
// Seeded randomized cross-check: bucketed vs reference linear matcher
// --------------------------------------------------------------------------

/// One observable event; the logs of both engines must be element-wise equal.
struct LogEntry {
  char kind;  ///< 'r' recv done, 'x' recv cancelled, 's' send done, 'p' probe
  ucx::Tag tag = 0;
  std::uint64_t bytes = 0;
  int peer = -1;
  friend bool operator==(const LogEntry&, const LogEntry&) = default;
};

/// Replays one seeded interleaving of post/arrival/cancel/probe/drain ops
/// and returns the observable log. Both engines get the *same* op sequence
/// because the sequence is derived from the seed alone.
std::vector<LogEntry> replay(ucx::MatcherImpl impl, std::uint64_t seed) {
  Harness h(impl);
  ucx::Worker& w = h.ctx->worker(1);
  sim::SplitMix64 rng(seed);

  std::vector<LogEntry> log;
  // Stable buffers: ops index into preallocated storage.
  constexpr int kOps = 400;
  constexpr std::uint64_t kLen = 64;
  std::deque<std::vector<std::byte>> bufs;
  std::vector<ucx::RequestPtr> outstanding;

  auto randomTag = [&rng] { return static_cast<ucx::Tag>(rng.below(12)); };

  for (int op = 0; op < kOps; ++op) {
    switch (rng.below(10)) {
      case 0:
      case 1:
      case 2: {  // post a receive: exact, class-wildcard, or match-any
        const ucx::Tag tag = randomTag();
        const std::uint32_t kind = rng.below(8);
        const ucx::Tag mask = kind < 5 ? ucx::kFullMask : (kind < 7 ? ucx::Tag{0x3} : ucx::Tag{0});
        bufs.emplace_back(kLen);
        auto* log_p = &log;
        outstanding.push_back(w.tagRecv(bufs.back().data(), kLen, tag, mask,
                                        [log_p](ucx::Request& r) {
                                          log_p->push_back({r.cancelled() ? 'x' : 'r',
                                                            r.matched_tag, r.bytes, r.peer_pe});
                                        }));
        break;
      }
      case 3:
      case 4:
      case 5: {  // send a message into the worker
        const ucx::Tag tag = randomTag();
        bufs.emplace_back(kLen);
        auto* log_p = &log;
        h.ctx->tagSend(0, 1, bufs.back().data(), kLen, tag, [log_p](ucx::Request& r) {
          log_p->push_back({'s', r.matched_tag, r.bytes, r.peer_pe});
        });
        break;
      }
      case 6: {  // cancel a random outstanding receive (may already be done)
        if (!outstanding.empty()) {
          const std::size_t i = rng.below(outstanding.size());
          w.cancelRecv(outstanding[i]);
        }
        break;
      }
      case 7:
      case 8: {  // probe: exact or masked
        const ucx::Tag tag = randomTag();
        const ucx::Tag mask = rng.below(2) == 0 ? ucx::kFullMask : ucx::Tag{0x3};
        if (auto info = w.probe(tag, mask)) {
          log.push_back({'p', info->tag, info->len, info->src_pe});
        }
        break;
      }
      default: {  // let in-flight traffic land (arrivals + completions)
        h.sys->engine.run();
        break;
      }
    }
  }
  h.sys->engine.run();

  // Final queue occupancy is part of the observable state.
  log.push_back({'q', static_cast<ucx::Tag>(w.postedCount()), w.unexpectedCount(), 0});
  return log;
}

TEST(MatcherCrossCheck, RandomInterleavingsMatchReferenceMatcher) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto bucketed = replay(ucx::MatcherImpl::Bucketed, seed);
    const auto linear = replay(ucx::MatcherImpl::Linear, seed);
    ASSERT_EQ(bucketed.size(), linear.size()) << "seed " << seed;
    for (std::size_t i = 0; i < bucketed.size(); ++i) {
      ASSERT_TRUE(bucketed[i] == linear[i])
          << "seed " << seed << " diverges at event " << i << ": bucketed {" << bucketed[i].kind
          << ", tag " << bucketed[i].tag << ", bytes " << bucketed[i].bytes << ", peer "
          << bucketed[i].peer << "} vs linear {" << linear[i].kind << ", tag " << linear[i].tag
          << ", bytes " << linear[i].bytes << ", peer " << linear[i].peer << "}";
    }
    // Each seed should actually exercise the matcher.
    EXPECT_GT(bucketed.size(), 50u) << "seed " << seed;
  }
}

// --------------------------------------------------------------------------
// O(1) cancellation: cancelling one of 10k posted receives must not scan
// the other 9999 (counter-based, not timing-based)
// --------------------------------------------------------------------------

TEST(MatcherComplexity, CancelOfOnePostedReceiveDoesNotScanTheRest) {
  Harness h(ucx::MatcherImpl::Bucketed);
  ucx::Worker& w = h.ctx->worker(1);
  constexpr int kPosted = 10000;
  std::vector<std::byte> buf(64);
  std::vector<ucx::RequestPtr> reqs;
  reqs.reserve(kPosted);
  for (int i = 0; i < kPosted; ++i) {
    reqs.push_back(w.tagRecv(buf.data(), 64, static_cast<ucx::Tag>(i), ucx::kFullMask, {}));
  }
  ASSERT_EQ(w.postedCount(), static_cast<std::size_t>(kPosted));

  const std::uint64_t steps_before = w.matchScanSteps();
  EXPECT_TRUE(w.cancelRecv(reqs[kPosted / 2]));
  const std::uint64_t delta = w.matchScanSteps() - steps_before;
  EXPECT_LE(delta, 1u) << "cancel scanned " << delta << " matcher nodes; must be O(1)";
  EXPECT_EQ(w.postedCount(), static_cast<std::size_t>(kPosted - 1));

  h.sys->engine.run();
  EXPECT_TRUE(reqs[kPosted / 2]->cancelled());

  // The remaining receives are untouched and still match.
  bool done = false;
  std::vector<std::byte> src(64);
  h.ctx->tagSend(0, 1, src.data(), 64, static_cast<ucx::Tag>(kPosted - 1), {});
  h.sys->engine.run();
  EXPECT_TRUE(reqs[kPosted - 1]->done());
  (void)done;
}

TEST(MatcherComplexity, ReferenceLinearCancelDoesScanValidatingTheCounter) {
  // Sanity check that matchScanSteps() actually measures scans: the linear
  // matcher must pay ~N/2 node visits for the same cancel the bucketed
  // matcher does for free.
  Harness h(ucx::MatcherImpl::Linear);
  ucx::Worker& w = h.ctx->worker(1);
  constexpr int kPosted = 10000;
  std::vector<std::byte> buf(64);
  std::vector<ucx::RequestPtr> reqs;
  reqs.reserve(kPosted);
  for (int i = 0; i < kPosted; ++i) {
    reqs.push_back(w.tagRecv(buf.data(), 64, static_cast<ucx::Tag>(i), ucx::kFullMask, {}));
  }
  const std::uint64_t steps_before = w.matchScanSteps();
  EXPECT_TRUE(w.cancelRecv(reqs[kPosted / 2]));
  EXPECT_GE(w.matchScanSteps() - steps_before, static_cast<std::uint64_t>(kPosted / 2));
  h.sys->engine.run();
}

TEST(MatcherComplexity, ExactProbeDoesNotScanUnexpectedQueue) {
  Harness h(ucx::MatcherImpl::Bucketed);
  ucx::Worker& w = h.ctx->worker(1);
  constexpr int kMsgs = 4096;
  std::vector<std::byte> src(64);
  for (int i = 0; i < kMsgs; ++i) {
    h.ctx->tagSend(0, 1, src.data(), 64, static_cast<ucx::Tag>(i), {});
  }
  h.sys->engine.run();
  ASSERT_EQ(w.unexpectedCount(), static_cast<std::size_t>(kMsgs));

  const std::uint64_t steps_before = w.matchScanSteps();
  const auto info = w.probe(static_cast<ucx::Tag>(kMsgs - 1), ucx::kFullMask);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->tag, static_cast<ucx::Tag>(kMsgs - 1));
  // O(1) expected: the probed chain holds exactly one message.
  EXPECT_LE(w.matchScanSteps() - steps_before, 4u);
}

// --------------------------------------------------------------------------
// Zero per-message heap allocations on the steady-state eager path
// --------------------------------------------------------------------------

TEST(MatcherAllocations, SteadyStateEagerPathIsAllocationFree) {
  Harness h(ucx::MatcherImpl::Bucketed);
  ucx::Worker& w = h.ctx->worker(1);
  constexpr int kTags = 64;
  constexpr std::uint64_t kLen = 256;
  std::vector<std::byte> src(kLen), dst(kLen);
  std::vector<ucx::RequestPtr> reqs;
  reqs.reserve(kTags * 2);

  // One traffic round: posted-first for even tags, unexpected-first for odd
  // tags, fully drained — both matcher sides and both pool paths get hot.
  auto round = [&] {
    reqs.clear();
    for (int i = 0; i < kTags; i += 2) {
      reqs.push_back(w.tagRecv(dst.data(), kLen, static_cast<ucx::Tag>(i), ucx::kFullMask, {}));
      h.ctx->tagSend(0, 1, src.data(), kLen, static_cast<ucx::Tag>(i), {});
    }
    for (int i = 1; i < kTags; i += 2) {
      h.ctx->tagSend(0, 1, src.data(), kLen, static_cast<ucx::Tag>(i), {});
    }
    h.sys->engine.run();
    for (int i = 1; i < kTags; i += 2) {
      reqs.push_back(w.tagRecv(dst.data(), kLen, static_cast<ucx::Tag>(i), ucx::kFullMask, {}));
    }
    h.sys->engine.run();
  };

  // Warm every pool and slab: request arena, payload buffer pool, bucket
  // tables, engine event storage.
  for (int i = 0; i < 4; ++i) round();

  const std::uint64_t pool_misses_before =
      h.ctx->requestPoolMisses() + h.ctx->bufferPoolMisses();
  const std::uint64_t allocs_before = g_heap_allocs;
  for (int i = 0; i < 16; ++i) round();
  const std::uint64_t allocs = g_heap_allocs - allocs_before;
  const std::uint64_t pool_misses =
      h.ctx->requestPoolMisses() + h.ctx->bufferPoolMisses() - pool_misses_before;

  EXPECT_EQ(allocs, 0u) << "steady-state eager traffic performed " << allocs
                        << " heap allocations (16 rounds x " << kTags << " messages)";
  EXPECT_EQ(pool_misses, 0u);
  EXPECT_GT(h.ctx->requestPoolHits(), 0u);
  EXPECT_GT(h.ctx->bufferPoolHits(), 0u);
}

// --------------------------------------------------------------------------
// Match statistics surface (gpucomm_sweep --metric match)
// --------------------------------------------------------------------------

TEST(MatcherStats, OccupancyAndWatermarksAreReported) {
  Harness h(ucx::MatcherImpl::Bucketed);
  ucx::Worker& w = h.ctx->worker(1);
  std::vector<std::byte> buf(64), src(64);
  for (int i = 0; i < 100; ++i) {
    w.tagRecv(buf.data(), 64, static_cast<ucx::Tag>(i), ucx::kFullMask, {});
  }
  for (int i = 0; i < 40; ++i) {
    h.ctx->tagSend(0, 1, src.data(), 64, static_cast<ucx::Tag>(1000 + i), {});
  }
  h.sys->engine.run();

  const auto ws = w.matchStats();
  EXPECT_EQ(ws.posted, 100u);
  EXPECT_EQ(ws.unexpected, 40u);
  EXPECT_GE(ws.posted_hwm, 100u);
  EXPECT_GE(ws.unexpected_hwm, 40u);
  EXPECT_GT(ws.posted_buckets, 0u);
  EXPECT_GT(ws.unexpected_buckets, 0u);
  EXPECT_GE(ws.posted_max_chain, 1u);

  const auto cs = h.ctx->matchStats();
  EXPECT_GE(cs.posted, ws.posted);
  EXPECT_GE(cs.unexpected, ws.unexpected);
}

}  // namespace
