#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "ampi/ampi.hpp"
#include "apps/train/train.hpp"
#include "charm4py/charm4py.hpp"
#include "coll/c4p_group.hpp"
#include "coll/charm_section.hpp"
#include "coll/coll.hpp"
#include "model/model.hpp"
#include "sim/fault.hpp"
#include "ucx/context.hpp"

/// Fail-stop PE failures end to end: the heartbeat detector turns requests
/// against a dead PE terminal (never a hang), collectives with a failed
/// member abort on every survivor within the detection + retry budget,
/// survivors rebuild via the ULFM-style shrink on all three stacks, and the
/// training workload checkpoint/restarts to a final model state bit-identical
/// to an unfailed run. Transient outages (LinkDownWindow, including the
/// bidirectional helper) are recoverable by retransmission alone and must
/// not abort anything.

namespace {

using namespace cux;

struct StackFixture {
  explicit StackFixture(int nodes, sim::FaultConfig fault = {}) : m(model::summit(nodes)) {
    m.machine.fault = fault;
    sys = std::make_unique<hw::System>(m.machine);
    ctx = std::make_unique<ucx::Context>(*sys, m.ucx);
    rt = std::make_unique<ck::Runtime>(*sys, *ctx, m);
  }
  model::Model m;
  std::unique_ptr<hw::System> sys;
  std::unique_ptr<ucx::Context> ctx;
  std::unique_ptr<ck::Runtime> rt;
};

// Device send/recv buffers, one pair per member; member r's send buffer
// holds 100*r + j.
struct MemberBufs {
  MemberBufs(hw::System& sys, const std::vector<int>& pes, std::uint64_t count) {
    for (std::size_t r = 0; r < pes.size(); ++r) {
      send.push_back(std::make_unique<cuda::DeviceBuffer>(sys, pes[r], count * 8));
      recv.push_back(std::make_unique<cuda::DeviceBuffer>(sys, pes[r], count * 8));
      auto* p = send.back()->as<double>();
      for (std::uint64_t j = 0; j < count; ++j) {
        p[j] = 100.0 * static_cast<double>(r) + static_cast<double>(j);
      }
    }
  }
  std::vector<std::unique_ptr<cuda::DeviceBuffer>> send, recv;
};

template <class RankT>
sim::FutureTask memberTask(RankT r, std::function<sim::FutureTask(RankT&)> body,
                           std::shared_ptr<int> left, sim::Promise<void> all_done) {
  co_await body(r);
  if (--*left == 0) all_done.set();
}

sim::Future<void> runSection(coll::CharmSection& sec,
                             std::function<sim::FutureTask(coll::SectionRank&)> body) {
  auto left = std::make_shared<int>(sec.size());
  sim::Promise<void> done;
  for (int r = 0; r < sec.size(); ++r) {
    coll::SectionRank sr = sec.rank(r);
    sec.runtime().startOn(sec.peOf(r), [sr, body, left, done] {
      (void)memberTask(sr, body, left, done);
    });
  }
  return done.future();
}

sim::Future<void> runGroup(coll::C4pGroup& grp,
                           std::function<sim::FutureTask(coll::C4pRank&)> body) {
  auto left = std::make_shared<int>(grp.size());
  sim::Promise<void> done;
  for (int r = 0; r < grp.size(); ++r) {
    coll::C4pRank cr = grp.rank(r);
    grp.charm4py().startOn(grp.peOf(r), [cr, body, left, done] {
      (void)memberTask(cr, body, left, done);
    });
  }
  return done.future();
}

// A fault config whose only event is PE `pe` halting at `at_us`.
sim::FaultConfig killAt(int pe, double at_us) {
  sim::FaultConfig fc;
  fc.killPe(pe, sim::usec(at_us));
  return fc;
}

// --------------------------------------------------------------------------
// Detector: requests against a dead PE terminate, bounded by the
// detection horizon plus the retry budget — the engine always drains.
// (Context-only fixture: raw tagSend with a ck::Runtime registered would
// dispatch into the chare table.)
// --------------------------------------------------------------------------

struct CtxFixture {
  explicit CtxFixture(const sim::FaultConfig& fault) : m(model::summit(2)) {
    m.machine.fault = fault;
    sys = std::make_unique<hw::System>(m.machine);
    ctx = std::make_unique<ucx::Context>(*sys, m.ucx);
  }
  model::Model m;
  std::unique_ptr<hw::System> sys;
  std::unique_ptr<ucx::Context> ctx;
};

TEST(FailstopDetect, RendezvousSendToDeadPeTurnsPeerFailedNotHang) {
  // The destination is dead before the RTS can land: every copy blackholes
  // at arrival, and the retry machinery — not an infinite resend loop —
  // must surface PeerFailed once the detector has blamed the dead endpoint.
  CtxFixture f(killAt(6, 0.0));
  std::vector<std::byte> src(64 * 1024);
  bool send_done = false;
  auto req = f.ctx->tagSend(0, 6, src.data(), src.size(), 0x9, [&](ucx::Request& r) {
    send_done = true;
    EXPECT_TRUE(r.failed());
  });
  f.sys->engine.run();  // returning at all proves nothing hung
  EXPECT_TRUE(send_done);
  EXPECT_TRUE(req->peerFailed());
  EXPECT_GE(f.ctx->peFailuresDetected(), 1u);
  EXPECT_GE(f.ctx->peerFailedRequests(), 1u);
}

TEST(FailstopDetect, DeadPesOwnInflightSendTerminates) {
  // The dying PE had an undelivered rendezvous send of its own in flight
  // (its link went down with it): the peerKnownDead check is src/dst
  // symmetric, so the dead side's request reaches a terminal state too and
  // nothing is parked forever.
  sim::FaultConfig fc = killAt(1, 20.0);
  fc.down_windows.push_back(sim::LinkDownWindow{0, sim::usec(5000.0), 1, 0});
  CtxFixture f(fc);
  std::vector<std::byte> src(64 * 1024);
  auto sreq = f.ctx->tagSend(1, 0, src.data(), src.size(), 0xB, {});
  f.sys->engine.run();
  EXPECT_TRUE(sreq->failed()) << "dead PE's own in-flight send must terminate";
  EXPECT_TRUE(sreq->peerFailed());
  EXPECT_GE(f.ctx->peFailuresDetected(), 1u);
}

// --------------------------------------------------------------------------
// FaultConfig::bidirectionalOutage covers both directions of the pair.
// --------------------------------------------------------------------------

TEST(FailstopOutage, BidirectionalOutageDropsBothDirectionsDuringWindow) {
  sim::FaultInjector inj;
  sim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.bidirectionalOutage(sim::usec(100.0), sim::usec(200.0), 2, 5);
  inj.configure(cfg);
  EXPECT_FALSE(inj.linkDown(sim::usec(99.0), 2, 5));
  EXPECT_TRUE(inj.linkDown(sim::usec(150.0), 2, 5));
  EXPECT_TRUE(inj.linkDown(sim::usec(150.0), 5, 2));  // reverse leg too
  EXPECT_FALSE(inj.linkDown(sim::usec(200.0), 2, 5));  // half-open interval
  EXPECT_FALSE(inj.linkDown(sim::usec(150.0), 2, 4));  // other pairs untouched
  EXPECT_FALSE(inj.linkDown(sim::usec(150.0), 4, 2));
}

// --------------------------------------------------------------------------
// Collectives under a transient bidirectional outage: retransmission alone
// recovers — correct sums, no abort — on all three stacks.
// --------------------------------------------------------------------------

void expectSum(const MemberBufs& bufs, int n, std::uint64_t count, const char* what) {
  for (int r = 0; r < n; ++r) {
    const auto* p = bufs.recv[static_cast<std::size_t>(r)]->as<double>();
    for (std::uint64_t j = 0; j < count; j += 61) {
      const double expected =
          100.0 * (n * (n - 1) / 2) + static_cast<double>(n) * static_cast<double>(j);
      ASSERT_DOUBLE_EQ(p[j], expected) << what << ": member " << r << " element " << j;
    }
  }
}

sim::FaultConfig outage23() {
  sim::FaultConfig fc;
  fc.enabled = true;
  // Both directions of the PE2<->PE3 link dead for 100 us mid-collective;
  // well under the retry budget, so retransmits recover without aborting.
  fc.bidirectionalOutage(sim::usec(20.0), sim::usec(120.0), 2, 3);
  return fc;
}

TEST(FailstopOutage, AmpiAllreduceRidesOutLinkOutage) {
  StackFixture f(2, outage23());
  const int n = 8;
  const std::uint64_t count = 4096;
  std::vector<int> pes;
  for (int r = 0; r < n; ++r) pes.push_back(r);
  MemberBufs bufs(*f.sys, pes, count);

  coll::CollConfig cfg;
  cfg.impl = coll::CollImpl::Ring;
  cfg.chunk_bytes = 8 * 1024;
  ampi::World world(*f.rt, n);
  bool any_abort = false;
  world.run([&](ampi::Rank& r) -> sim::FutureTask {
    const auto me = static_cast<std::size_t>(r.rank());
    co_await coll::allreduce(r, bufs.send[me]->get(), bufs.recv[me]->get(), count,
                             coll::Op::Sum, coll::kCollTagBase, cfg);
    any_abort |= r.aborted();
  });
  f.sys->engine.run();
  ASSERT_TRUE(world.done().ready()) << "allreduce under outage deadlocked";
  EXPECT_FALSE(any_abort) << "transient outage must not revoke the communicator";
  expectSum(bufs, n, count, "ampi@outage");
}

TEST(FailstopOutage, SectionAllreduceRidesOutLinkOutage) {
  StackFixture f(2, outage23());
  const std::vector<int> pes = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::uint64_t count = 4096;
  MemberBufs bufs(*f.sys, pes, count);
  coll::CharmSection sec(*f.rt, pes);

  coll::CollConfig cfg;
  cfg.impl = coll::CollImpl::Ring;
  cfg.chunk_bytes = 8 * 1024;
  auto done = runSection(sec, [&](coll::SectionRank& r) -> sim::FutureTask {
    const auto me = static_cast<std::size_t>(r.rank());
    co_await coll::allreduce(r, bufs.send[me]->get(), bufs.recv[me]->get(), count,
                             coll::Op::Sum, coll::kCollTagBase, cfg);
  });
  f.sys->engine.run();
  ASSERT_TRUE(done.ready()) << "section allreduce under outage deadlocked";
  EXPECT_FALSE(sec.aborted());
  expectSum(bufs, static_cast<int>(pes.size()), count, "section@outage");
}

TEST(FailstopOutage, Charm4pyAllreduceRidesOutLinkOutage) {
  StackFixture f(2, outage23());
  const std::vector<int> pes = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::uint64_t count = 4096;
  MemberBufs bufs(*f.sys, pes, count);
  c4p::Charm4py py(*f.rt);
  coll::C4pGroup grp(py, pes);

  coll::CollConfig cfg;
  cfg.impl = coll::CollImpl::Ring;
  cfg.chunk_bytes = 8 * 1024;
  auto done = runGroup(grp, [&](coll::C4pRank& r) -> sim::FutureTask {
    const auto me = static_cast<std::size_t>(r.rank());
    co_await coll::allreduce(r, bufs.send[me]->get(), bufs.recv[me]->get(), count,
                             coll::Op::Sum, coll::kCollTagBase, cfg);
  });
  f.sys->engine.run();
  ASSERT_TRUE(done.ready()) << "charm4py allreduce under outage deadlocked";
  EXPECT_FALSE(grp.aborted());
  expectSum(bufs, static_cast<int>(pes.size()), count, "charm4py@outage");
}

// --------------------------------------------------------------------------
// A collective with a failed member aborts on every survivor — bounded by
// the detector, never a hang — and succeeds on the shrunk communicator.
// --------------------------------------------------------------------------

constexpr int kDeadRank = 3;  // member (and PE) killed mid-collective
// Large enough that the allreduce is still in flight when detection lands
// (~500 us after the 50 us kill).
constexpr std::uint64_t kBigCount = 256 * 1024;

TEST(FailstopShrink, AmpiAllreduceAbortsOnSurvivorsThenShrinksAndSucceeds) {
  const int n = 8;
  StackFixture f(2, killAt(kDeadRank, 50.0));
  std::vector<int> pes;
  for (int r = 0; r < n; ++r) pes.push_back(r);
  MemberBufs bufs(*f.sys, pes, kBigCount);
  const std::uint64_t count2 = 4096;
  MemberBufs bufs2(*f.sys, pes, count2);

  coll::CollConfig cfg;
  cfg.impl = coll::CollImpl::Ring;
  cfg.chunk_bytes = 64 * 1024;
  ampi::World world(*f.rt, n);
  std::vector<char> survivor_aborted(static_cast<std::size_t>(n), 0);
  std::vector<char> shrunk_ok(static_cast<std::size_t>(n), 0);
  world.run([&](ampi::Rank& r) -> sim::FutureTask {
    const auto me = static_cast<std::size_t>(r.rank());
    ampi::CommRank wr(r, r.commWorld());
    co_await coll::allreduce(wr, bufs.send[me]->get(), bufs.recv[me]->get(), kBigCount,
                             coll::Op::Sum, coll::kCollTagBase, cfg);
    if (r.rank() != kDeadRank) survivor_aborted[me] = wr.aborted() ? 1 : 0;
    ampi::Comm nc = co_await wr.shrink();
    if (!nc.valid()) co_return;  // the dead rank drains here
    ampi::CommRank sr(r, nc);
    co_await coll::allreduce(sr, bufs2.send[me]->get(), bufs2.recv[me]->get(), count2,
                             coll::Op::Sum, coll::collTag(1), cfg);
    shrunk_ok[me] = 1;
  });
  f.sys->engine.run();
  ASSERT_TRUE(world.done().ready()) << "fail-stop run deadlocked";

  // Sum over the 7 survivors of (100*r + j), original rank numbering.
  double rank_sum = 0;
  for (int r = 0; r < n; ++r) {
    if (r != kDeadRank) rank_sum += 100.0 * r;
  }
  for (int r = 0; r < n; ++r) {
    const auto me = static_cast<std::size_t>(r);
    if (r == kDeadRank) {
      EXPECT_EQ(shrunk_ok[me], 0) << "dead rank joined the shrunk communicator";
      continue;
    }
    EXPECT_EQ(survivor_aborted[me], 1) << "survivor " << r << " never observed the abort";
    ASSERT_EQ(shrunk_ok[me], 1) << "survivor " << r << " missed the shrunk allreduce";
    const auto* p = bufs2.recv[me]->as<double>();
    for (std::uint64_t j = 0; j < count2; j += 61) {
      ASSERT_DOUBLE_EQ(p[j], rank_sum + static_cast<double>(n - 1) * static_cast<double>(j))
          << "survivor " << r << " element " << j;
    }
  }
  EXPECT_GE(f.sys->obs.registry.counterValue("coll.aborted"), 1u);
}

TEST(FailstopShrink, SectionAllreduceAbortsThenShrunkSectionSucceeds) {
  StackFixture f(2, killAt(kDeadRank, 50.0));
  const std::vector<int> pes = {0, 1, 2, 3, 4, 5, 6, 7};
  MemberBufs bufs(*f.sys, pes, kBigCount);
  coll::CharmSection sec(*f.rt, pes);

  coll::CollConfig cfg;
  cfg.impl = coll::CollImpl::Ring;
  cfg.chunk_bytes = 64 * 1024;
  auto done = runSection(sec, [&](coll::SectionRank& r) -> sim::FutureTask {
    const auto me = static_cast<std::size_t>(r.rank());
    co_await coll::allreduce(r, bufs.send[me]->get(), bufs.recv[me]->get(), kBigCount,
                             coll::Op::Sum, coll::kCollTagBase, cfg);
  });
  f.sys->engine.run();
  ASSERT_TRUE(done.ready()) << "section fail-stop run deadlocked";
  EXPECT_TRUE(sec.aborted()) << "section never observed the member failure";

  const std::vector<int> alive = sec.survivors();
  ASSERT_EQ(alive.size(), pes.size() - 1);
  EXPECT_TRUE(std::find(alive.begin(), alive.end(), kDeadRank) == alive.end());

  auto s2 = sec.shrink();
  ASSERT_NE(s2, nullptr);
  ASSERT_EQ(s2->size(), static_cast<int>(alive.size()));
  const std::uint64_t count2 = 4096;
  MemberBufs bufs2(*f.sys, alive, count2);
  auto done2 = runSection(*s2, [&](coll::SectionRank& r) -> sim::FutureTask {
    const auto me = static_cast<std::size_t>(r.rank());
    co_await coll::allreduce(r, bufs2.send[me]->get(), bufs2.recv[me]->get(), count2,
                             coll::Op::Sum, coll::collTag(1), cfg);
  });
  f.sys->engine.run();
  ASSERT_TRUE(done2.ready()) << "shrunk section allreduce deadlocked";
  EXPECT_FALSE(s2->aborted());
  expectSum(bufs2, static_cast<int>(alive.size()), count2, "section@shrunk");
}

TEST(FailstopShrink, Charm4pyGroupAbortsThenShrunkGroupSucceeds) {
  StackFixture f(2, killAt(kDeadRank, 50.0));
  const std::vector<int> pes = {0, 1, 2, 3, 4, 5, 6, 7};
  MemberBufs bufs(*f.sys, pes, kBigCount);
  c4p::Charm4py py(*f.rt);
  coll::C4pGroup grp(py, pes);

  coll::CollConfig cfg;
  cfg.impl = coll::CollImpl::Ring;
  cfg.chunk_bytes = 64 * 1024;
  auto done = runGroup(grp, [&](coll::C4pRank& r) -> sim::FutureTask {
    const auto me = static_cast<std::size_t>(r.rank());
    co_await coll::allreduce(r, bufs.send[me]->get(), bufs.recv[me]->get(), kBigCount,
                             coll::Op::Sum, coll::kCollTagBase, cfg);
  });
  f.sys->engine.run();
  ASSERT_TRUE(done.ready()) << "charm4py fail-stop run deadlocked";
  EXPECT_TRUE(grp.aborted()) << "group never observed the member failure";

  const std::vector<int> alive = grp.survivors();
  ASSERT_EQ(alive.size(), pes.size() - 1);
  auto g2 = grp.shrink();
  ASSERT_NE(g2, nullptr);
  const std::uint64_t count2 = 4096;
  MemberBufs bufs2(*f.sys, alive, count2);
  auto done2 = runGroup(*g2, [&](coll::C4pRank& r) -> sim::FutureTask {
    const auto me = static_cast<std::size_t>(r.rank());
    co_await coll::allreduce(r, bufs2.send[me]->get(), bufs2.recv[me]->get(), count2,
                             coll::Op::Sum, coll::collTag(1), cfg);
  });
  f.sys->engine.run();
  ASSERT_TRUE(done2.ready()) << "shrunk group allreduce deadlocked";
  EXPECT_FALSE(g2->aborted());
  expectSum(bufs2, static_cast<int>(alive.size()), count2, "charm4py@shrunk");
}

// --------------------------------------------------------------------------
// Recovery metrics reach the registry.
// --------------------------------------------------------------------------

TEST(FailstopMetrics, RegistryExposesDetectionAndShrinkCounters) {
  StackFixture f(2, killAt(kDeadRank, 50.0));
  const int n = 8;
  std::vector<int> pes;
  for (int r = 0; r < n; ++r) pes.push_back(r);
  MemberBufs bufs(*f.sys, pes, kBigCount);

  coll::CollConfig cfg;
  cfg.impl = coll::CollImpl::Ring;
  cfg.chunk_bytes = 64 * 1024;
  ampi::World world(*f.rt, n);
  world.run([&](ampi::Rank& r) -> sim::FutureTask {
    const auto me = static_cast<std::size_t>(r.rank());
    ampi::CommRank wr(r, r.commWorld());
    co_await coll::allreduce(wr, bufs.send[me]->get(), bufs.recv[me]->get(), kBigCount,
                             coll::Op::Sum, coll::kCollTagBase, cfg);
    ampi::Comm nc = co_await wr.shrink();
    (void)nc;
  });
  f.sys->engine.run();
  ASSERT_TRUE(world.done().ready());

  f.sys->obs.refresh();
  const obs::Registry& reg = f.sys->obs.registry;
  EXPECT_GE(reg.gaugeValue("ucx.pe_failures_detected"), 1u);
  EXPECT_GE(reg.gaugeValue("ucx.peer_failed_reqs"), 1u);
  EXPECT_GE(reg.counterValue("coll.aborted"), 1u);
  EXPECT_GE(reg.gaugeValue("ampi.revoked_comms"), 1u);
  EXPECT_GE(reg.gaugeValue("ampi.shrink_events"), 1u);
}

// --------------------------------------------------------------------------
// Training: lose a PE mid-step, restart from the checkpoint, finish with a
// final model state bit-identical to the unfailed run — on all three stacks.
// --------------------------------------------------------------------------

train::TrainConfig smallTrainConfig() {
  train::TrainConfig cfg;
  cfg.nodes = 2;
  cfg.ranks = 8;
  cfg.steps = 3;
  cfg.layer_params = {16 * 1024, 64 * 1024, 128 * 1024, 128 * 1024, 64 * 1024, 16 * 1024};
  cfg.bucket_bytes = 1024 * 1024;
  return cfg;
}

/// The training stacks as a one-byte test parameter, in registration order:
/// each case's registered name prints the byte (<00> is ampi).
enum class StackParam : std::uint8_t { Ampi, Charm, Charm4py };

constexpr const char* kParamNames[] = {"ampi", "charm", "charm4py"};

train::Stack stackOf(StackParam p) {
  constexpr train::Stack kStacks[] = {train::Stack::Ampi, train::Stack::Charm,
                                      train::Stack::Charm4py};
  return kStacks[static_cast<std::size_t>(p)];
}

class FailstopTrain : public ::testing::TestWithParam<StackParam> {};

TEST_P(FailstopTrain, CheckpointRestartReproducesUnfailedDigest) {
  const train::TrainConfig cfg = smallTrainConfig();
  const train::TrainResult base = train::runTrain(cfg, stackOf(GetParam()));
  ASSERT_FALSE(base.failed);
  ASSERT_TRUE(base.verified);
  EXPECT_EQ(base.restarts, 0);
  EXPECT_EQ(base.hung_ranks, 0);
  ASSERT_NE(base.model_digest, 0u);

  train::TrainConfig fcfg = cfg;
  fcfg.fault.kill_pe = 1;
  fcfg.fault.kill_at_us = base.total_us * 0.4;  // mid-run, collectives in flight
  const train::TrainResult rec = train::runTrain(fcfg, stackOf(GetParam()));
  ASSERT_FALSE(rec.failed) << "recovery exhausted its restart budget";
  EXPECT_TRUE(rec.recovered) << "the injected failure never hit";
  EXPECT_GE(rec.restarts, 1);
  EXPECT_EQ(rec.completed_steps, cfg.steps);
  EXPECT_EQ(rec.hung_ranks, 0) << "a rank neither finished nor took the abort exit";
  EXPECT_TRUE(rec.verified);
  EXPECT_EQ(rec.model_digest, base.model_digest)
      << "recovered model diverged from the unfailed run";
  // Lost work means the recovered job cannot have been cheaper.
  EXPECT_GT(rec.total_us, base.total_us);
}

INSTANTIATE_TEST_SUITE_P(AllStacks, FailstopTrain,
                         ::testing::Values(StackParam::Ampi, StackParam::Charm,
                                           StackParam::Charm4py),
                         [](const ::testing::TestParamInfo<StackParam>& i) {
                           return kParamNames[static_cast<std::size_t>(i.param)];
                         });

// --------------------------------------------------------------------------
// Gate hygiene: a fault config whose knobs are loaded but whose master
// switch is off must produce a schedule bit-identical to no config at all —
// the failure machinery may not perturb healthy runs.
// --------------------------------------------------------------------------

std::uint64_t tracedRunHash(const sim::FaultConfig& fault) {
  StackFixture f(2, fault);
  f.sys->trace.enable();
  const int n = 8;
  const std::uint64_t count = 8192;
  std::vector<int> pes;
  for (int r = 0; r < n; ++r) pes.push_back(r);
  MemberBufs bufs(*f.sys, pes, count);

  coll::CollConfig cfg;
  cfg.impl = coll::CollImpl::Ring;
  cfg.chunk_bytes = 16 * 1024;
  ampi::World world(*f.rt, n);
  world.run([&](ampi::Rank& r) -> sim::FutureTask {
    const auto me = static_cast<std::size_t>(r.rank());
    co_await coll::allreduce(r, bufs.send[me]->get(), bufs.recv[me]->get(), count,
                             coll::Op::Sum, coll::kCollTagBase, cfg);
  });
  f.sys->engine.run();
  EXPECT_TRUE(world.done().ready());
  return f.sys->trace.hash();
}

TEST(FailstopGate, DisabledFaultConfigLeavesScheduleBitIdentical) {
  sim::FaultConfig loaded;
  loaded.killPe(3, sim::usec(50.0));
  loaded.bidirectionalOutage(sim::usec(20.0), sim::usec(120.0), 2, 3);
  loaded.enabled = false;  // knobs armed, master switch off
  const std::uint64_t off = tracedRunHash({});
  EXPECT_EQ(tracedRunHash(loaded), off)
      << "disabled failure machinery changed the event schedule";
  EXPECT_EQ(tracedRunHash({}), off) << "baseline run is nondeterministic";
}

}  // namespace
