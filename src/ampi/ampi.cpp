#include "ampi/ampi.hpp"

#include "coll/coll.hpp"
#include "obs/span.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

namespace cux::ampi {

namespace {
/// Internal tag space for collectives; user tags must stay below this.
constexpr int kInternalTagBase = 1 << 30;

/// Tag range reserved for the shrink agreement protocol — the only traffic a
/// revoked communicator still carries (everything else fails fast), so
/// survivors can always run recovery over the world communicator even after
/// it was revoked.
constexpr int kShrinkTagBase = kInternalTagBase + (1 << 21);
[[nodiscard]] constexpr bool isShrinkTag(int tag) noexcept { return tag >= kShrinkTagBase; }

/// Bucket key of a fully-concrete (comm, src, tag) matching triple. The
/// fields are folded, not perfectly packed — BucketFifo hashes the key and
/// predicates re-check the exact triple, so a fold collision only costs a
/// chain step, never a wrong match.
[[nodiscard]] constexpr std::uint64_t matchKey(int src, int tag, int comm) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(comm)) << 48) ^
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 24) ^
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag));
}

constexpr std::uint32_t kNil = cux::sim::BucketFifo<int>::kNil;
}  // namespace

// ---------------------------------------------------------------------------
// RankChare: the chare backing one AMPI rank. Its entry methods receive AMPI
// metadata/inline messages and feed the matching engine.
// ---------------------------------------------------------------------------

struct World::RankChare : ck::Chare {
  RankChare(World* w, int r) : world(w), rank(r) {}

  void recvMeta(std::uint32_t src_rank, std::int32_t tag, std::int32_t comm,
                std::uint64_t bytes, std::uint64_t dtag, std::uint32_t seq) {
    Envelope env;
    env.src_rank = static_cast<int>(src_rank);
    env.tag = tag;
    env.comm = comm;
    env.bytes = bytes;
    env.dtag = dtag;
    env.seq = seq;
    env.inlined = false;
    world->enqueueEnvelope(rank, std::move(env));
  }

  void recvInline(std::uint32_t src_rank, std::int32_t tag, std::int32_t comm,
                  std::uint32_t seq, ck::HostBytes data, std::uint64_t span) {
    Envelope env;
    env.src_rank = static_cast<int>(src_rank);
    env.tag = tag;
    env.comm = comm;
    env.bytes = data.size;
    env.seq = seq;
    env.span = span;
    env.inlined = true;
    env.data = world->runtime().keepBytes(data);  // may wait unexpected or out of order
    world->enqueueEnvelope(rank, std::move(env));
  }

  World* world;
  int rank;
};

// ---------------------------------------------------------------------------
// Rank
// ---------------------------------------------------------------------------

int Rank::size() const { return world_->size(); }
int Rank::pe() const { return world_->peOf(rank_); }
hw::System& Rank::system() const { return world_->runtime().system(); }
double Rank::timeUs() const { return sim::toUs(system().engine.now()); }

Comm Rank::commWorld() const { return world_->commOf(0); }

Request Rank::isend(const void* buf, std::uint64_t bytes, int dst, int tag) {
  return world_->isendImpl(rank_, buf, bytes, dst, tag, /*comm=*/0, /*status_src=*/rank_);
}
Request Rank::irecv(void* buf, std::uint64_t bytes, int src, int tag) {
  return world_->irecvImpl(rank_, buf, bytes, src, tag, /*comm=*/0);
}
Request Rank::isend(const void* buf, std::uint64_t bytes, int dst, int tag, const Comm& comm) {
  assert(comm.valid());
  return world_->isendImpl(rank_, buf, bytes, comm.worldRankOf(dst), tag, comm.id(),
                           comm.rankOf(rank_));
}
Request Rank::irecv(void* buf, std::uint64_t bytes, int src, int tag, const Comm& comm) {
  assert(comm.valid());
  const int world_src = src == kAnySource ? kAnySource : comm.worldRankOf(src);
  return world_->irecvImpl(rank_, buf, bytes, world_src, tag, comm.id());
}
sim::Future<void> Rank::recv(void* buf, std::uint64_t bytes, int src, int tag, const Comm& comm,
                             Status* st) {
  Request r = irecv(buf, bytes, src, tag, comm);
  if (st != nullptr) {
    r.future().onReady([r, st] { *st = r.status(); });
  }
  return r.future();
}
sim::Future<int> Rank::waitAny(const std::vector<Request>& rs) {
  sim::Promise<int> done;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    rs[i].future().onReady([done, i] {
      if (!done.ready()) done.set(static_cast<int>(i));
    });
  }
  return done.future();
}

namespace {
[[nodiscard]] coll::Op collOp(int op) {
  switch (op) {
    case 1:
      return coll::Op::Max;
    case 2:
      return coll::Op::Min;
    default:
      return coll::Op::Sum;
  }
}
}  // namespace

sim::Future<void> Rank::bcast(void* buf, std::uint64_t bytes, int root) {
  return coll::bcast(*this, buf, bytes, root, coll::kCollTagBase, world_->coll_cfg_).future();
}
sim::Future<void> Rank::reduce(const void* sendbuf, void* recvbuf, std::uint64_t count,
                               int op, int root) {
  return coll::reduce(*this, sendbuf, recvbuf, count, collOp(op), root, coll::kCollTagBase,
                      world_->coll_cfg_)
      .future();
}
sim::Future<void> Rank::allreduce(const void* sendbuf, void* recvbuf, std::uint64_t count,
                                  int op) {
  return coll::allreduce(*this, sendbuf, recvbuf, count, collOp(op), coll::kCollTagBase,
                         world_->coll_cfg_)
      .future();
}
sim::Future<void> Rank::allgather(const void* sendbuf, void* recvbuf,
                                  std::uint64_t bytes_each) {
  return coll::allgather(*this, sendbuf, recvbuf, bytes_each, coll::kCollTagBase,
                         world_->coll_cfg_)
      .future();
}
sim::Future<void> Rank::alltoall(const void* sendbuf, void* recvbuf,
                                 std::uint64_t bytes_each) {
  return coll::alltoall(*this, sendbuf, recvbuf, bytes_each, coll::kCollTagBase,
                        world_->coll_cfg_)
      .future();
}
sim::Future<void> Rank::gather(const void* sendbuf, void* recvbuf, std::uint64_t bytes_each,
                               int root) {
  return coll::gather(*this, sendbuf, recvbuf, bytes_each, root).future();
}
sim::Future<void> Rank::scatter(const void* sendbuf, void* recvbuf, std::uint64_t bytes_each,
                                int root) {
  return coll::scatter(*this, sendbuf, recvbuf, bytes_each, root).future();
}
sim::Future<void> Rank::reduceScatter(const void* sendbuf, void* recvbuf,
                                      std::uint64_t count_each, int op) {
  return coll::reduceScatter(*this, sendbuf, recvbuf, count_each, collOp(op),
                             coll::kCollTagBase, world_->coll_cfg_)
      .future();
}

// Sub-communicator collectives run over a CommRank *copy* held in the
// coroutine frame, so the view stays alive for the whole collective even
// though the caller's temporaries are gone.
namespace {
sim::FutureTask commBcast(CommRank cr, void* buf, std::uint64_t bytes, int root,
                          coll::CollConfig cfg) {
  co_await coll::bcast(cr, buf, bytes, root, coll::kCollTagBase, cfg);
}
sim::FutureTask commReduce(CommRank cr, const void* sendbuf, void* recvbuf,
                           std::uint64_t count, coll::Op op, int root, coll::CollConfig cfg) {
  co_await coll::reduce(cr, sendbuf, recvbuf, count, op, root, coll::kCollTagBase, cfg);
}
sim::FutureTask commAllreduce(CommRank cr, const void* sendbuf, void* recvbuf,
                              std::uint64_t count, coll::Op op, coll::CollConfig cfg) {
  co_await coll::allreduce(cr, sendbuf, recvbuf, count, op, coll::kCollTagBase, cfg);
}
sim::FutureTask commAllgather(CommRank cr, const void* sendbuf, void* recvbuf,
                              std::uint64_t bytes_each, coll::CollConfig cfg) {
  co_await coll::allgather(cr, sendbuf, recvbuf, bytes_each, coll::kCollTagBase, cfg);
}
sim::FutureTask commAlltoall(CommRank cr, const void* sendbuf, void* recvbuf,
                             std::uint64_t bytes_each, coll::CollConfig cfg) {
  co_await coll::alltoall(cr, sendbuf, recvbuf, bytes_each, coll::kCollTagBase, cfg);
}
sim::FutureTask commReduceScatter(CommRank cr, const void* sendbuf, void* recvbuf,
                                  std::uint64_t count_each, coll::Op op,
                                  coll::CollConfig cfg) {
  co_await coll::reduceScatter(cr, sendbuf, recvbuf, count_each, op, coll::kCollTagBase, cfg);
}
}  // namespace

sim::Future<void> Rank::bcast(void* buf, std::uint64_t bytes, int root, const Comm& comm) {
  return commBcast(CommRank(*this, comm), buf, bytes, root, world_->coll_cfg_).future();
}
sim::Future<void> Rank::reduce(const void* sendbuf, void* recvbuf, std::uint64_t count, int op,
                               int root, const Comm& comm) {
  return commReduce(CommRank(*this, comm), sendbuf, recvbuf, count, collOp(op), root,
                    world_->coll_cfg_)
      .future();
}
sim::Future<void> Rank::allreduce(const void* sendbuf, void* recvbuf, std::uint64_t count,
                                  int op, const Comm& comm) {
  return commAllreduce(CommRank(*this, comm), sendbuf, recvbuf, count, collOp(op),
                       world_->coll_cfg_)
      .future();
}
sim::Future<void> Rank::allgather(const void* sendbuf, void* recvbuf, std::uint64_t bytes_each,
                                  const Comm& comm) {
  return commAllgather(CommRank(*this, comm), sendbuf, recvbuf, bytes_each, world_->coll_cfg_)
      .future();
}
sim::Future<void> Rank::alltoall(const void* sendbuf, void* recvbuf, std::uint64_t bytes_each,
                                 const Comm& comm) {
  return commAlltoall(CommRank(*this, comm), sendbuf, recvbuf, bytes_each, world_->coll_cfg_)
      .future();
}
sim::Future<void> Rank::reduceScatter(const void* sendbuf, void* recvbuf,
                                      std::uint64_t count_each, int op, const Comm& comm) {
  return commReduceScatter(CommRank(*this, comm), sendbuf, recvbuf, count_each, collOp(op),
                           world_->coll_cfg_)
      .future();
}

sim::Future<void> Rank::sendrecv(const void* sbuf, std::uint64_t sbytes, int dst, int stag,
                                 void* rbuf, std::uint64_t rbytes, int src, int rtag,
                                 Status* st) {
  Request s = isend(sbuf, sbytes, dst, stag);
  Request r = irecv(rbuf, rbytes, src, rtag);
  if (st != nullptr) {
    r.future().onReady([r, st] { *st = r.status(); });
  }
  std::array<sim::Future<void>, 2> both{s.future(), r.future()};
  return sim::allOf(both);
}

std::optional<Status> Rank::iprobe(int src, int tag) {
  return world_->iprobeImpl(rank_, src, tag, 0);
}
std::optional<Status> Rank::iprobe(int src, int tag, const Comm& comm) {
  const int world_src = src == kAnySource ? kAnySource : comm.worldRankOf(src);
  auto st = world_->iprobeImpl(rank_, world_src, tag, comm.id());
  if (st && st->source >= 0) st->source = comm.rankOf(st->source);
  return st;
}

sim::Future<Comm> Rank::split(const Comm& comm, int color, int key) {
  sim::Promise<Comm> out;
  (void)world_->splitTask(rank_, comm, color, key, out);
  return out.future();
}
sim::Future<void> Rank::send(const void* buf, std::uint64_t bytes, int dst, int tag) {
  return isend(buf, bytes, dst, tag).future();
}
sim::Future<void> Rank::recv(void* buf, std::uint64_t bytes, int src, int tag, Status* st) {
  Request r = irecv(buf, bytes, src, tag);
  if (st != nullptr) {
    r.future().onReady([r, st] { *st = r.status(); });
  }
  return r.future();
}
sim::Future<void> Rank::waitAll(const std::vector<Request>& rs) {
  return sim::allOf(rs, &Request::future);
}
sim::Future<void> Rank::barrier() {
  sim::Promise<void> done;
  (void)world_->barrierTask(rank_, done);
  return done.future();
}

bool Rank::aborted() const { return world_->commRevoked(0); }

// ---------------------------------------------------------------------------
// CommRank: ULFM surface
// ---------------------------------------------------------------------------

bool CommRank::revoked() const { return r_.world_->commRevoked(comm_.id()); }
bool CommRank::dead() const { return r_.world_->rankDead(r_.rank()); }
sim::Future<Comm> CommRank::shrink() {
  sim::Promise<Comm> out;
  (void)r_.world_->shrinkTask(r_.rank(), comm_, out);
  return out.future();
}

// ---------------------------------------------------------------------------
// World
// ---------------------------------------------------------------------------

World::World(ck::Runtime& rt, int nranks) : rt_(rt) {
  const int n = nranks < 0 ? rt.numPes() : nranks;
  std::vector<int> world_members(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) world_members[static_cast<std::size_t>(i)] = i;
  comms_.emplace(0, std::make_shared<const std::vector<int>>(std::move(world_members)));
  ranks_.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    auto st = std::make_unique<RankState>();
    st->self.world_ = this;
    st->self.rank_ = r;
    st->pe = peOf(r);
    st->chare = rt_.create<RankChare>(st->pe, this, r);
    st->seq_out.assign(static_cast<std::size_t>(n), 0);
    st->seq_expected.assign(static_cast<std::size_t>(n), 0);
    st->out_of_order.resize(static_cast<std::size_t>(n));
    ranks_.push_back(std::move(st));
  }
  rank_dead_.assign(static_cast<std::size_t>(n), false);
  // ULFM-style failure propagation: when the UCX failure detector declares a
  // PE dead, every communicator with a rank on it is revoked and its pending
  // receives are failed — an AMPI operation never hangs on a dead peer.
  failure_sub_ = rt_.cmi().ucx().onPeerFailure([this](int pe, sim::TimePoint) { onPeFailed(pe); });
  stats_provider_ = rt_.system().obs.addStatsProvider([this](obs::Registry& r) {
    r.setGauge("ampi.aborted_ops", aborted_ops_);
    r.setGauge("ampi.orphaned_envelopes", orphaned_envelopes_);
    r.setGauge("ampi.revoked_comms", revoked_comms_.size());
    r.setGauge("ampi.shrink_events", shrink_events_);
  });
}

World::~World() {
  rt_.cmi().ucx().removePeerFailureSub(failure_sub_);
  rt_.system().obs.removeStatsProvider(stats_provider_);
}

void World::run(std::function<sim::FutureTask(Rank&)> main) {
  // The coroutine frames created by invoking `main` keep referencing the
  // closure object for their whole lifetime (lambda-coroutine semantics), so
  // the callable must outlive every rank: store it in the World and invoke
  // through the stable member.
  main_ = std::move(main);
  done_.expect(static_cast<std::size_t>(size()));
  for (auto& st : ranks_) {
    Rank* rank = &st->self;
    rt_.startOn(st->pe, [this, rank] {
      main_(*rank).future().onReady([this] { done_.arrive(); });
    });
  }
}

void World::onPeFailed(int pe) {
  for (int r = 0; r < size(); ++r) {
    if (peOf(r) == pe) rank_dead_[static_cast<std::size_t>(r)] = true;
  }
  // Revoke every communicator containing a rank on the dead PE — including
  // MPI_COMM_WORLD, whose survivors recover via CommRank::shrink().
  for (const auto& [id, members] : comms_) {
    if (revoked_comms_.count(id) != 0) continue;
    for (int m : *members) {
      if (rank_dead_[static_cast<std::size_t>(m)]) {
        revoked_comms_.insert(id);
        break;
      }
    }
  }
  const auto onRevoked = [this](int comm, int tag) {
    return revoked_comms_.count(comm) != 0 && !isShrinkTag(tag);
  };
  // Phase 1: harvest. Pending receives on revoked communicators are pulled
  // out of every rank's matching stores, and already-queued envelopes are
  // orphaned. Failing a request resumes its coroutine, which may post new
  // operations — so mutation of the stores is kept strictly separate from
  // the completions below.
  std::vector<sim::Pooled<detail::ReqImpl>> to_fail;
  const sim::TimePoint now = rt_.system().engine.now();
  for (auto& st : ranks_) {
    auto sweep = [&](sim::BucketFifo<PostedRecv>& store) {
      for (;;) {
        const std::uint32_t hit = store.findOrdered(
            [&](const PostedRecv& p) { return onRevoked(p.comm, p.tag); });
        if (hit == kNil) break;
        to_fail.push_back(store.take(hit).impl);
      }
    };
    sweep(st->posted_exact);
    sweep(st->posted_wild);
    for (;;) {
      const std::uint32_t hit = st->unexpected.findOrdered(
          [&](const Envelope& e) { return onRevoked(e.comm, e.tag); });
      if (hit == kNil) break;
      Envelope env = st->unexpected.take(hit);
      orphanEnvelope(st->pe, env, now);
    }
  }
  // Phase 2: complete. Guarded by ReqImpl's idempotence, so a rendezvous
  // whose transfer was already in flight cannot double-complete.
  for (const auto& impl : to_fail) {
    ++aborted_ops_;
    impl->fail(Status{-1, kAnyTag, 0});
  }
}

void World::orphanEnvelope(int pe, Envelope& env, sim::TimePoint now) {
  ++orphaned_envelopes_;
  if (env.inlined) {
    rt_.system().obs.spans.end(env.span, now, obs::Phase::Errored, pe);
    rt_.cmi().ucx().recycleBuffer(std::move(env.data));
    return;
  }
  // Rendezvous orphan: the sender's payload is parked in the machine layer
  // waiting for this receive to be posted, and its completion callback fires
  // only when the transfer retires. Drain it into a throwaway sink (the
  // "orphaned chunk" of the recovery metrics) so a live sender on a revoked
  // communicator never hangs. A dead sender's transfer simply blackholes;
  // the sink is then never written.
  auto sink = std::make_shared<std::vector<std::byte>>(static_cast<std::size_t>(env.bytes));
  core::DeviceRdmaOp op{sink->data(), env.bytes, env.dtag};
  rt_.dev().lrtsRecvDevice(pe, op, core::DeviceRecvType::Ampi, [sink] {});
}

bool World::isDeviceCached(const void* p) {
  // The per-PE software cache of addresses known to be on the GPU
  // (paper Sec. III-C1). Shared across PEs here since the whole simulation
  // is one process; hit/miss statistics still reflect cache behaviour.
  auto it = device_cache_.find(p);
  if (it != device_cache_.end()) {
    ++cache_hits_;
    return it->second;
  }
  ++cache_misses_;
  const bool dev = rt_.system().memory.isDevice(p);
  device_cache_.emplace(p, dev);
  return dev;
}

Request World::isendImpl(int src_rank, const void* buf, std::uint64_t bytes, int dst, int tag,
                         int comm, int status_src) {
  assert(dst >= 0 && dst < size());
  RankState& st = *ranks_[static_cast<std::size_t>(src_rank)];
  RankState& dst_st = *ranks_[static_cast<std::size_t>(dst)];
  cmi::Pe& pe = rt_.cmi().pe(st.pe);
  const model::LayerCosts& costs = rt_.costs();
  pe.charge(sim::usec(costs.ampi_call_us + costs.ampi_overhead_send_us));

  Request req;
  if (commRevoked(comm) && !isShrinkTag(tag)) {
    // ULFM fail-fast: the send is refused before a sequence number is
    // consumed, so per-pair FIFO resequencing stays intact for traffic on
    // communicators created after recovery.
    ++aborted_ops_;
    req.impl_->fail(Status{status_src, tag, 0});
    return req;
  }
  const std::uint32_t seq = st.seq_out[static_cast<std::size_t>(dst)]++;
  const bool device = isDeviceCached(buf);
  const Status sent_status{status_src, tag, bytes};

  if (device || bytes >= costs.host_pack_threshold) {
    // Rendezvous path (paper Fig. 7): payload directly through the machine
    // layer, metadata through the Charm++ runtime. The CkCallback stored
    // with the CkDeviceBuffer completes the sender's request.
    core::CmiDeviceBuffer cdb{buf, bytes, 0};
    auto impl = req.impl_;
    rt_.dev().lrtsSendDevice(st.pe, dst_st.pe, cdb,
                             [impl, sent_status] { impl->complete(sent_status); },
                             core::DeviceRecvType::Ampi);
    dst_st.chare.sendFrom<&RankChare::recvMeta>(st.pe, static_cast<std::uint32_t>(src_rank),
                                                static_cast<std::int32_t>(tag),
                                                static_cast<std::int32_t>(comm), bytes, cdb.tag,
                                                seq);
  } else {
    // Eager path: payload packed straight from `buf` into the AMPI message,
    // or as an unbacked run when `buf` holds no bytes.
    // Inline messages bypass the machine layer, so the span is minted here
    // and rides in the message itself (0 when observability is off).
    std::uint64_t span = 0;
    obs::SpanCollector& spans = rt_.system().obs.spans;
    if (spans.enabled()) {
      const sim::TimePoint now = rt_.system().engine.now();
      span = spans.begin(now, st.pe, dst_st.pe, bytes, "ampi");
      spans.phase(span, now, obs::Phase::MetaSent, st.pe, bytes);
    }
    dst_st.chare.sendFrom<&RankChare::recvInline>(st.pe, static_cast<std::uint32_t>(src_rank),
                                                  static_cast<std::int32_t>(tag),
                                                  static_cast<std::int32_t>(comm), seq,
                                                  rt_.hostBytes(buf, bytes), span);
    // Buffered semantics: the send completes once the local copy retires.
    auto impl = req.impl_;
    pe.exec(0, [impl, sent_status] { impl->complete(sent_status); });
  }
  return req;
}

Request World::irecvImpl(int dst_rank, void* buf, std::uint64_t bytes, int src, int tag,
                         int comm) {
  RankState& st = *ranks_[static_cast<std::size_t>(dst_rank)];
  cmi::Pe& pe = rt_.cmi().pe(st.pe);
  const model::LayerCosts& costs = rt_.costs();
  pe.charge(sim::usec(costs.ampi_call_us + costs.ampi_match_us));

  Request req;
  if (commRevoked(comm) && !isShrinkTag(tag)) {
    ++aborted_ops_;
    req.impl_->fail(Status{-1, tag, 0});
    return req;
  }
  PostedRecv p{req.impl_, buf, bytes, src, tag, comm};

  // Search the unexpected queue in arrival order (paper Sec. III-C2): a
  // fully-concrete receive probes its (comm, src, tag) hash chain, a
  // wildcard receive walks the store's arrival-order list.
  const bool exact = src != kAnySource && tag != kAnyTag;
  const std::uint32_t hit =
      exact ? st.unexpected.findChain(matchKey(src, tag, comm),
                                      [src, tag, comm](const Envelope& e) {
                                        return e.src_rank == src && e.tag == tag && e.comm == comm;
                                      })
            : st.unexpected.findOrdered([src, tag, comm](const Envelope& e) {
                return (src == kAnySource || src == e.src_rank) &&
                       (tag == kAnyTag || tag == e.tag) && comm == e.comm;
              });
  if (hit != kNil) {
    Envelope env = st.unexpected.take(hit);
    if (env.inlined) {
      rt_.system().obs.spans.phase(env.span, rt_.system().engine.now(),
                                   obs::Phase::MatchedUnexpected, st.pe, env.bytes);
    }
    deliver(dst_rank, p, env);
    return req;
  }
  const std::uint64_t seq = st.match_seq++;
  if (exact) {
    st.posted_exact.push(matchKey(src, tag, comm), seq, std::move(p));
  } else {
    st.posted_wild.push(0, seq, std::move(p));
  }
  return req;
}

void World::enqueueEnvelope(int dst_rank, Envelope env) {
  // Restore per-source FIFO order: envelopes may overtake each other in the
  // network when eager and rendezvous paths mix; MPI matching order must not.
  RankState& st = *ranks_[static_cast<std::size_t>(dst_rank)];
  {
    // Metadata (or the whole inline message) has reached the receiver.
    obs::SpanCollector& spans = rt_.system().obs.spans;
    const std::uint64_t sp = env.inlined ? env.span : spans.spanForTag(env.dtag);
    spans.phase(sp, rt_.system().engine.now(), obs::Phase::MetaArrived, st.pe, env.bytes);
  }
  auto& expected = st.seq_expected[static_cast<std::size_t>(env.src_rank)];
  auto& stash = st.out_of_order[static_cast<std::size_t>(env.src_rank)];
  if (env.seq != expected) {
    stash.push_back(std::move(env));
    return;
  }
  ++expected;
  const int src = env.src_rank;
  processEnvelope(dst_rank, std::move(env));
  // Drain any stashed envelopes that are now in order.
  bool found = true;
  while (found) {
    found = false;
    for (auto it = stash.begin(); it != stash.end(); ++it) {
      if (it->seq == expected) {
        Envelope next = std::move(*it);
        stash.erase(it);
        ++expected;
        processEnvelope(dst_rank, std::move(next));
        found = true;
        break;
      }
    }
  }
  (void)src;
}

void World::processEnvelope(int dst_rank, Envelope env) {
  RankState& st = *ranks_[static_cast<std::size_t>(dst_rank)];
  if (commRevoked(env.comm) && !isShrinkTag(env.tag)) {
    // Late arrival on a revoked communicator: no receive can ever match it
    // (pending ones were failed, new ones are refused), so discard it now
    // instead of leaking it into the unexpected store.
    orphanEnvelope(st.pe, env, rt_.system().engine.now());
    return;
  }
  // Earliest fully-concrete candidate: FIFO chain of the envelope's triple.
  const std::uint32_t ex = st.posted_exact.findChain(
      matchKey(env.src_rank, env.tag, env.comm), [&env](const PostedRecv& p) {
        return p.src == env.src_rank && p.tag == env.tag && p.comm == env.comm;
      });
  // Earliest wildcard candidate, in post order.
  const std::uint32_t wi = st.posted_wild.findOrdered([&env](const PostedRecv& p) {
    return (p.src == kAnySource || p.src == env.src_rank) &&
           (p.tag == kAnyTag || p.tag == env.tag) && p.comm == env.comm;
  });
  if (ex != kNil || wi != kNil) {
    // Post-order arbitration between the two stores, as in ucx::Worker.
    const bool exact_wins =
        ex != kNil && (wi == kNil || st.posted_exact.seqOf(ex) < st.posted_wild.seqOf(wi));
    PostedRecv p =
        exact_wins ? st.posted_exact.take(ex) : st.posted_wild.take(wi);
    if (env.inlined) {
      rt_.system().obs.spans.phase(env.span, rt_.system().engine.now(),
                                   obs::Phase::MatchedPosted, st.pe, env.bytes);
    }
    deliver(dst_rank, p, env);
    return;
  }
  if (env.inlined) {
    // Inline payload arrived before its receive was posted: the AMPI-level
    // analogue of the machine layer's early-arrival wait.
    rt_.system().obs.spans.phase(env.span, rt_.system().engine.now(), obs::Phase::EarlyArrival,
                                 st.pe, env.bytes);
  }
  const std::uint64_t key = matchKey(env.src_rank, env.tag, env.comm);
  st.unexpected.push(key, st.match_seq++, std::move(env));
}

void World::deliver(int dst_rank, PostedRecv& p, Envelope& env) {
  assert(env.bytes <= p.capacity && "AMPI message truncation (recv buffer too small)");
  RankState& st = *ranks_[static_cast<std::size_t>(dst_rank)];
  cmi::Pe& pe = rt_.cmi().pe(st.pe);
  const model::LayerCosts& costs = rt_.costs();
  // Status reports the communicator-local source rank.
  const Comm c = commOf(env.comm);
  const Status status{c.valid() ? c.rankOf(env.src_rank) : env.src_rank, env.tag, env.bytes};
  auto impl = p.impl;

  if (env.inlined) {
    if (!env.data.empty() && rt_.system().memory.dereferenceable(p.buf)) {
      std::memcpy(p.buf, env.data.data(), env.data.size());
    }
    // The inline payload is consumed: recycle its storage into the shared
    // eager pool (it was taken from there in recvInline).
    rt_.cmi().ucx().recycleBuffer(std::move(env.data));
    const double copy_us =
        (static_cast<double>(env.bytes) / 1e3) / rt_.system().config.host_memcpy_gbps;
    const sim::Duration d = sim::usec(costs.ampi_overhead_recv_us + copy_us);
    // Close at the future completion time (when the copy retires) so the
    // span's extent matches what the request observes.
    rt_.system().obs.spans.end(env.span, rt_.system().engine.now() + d, obs::Phase::Completed,
                               st.pe);
    pe.exec(d, [impl, status] { impl->complete(status); });
    return;
  }

  // Rendezvous: post the machine-layer receive now that metadata matched
  // (the paper's delayed-receive limitation lives exactly here).
  const double extra = costs.ampi_overhead_recv_us;
  core::DeviceRdmaOp op{p.buf, env.bytes, env.dtag};
  rt_.dev().lrtsRecvDevice(st.pe, op, core::DeviceRecvType::Ampi,
                           [impl, status, &pe, extra] {
                             pe.exec(sim::usec(extra), [impl, status] { impl->complete(status); });
                           });
}

std::optional<Status> World::iprobeImpl(int rank, int src, int tag, int comm) {
  RankState& st = *ranks_[static_cast<std::size_t>(rank)];
  rt_.cmi().pe(st.pe).charge(sim::usec(rt_.costs().ampi_call_us));
  // Fully-concrete probes are O(1) expected — this is polled per scheduler
  // turn by iprobe-driven loops, which is why the bucket index matters here.
  const bool exact = src != kAnySource && tag != kAnyTag;
  const std::uint32_t hit =
      exact ? st.unexpected.findChain(matchKey(src, tag, comm),
                                      [src, tag, comm](const Envelope& e) {
                                        return e.src_rank == src && e.tag == tag && e.comm == comm;
                                      })
            : st.unexpected.findOrdered([src, tag, comm](const Envelope& e) {
                return (src == kAnySource || src == e.src_rank) &&
                       (tag == kAnyTag || tag == e.tag) && comm == e.comm;
              });
  if (hit == kNil) return std::nullopt;
  const Envelope& env = st.unexpected.at(hit);
  return Status{env.src_rank, env.tag, env.bytes};
}

ucx::Worker::MatchStats World::matchStats() const {
  auto maxOf = [](std::size_t a, std::size_t b) { return a > b ? a : b; };
  ucx::Worker::MatchStats t;
  for (const auto& st : ranks_) {
    t.posted += st->posted_exact.size() + st->posted_wild.size();
    t.unexpected += st->unexpected.size();
    t.posted_hwm =
        maxOf(t.posted_hwm, st->posted_exact.highWatermark() + st->posted_wild.highWatermark());
    t.unexpected_hwm = maxOf(t.unexpected_hwm, st->unexpected.highWatermark());
    t.posted_buckets += st->posted_exact.bucketCount();
    t.unexpected_buckets += st->unexpected.bucketCount();
    t.posted_max_chain = maxOf(t.posted_max_chain, st->posted_exact.maxChainLength());
    t.unexpected_max_chain = maxOf(t.unexpected_max_chain, st->unexpected.maxChainLength());
    t.scan_steps +=
        st->posted_exact.scanSteps() + st->posted_wild.scanSteps() + st->unexpected.scanSteps();
  }
  return t;
}

Comm World::commOf(int id) {
  auto it = comms_.find(id);
  if (it == comms_.end()) return Comm{};
  return Comm{id, it->second};
}

int World::registerComm(std::vector<int> members) {
  const int id = next_comm_id_++;
  comms_.emplace(id, std::make_shared<const std::vector<int>>(std::move(members)));
  return id;
}

sim::FutureTask World::splitTask(int world_rank, Comm comm, int color, int key,
                                 sim::Promise<Comm> out) {
  // Collective over comm's members: gather (color, key) at the group's rank
  // 0, which forms the new groups — sorted by (key, old rank) — registers
  // them, and scatters the new communicator ids back. All traffic uses
  // internal world-comm tags derived from a per-communicator phase counter,
  // so concurrent splits of different communicators cannot interfere.
  if (commRevoked(comm.id())) {
    out.set(Comm{});
    co_return;
  }
  const int n = comm.size();
  const int local = comm.rankOf(world_rank);
  assert(local >= 0 && "split called by a non-member");
  const std::uint64_t phase =
      ranks_[static_cast<std::size_t>(world_rank)]->split_phase[comm.id()]++;
  const int tag = kInternalTagBase + (1 << 20) + static_cast<int>(phase % 1024) * 4;
  Rank& self = ranks_[static_cast<std::size_t>(world_rank)]->self;
  const int root_world = comm.worldRankOf(0);

  struct Entry {
    int color, key, world;
  };
  Entry mine{color, key, world_rank};
  if (local != 0) {
    co_await self.wait(self.isend(&mine, sizeof mine, root_world, tag));
    int new_id = -1;
    co_await self.recv(&new_id, sizeof new_id, root_world, tag + 1);
    out.set(commOf(new_id));
    co_return;
  }

  std::vector<Entry> entries(static_cast<std::size_t>(n));
  entries[0] = mine;
  for (int i = 1; i < n; ++i) {
    ampi::Status st;
    Entry e{};
    co_await self.recv(&e, sizeof e, kAnySource, tag, &st);
    // Place by sender order of arrival; position does not matter, sorting
    // below is deterministic on (color, key, world).
    entries[static_cast<std::size_t>(i)] = e;
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.color != b.color) return a.color < b.color;
    if (a.key != b.key) return a.key < b.key;
    return a.world < b.world;
  });
  // Form one communicator per colour and scatter ids.
  std::unordered_map<int, int> comm_of_color;
  std::vector<int> assigned(static_cast<std::size_t>(n), -1);
  std::size_t i = 0;
  while (i < entries.size()) {
    const int c = entries[i].color;
    std::size_t j = i;
    std::vector<int> members;
    while (j < entries.size() && entries[j].color == c) {
      members.push_back(entries[j].world);
      ++j;
    }
    const int id = c == kUndefinedColor ? -1 : registerComm(std::move(members));
    for (std::size_t k = i; k < j; ++k) {
      // Remember which world rank got which id.
      assigned[static_cast<std::size_t>(comm.rankOf(entries[k].world))] = id;
    }
    i = j;
  }
  std::vector<Request> sends;
  for (int lr = 1; lr < n; ++lr) {
    sends.push_back(self.isend(&assigned[static_cast<std::size_t>(lr)], sizeof(int),
                               comm.worldRankOf(lr), tag + 1));
  }
  co_await self.waitAll(sends);
  out.set(commOf(assigned[0]));
}

sim::FutureTask World::barrierTask(int rank, sim::Promise<void> done) {
  RankState& st = *ranks_[static_cast<std::size_t>(rank)];
  const std::uint64_t phase = st.barrier_phase++;
  const int n = size();
  Rank& self = st.self;
  int round = 0;
  for (int d = 1; d < n; d <<= 1, ++round) {
    // A barrier cannot complete once the world is revoked: drain (the
    // remaining exchanges would fail fast anyway) and let the caller observe
    // the failure through Rank::aborted().
    if (commRevoked(0)) break;
    const int to = (rank + d) % n;
    const int from = (rank - d + n) % n;
    const int tag = kInternalTagBase + static_cast<int>(phase % 1024) * 64 + round;
    Request s = self.isend(nullptr, 0, to, tag);
    Request r = self.irecv(nullptr, 0, from, tag);
    co_await self.wait(r);
    co_await self.wait(s);
  }
  done.set();
}

sim::FutureTask World::shrinkTask(int world_rank, Comm comm, sim::Promise<Comm> out) {
  // MPI_Comm_shrink (ULFM): collective over the surviving members of a
  // (typically revoked) communicator. Every survivor derives the same
  // survivor list from the detector's globally-consistent dead set, then the
  // group agrees on the new communicator id via a gather/scatter rooted at
  // the lowest surviving rank — carried over shrink-reserved tags, the one
  // kind of traffic a revoked communicator still accepts.
  if (rank_dead_[static_cast<std::size_t>(world_rank)]) {
    out.set(Comm{});
    co_return;
  }
  std::vector<int> survivors;
  for (int i = 0; i < comm.size(); ++i) {
    const int w = comm.worldRankOf(i);
    if (!rank_dead_[static_cast<std::size_t>(w)]) survivors.push_back(w);
  }
  ++shrink_events_;
  const std::uint64_t phase =
      ranks_[static_cast<std::size_t>(world_rank)]->shrink_phase[comm.id()]++;
  // Fold the communicator id into the tag so concurrent shrinks of different
  // communicators (all carried over the world channel) cannot cross-match.
  const int tag =
      kShrinkTagBase + (comm.id() % 64) * 2048 + static_cast<int>(phase % 1024) * 2;
  Rank& self = ranks_[static_cast<std::size_t>(world_rank)]->self;
  const int root = survivors.front();
  const int nsurv = static_cast<int>(survivors.size());
  if (world_rank != root) {
    co_await self.wait(self.isend(&world_rank, sizeof world_rank, root, tag));
    int new_id = -1;
    co_await self.recv(&new_id, sizeof new_id, root, tag + 1);
    out.set(commOf(new_id));
    co_return;
  }
  // Root: one hello per survivor doubles as the agreement that everyone
  // reached shrink, then the freshly registered id is scattered back.
  for (int i = 1; i < nsurv; ++i) {
    int w = -1;
    co_await self.recv(&w, sizeof w, kAnySource, tag);
  }
  const int id = registerComm(survivors);
  std::vector<Request> sends;
  for (int i = 1; i < nsurv; ++i) {
    sends.push_back(self.isend(&id, sizeof id, survivors[static_cast<std::size_t>(i)], tag + 1));
  }
  co_await self.waitAll(sends);
  out.set(commOf(id));
}

}  // namespace cux::ampi
