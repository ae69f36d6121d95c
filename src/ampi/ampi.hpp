#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <functional>
#include <memory>
#include <vector>

#include "charm/charm.hpp"
#include "coll/coll.hpp"
#include "sim/bucket_fifo.hpp"
#include "sim/future.hpp"
#include "sim/pooled.hpp"
#include "sim/task.hpp"
#include "ucx/worker.hpp"

/// \file ampi.hpp
/// Adaptive MPI: an MPI library implemented on the Charm++ runtime system
/// (paper Section II-D / III-C). Each rank is a chare; rank control flow is
/// a C++20 coroutine standing in for AMPI's migratable user-level threads.
///
/// GPU-aware path (paper Fig. 7): an MPI send whose buffer classifies as
/// device memory creates a CkDeviceBuffer, sends the payload directly with
/// LrtsSendDevice (which generates the machine-layer tag), and ships an
/// AMPI metadata message — src rank, MPI tag, size, device tag — through the
/// Charm++ runtime. The receiver matches the metadata against its posted
/// receive queue (or stores it in the unexpected queue) and only then posts
/// LrtsRecvDevice; completion callbacks notify both ranks.
///
/// Host buffers are packed into a regular message when small and use the
/// Zero Copy rendezvous when large (the 128 KiB switch reproduces the AMPI-H
/// bandwidth dip in Fig. 12b). A per-PE software cache accelerates the
/// device-pointer classification, as in the paper.

namespace cux::ampi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

struct Status {
  int source = -1;
  int tag = -1;
  std::uint64_t bytes = 0;
};

enum class Datatype : std::uint32_t { Byte = 1, Int = 4, Float = 4, Double = 8 };
[[nodiscard]] constexpr std::uint64_t sizeOf(Datatype dt) noexcept {
  return static_cast<std::uint64_t>(dt);
}

namespace detail {
struct ReqImpl {
  sim::Promise<void> done;
  Status status;
  bool completed = false;
  /// Terminal failure: the peer's PE died (or the communicator was revoked)
  /// before the operation could complete.
  bool peer_failed = false;

  /// Both entry points are idempotent: a request force-failed by communicator
  /// revocation may still see its original completion callback fire later
  /// (e.g. a rendezvous transfer that was already in flight), and the
  /// underlying Promise asserts on double-set.
  void complete(const Status& st) {
    if (completed) return;
    status = st;
    completed = true;
    done.set();
  }
  void fail(const Status& st) {
    if (completed) return;
    status = st;
    peer_failed = true;
    completed = true;
    done.set();
  }
};
}  // namespace detail

/// Non-blocking operation handle (MPI_Request).
class Request {
 public:
  Request() : impl_(sim::Pooled<detail::ReqImpl>::make()) {}

  [[nodiscard]] bool done() const noexcept { return impl_->completed; }
  [[nodiscard]] const Status& status() const noexcept { return impl_->status; }
  [[nodiscard]] sim::Future<void> future() const { return impl_->done.future(); }
  /// True when the operation terminated because the peer's PE failed or the
  /// communicator was revoked (MPI_ERR_PROC_FAILED / MPI_ERR_REVOKED).
  [[nodiscard]] bool peerFailed() const noexcept { return impl_->peer_failed; }

 private:
  friend class World;
  sim::Pooled<detail::ReqImpl> impl_;
};

class World;

/// A communicator: an ordered group of world ranks (MPI_Comm). Copyable
/// value handle; the membership list is shared and immutable. Communicator
/// id 0 is MPI_COMM_WORLD.
class Comm {
 public:
  Comm() = default;

  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] int size() const noexcept {
    return members_ ? static_cast<int>(members_->size()) : 0;
  }
  [[nodiscard]] bool valid() const noexcept { return members_ != nullptr; }
  /// World rank of communicator-local rank `local`.
  [[nodiscard]] int worldRankOf(int local) const {
    return members_->at(static_cast<std::size_t>(local));
  }
  /// Communicator-local rank of `world_rank`, or -1 if not a member.
  [[nodiscard]] int rankOf(int world_rank) const {
    for (std::size_t i = 0; i < members_->size(); ++i) {
      if ((*members_)[i] == world_rank) return static_cast<int>(i);
    }
    return -1;
  }

 private:
  friend class World;
  Comm(int id, std::shared_ptr<const std::vector<int>> m) : id_(id), members_(std::move(m)) {}
  int id_ = -1;
  std::shared_ptr<const std::vector<int>> members_;
};

/// Color value excluding a rank from MPI_Comm_split's result.
inline constexpr int kUndefinedColor = -1;

/// Handle through which a rank's main coroutine issues MPI operations.
/// Point-to-point ranks/sources are communicator-local (world-local when no
/// communicator is passed).
class Rank {
 public:
  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const;
  [[nodiscard]] int pe() const;
  [[nodiscard]] hw::System& system() const;
  /// MPI_Wtime in virtual microseconds.
  [[nodiscard]] double timeUs() const;
  /// MPI_COMM_WORLD.
  [[nodiscard]] Comm commWorld() const;

  Request isend(const void* buf, std::uint64_t bytes, int dst, int tag);
  Request irecv(void* buf, std::uint64_t bytes, int src, int tag);
  Request isend(const void* buf, std::uint64_t bytes, int dst, int tag, const Comm& comm);
  Request irecv(void* buf, std::uint64_t bytes, int src, int tag, const Comm& comm);
  Request isend(const void* buf, std::uint64_t count, Datatype dt, int dst, int tag) {
    return isend(buf, count * sizeOf(dt), dst, tag);
  }
  Request irecv(void* buf, std::uint64_t count, Datatype dt, int src, int tag) {
    return irecv(buf, count * sizeOf(dt), src, tag);
  }

  /// Blocking calls: awaitable futures (the coroutine suspends, the chare's
  /// PE keeps scheduling other work — AMPI's virtualisation semantics).
  [[nodiscard]] sim::Future<void> send(const void* buf, std::uint64_t bytes, int dst, int tag);
  [[nodiscard]] sim::Future<void> recv(void* buf, std::uint64_t bytes, int src, int tag,
                                       Status* st = nullptr);
  [[nodiscard]] sim::Future<void> send(const void* buf, std::uint64_t bytes, int dst, int tag,
                                       const Comm& comm) {
    return isend(buf, bytes, dst, tag, comm).future();
  }
  [[nodiscard]] sim::Future<void> recv(void* buf, std::uint64_t bytes, int src, int tag,
                                       const Comm& comm, Status* st = nullptr);
  [[nodiscard]] sim::Future<void> wait(const Request& r) { return r.future(); }
  [[nodiscard]] sim::Future<void> waitAll(const std::vector<Request>& rs);
  [[nodiscard]] sim::Future<void> barrier();

  /// MPI_Waitany: future resolving to the index of the first request in
  /// `rs` to complete.
  [[nodiscard]] sim::Future<int> waitAny(const std::vector<Request>& rs);
  /// MPI_Test (nonblocking completion check).
  [[nodiscard]] static bool test(const Request& r) { return r.done(); }

  // --- collectives over MPI_COMM_WORLD (MPI_Bcast & friends), implemented
  // on the GPU-aware point-to-point layer (src/coll). For sub-communicators
  // wrap the rank in a CommRank and call the coll:: templates directly.
  [[nodiscard]] sim::Future<void> bcast(void* buf, std::uint64_t bytes, int root);
  [[nodiscard]] sim::Future<void> reduce(const void* sendbuf, void* recvbuf,
                                         std::uint64_t count_doubles, int op, int root);
  [[nodiscard]] sim::Future<void> allreduce(const void* sendbuf, void* recvbuf,
                                            std::uint64_t count_doubles, int op);
  [[nodiscard]] sim::Future<void> allgather(const void* sendbuf, void* recvbuf,
                                            std::uint64_t bytes_each);
  [[nodiscard]] sim::Future<void> alltoall(const void* sendbuf, void* recvbuf,
                                           std::uint64_t bytes_each);
  [[nodiscard]] sim::Future<void> gather(const void* sendbuf, void* recvbuf,
                                         std::uint64_t bytes_each, int root);
  [[nodiscard]] sim::Future<void> scatter(const void* sendbuf, void* recvbuf,
                                          std::uint64_t bytes_each, int root);
  /// MPI_Reduce_scatter_block: sendbuf holds size()*count_each doubles; rank
  /// i gets the reduction of everyone's block i.
  [[nodiscard]] sim::Future<void> reduceScatter(const void* sendbuf, void* recvbuf,
                                                std::uint64_t count_each_doubles, int op);

  // --- collectives over a sub-communicator (ranks/roots comm-local) -------
  [[nodiscard]] sim::Future<void> bcast(void* buf, std::uint64_t bytes, int root,
                                        const Comm& comm);
  [[nodiscard]] sim::Future<void> reduce(const void* sendbuf, void* recvbuf,
                                         std::uint64_t count_doubles, int op, int root,
                                         const Comm& comm);
  [[nodiscard]] sim::Future<void> allreduce(const void* sendbuf, void* recvbuf,
                                            std::uint64_t count_doubles, int op,
                                            const Comm& comm);
  [[nodiscard]] sim::Future<void> allgather(const void* sendbuf, void* recvbuf,
                                            std::uint64_t bytes_each, const Comm& comm);
  [[nodiscard]] sim::Future<void> alltoall(const void* sendbuf, void* recvbuf,
                                           std::uint64_t bytes_each, const Comm& comm);
  [[nodiscard]] sim::Future<void> reduceScatter(const void* sendbuf, void* recvbuf,
                                                std::uint64_t count_each_doubles, int op,
                                                const Comm& comm);

  /// MPI_Sendrecv: simultaneous send and receive (deadlock-free pairwise
  /// exchange).
  [[nodiscard]] sim::Future<void> sendrecv(const void* sbuf, std::uint64_t sbytes, int dst,
                                           int stag, void* rbuf, std::uint64_t rbytes, int src,
                                           int rtag, Status* st = nullptr);

  /// MPI_Iprobe: checks (without receiving) whether a matching message is
  /// pending in the unexpected queue.
  [[nodiscard]] std::optional<Status> iprobe(int src, int tag);
  [[nodiscard]] std::optional<Status> iprobe(int src, int tag, const Comm& comm);

  /// MPI_Comm_split: collective over `comm`'s members. Ranks passing the
  /// same `color` land in one new communicator, ordered by (key, old rank);
  /// kUndefinedColor yields an invalid Comm.
  [[nodiscard]] sim::Future<Comm> split(const Comm& comm, int color, int key);
  /// MPI_Comm_dup.
  [[nodiscard]] sim::Future<Comm> dup(const Comm& comm) {
    return split(comm, 0, comm.rankOf(rank_));
  }

  /// ULFM surface over MPI_COMM_WORLD: true once the failure detector has
  /// revoked the world communicator because a member's PE died. Pending and
  /// future world operations then fail fast (peerFailed()) instead of
  /// hanging; survivors recover via CommRank::shrink().
  [[nodiscard]] bool aborted() const;

 private:
  friend class World;
  friend class CommRank;
  World* world_ = nullptr;
  int rank_ = -1;
};

/// A Rank view scoped to a communicator: exposes the same surface as Rank
/// with communicator-local numbering, so the generic collectives in
/// src/coll (and any rank-generic algorithm) run unchanged over
/// sub-communicators.
class CommRank {
 public:
  CommRank(Rank& r, Comm c) : r_(r), comm_(std::move(c)) {}

  [[nodiscard]] int rank() const { return comm_.rankOf(r_.rank()); }
  [[nodiscard]] int size() const { return comm_.size(); }
  [[nodiscard]] int pe() const { return r_.pe(); }
  [[nodiscard]] hw::System& system() const { return r_.system(); }
  [[nodiscard]] double timeUs() const { return r_.timeUs(); }

  Request isend(const void* buf, std::uint64_t bytes, int dst, int tag) {
    return r_.isend(buf, bytes, dst, tag, comm_);
  }
  Request irecv(void* buf, std::uint64_t bytes, int src, int tag) {
    return r_.irecv(buf, bytes, src, tag, comm_);
  }
  [[nodiscard]] sim::Future<void> send(const void* buf, std::uint64_t bytes, int dst, int tag) {
    return r_.send(buf, bytes, dst, tag, comm_);
  }
  [[nodiscard]] sim::Future<void> recv(void* buf, std::uint64_t bytes, int src, int tag,
                                       Status* st = nullptr) {
    return r_.recv(buf, bytes, src, tag, comm_, st);
  }
  [[nodiscard]] sim::Future<void> wait(const Request& r) { return r.future(); }
  [[nodiscard]] sim::Future<void> waitAll(const std::vector<Request>& rs) {
    return r_.waitAll(rs);
  }

  // --- collectives over the communicator (comm-local ranks/roots). The
  // CommRank is copied into the collective's coroutine frame, so a temporary
  // view is safe even when the future outlives it.
  [[nodiscard]] sim::Future<void> bcast(void* buf, std::uint64_t bytes, int root) {
    return r_.bcast(buf, bytes, root, comm_);
  }
  [[nodiscard]] sim::Future<void> reduce(const void* sendbuf, void* recvbuf,
                                         std::uint64_t count_doubles, int op, int root) {
    return r_.reduce(sendbuf, recvbuf, count_doubles, op, root, comm_);
  }
  [[nodiscard]] sim::Future<void> allreduce(const void* sendbuf, void* recvbuf,
                                            std::uint64_t count_doubles, int op) {
    return r_.allreduce(sendbuf, recvbuf, count_doubles, op, comm_);
  }
  [[nodiscard]] sim::Future<void> allgather(const void* sendbuf, void* recvbuf,
                                            std::uint64_t bytes_each) {
    return r_.allgather(sendbuf, recvbuf, bytes_each, comm_);
  }
  [[nodiscard]] sim::Future<void> alltoall(const void* sendbuf, void* recvbuf,
                                           std::uint64_t bytes_each) {
    return r_.alltoall(sendbuf, recvbuf, bytes_each, comm_);
  }
  [[nodiscard]] sim::Future<void> reduceScatter(const void* sendbuf, void* recvbuf,
                                                std::uint64_t count_each_doubles, int op) {
    return r_.reduceScatter(sendbuf, recvbuf, count_each_doubles, op, comm_);
  }

  // --- ULFM-style fault tolerance -----------------------------------------
  /// True once the failure detector declared a member's PE dead: the
  /// communicator is revoked, its pending receives were failed, and every
  /// subsequent operation (except the shrink protocol) fails fast.
  [[nodiscard]] bool revoked() const;
  /// True when this rank itself sits on a failed PE.
  [[nodiscard]] bool dead() const;
  /// Generic abort predicate shared with the other stacks' rank types:
  /// collectives over this view cannot complete normally any more.
  [[nodiscard]] bool aborted() const { return revoked() || dead(); }
  /// MPI_Comm_shrink: collective over the *surviving* members of a revoked
  /// communicator. All survivors agree (gather/scatter over shrink-reserved
  /// tags, rooted at the lowest surviving rank) on a new communicator
  /// containing exactly the live members, in old rank order. Dead ranks
  /// resolve immediately to an invalid Comm.
  [[nodiscard]] sim::Future<Comm> shrink();

 private:
  Rank& r_;
  Comm comm_;
};

/// MPI_COMM_WORLD: owns the rank chares and the matching state.
class World {
 public:
  /// `nranks` defaults to one rank per PE (the paper's no-virtualisation
  /// configuration); more ranks than PEs exercises AMPI virtualisation.
  explicit World(ck::Runtime& rt, int nranks = -1);
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  ~World();

  [[nodiscard]] int size() const noexcept { return static_cast<int>(ranks_.size()); }
  [[nodiscard]] Rank& rank(int r) { return ranks_.at(static_cast<std::size_t>(r))->self; }
  [[nodiscard]] ck::Runtime& runtime() noexcept { return rt_; }
  [[nodiscard]] int peOf(int rank) const noexcept { return rank % rt_.numPes(); }

  /// Launches `main` for every rank at the current virtual time.
  void run(std::function<sim::FutureTask(Rank&)> main);

  /// Fulfilled when every rank's main has returned. Valid after run().
  [[nodiscard]] sim::Future<void> done() const { return done_.future(); }

  // --- device-pointer cache statistics (paper Sec. III-C1) ---------------
  [[nodiscard]] std::uint64_t cacheHits() const noexcept { return cache_hits_; }
  [[nodiscard]] std::uint64_t cacheMisses() const noexcept { return cache_misses_; }

  /// Aggregated matching-engine occupancy across every rank's posted /
  /// unexpected stores (`gpucomm_sweep --metric match`).
  [[nodiscard]] ucx::Worker::MatchStats matchStats() const;

  /// Collective algorithm selection and pipelining parameters applied to
  /// every MPI-level collective issued through this world (the MPICH-style
  /// CVAR knob; per-call control is available via the coll:: templates).
  void setCollConfig(const coll::CollConfig& cfg) noexcept { coll_cfg_ = cfg; }
  [[nodiscard]] const coll::CollConfig& collConfig() const noexcept { return coll_cfg_; }

  // --- ULFM-style failure state (fed by the UCX failure detector) ---------
  /// True once communicator `id` was revoked because a member's PE died.
  [[nodiscard]] bool commRevoked(int id) const noexcept {
    return revoked_comms_.count(id) != 0;
  }
  /// True once `world_rank` was declared dead by the failure detector.
  [[nodiscard]] bool rankDead(int world_rank) const noexcept {
    return world_rank >= 0 && world_rank < size() &&
           rank_dead_[static_cast<std::size_t>(world_rank)];
  }
  /// Operations force-failed (or refused) because their communicator was
  /// revoked.
  [[nodiscard]] std::uint64_t abortedOps() const noexcept { return aborted_ops_; }
  /// Envelopes discarded because their sender died or their communicator was
  /// revoked before a matching receive existed.
  [[nodiscard]] std::uint64_t orphanedEnvelopes() const noexcept { return orphaned_envelopes_; }
  /// shrink() collectives started by survivors.
  [[nodiscard]] std::uint64_t shrinkEvents() const noexcept { return shrink_events_; }
  /// Communicators revoked so far.
  [[nodiscard]] std::uint64_t revokedComms() const noexcept { return revoked_comms_.size(); }

 private:
  friend class Rank;
  friend class CommRank;
  struct RankChare;

  struct Envelope {
    int src_rank = -1;  ///< world rank
    int tag = 0;
    int comm = 0;
    std::uint64_t bytes = 0;
    std::uint64_t dtag = 0;  ///< machine-layer tag (rendezvous modes)
    /// Lifecycle span of an inlined (eager) message; 0 when observability is
    /// off. Rendezvous envelopes correlate through `dtag` instead, so this
    /// stays 0 for them. Carried unconditionally so message contents do not
    /// depend on observability state.
    std::uint64_t span = 0;
    std::uint32_t seq = 0;
    bool inlined = false;
    /// Payload of an inlined envelope, from the UCX eager pool; empty when
    /// the source was unbacked (`bytes` still counts it).
    std::vector<std::byte> data;
  };
  struct PostedRecv {
    /// Completion state of the user's Request handle. Held directly (not as
    /// a Request) so the bucket store's slot recycling never constructs a
    /// fresh ReqImpl.
    sim::Pooled<detail::ReqImpl> impl;
    void* buf = nullptr;
    std::uint64_t capacity = 0;
    int src = kAnySource;  ///< world rank (translated from comm-local)
    int tag = kAnyTag;
    int comm = 0;
  };
  struct RankState {
    Rank self;
    int pe = -1;
    ck::Proxy<RankChare> chare;
    /// Bucketed matching state, mirroring ucx::Worker: receives with both
    /// src and tag concrete are hashed by (comm, src, tag); receives using
    /// kAnySource/kAnyTag sit in a post-ordered wildcard store; a shared
    /// sequence counter arbitrates between the two on envelope arrival.
    sim::BucketFifo<PostedRecv> posted_exact;
    sim::BucketFifo<PostedRecv> posted_wild;
    sim::BucketFifo<Envelope> unexpected;
    std::uint64_t match_seq = 0;
    std::vector<std::uint32_t> seq_out;       ///< next seq per destination rank
    std::vector<std::uint32_t> seq_expected;  ///< next in-order seq per source rank
    std::vector<std::vector<Envelope>> out_of_order;  ///< per source rank
    std::uint64_t barrier_phase = 0;
    std::unordered_map<int, std::uint64_t> split_phase;   ///< per communicator
    std::unordered_map<int, std::uint64_t> shrink_phase;  ///< per communicator
  };

  /// src/dst are world ranks; tag/comm form the matching envelope.
  Request isendImpl(int src_rank, const void* buf, std::uint64_t bytes, int dst, int tag,
                    int comm, int status_src);
  Request irecvImpl(int dst_rank, void* buf, std::uint64_t bytes, int src, int tag, int comm);
  void enqueueEnvelope(int dst_rank, Envelope env);
  void processEnvelope(int dst_rank, Envelope env);
  void deliver(int dst_rank, PostedRecv& p, Envelope& env);
  [[nodiscard]] bool isDeviceCached(const void* p);
  std::optional<Status> iprobeImpl(int rank, int src, int tag, int comm);
  sim::FutureTask barrierTask(int rank, sim::Promise<void> done);
  sim::FutureTask splitTask(int world_rank, Comm comm, int color, int key,
                            sim::Promise<Comm> out);
  sim::FutureTask shrinkTask(int world_rank, Comm comm, sim::Promise<Comm> out);
  /// Detector callback: marks the PE's ranks dead, revokes every
  /// communicator containing one, fails their pending receives and orphans
  /// their queued envelopes.
  void onPeFailed(int pe);
  /// Discards a message that can never be received (revoked communicator):
  /// recycles inline payloads, drains parked rendezvous transfers.
  void orphanEnvelope(int pe, Envelope& env, sim::TimePoint now);
  [[nodiscard]] Comm commOf(int id);
  int registerComm(std::vector<int> members);

  ck::Runtime& rt_;
  std::vector<std::unique_ptr<RankState>> ranks_;
  std::function<sim::FutureTask(Rank&)> main_;  // must outlive rank coroutines
  sim::Promise<void> done_;
  std::unordered_map<const void*, bool> device_cache_;
  std::unordered_map<int, std::shared_ptr<const std::vector<int>>> comms_;
  coll::CollConfig coll_cfg_;
  int next_comm_id_ = 1;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  // --- failure state ------------------------------------------------------
  std::vector<bool> rank_dead_;          ///< world-rank indexed
  std::unordered_set<int> revoked_comms_;
  std::uint64_t aborted_ops_ = 0;
  std::uint64_t orphaned_envelopes_ = 0;
  std::uint64_t shrink_events_ = 0;
  int stats_provider_ = 0;
  int failure_sub_ = 0;  ///< detector subscription (dtor deregisters)
};

}  // namespace cux::ampi
