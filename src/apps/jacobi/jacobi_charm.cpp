#include <memory>

#include "apps/jacobi/block.hpp"
#include "charm/charm.hpp"
#include "ucx/context.hpp"

/// Jacobi3D in message-driven Charm++ style (paper Fig. 14): one chare per
/// block; halo faces travel as ck::Buffer entry-method parameters with a
/// post entry routing each face to its destination GPU buffer. Receive faces
/// are double-buffered by iteration parity because a neighbour may run one
/// iteration ahead.

namespace cux::jacobi::detail {

namespace {

struct CharmEnv;

struct JacobiChare : ck::Chare {
  // --- wiring --------------------------------------------------------------
  BlockState* b = nullptr;
  CharmEnv* env = nullptr;

  // --- per-iteration state ---------------------------------------------------
  int it = 0;
  int total_iters = 0;
  int warmup = 0;
  int faces_in = 0;
  int early_faces = 0;  ///< faces already arrived for iteration it+1
  int sends_done = 0;
  bool sends_initiated = false;
  bool unstage_pending = false;

  void startIter();
  void packDone();
  void sendFaces();
  void recvFacePost(std::span<ck::Buffer> bufs, ck::Unpacker& u);
  void recvFace(std::uint32_t dir, std::uint32_t iter, ck::Buffer face);
  void maybePhaseDone();
  void commDone();
  void iterDone();
};

struct CharmEnv {
  const JacobiConfig* cfg = nullptr;
  Decomposition dec;
  std::vector<std::unique_ptr<BlockState>> blocks;
  std::vector<ck::Proxy<JacobiChare>> chares;
  sim::TimePoint t0 = 0, t_end = 0;
  int done_count = 0;
};

void JacobiChare::startIter() {
  if (it == warmup) {
    b->comm_ns = 0;
    b->measure_start = b->sys->engine.now();
    if (b->id == 0) env->t0 = b->measure_start;
  }
  faces_in = early_faces;
  early_faces = 0;
  sends_done = 0;
  sends_initiated = false;
  unstage_pending = false;
  b->stream->launch(b->packCost(), b->packBody());
  b->stream->synchronize().onReady([this] { packDone(); });
}

void JacobiChare::packDone() {
  b->comm_phase_start = b->sys->engine.now();
  if (b->mode == Mode::HostStaging) {
    b->stageSendFaces();
    b->stream->synchronize().onReady([this] { sendFaces(); });
  } else {
    sendFaces();
  }
}

void JacobiChare::sendFaces() {
  sends_initiated = true;
  for (int d = 0; d < kNumDirs; ++d) {
    const int peer = b->nbr[static_cast<std::size_t>(d)];
    if (peer < 0) continue;
    const auto dir = static_cast<Dir>(d);
    // The receiver sees this face on its opposite side.
    env->chares[static_cast<std::size_t>(peer)].sendFrom<&JacobiChare::recvFace>(
        b->pe, static_cast<std::uint32_t>(static_cast<int>(opposite(dir))),
        static_cast<std::uint32_t>(it),
        ck::Buffer(b->sendBuf(dir), env->dec.faceBytes(dir)).onSent([this] {
          ++sends_done;
          maybePhaseDone();
        }));
  }
  maybePhaseDone();  // boundary blocks with zero neighbours
}

void JacobiChare::recvFacePost(std::span<ck::Buffer> bufs, ck::Unpacker& u) {
  const auto dir = u.unpack<std::uint32_t>();
  const auto iter = u.unpack<std::uint32_t>();
  bufs[0].setDestination(b->recvBuf(static_cast<Dir>(dir), static_cast<int>(iter % 2)),
                         env->dec.faceBytes(static_cast<Dir>(dir)));
}

void JacobiChare::recvFace(std::uint32_t /*dir*/, std::uint32_t iter, ck::Buffer) {
  if (static_cast<int>(iter) == it) {
    ++faces_in;
    maybePhaseDone();
  } else {
    // A neighbour running one iteration ahead.
    ++early_faces;
  }
}

void JacobiChare::maybePhaseDone() {
  if (!sends_initiated || faces_in < b->nnbr || sends_done < b->nnbr) return;
  sends_initiated = false;  // guard against double entry
  if (b->mode == Mode::HostStaging) {
    unstage_pending = true;
    b->stageRecvFaces(it % 2);
    b->stream->synchronize().onReady([this] { commDone(); });
  } else {
    commDone();
  }
}

void JacobiChare::commDone() {
  b->comm_ns += b->sys->engine.now() - b->comm_phase_start;
  b->stream->launch(b->unpackCost(), b->unpackBody(it % 2));
  b->stream->launch(b->stencilCost(), b->stencilBody());
  b->stream->synchronize().onReady([this] { iterDone(); });
}

void JacobiChare::iterDone() {
  if (++it < total_iters) {
    startIter();
    return;
  }
  if (b->id == 0) env->t_end = b->sys->engine.now();
  ++env->done_count;
}

struct Registrar {
  Registrar() { ck::setPostEntry<&JacobiChare::recvFace, &JacobiChare::recvFacePost>(); }
};

}  // namespace

JacobiResult runCharm(const JacobiConfig& cfg, std::vector<double>* out) {
  static Registrar registrar;
  model::Model m = cfg.model;
  m.machine.num_nodes = cfg.nodes;
  m.machine.backed_device_memory = cfg.backed;
  hw::System sys(m.machine);
  if (cfg.setup) cfg.setup(sys);
  ucx::Context ctx(sys, m.ucx);
  ck::Runtime rt(sys, ctx, m);

  CharmEnv env;
  env.cfg = &cfg;
  const int nblocks = sys.config.numPes() * cfg.overdecomposition;
  env.dec = decompose(cfg.grid, nblocks);
  for (int p = 0; p < nblocks; ++p) {
    auto b = std::make_unique<BlockState>();
    b->init(sys, cfg, env.dec, p, p % sys.config.numPes());
    env.blocks.push_back(std::move(b));
    env.chares.push_back(rt.create<JacobiChare>(p % sys.config.numPes()));
    JacobiChare* c = env.chares.back().local();
    c->b = env.blocks.back().get();
    c->env = &env;
    c->total_iters = cfg.warmup + cfg.iters;
    c->warmup = cfg.warmup;
  }
  for (auto& proxy : env.chares) {
    JacobiChare* c = proxy.local();
    rt.startOn(c->b->pe, [c] { c->startIter(); });
  }
  sys.engine.run();
  if (cfg.inspect) cfg.inspect(sys);

  JacobiResult res;
  res.dec = env.dec;
  res.overall_ms_per_iter = sim::toMs(env.t_end - env.t0) / cfg.iters;
  double comm = 0;
  for (const auto& b : env.blocks) comm += sim::toMs(b->comm_ns) / cfg.iters;
  res.comm_ms_per_iter = comm / static_cast<double>(env.blocks.size());
  if (out != nullptr) {
    for (const auto& b : env.blocks) b->extractInterior(*out);
  }
  return res;
}

}  // namespace cux::jacobi::detail
