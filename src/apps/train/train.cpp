#include "apps/train/train.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>

#include "ampi/ampi.hpp"
#include "charm/pup.hpp"
#include "coll/c4p_group.hpp"
#include "coll/charm_section.hpp"
#include "hw/cuda.hpp"
#include "model/model.hpp"
#include "ucx/context.hpp"

namespace cux::train {

namespace {

/// One gradient bucket: the layers whose gradients it fuses (backward
/// order) and each layer's offset within the fused buffer.
struct BucketDef {
  std::vector<int> layers;
  std::vector<std::uint64_t> offsets;  ///< per layer, in doubles
  std::uint64_t count = 0;             ///< total doubles
};

[[nodiscard]] std::vector<BucketDef> makeBuckets(const TrainConfig& cfg) {
  std::vector<BucketDef> out;
  BucketDef cur;
  for (int l = static_cast<int>(cfg.layer_params.size()) - 1; l >= 0; --l) {
    cur.layers.push_back(l);
    cur.offsets.push_back(cur.count);
    cur.count += cfg.layer_params[static_cast<std::size_t>(l)];
    if (cur.count * 8 >= cfg.bucket_bytes) {
      out.push_back(std::move(cur));
      cur = {};
    }
  }
  if (cur.count > 0) out.push_back(std::move(cur));
  return out;
}

/// The analytic gradient value layer l writes at element j on `rank`. It is
/// periodic in j with period kGradPeriod.
constexpr std::uint64_t kGradPeriod = 5;
[[nodiscard]] double gradValue(int rank, int l, std::uint64_t j) {
  return static_cast<double>(rank + 1) +
         static_cast<double>((static_cast<std::uint64_t>(l) * 31 + j) % kGradPeriod);
}
/// Its allreduce(Sum) result over n ranks — integer-valued, so the sum is
/// exact in any combination order and bitwise identical on every replica.
[[nodiscard]] double gradSum(int n, int l, std::uint64_t j) {
  return static_cast<double>(n) * static_cast<double>(n + 1) / 2.0 +
         static_cast<double>(n) *
             static_cast<double>((static_cast<std::uint64_t>(l) * 31 + j) % kGradPeriod);
}

/// Persistent sampled weights carried per layer. The simulation keeps a
/// slice of the model, not the full parameter set: enough for checkpoints to
/// have bit-exact content whose evolution depends on every step's reduced
/// gradients, without 30 MB of live doubles per rank.
inline constexpr int kWeightSamples = 32;

/// The model state a checkpoint captures: completed steps, sampled weights
/// and their momentum, both [layer][kWeightSamples] flattened. Every rank's
/// copy is bit-identical (updates consume the replicated reduced gradients),
/// which is what makes restoring a dead rank from any blob legitimate.
struct ModelState {
  std::int32_t step = 0;
  std::vector<double> w;
  std::vector<double> v;
};

void initState(ModelState& s, int layers) {
  s.step = 0;
  const std::size_t n = static_cast<std::size_t>(layers) * kWeightSamples;
  s.w.resize(n);
  s.v.assign(n, 0.0);
  for (int l = 0; l < layers; ++l) {
    for (int k = 0; k < kWeightSamples; ++k) {
      s.w[static_cast<std::size_t>(l) * kWeightSamples + static_cast<std::size_t>(k)] =
          1.0 + 0.125 * l + 0.001 * k;
    }
  }
}

[[nodiscard]] std::uint64_t fnv1a(const void* p, std::size_t n, std::uint64_t h) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

[[nodiscard]] std::uint64_t digestState(const ModelState& s) {
  std::uint64_t h = 1469598103934665603ull;
  h = fnv1a(&s.step, sizeof(s.step), h);
  h = fnv1a(s.w.data(), s.w.size() * sizeof(double), h);
  h = fnv1a(s.v.data(), s.v.size() * sizeof(double), h);
  return h;
}

/// Driver-held coordinated-checkpoint store: one PUP blob per rank per
/// checkpointed step. A step is a valid restart point only once every
/// rank's blob landed — a rank killed mid-step must not let survivors
/// restart past its last completed state.
struct CheckpointStore {
  int ranks = 0;
  std::map<int, std::vector<std::vector<std::byte>>> blobs;  ///< step -> per-rank

  void save(int step, int rank, std::vector<std::byte> blob) {
    auto& v = blobs[step];
    if (v.empty()) v.resize(static_cast<std::size_t>(ranks));
    v[static_cast<std::size_t>(rank)] = std::move(blob);
  }
  /// Newest step with a blob from every rank (0: restart from scratch).
  [[nodiscard]] int stableStep() const {
    int best = 0;
    for (const auto& [step, v] : blobs) {
      bool all = v.size() == static_cast<std::size_t>(ranks);
      for (const auto& b : v) all = all && !b.empty();
      if (all) best = std::max(best, step);
    }
    return best;
  }
  [[nodiscard]] std::span<const std::byte> blob(int step, int rank) const {
    return blobs.at(step)[static_cast<std::size_t>(rank)];
  }
};

struct Shared {
  TrainConfig cfg;
  hw::System* sys = nullptr;
  std::vector<BucketDef> buckets;
  std::vector<int> layer_bucket;        ///< bucket holding each layer's gradient
  std::vector<std::uint64_t> layer_off; ///< layer's offset in that bucket (doubles)
  CheckpointStore* store = nullptr;
  int start_step = 0;  ///< first step this attempt runs (restored from store)
  // Rank-0 per-step scratch.
  double step_t0 = 0;
  double backward_done_us = 0;
  std::vector<double> b_start, b_end;
  std::vector<StepStat> stats;  ///< indexed by absolute step
  // Outcome. Every rank ends the attempt exactly one way: `finished` (ran
  // all steps) or `aborted_ranks` (observed the fail-stop abort and bailed).
  // The sum reaching cfg.ranks is the no-hang guarantee the drain layers
  // provide — a shortfall after engine.run() means a coroutine hung.
  int finished = 0;
  int aborted_ranks = 0;
  bool aborted = false;
  int completed = 0;  ///< rank-0 completed steps (absolute)
  bool verify_ok = true;
};

struct RankCtx {
  int rank = -1;
  int pe = -1;
  ModelState state;                         ///< persistent across steps; checkpointed
  std::vector<void*> grads;                 ///< per-bucket pool allocation (per step)
  std::vector<std::vector<double>> host;    ///< per-bucket host staging
  std::unique_ptr<cuda::Stream> compute;
  std::unique_ptr<cuda::Stream> comm;       ///< staging copies (host_staged mode)
};

[[nodiscard]] sim::Duration kernelCost(hw::System& sys, std::uint64_t params,
                                       double bytes_per_param) {
  return sim::transferTime(static_cast<std::uint64_t>(static_cast<double>(params) * bytes_per_param),
                           sys.config.gpu_mem_bandwidth_gbps * 0.8);
}

/// Allreduces bucket `b` once its backward kernels are done. Detached; the
/// backward loop keeps enqueueing kernels for earlier layers meanwhile.
template <class RankT>
sim::FutureTask bucketTask(RankT r, Shared* sh, RankCtx* me, int step, int b,
                           sim::Future<void> grads_ready, sim::Promise<void> done) {
  co_await grads_ready;
  hw::System& sys = *sh->sys;
  const BucketDef& bd = sh->buckets[static_cast<std::size_t>(b)];
  void* g = me->grads[static_cast<std::size_t>(b)];
  const double t0 = sim::toUs(sys.engine.now());
  if (me->rank == 0 && b == static_cast<int>(sh->buckets.size()) - 1) {
    sh->backward_done_us = t0;  // last bucket ready == backward finished
  }
  // One tag slot per (step, bucket): concurrent bucket allreduces never
  // share tags, and step s+1 stragglers cannot collide with step s.
  const int tag = coll::collTag(step * static_cast<int>(sh->buckets.size()) + b);

  if (sh->cfg.host_staged) {
    auto& h = me->host[static_cast<std::size_t>(b)];
    me->comm->memcpyAsync(h.data(), g, bd.count * 8, cuda::MemcpyKind::DeviceToHost);
    co_await me->comm->synchronize();
    co_await coll::allreduce(r, h.data(), h.data(), bd.count, coll::Op::Sum, tag, sh->cfg.coll);
    me->comm->memcpyAsync(g, h.data(), bd.count * 8, cuda::MemcpyKind::HostToDevice);
    co_await me->comm->synchronize();
  } else {
    co_await coll::allreduce(r, g, g, bd.count, coll::Op::Sum, tag, sh->cfg.coll);
  }

  if (me->rank == 0) {
    sh->b_start[static_cast<std::size_t>(b)] = t0;
    sh->b_end[static_cast<std::size_t>(b)] = sim::toUs(sys.engine.now());
  }
  done.set();
}

/// The per-rank training program; RankT is any coll:: rank surface and
/// laneRank(b) yields the rank handle bucket b's allreduce runs on (the
/// same handle everywhere except Charm4py, where each bucket gets its own
/// channel lane).
template <class RankT, class LaneFn>
sim::FutureTask trainMain(RankT r, LaneFn laneRank, Shared* sh, RankCtx* me) {
  hw::System& sys = *sh->sys;
  const TrainConfig& cfg = sh->cfg;
  const int L = static_cast<int>(cfg.layer_params.size());
  const int nb = static_cast<int>(sh->buckets.size());
  const bool backed = sys.config.backed_device_memory;

  for (int step = sh->start_step; step < cfg.steps; ++step) {
    if (me->rank == 0) sh->step_t0 = sim::toUs(sys.engine.now());

    // --- forward -----------------------------------------------------------
    for (int l = 0; l < L; ++l) {
      me->compute->launch(
          kernelCost(sys, cfg.layer_params[static_cast<std::size_t>(l)], cfg.fwd_bytes_per_param));
    }
    co_await me->compute->synchronize();

    // --- backward, bucketed ------------------------------------------------
    // Gradient buffers come from the device pool every step (ChainerMN's
    // CuPy pattern): step 0 misses, later steps are freelist hits.
    for (int b = 0; b < nb; ++b) {
      me->grads[static_cast<std::size_t>(b)] =
          sys.pool.alloc(me->pe, sh->buckets[static_cast<std::size_t>(b)].count * 8, backed);
    }
    std::vector<sim::Future<void>> bucket_done;
    for (int b = 0; b < nb; ++b) {
      const BucketDef& bd = sh->buckets[static_cast<std::size_t>(b)];
      for (std::size_t i = 0; i < bd.layers.size(); ++i) {
        const int l = bd.layers[i];
        const std::uint64_t params = cfg.layer_params[static_cast<std::size_t>(l)];
        double* gbase = static_cast<double*>(me->grads[static_cast<std::size_t>(b)]) + bd.offsets[i];
        const bool real = cfg.verify && sys.memory.dereferenceable(gbase);
        const int rank = me->rank;
        me->compute->launch(kernelCost(sys, params, cfg.bwd_bytes_per_param),
                            [real, gbase, params, rank, l] {
                              if (!real) return;
                              // Fill from one period of the pattern.
                              double period[kGradPeriod];
                              for (std::uint64_t k = 0; k < kGradPeriod; ++k) {
                                period[k] = gradValue(rank, l, k);
                              }
                              for (std::uint64_t j = 0, k = 0; j < params; ++j) {
                                gbase[j] = period[k];
                                if (++k == kGradPeriod) k = 0;
                              }
                            });
      }
      // The sync future completes when all kernels enqueued so far are done
      // — i.e. when this bucket's gradients are final.
      sim::Promise<void> done;
      bucket_done.push_back(done.future());
      (void)bucketTask(laneRank(b), sh, me, step, b, me->compute->synchronize(),
                       std::move(done));
    }
    for (auto& f : bucket_done) co_await f;

    if (coll::detail::rankAborted(r)) {
      // A fail-stop failure aborted this step's allreduces (the detector's
      // announcement drained them): the reduced gradients cannot be trusted,
      // so the step is abandoned without touching model state — the last
      // checkpoint stays the recovery point. Both survivors and the dead
      // rank's drained coroutine exit here; the driver restarts from the
      // newest stable checkpoint.
      for (int b = 0; b < nb; ++b) {
        sys.pool.free(me->grads[static_cast<std::size_t>(b)]);
        me->grads[static_cast<std::size_t>(b)] = nullptr;
      }
      sh->aborted = true;
      ++sh->aborted_ranks;
      co_return;
    }

    if (me->rank == 0) {
      StepStat st;
      st.compute_us = sh->backward_done_us - sh->step_t0;
      double first = sh->b_start[0], last = sh->b_end[0];
      for (int b = 0; b < nb; ++b) {
        first = std::min(first, sh->b_start[static_cast<std::size_t>(b)]);
        last = std::max(last, sh->b_end[static_cast<std::size_t>(b)]);
        st.bucket_sum_us +=
            sh->b_end[static_cast<std::size_t>(b)] - sh->b_start[static_cast<std::size_t>(b)];
      }
      st.allreduce_wall_us = last - first;
      sh->stats[static_cast<std::size_t>(step)] = st;
    }

    // --- verify the reduced gradients (sampled, bit-exact) -----------------
    if (cfg.verify && backed && step == cfg.steps - 1) {
      for (int b = 0; b < nb; ++b) {
        const BucketDef& bd = sh->buckets[static_cast<std::size_t>(b)];
        const auto* gb = static_cast<const double*>(me->grads[static_cast<std::size_t>(b)]);
        for (std::size_t i = 0; i < bd.layers.size(); ++i) {
          const std::uint64_t params = cfg.layer_params[static_cast<std::size_t>(bd.layers[i])];
          for (std::uint64_t j = 0; j < params; j = j + 97) {
            if (gb[bd.offsets[i] + j] != gradSum(cfg.ranks, bd.layers[i], j)) {
              sh->verify_ok = false;
            }
          }
          if (gb[bd.offsets[i] + params - 1] != gradSum(cfg.ranks, bd.layers[i], params - 1)) {
            sh->verify_ok = false;
          }
        }
      }
    }

    // --- optimizer ---------------------------------------------------------
    const double opt_t0 = sim::toUs(sys.engine.now());
    me->compute->launch(kernelCost(sys, cfg.totalParams(), cfg.opt_bytes_per_param));
    co_await me->compute->synchronize();
    // Momentum-SGD on the persistent sampled weights — the slice of model
    // state the simulation carries for real. The gradients consumed are the
    // *reduced* values (bit-exact integers, identical on every replica), so
    // state evolution is deterministic and replicated: the property the
    // checkpoint/restart bit-identity test pins.
    const double lr = 0.05 / (1.0 + static_cast<double>(step));
    for (int l = 0; l < L; ++l) {
      const std::uint64_t params = cfg.layer_params[static_cast<std::size_t>(l)];
      const int b = sh->layer_bucket[static_cast<std::size_t>(l)];
      const std::uint64_t off = sh->layer_off[static_cast<std::size_t>(l)];
      const auto* gb = static_cast<const double*>(me->grads[static_cast<std::size_t>(b)]);
      const bool real = cfg.verify && sys.memory.dereferenceable(gb + off);
      for (int k = 0; k < kWeightSamples; ++k) {
        const std::uint64_t j = (static_cast<std::uint64_t>(k) * 1009) % params;
        const double g = real ? gb[off + j] : gradSum(cfg.ranks, l, j);
        const std::size_t i =
            static_cast<std::size_t>(l) * kWeightSamples + static_cast<std::size_t>(k);
        me->state.v[i] = 0.9 * me->state.v[i] + g;
        me->state.w[i] -= lr * me->state.v[i];
      }
    }
    me->state.step = step + 1;
    for (int b = 0; b < nb; ++b) {
      sys.pool.free(me->grads[static_cast<std::size_t>(b)]);
      me->grads[static_cast<std::size_t>(b)] = nullptr;
    }
    if (me->rank == 0) {
      StepStat& st = sh->stats[static_cast<std::size_t>(step)];
      st.optimizer_us = sim::toUs(sys.engine.now()) - opt_t0;
      st.step_us = sim::toUs(sys.engine.now()) - sh->step_t0;
      sh->completed = step + 1;
    }

    // --- checkpoint ---------------------------------------------------------
    // PUP the model state into the driver-held store. Packing after the last
    // step is pointless (nothing is left to restart into), so skip it there.
    if (cfg.checkpoint_every > 0 && (step + 1) % cfg.checkpoint_every == 0 &&
        step + 1 < cfg.steps) {
      ck::Packer p;
      p.pack(me->state.step);
      p.pack(me->state.w);
      p.pack(me->state.v);
      sh->store->save(step + 1, me->rank, p.take());
    }
  }

  ++sh->finished;
}

/// One job attempt on a freshly built machine. `inject` schedules the
/// configured fail-stop failure; restart attempts run with it off (the
/// failed hardware is gone, the job got a new allocation).
struct AttemptOutcome {
  bool completed = false;  ///< every rank ran all steps
  int completed_steps = 0; ///< rank-0 progress (absolute)
  int hung_ranks = 0;      ///< ranks that neither finished nor aborted
  std::uint64_t digest = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  double wall_us = 0;
  bool verified = false;  ///< reduced gradients checked bit-exactly
};

AttemptOutcome runAttempt(const TrainConfig& cfg, Stack stack, int start_step, bool inject,
                          CheckpointStore& store, std::vector<StepStat>& stats_out) {
  model::Model m = cfg.model;
  m.machine.num_nodes = cfg.nodes;
  if (inject) m.machine.fault.killPe(cfg.fault.kill_pe, sim::usec(cfg.fault.kill_at_us));
  hw::System sys(m.machine);
  if (cfg.setup) cfg.setup(sys);
  ucx::Context ctx(sys, m.ucx);
  ck::Runtime rt(sys, ctx, m);
  assert(cfg.ranks >= 1 && cfg.ranks <= rt.numPes() && "one worker per PE");

  Shared sh;
  sh.cfg = cfg;
  sh.sys = &sys;
  sh.buckets = makeBuckets(cfg);
  const int nb = static_cast<int>(sh.buckets.size());
  const int L = static_cast<int>(cfg.layer_params.size());
  sh.layer_bucket.assign(static_cast<std::size_t>(L), 0);
  sh.layer_off.assign(static_cast<std::size_t>(L), 0);
  for (int b = 0; b < nb; ++b) {
    const BucketDef& bd = sh.buckets[static_cast<std::size_t>(b)];
    for (std::size_t i = 0; i < bd.layers.size(); ++i) {
      sh.layer_bucket[static_cast<std::size_t>(bd.layers[i])] = b;
      sh.layer_off[static_cast<std::size_t>(bd.layers[i])] = bd.offsets[i];
    }
  }
  sh.b_start.assign(static_cast<std::size_t>(nb), 0);
  sh.b_end.assign(static_cast<std::size_t>(nb), 0);
  sh.stats.assign(static_cast<std::size_t>(cfg.steps), StepStat{});
  sh.store = &store;
  sh.start_step = start_step;
  sh.completed = start_step;

  std::vector<std::unique_ptr<RankCtx>> rank_ctx;
  for (int r = 0; r < cfg.ranks; ++r) {
    auto c = std::make_unique<RankCtx>();
    c->rank = r;
    c->pe = r;  // one worker per PE, PEs [0, ranks)
    c->grads.assign(static_cast<std::size_t>(nb), nullptr);
    c->compute = std::make_unique<cuda::Stream>(sys, c->pe);
    c->comm = std::make_unique<cuda::Stream>(sys, c->pe);
    if (start_step > 0) {
      // Restart: every rank restores from the stable checkpoint. The dead
      // rank's replacement restores like any other — the blobs are
      // replicated-identical, so losing one rank's copy loses nothing.
      ck::Unpacker u(store.blob(start_step, r));
      c->state.step = u.unpack<std::int32_t>();
      c->state.w = u.unpack<std::vector<double>>();
      c->state.v = u.unpack<std::vector<double>>();
      assert(c->state.step == start_step && "checkpoint blob names a different step");
    } else {
      initState(c->state, L);
    }
    if (cfg.host_staged) {
      for (int b = 0; b < nb; ++b) {
        c->host.emplace_back(sh.buckets[static_cast<std::size_t>(b)].count, 0.0);
      }
    }
    rank_ctx.push_back(std::move(c));
  }

  std::unique_ptr<ampi::World> ampi_world;
  std::unique_ptr<coll::CharmSection> section;
  std::unique_ptr<c4p::Charm4py> py;
  std::unique_ptr<coll::C4pGroup> group;
  std::vector<int> pes;
  for (int r = 0; r < cfg.ranks; ++r) pes.push_back(r);

  switch (stack) {
    case Stack::Ampi: {
      ampi_world = std::make_unique<ampi::World>(rt, cfg.ranks);
      ampi_world->setCollConfig(cfg.coll);
      ampi_world->run([&sh, &rank_ctx](ampi::Rank& r) -> sim::FutureTask {
        RankCtx* me = rank_ctx[static_cast<std::size_t>(r.rank())].get();
        return trainMain(r, [r](int) { return r; }, &sh, me);
      });
      break;
    }
    case Stack::Charm: {
      section = std::make_unique<coll::CharmSection>(rt, pes);
      for (int r = 0; r < cfg.ranks; ++r) {
        RankCtx* me = rank_ctx[static_cast<std::size_t>(r)].get();
        coll::SectionRank sr = section->rank(r);
        rt.startOn(me->pe, [sr, &sh, me] {
          (void)trainMain(sr, [sr](int) { return sr; }, &sh, me);
        });
      }
      break;
    }
    case Stack::Charm4py: {
      py = std::make_unique<c4p::Charm4py>(rt);
      group = std::make_unique<coll::C4pGroup>(*py, pes, nb);
      for (int r = 0; r < cfg.ranks; ++r) {
        RankCtx* me = rank_ctx[static_cast<std::size_t>(r)].get();
        coll::C4pGroup* g = group.get();
        py->startOn(me->pe, [g, r, &sh, me] {
          (void)trainMain(g->rank(r, 0), [g, r](int b) { return g->rank(r, b); }, &sh, me);
        });
      }
      break;
    }
    case Stack::Ompi:
      break;  // rejected in runTrain
  }

  sys.engine.run();
  // The drain layers' no-hang guarantee: after the engine runs dry, every
  // rank — the dead one included — must have either finished all steps or
  // taken the abort exit. A shortfall means a coroutine is parked forever.
  assert(sh.finished + sh.aborted_ranks == cfg.ranks && "training rank hung");

  AttemptOutcome out;
  out.completed = sh.finished == cfg.ranks;
  out.completed_steps = sh.completed;
  out.hung_ranks = cfg.ranks - sh.finished - sh.aborted_ranks;
  out.digest = digestState(rank_ctx[0]->state);
  out.pool_hits = sys.pool.hits();
  out.pool_misses = sys.pool.misses();
  out.wall_us = sim::toUs(sys.engine.now());
  out.verified = cfg.verify && sys.config.backed_device_memory && sh.verify_ok;
  // Merge rank-0 step timings for the steps this attempt completed; a
  // restart re-running checkpointed-but-recorded steps overwrites them, so
  // the merged timeline is the one the finishing attempt actually ran.
  for (int s = start_step; s < sh.completed; ++s) {
    stats_out[static_cast<std::size_t>(s)] = sh.stats[static_cast<std::size_t>(s)];
  }
  return out;
}

}  // namespace

TrainResult runTrain(const TrainConfig& cfg, Stack stack) {
  if (stack == Stack::Ompi) throw std::invalid_argument("train: no OpenMPI training driver");
  TrainResult out;
  out.stack = stack;
  out.ranks = cfg.ranks;
  out.buckets = static_cast<int>(makeBuckets(cfg).size());
  out.steps.assign(static_cast<std::size_t>(cfg.steps), StepStat{});

  CheckpointStore store;
  store.ranks = cfg.ranks;
  const bool inject = cfg.fault.kill_pe >= 0;
  int start_step = 0;
  for (int attempt = 0;; ++attempt) {
    const AttemptOutcome a =
        runAttempt(cfg, stack, start_step, inject && attempt == 0, store, out.steps);
    out.total_us += a.wall_us;
    out.completed_steps = std::max(out.completed_steps, a.completed_steps);
    out.hung_ranks += a.hung_ranks;
    if (a.completed) {
      out.verified = a.verified;
      out.pool_hits = a.pool_hits;
      out.pool_misses = a.pool_misses;
      out.model_digest = a.digest;
      out.recovered = inject && out.restarts > 0;
      break;
    }
    if (attempt >= cfg.max_restarts) {
      out.failed = true;
      break;
    }
    ++out.restarts;
    start_step = store.stableStep();
  }
  return out;
}

}  // namespace cux::train
