#include <memory>

#include "ampi/ampi.hpp"
#include "apps/osu/osu.hpp"
#include "hw/cuda.hpp"
#include "ompi/ompi.hpp"
#include "ucx/context.hpp"

/// OSU latency/bandwidth adapted to the MPI stacks (AMPI and the OpenMPI
/// baseline). Both expose the same rank surface, so one set of coroutine
/// drivers serves both; -H variants stage through host memory with the CUDA
/// shim exactly as the paper's modified benchmarks do.

namespace cux::osu::detail {

namespace {

struct PairEnv {
  std::size_t bytes = 0;
  int iters = 0, warmup = 0, window = 0;
  Mode mode = Mode::Device;
  int client_rank = 0, server_rank = 1;
  // Per-side device buffers and staging state.
  void* d_send[2] = {nullptr, nullptr};
  void* d_recv[2] = {nullptr, nullptr};
  cuda::HostStage h_send[2], h_recv[2];
  std::unique_ptr<cuda::Stream> stream[2];
  double result_us = 0;
  hw::System* sys = nullptr;  ///< for iteration marks (critical-path attribution)

  [[nodiscard]] int sideOf(int rank) const { return rank == client_rank ? 0 : 1; }
};

template <class RankT>
sim::FutureTask latencyMain(RankT* r, PairEnv* env) {
  const int me = r->rank();
  if (me != env->client_rank && me != env->server_rank) co_return;
  const int side = env->sideOf(me);
  const int peer = side == 0 ? env->server_rank : env->client_rank;
  const bool client = side == 0;
  const std::size_t n = env->bytes;
  double t0 = 0;

  for (int it = 0; it < env->warmup + env->iters; ++it) {
    if (client && it == env->warmup) {
      t0 = r->timeUs();
      if (env->sys != nullptr) env->sys->obs.markIteration(env->sys->engine.now());
    }
    if (client) {
      if (env->mode == Mode::Device) {
        co_await r->send(env->d_send[side], n, peer, 1);
        co_await r->recv(env->d_recv[side], n, peer, 2);
      } else {
        env->stream[side]->memcpyAsync(env->h_send[side].get(), env->d_send[side], n,
                                       cuda::MemcpyKind::DeviceToHost);
        co_await env->stream[side]->synchronize();
        co_await r->send(env->h_send[side].get(), n, peer, 1);
        co_await r->recv(env->h_recv[side].get(), n, peer, 2);
        env->stream[side]->memcpyAsync(env->d_recv[side], env->h_recv[side].get(), n,
                                       cuda::MemcpyKind::HostToDevice);
        co_await env->stream[side]->synchronize();
      }
    } else {
      if (env->mode == Mode::Device) {
        co_await r->recv(env->d_recv[side], n, peer, 1);
        co_await r->send(env->d_send[side], n, peer, 2);
      } else {
        co_await r->recv(env->h_recv[side].get(), n, peer, 1);
        env->stream[side]->memcpyAsync(env->d_recv[side], env->h_recv[side].get(), n,
                                       cuda::MemcpyKind::HostToDevice);
        co_await env->stream[side]->synchronize();
        env->stream[side]->memcpyAsync(env->h_send[side].get(), env->d_send[side], n,
                                       cuda::MemcpyKind::DeviceToHost);
        co_await env->stream[side]->synchronize();
        co_await r->send(env->h_send[side].get(), n, peer, 2);
      }
    }
    if (client && it >= env->warmup && env->sys != nullptr) {
      env->sys->obs.markIteration(env->sys->engine.now());
    }
  }
  if (client) env->result_us = (r->timeUs() - t0) / (2.0 * env->iters);
}

template <class RankT, class RequestT>
sim::FutureTask bandwidthMain(RankT* r, PairEnv* env) {
  const int me = r->rank();
  if (me != env->client_rank && me != env->server_rank) co_return;
  const int side = env->sideOf(me);
  const int peer = side == 0 ? env->server_rank : env->client_rank;
  const bool client = side == 0;
  const std::size_t n = env->bytes;
  int ack = 0;
  double t0 = 0;

  for (int it = 0; it < env->warmup + env->iters; ++it) {
    if (client && it == env->warmup) t0 = r->timeUs();
    if (client) {
      const void* buf = env->mode == Mode::Device ? env->d_send[side] : env->h_send[side].get();
      std::vector<RequestT> reqs;
      reqs.reserve(static_cast<std::size_t>(env->window));
      for (int w = 0; w < env->window; ++w) {
        if (env->mode == Mode::HostStaging) {
          // Per-message synchronous staging, as in the OSU-GPU -H adaptation
          // (cudaMemcpy before every MPI_Isend).
          env->stream[side]->memcpyAsync(env->h_send[side].get(), env->d_send[side], n,
                                         cuda::MemcpyKind::DeviceToHost);
          co_await env->stream[side]->synchronize();
        }
        reqs.push_back(r->isend(buf, n, peer, w));
      }
      co_await r->waitAll(reqs);
      co_await r->recv(&ack, sizeof ack, peer, 999);
    } else {
      void* buf = env->mode == Mode::Device ? env->d_recv[side] : env->h_recv[side].get();
      std::vector<RequestT> reqs;
      reqs.reserve(static_cast<std::size_t>(env->window));
      for (int w = 0; w < env->window; ++w) reqs.push_back(r->irecv(buf, n, peer, w));
      co_await r->waitAll(reqs);
      if (env->mode == Mode::HostStaging) {
        env->stream[side]->memcpyAsync(env->d_recv[side], env->h_recv[side].get(), n,
                                       cuda::MemcpyKind::HostToDevice);
        co_await env->stream[side]->synchronize();
      }
      co_await r->send(&ack, sizeof ack, peer, 999);
    }
  }
  if (client) {
    const double elapsed_us = r->timeUs() - t0;
    const double total_bytes =
        static_cast<double>(n) * env->window * env->iters;
    env->result_us = total_bytes / elapsed_us;  // bytes/us == MB/s
  }
}

/// osu_bibw: both sides post a window of irecvs, fire a window of isends,
/// then wait for everything — bandwidth counted in both directions.
template <class RankT, class RequestT>
sim::FutureTask biBandwidthMain(RankT* r, PairEnv* env) {
  const int me = r->rank();
  if (me != env->client_rank && me != env->server_rank) co_return;
  const int side = env->sideOf(me);
  const int peer = side == 0 ? env->server_rank : env->client_rank;
  const bool client = side == 0;
  const std::size_t n = env->bytes;
  double t0 = 0;

  for (int it = 0; it < env->warmup + env->iters; ++it) {
    if (client && it == env->warmup) t0 = r->timeUs();
    if (env->mode == Mode::HostStaging) {
      env->stream[side]->memcpyAsync(env->h_send[side].get(), env->d_send[side], n,
                                     cuda::MemcpyKind::DeviceToHost);
      co_await env->stream[side]->synchronize();
    }
    const void* sbuf = env->mode == Mode::Device ? env->d_send[side] : env->h_send[side].get();
    void* rbuf = env->mode == Mode::Device ? env->d_recv[side] : env->h_recv[side].get();
    std::vector<RequestT> reqs;
    reqs.reserve(static_cast<std::size_t>(2 * env->window));
    for (int w = 0; w < env->window; ++w) reqs.push_back(r->irecv(rbuf, n, peer, 2000 + w));
    for (int w = 0; w < env->window; ++w) reqs.push_back(r->isend(sbuf, n, peer, 2000 + w));
    co_await r->waitAll(reqs);
    if (env->mode == Mode::HostStaging) {
      env->stream[side]->memcpyAsync(env->d_recv[side], env->h_recv[side].get(), n,
                                     cuda::MemcpyKind::HostToDevice);
      co_await env->stream[side]->synchronize();
    }
  }
  if (client) {
    const double elapsed_us = r->timeUs() - t0;
    // Both directions count.
    env->result_us = 2.0 * static_cast<double>(n) * env->window * env->iters / elapsed_us;
  }
}

/// osu_multi_lat: P/2 concurrent pairs; the average one-way latency under
/// full-machine pressure.
struct MultiEnv {
  std::size_t bytes = 0;
  int iters = 0, warmup = 0;
  Mode mode = Mode::Device;
  std::vector<void*> bufs;  ///< one device buffer per rank
  std::vector<double> one_way_us;
};

template <class RankT>
sim::FutureTask multiLatencyMain(RankT* r, MultiEnv* env) {
  const int n_ranks = r->size();
  const int half = n_ranks / 2;
  const int me = r->rank();
  const bool client = me < half;
  const int peer = client ? me + half : me - half;
  const std::size_t n = env->bytes;
  void* buf = env->bufs[static_cast<std::size_t>(me)];
  double t0 = 0;
  for (int it = 0; it < env->warmup + env->iters; ++it) {
    if (client && it == env->warmup) t0 = r->timeUs();
    if (client) {
      co_await r->send(buf, n, peer, 1);
      co_await r->recv(buf, n, peer, 2);
    } else {
      co_await r->recv(buf, n, peer, 1);
      co_await r->send(buf, n, peer, 2);
    }
  }
  if (client) {
    env->one_way_us[static_cast<std::size_t>(me)] = (r->timeUs() - t0) / (2.0 * env->iters);
  }
}

struct MpiFixture {
  explicit MpiFixture(const BenchConfig& cfg) {
    model::Model m = cfg.model;
    m.machine.backed_device_memory = false;  // timing-only buffers
    sys = std::make_unique<hw::System>(m.machine);
    if (cfg.setup) cfg.setup(*sys);
    ctx = std::make_unique<ucx::Context>(*sys, m.ucx);
    if (cfg.stack == Stack::Ampi) {
      rt = std::make_unique<ck::Runtime>(*sys, *ctx, m);
      ampi_world = std::make_unique<ampi::World>(*rt);
    } else {
      ompi_world = std::make_unique<ompi::World>(*sys, *ctx, m.costs);
    }
  }

  void setupEnv(const BenchConfig& cfg, std::size_t bytes, PairEnv& env) {
    auto [a, b] = pickPes(cfg);
    env.bytes = bytes;
    env.iters = cfg.iters;
    env.warmup = cfg.warmup;
    env.window = cfg.window;
    env.mode = cfg.mode;
    env.client_rank = a;
    env.server_rank = b;
    env.sys = sys.get();
    const int pes[2] = {a, b};
    for (int s = 0; s < 2; ++s) {
      env.d_send[s] = cuda::deviceAlloc(*sys, pes[s], bytes);
      env.d_recv[s] = cuda::deviceAlloc(*sys, pes[s], bytes);
      if (cfg.mode == Mode::HostStaging) {
        env.h_send[s].init(*sys, bytes, sys->config.backed_device_memory);
        env.h_recv[s].init(*sys, bytes, sys->config.backed_device_memory);
      }
      env.stream[s] = std::make_unique<cuda::Stream>(*sys, pes[s]);
    }
  }

  std::unique_ptr<hw::System> sys;
  std::unique_ptr<ucx::Context> ctx;
  std::unique_ptr<ck::Runtime> rt;
  std::unique_ptr<ampi::World> ampi_world;
  std::unique_ptr<ompi::World> ompi_world;
};

}  // namespace

double mpiLatency(const BenchConfig& cfg, std::size_t bytes) {
  MpiFixture f(cfg);
  PairEnv env;
  f.setupEnv(cfg, bytes, env);
  if (f.ampi_world) {
    f.ampi_world->run(
        [&env](ampi::Rank& r) -> sim::FutureTask { return latencyMain(&r, &env); });
  } else {
    f.ompi_world->run(
        [&env](ompi::Rank& r) -> sim::FutureTask { return latencyMain(&r, &env); });
  }
  f.sys->engine.run();
  if (cfg.inspect) cfg.inspect(*f.sys);
  return env.result_us;
}

double mpiBiBandwidth(const BenchConfig& cfg, std::size_t bytes) {
  MpiFixture f(cfg);
  PairEnv env;
  f.setupEnv(cfg, bytes, env);
  if (f.ampi_world) {
    f.ampi_world->run([&env](ampi::Rank& r) -> sim::FutureTask {
      return biBandwidthMain<ampi::Rank, ampi::Request>(&r, &env);
    });
  } else {
    f.ompi_world->run([&env](ompi::Rank& r) -> sim::FutureTask {
      return biBandwidthMain<ompi::Rank, ompi::Request>(&r, &env);
    });
  }
  f.sys->engine.run();
  if (cfg.inspect) cfg.inspect(*f.sys);
  return env.result_us;
}

double mpiMultiLatency(const BenchConfig& cfg, std::size_t bytes) {
  MpiFixture f(cfg);
  MultiEnv env;
  env.bytes = bytes;
  env.iters = cfg.iters;
  env.warmup = cfg.warmup;
  env.mode = cfg.mode;
  const int n_ranks = f.sys->config.numPes();
  env.one_way_us.assign(static_cast<std::size_t>(n_ranks), 0.0);
  for (int p = 0; p < n_ranks; ++p) {
    env.bufs.push_back(cuda::deviceAlloc(*f.sys, p, bytes));
  }
  if (f.ampi_world) {
    f.ampi_world->run(
        [&env](ampi::Rank& r) -> sim::FutureTask { return multiLatencyMain(&r, &env); });
  } else {
    f.ompi_world->run(
        [&env](ompi::Rank& r) -> sim::FutureTask { return multiLatencyMain(&r, &env); });
  }
  f.sys->engine.run();
  if (cfg.inspect) cfg.inspect(*f.sys);
  double sum = 0;
  for (int p = 0; p < n_ranks / 2; ++p) sum += env.one_way_us[static_cast<std::size_t>(p)];
  return sum / (n_ranks / 2);
}

double mpiBandwidth(const BenchConfig& cfg, std::size_t bytes) {
  MpiFixture f(cfg);
  PairEnv env;
  f.setupEnv(cfg, bytes, env);
  if (f.ampi_world) {
    f.ampi_world->run([&env](ampi::Rank& r) -> sim::FutureTask {
      return bandwidthMain<ampi::Rank, ampi::Request>(&r, &env);
    });
  } else {
    f.ompi_world->run([&env](ompi::Rank& r) -> sim::FutureTask {
      return bandwidthMain<ompi::Rank, ompi::Request>(&r, &env);
    });
  }
  f.sys->engine.run();
  if (cfg.inspect) cfg.inspect(*f.sys);
  return env.result_us;
}

}  // namespace cux::osu::detail
