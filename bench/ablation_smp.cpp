#include <cstdio>

#include "apps/osu/osu.hpp"

/// Ablation: SMP vs non-SMP build. The paper pins its whole evaluation to
/// the non-SMP configuration (one PE per process, Sec. IV-A). In the SMP
/// build every network operation of a node funnels through one
/// communication thread; with six GPUs' traffic behind one thread, injection
/// serialisation costs latency and (window) bandwidth — this sweep shows
/// how much, in virtual time, via the comm-thread hop model
/// (smp_comm_thread).

int main() {
  using namespace cux;
  std::printf("# Ablation: non-SMP (paper's choice) vs SMP comm-thread build\n\n");
  auto run = [](bool smp, bool bw, std::size_t size) {
    osu::BenchConfig cfg;
    cfg.stack = osu::Stack::Ampi;
    cfg.mode = osu::Mode::Device;
    cfg.place = osu::Placement::InterNode;
    cfg.iters = 15;
    cfg.warmup = 3;
    cfg.window = 32;
    cfg.model.costs.smp_comm_thread = smp;
    return bw ? osu::bandwidthPoint(cfg, size) : osu::latencyPoint(cfg, size);
  };
  std::printf("%-10s %14s %14s | %14s %14s\n", "size", "lat non-SMP", "lat SMP",
              "bw non-SMP", "bw SMP");
  for (std::size_t s : {8u, 4096u, 65536u, 1u << 20}) {
    std::printf("%-10zu %14.2f %14.2f | %14.1f %14.1f\n", s, run(false, false, s),
                run(true, false, s), run(false, true, s), run(true, true, s));
  }
  std::printf("\nWith a single ping-pong pair the comm thread adds fixed hops; the real\n"
              "penalty appears when all six PEs of a node inject concurrently (as in\n"
              "Jacobi), which is why the paper evaluates non-SMP.\n");

  // Concurrent pressure: multi-pair latency, where 6 PEs share the thread.
  std::printf("\n# multi-pair (6 concurrent pairs) average one-way latency (us)\n");
  std::printf("%-10s %14s %14s\n", "size", "non-SMP", "SMP");
  for (std::size_t s : {8u, 4096u, 65536u}) {
    auto multi = [&](bool smp) {
      osu::BenchConfig cfg;
      cfg.stack = osu::Stack::Ampi;
      cfg.mode = osu::Mode::Device;
      cfg.place = osu::Placement::InterNode;
      cfg.iters = 15;
      cfg.warmup = 3;
      cfg.model.costs.smp_comm_thread = smp;
      cfg.sizes = {s};
      return osu::runMultiLatency(cfg)[0].value;
    };
    std::printf("%-10zu %14.2f %14.2f\n", s, multi(false), multi(true));
  }
  return 0;
}
