#include <cstdio>
#include <cstring>

#include "apps/train/train.hpp"

/// Extension bench: the ChainerMN-style data-parallel training workload on
/// all three stacks. Reports the per-step anatomy — compute wall, the union
/// interval of the bucket allreduces vs their serial sum (the overlap the
/// gradient bucketing buys), optimizer — plus the host-staged baseline.

using namespace cux;

namespace {

void report(const char* label, const train::TrainResult& r) {
  std::printf("%-22s ranks=%d buckets=%d verified=%s pool(h/m)=%llu/%llu\n", label, r.ranks,
              r.buckets, r.verified ? "yes" : "no",
              static_cast<unsigned long long>(r.pool_hits),
              static_cast<unsigned long long>(r.pool_misses));
  std::printf("  %-5s %10s %10s %12s %12s %9s %10s\n", "step", "step_us", "compute",
              "allred_wall", "bucket_sum", "overlap", "optimizer");
  for (std::size_t s = 0; s < r.steps.size(); ++s) {
    const train::StepStat& st = r.steps[s];
    std::printf("  %-5zu %10.1f %10.1f %12.1f %12.1f %8.2f%% %10.1f\n", s, st.step_us,
                st.compute_us, st.allreduce_wall_us, st.bucket_sum_us,
                100.0 * st.overlapRatio(), st.optimizer_us);
  }
  std::printf("  avg step %.1f us, steady-state overlap ratio %.2f\n\n", r.avgStepUs(),
              r.avgOverlap());
}

}  // namespace

int main(int argc, char** argv) {
  train::TrainConfig cfg;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--steps") == 0 && a + 1 < argc) cfg.steps = std::atoi(argv[++a]);
    if (std::strcmp(argv[a], "--ranks") == 0 && a + 1 < argc) cfg.ranks = std::atoi(argv[++a]);
    if (std::strcmp(argv[a], "--nodes") == 0 && a + 1 < argc) cfg.nodes = std::atoi(argv[++a]);
  }
  std::printf("# Data-parallel SGD, %llu params, %d ranks, %d steps\n\n",
              static_cast<unsigned long long>(cfg.totalParams()), cfg.ranks, cfg.steps);
  for (const auto s : {train::Stack::Ampi, train::Stack::Charm, train::Stack::Charm4py}) {
    report(osu::name(s), train::runTrain(cfg, s));
  }
  train::TrainConfig host = cfg;
  host.host_staged = true;
  report("ampi (host-staged)", train::runTrain(host, train::Stack::Ampi));
  std::printf("Gradient buckets launch their allreduce while backward continues; the\n"
              "union of the bucket intervals (allred_wall) stays well under their sum.\n");
  return 0;
}
