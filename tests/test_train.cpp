#include <gtest/gtest.h>

#include <stdexcept>

#include "apps/train/train.hpp"
#include "hw/system.hpp"

/// Data-parallel training workload: gradient correctness, backward/allreduce
/// overlap, and pool reuse, on all three stacks.

namespace {

using namespace cux;

train::TrainConfig smallConfig() {
  train::TrainConfig cfg;
  cfg.nodes = 2;
  cfg.ranks = 8;
  cfg.steps = 3;
  // A smaller model than the default keeps the per-test runtime low while
  // still producing >= 3 buckets.
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

class TrainStacks : public ::testing::TestWithParam<StackParam> {};

TEST_P(TrainStacks, GradientsVerifyAndBucketsOverlap) {
  train::TrainConfig cfg = smallConfig();
  const train::TrainResult res = train::runTrain(cfg, stackOf(GetParam()));

  ASSERT_EQ(res.steps.size(), static_cast<std::size_t>(cfg.steps));
  EXPECT_GE(res.buckets, 3) << "bucketing produced too few buckets to overlap";
  EXPECT_TRUE(res.verified) << "reduced gradients did not match the analytic sums";

  // The pipelined collective overlaps the gradient buckets: the union of the
  // allreduce intervals must be shorter than their serial sum.
  for (std::size_t s = 1; s < res.steps.size(); ++s) {
    const train::StepStat& st = res.steps[s];
    EXPECT_GT(st.bucket_sum_us, 0.0);
    EXPECT_LT(st.allreduce_wall_us, st.bucket_sum_us)
        << "step " << s << ": bucket allreduces ran back-to-back (no overlap)";
    EXPECT_GT(st.step_us, st.compute_us);
  }
}

TEST_P(TrainStacks, SteadyStateStepsAllocateFromPool) {
  train::TrainConfig cfg = smallConfig();
  const train::TrainResult res = train::runTrain(cfg, stackOf(GetParam()));
  // Step 0 faults the gradient buckets in; steps 1..n-1 must reuse them.
  EXPECT_GT(res.pool_hits, 0u);
  // Per-rank, per-bucket allocations for steps >= 1 are all hits, so hits
  // dominate misses for a 3-step run only if reuse actually happens.
  EXPECT_GE(res.pool_hits, static_cast<std::uint64_t>(res.buckets * cfg.ranks));
}

INSTANTIATE_TEST_SUITE_P(AllStacks, TrainStacks,
                         ::testing::Values(StackParam::Ampi, StackParam::Charm,
                                           StackParam::Charm4py),
                         [](const ::testing::TestParamInfo<StackParam>& i) {
                           return kParamNames[static_cast<std::size_t>(i.param)];
                         });

TEST(Train, DevicePathBeatsHostStaging) {
  train::TrainConfig cfg = smallConfig();
  cfg.steps = 2;
  const train::TrainResult dev = train::runTrain(cfg, train::Stack::Ampi);
  cfg.host_staged = true;
  const train::TrainResult host = train::runTrain(cfg, train::Stack::Ampi);
  EXPECT_TRUE(dev.verified);
  EXPECT_TRUE(host.verified);
  EXPECT_LT(dev.avgStepUs(), host.avgStepUs())
      << "GPU-aware gradient allreduce should beat host staging";
}

TEST(Train, RingAndTreeBothVerify) {
  train::TrainConfig cfg = smallConfig();
  cfg.steps = 2;
  cfg.coll.impl = coll::CollImpl::Ring;
  EXPECT_TRUE(train::runTrain(cfg, train::Stack::Ampi).verified);
  cfg.coll.impl = coll::CollImpl::Tree;
  EXPECT_TRUE(train::runTrain(cfg, train::Stack::Ampi).verified);
  cfg.coll.impl = coll::CollImpl::Reference;
  EXPECT_TRUE(train::runTrain(cfg, train::Stack::Ampi).verified);
}

TEST(Train, NonPowerOfTwoWorkerCount) {
  train::TrainConfig cfg = smallConfig();
  cfg.ranks = 6;
  cfg.steps = 2;
  for (const auto s : {train::Stack::Ampi, train::Stack::Charm, train::Stack::Charm4py}) {
    const train::TrainResult res = train::runTrain(cfg, s);
    EXPECT_TRUE(res.verified) << osu::name(s);
  }
}

TEST(Train, ConfiguredMachineReachesEveryAttempt) {
  // A fail-stop run: the configured fault seed and loss reach every
  // attempt's machine; the PE failure is added on top for the first one.
  train::TrainConfig cfg = smallConfig();
  cfg.model.machine.fault = sim::FaultConfig::uniformLoss(0.01, 4242);
  const double unfailed_us = train::runTrain(cfg, train::Stack::Ampi).total_us;
  cfg.fault.kill_pe = 1;
  cfg.fault.kill_at_us = unfailed_us * 0.4;
  std::vector<sim::FaultConfig> seen;
  std::vector<int> nodes;
  cfg.setup = [&](hw::System& sys) {
    seen.push_back(sys.config.fault);
    nodes.push_back(sys.config.num_nodes);
  };
  const train::TrainResult res = train::runTrain(cfg, train::Stack::Ampi);
  ASSERT_GE(seen.size(), 2u) << "the injected failure should force a restart";
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i].enabled);
    EXPECT_EQ(seen[i].seed, 4242u);
    EXPECT_EQ(seen[i].policy[0].drop_prob, 0.01);
    EXPECT_EQ(nodes[i], cfg.nodes);
    EXPECT_EQ(seen[i].pe_failures.size(), i == 0 ? 1u : 0u);
  }
  EXPECT_TRUE(res.recovered);
  EXPECT_TRUE(res.verified);
}

TEST(Train, ConfiguredGdrCopySettingReachesTheMachine) {
  // Layers small enough that every allreduce chunk is a device eager
  // message, whose staging GDRCopy speeds up.
  train::TrainConfig cfg = smallConfig();
  cfg.steps = 2;
  cfg.layer_params = {64, 64, 64};
  cfg.bucket_bytes = 512;
  const train::TrainResult with = train::runTrain(cfg, train::Stack::Ampi);
  cfg.model.ucx.gdrcopy_enabled = false;
  const train::TrainResult without = train::runTrain(cfg, train::Stack::Ampi);
  EXPECT_TRUE(with.verified);
  EXPECT_TRUE(without.verified);
  EXPECT_LT(with.avgStepUs(), without.avgStepUs());
}

TEST(Train, OpenMpiHasNoTrainingDriver) {
  EXPECT_THROW((void)train::runTrain(smallConfig(), train::Stack::Ompi), std::invalid_argument);
}

}  // namespace
