#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "harmony/runtime.h"
#include "ml/lasso.h"
#include "ml/mlr.h"
#include "ml/nmf.h"
#include "scratch_dir.h"

namespace harmony::core {
namespace {

std::shared_ptr<ml::MlrApp> small_mlr(std::uint64_t seed, double lr = 0.5) {
  auto data = std::make_shared<ml::DenseDataset>(ml::make_classification(120, 6, 3, 0.05, seed));
  return std::make_shared<ml::MlrApp>(data, ml::MlrConfig{lr, 1e-5});
}

LocalRuntime::Params test_params(std::size_t machines, ExecutionMode mode) {
  LocalRuntime::Params p;
  p.machines = machines;
  p.mode = mode;
  p.checkpoint_dir = tests::scratch_dir("runtime-ckpt").string();
  return p;
}

TEST(LocalRuntime, SingleJobTrainsToCompletion) {
  LocalRuntime rt(test_params(2, ExecutionMode::kHarmony));
  RuntimeJobConfig cfg;
  cfg.app = small_mlr(101);
  cfg.max_epochs = 20;
  const JobId id = rt.submit(cfg);
  rt.run();
  const RuntimeJobResult& r = rt.result(id);
  EXPECT_EQ(r.epochs, 20u);
  EXPECT_EQ(r.iterations, 20u);
  ASSERT_GE(r.epoch_losses.size(), 2u);
  EXPECT_LT(r.epoch_losses.back(), r.epoch_losses.front());
  EXPECT_GT(r.wall_seconds, 0.0);
}

TEST(LocalRuntime, StopsAtTargetLoss) {
  LocalRuntime rt(test_params(2, ExecutionMode::kHarmony));
  RuntimeJobConfig cfg;
  cfg.app = small_mlr(103);
  cfg.max_epochs = 200;
  cfg.target_loss = 0.35;
  const JobId id = rt.submit(cfg);
  rt.run();
  const RuntimeJobResult& r = rt.result(id);
  EXPECT_TRUE(r.converged_by_loss);
  EXPECT_LT(r.epochs, 200u);
  EXPECT_LE(r.final_loss, 0.35);
}

TEST(LocalRuntime, MultipleCoLocatedJobsAllFinish) {
  LocalRuntime rt(test_params(2, ExecutionMode::kHarmony));
  std::vector<JobId> ids;
  for (int j = 0; j < 3; ++j) {
    RuntimeJobConfig cfg;
    cfg.app = small_mlr(200 + j);
    cfg.max_epochs = 8;
    ids.push_back(rt.submit(cfg));
  }
  rt.run();
  for (JobId id : ids) {
    EXPECT_EQ(rt.result(id).epochs, 8u);
    EXPECT_LT(rt.result(id).epoch_losses.back(), rt.result(id).epoch_losses.front());
  }
}

TEST(LocalRuntime, NaiveModeAlsoCompletes) {
  LocalRuntime rt(test_params(2, ExecutionMode::kNaive));
  RuntimeJobConfig cfg;
  cfg.app = small_mlr(301);
  cfg.max_epochs = 5;
  const JobId id = rt.submit(cfg);
  rt.run();
  EXPECT_EQ(rt.result(id).epochs, 5u);
}

TEST(LocalRuntime, ProfilerCollectsMeasurements) {
  LocalRuntime rt(test_params(2, ExecutionMode::kHarmony));
  RuntimeJobConfig cfg;
  cfg.app = small_mlr(401);
  cfg.max_epochs = 6;
  const JobId id = rt.submit(cfg);
  rt.run();
  EXPECT_TRUE(rt.profiler().is_profiled(id));
  const auto prof = rt.profiler().profile(id);
  ASSERT_TRUE(prof.has_value());
  EXPECT_GT(prof->cpu_work, 0.0);
  EXPECT_GE(prof->t_net, 0.0);
  EXPECT_GT(rt.result(id).avg_comp_seconds, 0.0);
}

TEST(LocalRuntime, MiniBatchesMakeEpochs) {
  LocalRuntime rt(test_params(2, ExecutionMode::kHarmony));
  RuntimeJobConfig cfg;
  cfg.app = small_mlr(501);
  cfg.max_epochs = 4;
  cfg.batches_per_epoch = 3;
  const JobId id = rt.submit(cfg);
  rt.run();
  EXPECT_EQ(rt.result(id).epochs, 4u);
  EXPECT_EQ(rt.result(id).iterations, 12u);
}

TEST(LocalRuntime, PauseCheckpointsAndResumeContinues) {
  LocalRuntime rt(test_params(2, ExecutionMode::kHarmony));
  RuntimeJobConfig cfg;
  cfg.app = small_mlr(601, /*lr=*/0.2);
  cfg.max_epochs = 40;
  const JobId id = rt.submit(cfg);

  std::thread runner([&] { rt.run(); });
  rt.pause(id);  // blocks until the checkpoint is on disk
  const std::size_t iters_at_pause = rt.result(id).iterations;
  EXPECT_GT(iters_at_pause, 0u);
  EXPECT_LT(iters_at_pause, 40u);

  rt.resume(id);
  runner.join();
  // With a single job, run() may have returned the moment the pause landed;
  // wait for the resumed job to actually finish.
  rt.wait_idle();
  const RuntimeJobResult& r = rt.result(id);
  EXPECT_EQ(r.epochs, 40u);
  EXPECT_LT(r.epoch_losses.back(), r.epoch_losses.front());
}

TEST(LocalRuntime, SubmitAfterRunThrows) {
  LocalRuntime rt(test_params(1, ExecutionMode::kHarmony));
  RuntimeJobConfig cfg;
  cfg.app = small_mlr(701);
  cfg.max_epochs = 1;
  rt.submit(cfg);
  rt.run();
  EXPECT_THROW(rt.submit(cfg), std::logic_error);
}

TEST(LocalRuntime, NullAppThrows) {
  LocalRuntime rt(test_params(1, ExecutionMode::kHarmony));
  EXPECT_THROW(rt.submit(RuntimeJobConfig{}), std::invalid_argument);
}

TEST(LocalRuntime, ThrottledNicProducesCommTime) {
  LocalRuntime::Params p = test_params(2, ExecutionMode::kHarmony);
  p.nic_bytes_per_sec = 50e6;  // 50 MB/s: pulls/pushes take real time
  LocalRuntime rt(p);
  RuntimeJobConfig cfg;
  cfg.app = small_mlr(801);
  cfg.max_epochs = 3;
  const JobId id = rt.submit(cfg);
  rt.run();
  EXPECT_GT(rt.result(id).avg_comm_seconds, 0.0);
}

// Different app families all run through the runtime end to end.
TEST(LocalRuntime, MixedAppFamilies) {
  LocalRuntime rt(test_params(2, ExecutionMode::kHarmony));
  RuntimeJobConfig mlr_cfg;
  mlr_cfg.app = small_mlr(901);
  mlr_cfg.max_epochs = 5;

  RuntimeJobConfig lasso_cfg;
  lasso_cfg.app = std::make_shared<ml::LassoApp>(
      std::make_shared<ml::DenseDataset>(ml::make_regression(150, 12, 3, 0.05, 902)),
      ml::LassoConfig{0.05, 0.02});
  lasso_cfg.max_epochs = 5;

  RuntimeJobConfig nmf_cfg;
  nmf_cfg.app = std::make_shared<ml::NmfApp>(
      std::make_shared<ml::RatingsDataset>(ml::make_ratings(40, 30, 3, 0.25, 0.05, 903)),
      ml::NmfConfig{6, 0.05, 1e-4, 5});
  nmf_cfg.max_epochs = 5;

  const JobId a = rt.submit(mlr_cfg);
  const JobId b = rt.submit(lasso_cfg);
  const JobId c = rt.submit(nmf_cfg);
  rt.run();
  for (JobId id : {a, b, c}) {
    EXPECT_EQ(rt.result(id).epochs, 5u);
    EXPECT_LE(rt.result(id).epoch_losses.back(), rt.result(id).epoch_losses.front());
  }
}

}  // namespace
}  // namespace harmony::core
