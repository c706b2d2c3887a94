#include <gtest/gtest.h>

#include <memory>

#include "harmony/executor.h"
#include "harmony/runtime.h"
#include "ml/mlr.h"
#include "scratch_dir.h"

namespace harmony::core {
namespace {

std::shared_ptr<ml::MlrApp> small_mlr(std::uint64_t seed) {
  auto data = std::make_shared<ml::DenseDataset>(ml::make_classification(120, 6, 3, 0.05, seed));
  return std::make_shared<ml::MlrApp>(data, ml::MlrConfig{0.4, 1e-5});
}

LocalRuntime::Params test_params(std::size_t machines) {
  LocalRuntime::Params p;
  p.machines = machines;
  p.checkpoint_dir = tests::scratch_dir("ft-ckpt").string();
  return p;
}

TEST(ExecutorFaults, ThrowingBodyIsCaughtAndCounted) {
  SubtaskExecutor exec;
  JobId failed_job = kNoJob;
  std::string message;
  exec.set_failure_handler([&](JobId job, const std::string& what) {
    failed_job = job;
    message = what;
  });

  Subtask bad;
  bad.job = 7;
  bad.type = SubtaskType::kComp;
  bad.body = [] { throw std::runtime_error("boom"); };
  std::atomic<bool> completed{false};
  bad.on_complete = [&] { completed = true; };
  exec.submit(std::move(bad));
  exec.drain();

  EXPECT_EQ(exec.failures(), 1u);
  EXPECT_EQ(failed_job, 7u);
  EXPECT_EQ(message, "boom");
  // The completion callback still ran, so barriers do not hang.
  EXPECT_TRUE(completed.load());
}

TEST(ExecutorFaults, OtherWorkContinuesAfterFailure) {
  SubtaskExecutor exec;
  exec.set_failure_handler([](JobId, const std::string&) {});
  std::atomic<int> good{0};
  for (int i = 0; i < 5; ++i) {
    Subtask st;
    st.job = 0;
    st.type = SubtaskType::kComp;
    st.body = i == 2 ? std::function<void()>([] { throw std::logic_error("x"); })
                     : std::function<void()>([&good] { ++good; });
    exec.submit(std::move(st));
  }
  exec.drain();
  EXPECT_EQ(good.load(), 4);
  EXPECT_EQ(exec.failures(), 1u);
}

TEST(FaultTolerance, JobFailsWithoutRestartBudget) {
  LocalRuntime rt(test_params(2));
  RuntimeJobConfig cfg;
  cfg.app = small_mlr(11);
  cfg.max_epochs = 10;
  cfg.max_restarts = 0;
  const JobId id = rt.submit(cfg);
  rt.inject_failure(id);
  rt.run();
  const auto& r = rt.result(id);
  EXPECT_TRUE(r.failed);
  EXPECT_EQ(r.restarts, 0u);
  EXPECT_LT(r.epochs, 10u);
  EXPECT_NE(r.failure_message.find("injected"), std::string::npos);
}

TEST(FaultTolerance, RestartsFromCheckpointAndFinishes) {
  LocalRuntime rt(test_params(2));
  RuntimeJobConfig cfg;
  cfg.app = small_mlr(13);
  cfg.max_epochs = 12;
  cfg.max_restarts = 2;
  const JobId id = rt.submit(cfg);
  rt.inject_failure(id);  // fails on the very first COMP, before a checkpoint
  rt.run();
  const auto& r = rt.result(id);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.restarts, 1u);
  EXPECT_EQ(r.epochs, 12u);
  EXPECT_LT(r.epoch_losses.back(), r.epoch_losses.front());
}

TEST(FaultTolerance, FailureDoesNotAffectCoLocatedJobs) {
  LocalRuntime rt(test_params(2));
  RuntimeJobConfig doomed;
  doomed.app = small_mlr(17);
  doomed.max_epochs = 10;
  const JobId doomed_id = rt.submit(doomed);

  RuntimeJobConfig healthy;
  healthy.app = small_mlr(19);
  healthy.max_epochs = 10;
  const JobId healthy_id = rt.submit(healthy);

  rt.inject_failure(doomed_id);
  rt.run();
  EXPECT_TRUE(rt.result(doomed_id).failed);
  EXPECT_FALSE(rt.result(healthy_id).failed);
  EXPECT_EQ(rt.result(healthy_id).epochs, 10u);
}

TEST(FaultTolerance, RestartBudgetExhaustedEventuallyFails) {
  LocalRuntime rt(test_params(2));
  RuntimeJobConfig cfg;
  cfg.app = small_mlr(23);
  cfg.max_epochs = 400;  // long enough that we can inject twice mid-run
  cfg.max_restarts = 1;
  const JobId id = rt.submit(cfg);
  rt.inject_failure(id);
  std::thread runner([&] { rt.run(); });
  // Wait for the first restart, then inject again to exhaust the budget.
  // progress() is the thread-safe poll; result() is only stable once the
  // job is quiescent.
  while (rt.progress(id).restarts < 1 && !rt.progress(id).failed)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  rt.inject_failure(id);
  runner.join();
  rt.wait_idle();
  const auto& r = rt.result(id);
  // Either the second failure landed (failed) or the job finished before the
  // injection could bite; both are consistent outcomes of this race, but the
  // restart must have been used.
  EXPECT_GE(r.restarts, 1u);
  if (r.failed) {
    EXPECT_EQ(r.restarts, 1u);
  }
}

TEST(FaultTolerance, CheckpointedRestartPreservesProgress) {
  LocalRuntime rt(test_params(2));
  RuntimeJobConfig cfg;
  cfg.app = small_mlr(29);
  cfg.max_epochs = 30;
  cfg.max_restarts = 3;
  const JobId id = rt.submit(cfg);
  std::thread runner([&] { rt.run(); });
  // Let it checkpoint a few epochs, then fail it.
  while (rt.progress(id).epochs < 5 && !rt.progress(id).failed)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  rt.inject_failure(id);
  runner.join();
  rt.wait_idle();
  const auto& r = rt.result(id);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.epochs, 30u);
  // The loss curve still ends lower than it started (no catastrophic reset).
  EXPECT_LT(r.final_loss, r.epoch_losses.front());
}

}  // namespace
}  // namespace harmony::core
