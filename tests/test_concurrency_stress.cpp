// Concurrency regression stress: hammers every threaded component — the
// subtask executor, the master-side synchronizer, the throttled NIC and
// LocalRuntime pause/resume — from many threads at once. These tests exist
// to give ThreadSanitizer (the `tsan` preset) real contention to chew on;
// under the plain build they double as functional stress tests of the same
// code paths.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <barrier>
#include <sstream>
#include <string>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "harmony/executor.h"
#include "harmony/runtime.h"
#include "harmony/synchronizer.h"
#include "ml/mlr.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ps/network.h"

namespace harmony::core {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// SubtaskExecutor: submit storm from many producer threads, then drain.

TEST(ConcurrencyStress, ExecutorSubmitStormThenDrain) {
  SubtaskExecutor::Params params;
  params.cpu_slots = 2;
  params.network_slots = 2;
  SubtaskExecutor exec(params);

  constexpr int kProducers = 8;
  constexpr int kPerProducer = 64;
  std::atomic<int> comp_runs{0};
  std::atomic<int> comm_runs{0};
  std::atomic<int> completions{0};

  std::vector<std::jthread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        Subtask st;
        st.job = static_cast<JobId>(p);
        st.type = (i % 2 == 0) ? SubtaskType::kComp : SubtaskType::kComm;
        st.body = [&, type = st.type] {
          (type == SubtaskType::kComp ? comp_runs : comm_runs)
              .fetch_add(1, std::memory_order_relaxed);
        };
        st.on_complete = [&] { completions.fetch_add(1, std::memory_order_relaxed); };
        exec.submit(std::move(st));
      }
    });
  }
  producers.clear();  // join all producers
  exec.drain();

  constexpr int kTotal = kProducers * kPerProducer;
  EXPECT_EQ(comp_runs.load() + comm_runs.load(), kTotal);
  EXPECT_EQ(completions.load(), kTotal);
  EXPECT_EQ(exec.completed(SubtaskType::kComp) + exec.completed(SubtaskType::kComm),
            static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(exec.cpu_queue_length(), 0u);
  EXPECT_EQ(exec.net_queue_length(), 0u);
  EXPECT_EQ(exec.failures(), 0u);
}

TEST(ConcurrencyStress, ExecutorConcurrentFailuresAreCountedNotFatal) {
  SubtaskExecutor exec;
  std::atomic<int> handled{0};
  exec.set_failure_handler([&](JobId, const std::string&) {
    handled.fetch_add(1, std::memory_order_relaxed);
  });

  constexpr int kThrowers = 32;
  constexpr int kWorkers = 32;
  std::vector<std::jthread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kThrowers / 4; ++i) {
        exec.submit({0, SubtaskType::kComp,
                     [] { throw std::runtime_error("injected"); }, {}});
      }
      for (int i = 0; i < kWorkers / 4; ++i) {
        exec.submit({1, SubtaskType::kComp, [] {}, {}});
      }
    });
  }
  producers.clear();
  exec.drain();
  EXPECT_EQ(exec.failures(), static_cast<std::uint64_t>(kThrowers));
  EXPECT_EQ(handled.load(), kThrowers);
  EXPECT_EQ(exec.completed(SubtaskType::kComp),
            static_cast<std::uint64_t>(kThrowers + kWorkers));
}

// ---------------------------------------------------------------------------
// SubtaskSynchronizer: all workers of a step arrive from distinct threads.

TEST(ConcurrencyStress, SynchronizerConcurrentArrivals) {
  SubtaskSynchronizer sync;
  constexpr std::size_t kWorkers = 8;
  constexpr int kSteps = 50;
  sync.register_job(1, kWorkers);

  std::atomic<int> steps_fired{0};
  for (int step = 0; step < kSteps; ++step) {
    sync.begin_step(1, [&] { steps_fired.fetch_add(1, std::memory_order_relaxed); });
    std::barrier gate(static_cast<std::ptrdiff_t>(kWorkers));
    std::vector<std::jthread> workers;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&] {
        gate.arrive_and_wait();  // maximize simultaneous arrive() calls
        sync.arrive(1);
      });
    }
    workers.clear();
    EXPECT_EQ(sync.pending(1), 0u);
  }
  EXPECT_EQ(steps_fired.load(), kSteps);
  sync.unregister_job(1);
}

TEST(ConcurrencyStress, SynchronizerIndependentJobsInParallel) {
  SubtaskSynchronizer sync;
  constexpr int kJobs = 6;
  constexpr std::size_t kWorkers = 4;
  constexpr int kSteps = 25;
  for (int j = 0; j < kJobs; ++j)
    sync.register_job(static_cast<JobId>(j), kWorkers);

  std::atomic<int> fired{0};
  std::vector<std::jthread> drivers;
  for (int j = 0; j < kJobs; ++j) {
    drivers.emplace_back([&, j] {
      const auto id = static_cast<JobId>(j);
      for (int step = 0; step < kSteps; ++step) {
        sync.begin_step(id, [&] { fired.fetch_add(1, std::memory_order_relaxed); });
        std::vector<std::jthread> workers;
        for (std::size_t w = 0; w < kWorkers; ++w)
          workers.emplace_back([&sync, id] { sync.arrive(id); });
      }
    });
  }
  drivers.clear();
  EXPECT_EQ(fired.load(), kJobs * kSteps);
}

// ---------------------------------------------------------------------------
// Nic: concurrent transfers serialize on the shared link.

TEST(ConcurrencyStress, NicConcurrentTransfersAccountAllBytes) {
  ps::Nic nic(1e9, "stress");  // fast enough that the test stays quick
  constexpr int kThreads = 8;
  constexpr int kTransfers = 40;
  constexpr std::size_t kBytes = 4096;

  std::barrier gate(kThreads);
  std::vector<std::jthread> senders;
  for (int t = 0; t < kThreads; ++t) {
    senders.emplace_back([&] {
      gate.arrive_and_wait();
      for (int i = 0; i < kTransfers; ++i) nic.transfer(kBytes);
    });
  }
  senders.clear();
  EXPECT_EQ(nic.bytes_transferred(),
            static_cast<std::uint64_t>(kThreads) * kTransfers * kBytes);
}

TEST(ConcurrencyStress, UnthrottledNicIsStillSafeUnderContention) {
  ps::Nic nic(0.0);  // throttling disabled: different fast path, same counters
  std::vector<std::jthread> senders;
  for (int t = 0; t < 8; ++t) {
    senders.emplace_back([&] {
      for (int i = 0; i < 200; ++i) nic.transfer(100);
    });
  }
  senders.clear();
  EXPECT_EQ(nic.bytes_transferred(), 8u * 200u * 100u);
}

// ---------------------------------------------------------------------------
// Observability: reader-heavy snapshots raced against a write storm. The
// metrics registry and the tracer both promise that snapshotting is safe at
// any time; this gives tsan concurrent registration (first-use counter
// lookups), relaxed-atomic updates, per-thread trace buffer creation, and
// full-registry walks (snapshot_json / snapshot / write_chrome_trace), all
// overlapping.

TEST(ConcurrencyStress, ObsSnapshotWhileWriting) {
  obs::MetricsRegistry reg;  // local registry: the test owns its lifecycle
  auto& tracer = obs::Tracer::instance();
  const bool was_enabled = obs::Tracer::enabled();
  tracer.clear();
  tracer.set_enabled(true);

  constexpr int kWriters = 6;
  constexpr int kOps = 500;
  std::atomic<bool> stop{false};
  std::barrier gate(kWriters + 3);  // writers + 2 readers + the main thread

  std::vector<std::jthread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      gate.arrive_and_wait();
      // Deliberately re-look-up every iteration (instead of caching the
      // reference as production code does) so name->metric registration
      // races with the snapshot walks.
      for (int i = 0; i < kOps; ++i) {
        reg.counter("stress.ops").add();
        reg.counter("stress.writer." + std::to_string(w)).add();
        reg.gauge("stress.depth").set(static_cast<double>(i));
        reg.histogram("stress.latency_us", 0.0, 1000.0, 32)
            .observe(static_cast<double>((w * kOps + i) % 1000));
        obs::Tracer::instant(obs::EventKind::kSchedule, obs::ClockDomain::kWall,
                             static_cast<double>(i), static_cast<std::uint32_t>(w));
      }
    });
  }
  // Two readers snapshot continuously while the writers hammer away.
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      gate.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string json = reg.snapshot_json();
        ASSERT_FALSE(json.empty());
        (void)tracer.size();
        const auto events = tracer.snapshot();
        std::ostringstream chrome;
        tracer.write_chrome_trace(chrome);
        ASSERT_NE(chrome.str().find("traceEvents"), std::string::npos);
        // A snapshot taken mid-storm sees some prefix of the writes, never
        // garbage: every event so far came from a writer thread.
        for (const auto& e : events) {
          ASSERT_EQ(e.kind, obs::EventKind::kSchedule);
          ASSERT_LT(e.job, static_cast<std::uint32_t>(kWriters));
        }
      }
    });
  }
  gate.arrive_and_wait();
  for (int w = 0; w < kWriters; ++w) threads[static_cast<std::size_t>(w)].join();
  stop.store(true, std::memory_order_relaxed);
  threads.clear();

  // Quiesced state is exact: nothing was lost or double-counted.
  EXPECT_EQ(reg.counter("stress.ops").value(),
            static_cast<std::uint64_t>(kWriters) * kOps);
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(reg.counter("stress.writer." + std::to_string(w)).value(),
              static_cast<std::uint64_t>(kOps));
  }
  auto& hist = reg.histogram("stress.latency_us", 0.0, 1000.0, 32);
  EXPECT_EQ(hist.count(), static_cast<std::size_t>(kWriters) * kOps);
  EXPECT_EQ(tracer.size(), static_cast<std::size_t>(kWriters) * kOps);
  EXPECT_EQ(tracer.snapshot().size(), static_cast<std::size_t>(kWriters) * kOps);

  tracer.set_enabled(was_enabled);
  tracer.clear();
}

// ---------------------------------------------------------------------------
// LocalRuntime: pause/resume raced against active iteration.

TEST(ConcurrencyStress, RuntimePauseResumeUnderLoad) {
  LocalRuntime::Params params;
  params.machines = 2;
  params.checkpoint_dir =
      (fs::temp_directory_path() /
       ("harmony-stress-ckpt-" + std::to_string(::getpid())))
          .string();
  LocalRuntime rt(params);

  std::vector<JobId> ids;
  for (int j = 0; j < 3; ++j) {
    auto data = std::make_shared<ml::DenseDataset>(
        ml::make_classification(120, 6, 3, 0.05, 900 + j));
    RuntimeJobConfig cfg;
    cfg.app = std::make_shared<ml::MlrApp>(data, ml::MlrConfig{0.5, 1e-5});
    cfg.max_epochs = 30;
    ids.push_back(rt.submit(cfg));
  }

  // While the runtime crunches all three jobs, repeatedly pause and resume
  // the first one from an outside thread.
  std::jthread meddler([&] {
    for (int round = 0; round < 3; ++round) {
      rt.pause(ids[0]);  // no-op once the job has finished
      try {
        rt.resume(ids[0]);
      } catch (const std::logic_error&) {
        break;  // the job finished before this round's pause landed
      }
    }
  });
  rt.run();
  meddler.join();
  rt.wait_idle();

  for (const JobId id : ids) {
    const RuntimeJobResult& r = rt.result(id);
    EXPECT_FALSE(r.failed) << r.failure_message;
    EXPECT_EQ(r.epochs, 30u);
  }
  fs::remove_all(params.checkpoint_dir);
}

}  // namespace
}  // namespace harmony::core
