#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "exp/arrivals.h"
#include "exp/metrics.h"
#include "exp/workload.h"

namespace harmony::exp {
namespace {

TEST(Catalog, EightyJobsFourAppsTwoDatasets) {
  const auto catalog = make_catalog();
  EXPECT_EQ(catalog.size(), 80u);
  std::set<std::string> apps, datasets;
  for (const auto& s : catalog) {
    apps.insert(s.app);
    datasets.insert(s.dataset);
  }
  EXPECT_EQ(apps.size(), 4u);
  EXPECT_EQ(datasets.size(), 8u);
  EXPECT_TRUE(apps.contains("NMF"));
  EXPECT_TRUE(apps.contains("LDA"));
  EXPECT_TRUE(apps.contains("MLR"));
  EXPECT_TRUE(apps.contains("Lasso"));
}

TEST(Catalog, DeterministicInSeed) {
  const auto a = make_catalog(7);
  const auto b = make_catalog(7);
  const auto c = make_catalog(8);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_DOUBLE_EQ(a[0].cpu_work, b[0].cpu_work);
  EXPECT_NE(a[0].cpu_work, c[0].cpu_work);
}

TEST(Catalog, IdsAreSequential) {
  const auto catalog = make_catalog();
  for (std::size_t i = 0; i < catalog.size(); ++i)
    EXPECT_EQ(catalog[i].id, static_cast<core::JobId>(i));
}

TEST(Catalog, Fig9IterationTimeRange) {
  // At DoP 16, iteration times span roughly 1-20 minutes (Fig. 9a).
  const auto catalog = make_catalog();
  double lo = 1e300, hi = 0.0;
  for (const auto& s : catalog) {
    const double t = s.profile().t_itr(16);
    lo = std::min(lo, t);
    hi = std::max(hi, t);
    EXPECT_GT(t, 30.0);
    EXPECT_LT(t, 1500.0);
  }
  EXPECT_LT(lo, 240.0);  // some fast jobs
  EXPECT_GT(hi, 600.0);  // some slow jobs
}

TEST(Catalog, Fig9CompRatioSpread) {
  const auto catalog = make_catalog();
  std::size_t low = 0, high = 0;
  for (const auto& s : catalog) {
    const double r = s.profile().comp_ratio(16);
    EXPECT_GT(r, 0.05);
    EXPECT_LT(r, 0.95);
    if (r < 0.4) ++low;
    if (r > 0.6) ++high;
  }
  // The spread covers both comm-heavy and comp-heavy jobs (Fig. 9b).
  EXPECT_GT(low, 10u);
  EXPECT_GT(high, 10u);
}

TEST(Catalog, TableISizes) {
  const auto catalog = make_catalog();
  for (const auto& s : catalog) {
    if (s.dataset == "Netflix64x") {
      EXPECT_DOUBLE_EQ(s.input_gb, 45.6);
      EXPECT_DOUBLE_EQ(s.model_gb, 1.0);
    }
    if (s.dataset == "PubMed") {
      EXPECT_DOUBLE_EQ(s.input_gb, 4.3);
      EXPECT_DOUBLE_EQ(s.model_gb, 2.1);
    }
  }
  const std::string table = table1(catalog);
  EXPECT_NE(table.find("NMF"), std::string::npos);
  EXPECT_NE(table.find("45.6"), std::string::npos);
}

TEST(Catalog, LdaIsComputeHeavierThanMlr) {
  const auto catalog = make_catalog();
  double lda_ratio = 0.0, mlr_ratio = 0.0;
  std::size_t lda_n = 0, mlr_n = 0;
  for (const auto& s : catalog) {
    if (s.app == "LDA") {
      lda_ratio += s.profile().comp_ratio(16);
      ++lda_n;
    }
    if (s.app == "MLR") {
      mlr_ratio += s.profile().comp_ratio(16);
      ++mlr_n;
    }
  }
  EXPECT_GT(lda_ratio / lda_n, mlr_ratio / mlr_n);
}

TEST(Catalog, ResidentBytesScaleWithAlphaAndMachines) {
  const auto catalog = make_catalog();
  const WorkloadSpec& s = catalog.front();
  EXPECT_GT(s.resident_bytes(8, 0.0), s.resident_bytes(8, 0.5));
  EXPECT_GT(s.resident_bytes(8, 0.0), s.resident_bytes(16, 0.0));
}

TEST(Catalog, MinMachinesMatchesMemoryNeed) {
  const auto catalog = make_catalog();
  cluster::MachineSpec spec;
  for (const auto& s : catalog) {
    const std::size_t m = s.min_machines_without_spill(spec);
    EXPECT_GE(m, 1u);
    // At that DoP the job fits in the default budget fraction (0.65, the GC
    // knee)...
    EXPECT_LE(s.resident_bytes(m, 0.0), 0.65 * spec.memory_bytes + 1.0);
    // ...and one fewer machine would not (unless already at 1).
    if (m > 1) {
      EXPECT_GT(s.resident_bytes(m - 1, 0.0), 0.65 * spec.memory_bytes);
    }
  }
}

TEST(Subsets, SplitByCompRatio) {
  const auto catalog = make_catalog();
  const auto comp = comp_intensive_subset(catalog, 60);
  const auto comm = comm_intensive_subset(catalog, 60);
  EXPECT_EQ(comp.size(), 60u);
  EXPECT_EQ(comm.size(), 60u);
  double comp_mean = 0.0, comm_mean = 0.0;
  for (const auto& s : comp) comp_mean += s.profile().comp_ratio(16);
  for (const auto& s : comm) comm_mean += s.profile().comp_ratio(16);
  EXPECT_GT(comp_mean / 60.0, comm_mean / 60.0 + 0.1);
}

// ---------------------------------------------------------------------------

TEST(Arrivals, BatchAllAtZero) {
  const auto a = batch_arrivals(5);
  ASSERT_EQ(a.size(), 5u);
  for (double t : a) EXPECT_DOUBLE_EQ(t, 0.0);
}

TEST(Arrivals, PoissonMeanInterArrival) {
  const auto a = poisson_arrivals(2000, 60.0, 5);
  ASSERT_EQ(a.size(), 2000u);
  EXPECT_DOUBLE_EQ(a.front(), 0.0);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GE(a[i], a[i - 1]);
  const double mean_gap = a.back() / static_cast<double>(a.size() - 1);
  EXPECT_NEAR(mean_gap, 60.0, 6.0);
}

TEST(Arrivals, PoissonZeroMeanIsBatch) {
  const auto a = poisson_arrivals(4, 0.0, 1);
  for (double t : a) EXPECT_DOUBLE_EQ(t, 0.0);
}

TEST(Arrivals, TraceArrivalsSortedFromZero) {
  const auto a = trace_arrivals(500, 120.0, 9);
  ASSERT_EQ(a.size(), 500u);
  EXPECT_DOUBLE_EQ(a.front(), 0.0);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GE(a[i], a[i - 1]);
}

TEST(Arrivals, TraceIsBurstierThanPoisson) {
  // Coefficient of variation of inter-arrival gaps: Poisson ~1, bursty > 1.
  auto cv = [](const std::vector<double>& arr) {
    std::vector<double> gaps;
    for (std::size_t i = 1; i < arr.size(); ++i) gaps.push_back(arr[i] - arr[i - 1]);
    double mean = 0.0;
    for (double g : gaps) mean += g;
    mean /= static_cast<double>(gaps.size());
    double var = 0.0;
    for (double g : gaps) var += (g - mean) * (g - mean);
    var /= static_cast<double>(gaps.size());
    return std::sqrt(var) / mean;
  };
  const auto poisson = poisson_arrivals(1500, 60.0, 11);
  const auto trace = trace_arrivals(1500, 60.0, 11);
  EXPECT_GT(cv(trace), cv(poisson) * 1.2);
}

// ---------------------------------------------------------------------------

TEST(Metrics, RunSummaryJctAndMakespan) {
  RunSummary s;
  s.jobs.push_back(JobOutcome{0, 0.0, 100.0});
  s.jobs.push_back(JobOutcome{1, 50.0, 250.0});
  EXPECT_DOUBLE_EQ(s.mean_jct(), 150.0);
  EXPECT_DOUBLE_EQ(s.max_finish(), 250.0);
}

}  // namespace
}  // namespace harmony::exp
