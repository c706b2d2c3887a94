#include "exp/workload.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/table.h"
#include "harmony/spill_manager.h"

namespace harmony::exp {
namespace {

struct AppFamily {
  const char* app = nullptr;
  const char* datasets[2] = {nullptr, nullptr};
  double input_gb[2] = {0.0, 0.0};
  double model_gb[2] = {0.0, 0.0};
  // Ranges at the reference DoP 16: iteration time [lo, hi] seconds and
  // computation ratio [lo, hi]. Hyper-parameter settings sweep these bands.
  double itr_lo = 0.0, itr_hi = 0.0;
  double ratio_lo = 0.0, ratio_hi = 0.0;
};

// Table I, with per-family compute/communication character:
//  * NMF  — large sparse input, small-to-mid model; mixed ratios.
//  * LDA  — small input, Gibbs sweeps dominate: compute-heavy.
//  * MLR  — big dense input AND big model (scales with #classes): comm-heavy
//           at many classes (the 16K/8K settings of Fig. 2).
//  * Lasso— big input, model is one weight vector slice: compute-leaning.
constexpr AppFamily kFamilies[] = {
    {"NMF", {"Netflix64x", "Netflix128x"}, {45.6, 91.2}, {1.0, 5.0}, 75.0, 390.0, 0.30, 0.65},
    {"LDA", {"PubMed", "NYTimes"}, {4.3, 0.6}, {2.1, 1.1}, 60.0, 300.0, 0.55, 0.90},
    {"MLR", {"Synthetic16K", "Synthetic8K"}, {78.4, 155.0}, {12.0, 24.0}, 75.0, 750.0, 0.10,
     0.55},
    {"Lasso", {"SyntheticA", "SyntheticB"}, {78.4, 155.0}, {12.0, 24.0}, 40.0, 270.0, 0.45,
     0.80},
};

constexpr std::size_t kReferenceDop = 16;
constexpr std::size_t kHyperSettings = 10;

}  // namespace

double WorkloadSpec::resident_bytes(std::size_t machines, double alpha) const noexcept {
  const double m = static_cast<double>(machines == 0 ? 1 : machines);
  const double input_res = (1.0 - alpha) * input_bytes() * core::kInputMemExpansion / m;
  const double model_res = model_bytes() * core::kModelMemExpansion / m;
  return input_res + model_res;
}

std::size_t WorkloadSpec::min_machines_without_spill(const cluster::MachineSpec& spec,
                                                     double fraction) const noexcept {
  const double budget = fraction * spec.memory_bytes;
  const double total =
      input_bytes() * core::kInputMemExpansion + model_bytes() * core::kModelMemExpansion;
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(total / budget)));
}

std::vector<WorkloadSpec> make_catalog(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<WorkloadSpec> catalog;
  catalog.reserve(80);
  core::JobId next_id = 0;

  for (const AppFamily& family : kFamilies) {
    for (std::size_t d = 0; d < 2; ++d) {
      for (std::size_t h = 0; h < kHyperSettings; ++h) {
        WorkloadSpec spec;
        spec.id = next_id++;
        spec.app = family.app;
        spec.dataset = family.datasets[d];
        spec.hyper_index = h;
        spec.input_gb = family.input_gb[d];
        spec.model_gb = family.model_gb[d];

        // Hyper-parameter settings sweep the family's band; the sweep
        // position is jittered so the 80 jobs don't form a lattice.
        const double frac =
            (static_cast<double>(h) + rng.uniform(0.0, 0.8)) / static_cast<double>(kHyperSettings);
        const double t_itr = family.itr_lo + frac * (family.itr_hi - family.itr_lo);
        const double ratio = family.ratio_lo +
                             rng.uniform(0.0, 1.0) * (family.ratio_hi - family.ratio_lo);

        const double t_cpu_ref = t_itr * ratio;  // at DoP 16
        spec.cpu_work = t_cpu_ref * static_cast<double>(kReferenceDop);
        spec.t_net = t_itr * (1.0 - ratio);
        // Log-uniform 16..80: most jobs are modest, a few need several times
        // more epochs — the heavy-ish tail cluster traces show.
        spec.iterations = static_cast<std::size_t>(
            std::exp(rng.uniform(std::log(16.0), std::log(80.0))));
        catalog.push_back(std::move(spec));
      }
    }
  }
  return catalog;
}

namespace {

std::vector<WorkloadSpec> sorted_by_ratio(const std::vector<WorkloadSpec>& all) {
  std::vector<WorkloadSpec> sorted = all;
  std::sort(sorted.begin(), sorted.end(), [](const WorkloadSpec& a, const WorkloadSpec& b) {
    return a.profile().comp_ratio(kReferenceDop) > b.profile().comp_ratio(kReferenceDop);
  });
  return sorted;
}

}  // namespace

std::vector<WorkloadSpec> comp_intensive_subset(const std::vector<WorkloadSpec>& all,
                                                std::size_t count) {
  auto sorted = sorted_by_ratio(all);
  sorted.resize(std::min(count, sorted.size()));
  return sorted;
}

std::vector<WorkloadSpec> comm_intensive_subset(const std::vector<WorkloadSpec>& all,
                                                std::size_t count) {
  auto sorted = sorted_by_ratio(all);
  std::reverse(sorted.begin(), sorted.end());
  sorted.resize(std::min(count, sorted.size()));
  return sorted;
}

std::string table1(const std::vector<WorkloadSpec>& catalog) {
  TextTable table({"App", "Dataset", "Input(GB)", "Model(GB)", "Jobs"});
  // Aggregate by (app, dataset) like the paper's Table I.
  for (const AppFamily& family : kFamilies) {
    for (std::size_t d = 0; d < 2; ++d) {
      std::size_t jobs = 0;
      for (const WorkloadSpec& s : catalog)
        if (s.app == family.app && s.dataset == family.datasets[d]) ++jobs;
      table.add_row({family.app, family.datasets[d],
                     TextTable::format_double(family.input_gb[d], 1),
                     TextTable::format_double(family.model_gb[d], 1), std::to_string(jobs)});
    }
  }
  return table.render();
}

}  // namespace harmony::exp
