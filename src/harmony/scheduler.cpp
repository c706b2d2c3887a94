#include "harmony/scheduler.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "obs/metrics.h"

namespace harmony::core {
namespace {

// Fine-tuning swap passes are capped to keep scheduling O(jobs^2) worst case;
// the paper's loop runs "until there are no possible swap cases".
constexpr std::size_t kMaxSwapRounds = 64;
// The nj-growth loop stops after this many consecutive non-improving prefixes
// (a strict first-dip stop is brittle when the queue orders dissimilar jobs
// next to each other).
constexpr std::size_t kGrowthPatience = 6;

// Reusable buffers for the hot evaluate path. schedule() runs once per
// scheduling decision but evaluates O(prefix-growth) candidates, each needing
// the same handful of small arrays; reusing capacity across candidates (and
// across calls) keeps the steady-state evaluate loop allocation-free.
// Thread-local so concurrent callers never share it; none of these routines
// recurse, so a single workspace per thread suffices.
struct Scratch {
  // pick_num_groups analytic sweep.
  std::vector<std::uint32_t> png_order;
  std::vector<double> png_threshold;
  std::vector<double> png_prefix_cpu;
  std::vector<double> png_prefix_net;
  std::vector<double> png_approx;
  // Flat group assignment: members holds job indices grouped into segments
  // [offsets[g], offsets[g+1]). Segment sizes are fixed at fill time; the
  // fine-tuning swaps exchange members one-for-one.
  std::vector<double> t_cpu;
  std::vector<double> t_itr;
  std::vector<double> d;
  std::vector<std::uint32_t> sorted;
  std::vector<std::uint32_t> members;
  std::vector<std::size_t> offsets;
  std::vector<double> imb;
  // Member profiles in member order: group g is the run
  // [offsets[g], offsets[g+1]), which step 3 and the candidate's score read.
  std::vector<JobProfile> profiles;
  // Machine allocation.
  std::vector<std::size_t> alloc;
  std::vector<std::size_t> targets;
  std::vector<double> sum_work;  // ΣW per group, added in member order
  std::vector<double> sum_net;   // ΣT_net per group, added in member order
  std::vector<double> next_abs;
  std::vector<double> gain;
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

// Resource imbalance (positive = CPU-heavy, negative = net-heavy) of group
// g's profile run in s.profiles, with T_cpu at `machines`. Accumulates cpu
// and net separately, in member order — the golden tests pin these exact
// floating-point values, so every variant below must accumulate the same
// terms in the same order.
double segment_imbalance(const Scratch& s, std::size_t g, std::size_t machines) {
  double cpu = 0.0;
  double net = 0.0;
  for (std::size_t i = s.offsets[g]; i < s.offsets[g + 1]; ++i) {
    const JobProfile& p = s.profiles[i];
    cpu += p.t_cpu(machines);
    net += p.t_net;
  }
  return cpu - net;
}

// Variant over precomputed T_cpu values (fixed DoP), for the assignment step.
double segment_imbalance_at_dop(std::span<const SchedJob> jobs, const Scratch& s,
                                std::size_t begin, std::size_t end) {
  double cpu = 0.0;
  double net = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    cpu += s.t_cpu[s.members[i]];
    net += jobs[s.members[i]].profile.t_net;
  }
  return cpu - net;
}

// Step 1 (Eq. 2 search): the n_G* minimizing Σ_j |T_cpu_j(M/n_G) − T_net_j|.
// Ties resolve to the smallest n_G (ascending scan, strict '<').
std::size_t pick_core(std::span<const SchedJob> jobs, std::size_t machines, Scratch& s) {
  if (jobs.empty() || machines == 0) return 1;
  const std::size_t n = jobs.size();
  const std::size_t max_groups = std::min(n, machines);
  const std::size_t min_groups =
      std::min(max_groups, (n + kMaxJobsPerGroup - 1) / kMaxJobsPerGroup);
  const std::size_t range = max_groups - min_groups + 1;

  // Exact cost of one candidate, exactly as Algorithm 1 states it.
  const auto exact_cost = [&](std::size_t ng) {
    const double dop = static_cast<double>(machines) / static_cast<double>(ng);
    double cost = 0.0;
    for (const SchedJob& j : jobs) cost += std::abs(j.profile.cpu_work / dop - j.profile.t_net);
    return cost;
  };

  // Small search spaces (the common case inside schedule(), whose candidate
  // prefixes hold a handful of jobs) are cheapest evaluated directly.
  if (n * range <= 4096) {
    std::size_t best_ng = min_groups;
    double best_cost = std::numeric_limits<double>::infinity();
    for (std::size_t ng = min_groups; ng <= max_groups; ++ng) {
      const double cost = exact_cost(ng);
      if (cost < best_cost) {
        best_cost = cost;
        best_ng = ng;
      }
    }
    return best_ng;
  }

  // Large search spaces: cost(ng) = Σ_j |cpu_j·ng/M − net_j| is piecewise
  // linear in ng; job j flips from the net-dominant to the cpu-dominant side
  // at ng_j = net_j·M/cpu_j. Sorting jobs by that threshold and keeping
  // prefix sums of cpu/net makes an analytic cost O(1) per candidate. The
  // analytic value differs from the exact one only by summation rounding, so
  // the exact O(n) evaluation is paid only for candidates within a tolerance
  // of the analytic minimum — the exact argmin is always among them.
  const double m_dbl = static_cast<double>(machines);
  auto& order = s.png_order;
  auto& threshold = s.png_threshold;
  order.resize(n);
  threshold.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = 0; i < n; ++i) {
    const JobProfile& p = jobs[i].profile;
    threshold[i] = p.cpu_work > 0.0 ? p.t_net * m_dbl / p.cpu_work
                                    : std::numeric_limits<double>::infinity();
  }
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) { return threshold[a] < threshold[b]; });
  auto& prefix_cpu = s.png_prefix_cpu;
  auto& prefix_net = s.png_prefix_net;
  prefix_cpu.assign(n + 1, 0.0);
  prefix_net.assign(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    prefix_cpu[i + 1] = prefix_cpu[i] + jobs[order[i]].profile.cpu_work;
    prefix_net[i + 1] = prefix_net[i] + jobs[order[i]].profile.t_net;
  }
  const double total_cpu = prefix_cpu[n];
  const double total_net = prefix_net[n];

  double best_approx = std::numeric_limits<double>::infinity();
  std::size_t side = 0;  // jobs with threshold < ng (cpu-dominant side)
  auto& approx = s.png_approx;
  approx.resize(range);
  for (std::size_t ng = min_groups; ng <= max_groups; ++ng) {
    const double ng_dbl = static_cast<double>(ng);
    while (side < n && threshold[order[side]] < ng_dbl) ++side;
    const double cpu_side_cpu = prefix_cpu[side];
    const double cpu_side_net = prefix_net[side];
    const double cost = (ng_dbl / m_dbl) * (cpu_side_cpu - (total_cpu - cpu_side_cpu)) +
                        ((total_net - cpu_side_net) - cpu_side_net);
    approx[ng - min_groups] = cost;
    best_approx = std::min(best_approx, cost);
  }

  // The tolerance sits far above summation rounding error (~n·ε·scale) but
  // far below meaningful cost differences.
  const double scale = std::max({std::abs(best_approx), total_cpu, total_net, 1e-300});
  const double tol = 1e-9 * scale;

  // Ascending candidate order + strict '<' ties resolve to the smallest ng,
  // exactly like the exhaustive scan. Even a wide plateau of tied candidates
  // (e.g. thousands of identical jobs) costs at most that scan: the loop
  // exact-evaluates a subset of the same candidates.
  std::size_t best_ng = min_groups;
  double best_cost = std::numeric_limits<double>::infinity();
  for (std::size_t ng = min_groups; ng <= max_groups; ++ng) {
    if (approx[ng - min_groups] > best_approx + tol) continue;
    const double cost = exact_cost(ng);
    if (cost < best_cost) {
      best_cost = cost;
      best_ng = ng;
    }
  }
  return best_ng;
}

// Step 2: fill s.members/s.offsets with `num_groups` segments and fine-tune
// by swapping between the most imbalanced and most complementary groups.
void assign_core(std::span<const SchedJob> jobs, std::size_t num_groups, std::size_t dop_hint,
                 Scratch& s) {
  if (num_groups == 0) throw std::invalid_argument("assign_jobs: zero groups");
  const std::size_t dop = std::max<std::size_t>(1, dop_hint);
  const std::size_t n = jobs.size();

  // Per-job terms every step below re-derives: T_cpu at the shared DoP, the
  // iteration time, and the job's own imbalance d_j.
  s.t_cpu.resize(n);
  s.t_itr.resize(n);
  s.d.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.t_cpu[i] = jobs[i].profile.t_cpu(dop);
    s.t_itr[i] = jobs[i].profile.t_itr(dop);
    s.d[i] = s.t_cpu[i] - jobs[i].profile.t_net;
  }

  // Sort indices by iteration time (at the shared DoP), descending, so jobs
  // of similar size are adjacent — spreading large jobs around would make
  // every group job-bound (§IV-B3). Ties resolve to input order, which keeps
  // the result deterministic and independent of the sort implementation.
  s.sorted.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) s.sorted[i] = i;
  std::sort(s.sorted.begin(), s.sorted.end(), [&s](std::uint32_t a, std::uint32_t b) {
    if (s.t_itr[a] != s.t_itr[b]) return s.t_itr[a] > s.t_itr[b];
    return a < b;
  });

  // Fill groups with contiguous runs of the sorted list: similar iteration
  // times stay together.
  s.members.assign(s.sorted.begin(), s.sorted.end());
  s.offsets.resize(num_groups + 1);
  const std::size_t base = n / num_groups;
  const std::size_t extra = n % num_groups;
  s.offsets[0] = 0;
  for (std::size_t g = 0; g < num_groups; ++g)
    s.offsets[g + 1] = s.offsets[g] + base + (g < extra ? 1 : 0);

  // Fine-tuning: repeatedly pick the most imbalanced group, find the group
  // with the most complementary resource use, and swap the job pair that
  // minimizes the two groups' combined imbalance. Group imbalances are cached
  // between rounds — only the two groups touched by a swap are recomputed —
  // so a round costs O(g + |worst|·|partner|) instead of O(g·n).
  s.imb.resize(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g)
    s.imb[g] = segment_imbalance_at_dop(jobs, s, s.offsets[g], s.offsets[g + 1]);

  for (std::size_t round = 0; round < kMaxSwapRounds; ++round) {
    // Most imbalanced group.
    std::size_t worst = 0;
    double worst_abs = -1.0;
    for (std::size_t g = 0; g < num_groups; ++g) {
      const double a = std::abs(s.imb[g]);
      if (a > worst_abs) {
        worst_abs = a;
        worst = g;
      }
    }
    const double worst_imb = s.imb[worst];

    // Most complementary partner: imbalance of opposite sign, largest product.
    std::size_t partner = num_groups;
    double best_comp = 0.0;
    for (std::size_t g = 0; g < num_groups; ++g) {
      if (g == worst) continue;
      const double comp = -worst_imb * s.imb[g];
      if (comp > best_comp) {
        best_comp = comp;
        partner = g;
      }
    }
    if (partner == num_groups) break;  // nothing complementary: done

    // Best swap between the two groups, evaluated via per-job deltas.
    const double partner_imb = s.imb[partner];
    const std::size_t wb = s.offsets[worst], we = s.offsets[worst + 1];
    const std::size_t pb = s.offsets[partner], pe = s.offsets[partner + 1];
    const double current = std::abs(worst_imb) + std::abs(partner_imb);
    double best_after = current;
    std::size_t best_a = we, best_b = pe;
    for (std::size_t a = wb; a < we; ++a) {
      const double da = s.d[s.members[a]];
      for (std::size_t b = pb; b < pe; ++b) {
        const double db = s.d[s.members[b]];
        const double after = std::abs(worst_imb - da + db) + std::abs(partner_imb - db + da);
        if (after + 1e-12 < best_after) {
          best_after = after;
          best_a = a;
          best_b = b;
        }
      }
    }
    if (best_a == we) break;  // no improving swap: converged
    std::swap(s.members[best_a], s.members[best_b]);
    // Refresh the two touched groups from scratch (not by delta): the cached
    // values stay bit-identical to a full recomputation.
    s.imb[worst] = segment_imbalance_at_dop(jobs, s, wb, we);
    s.imb[partner] = segment_imbalance_at_dop(jobs, s, pb, pe);
  }
}

// Attempts at a price before the grant loop runs from one machine per group.
constexpr int kPriceAttempts = 4;

// The price jump's certified-count margin, per member plus two and per unit
// of ΣW + ΣT_net (see price_prefix).
constexpr double kPriceMargin = 1e-12;

// Step 3's grant sequence for group g under price τ: the longest prefix of
// its grants (1→2, 2→3, …) whose gains all exceed τ, each gain computed
// exactly as the grant loop computes it, |imb(a)| − |imb(a+1)|. Sets
// s.alloc[g] = 1 + P_g and leaves the loop's cached next_abs/gain at that
// allocation. Returns P_g, or a value above `limit` as soon as P_g exceeds it.
//
// The count is certified analytically, then finished exactly. Below the
// balance crossing the fl-evaluated imbalance stays positive (it is
// non-increasing in a, and s.targets[g] is at most one past the last
// allocation where it is positive), so for every grant a → a+1 with
// a ≤ s.targets[g] − 2 the real gain is ΣW/a − ΣW/(a+1) = ΣW/(a(a+1)),
// which falls as a grows. The computed gain carries the rounding of two
// n-term imbalances and one subtraction: with u = 2⁻⁵³ and S = ΣW + ΣT_net,
// |ĝ(a) − g(a)| ≤ 2(n+2)·u·S, and evaluating ΣW/(L(L+1)) from the
// fl-summed ΣW adds at most (n+3)·u·S more. So if that value exceeds
// τ + (n+2)·(1e-12·S + DBL_MIN) for some L ≤ s.targets[g] − 2, every
// computed gain of grants 1..L exceeds τ: the margin is over three orders of
// magnitude above both errors, and its DBL_MIN term covers gradual
// underflow, which adds at most 2⁻¹⁰⁷⁵ per operation. From the largest such
// L, the step-up evaluates the grant loop's own gains until one is ≤ τ.
std::size_t price_prefix(Scratch& s, std::size_t g, double tau, std::size_t limit) {
  const double work = s.sum_work[g];
  const double members = static_cast<double>(s.offsets[g + 1] - s.offsets[g]);
  const double bar = tau + (members + 2.0) * (kPriceMargin * (work + s.sum_net[g]) +
                                              std::numeric_limits<double>::min());
  std::size_t certified = 0;
  if (s.targets[g] >= 3) {
    const std::size_t cap = std::min(s.targets[g] - 2, limit + 1);
    const auto clears = [&](std::size_t l) {
      const double ld = static_cast<double>(l);
      return work / (ld * (ld + 1.0)) > bar;
    };
    // Real root of L(L+1) = ΣW/bar, then fixed up against the exact test.
    const double root = std::floor((std::sqrt(1.0 + 4.0 * (work / bar)) - 1.0) / 2.0);
    certified = root >= static_cast<double>(cap) ? cap
                : root >= 1.0                    ? static_cast<std::size_t>(root)
                                                 : 0;
    while (certified > 0 && !clears(certified)) --certified;
    while (certified < cap && clears(certified + 1)) ++certified;
    if (certified > limit) return certified;
  }
  std::size_t a = 1 + certified;
  double now_abs = std::abs(segment_imbalance(s, g, a));
  double next_abs = std::abs(segment_imbalance(s, g, a + 1));
  while (now_abs - next_abs > tau) {  // grant a → a+1 is in the prefix
    if (a > limit) return a;
    ++a;
    now_abs = next_abs;
    next_abs = std::abs(segment_imbalance(s, g, a + 1));
  }
  s.alloc[g] = a;
  s.next_abs[g] = next_abs;
  s.gain[g] = now_abs - next_abs;
  return a - 1;
}

// Pre-grants the machine-constrained greedy's certain prefix. The greedy
// equalises marginal gains, so it has a price form: each group takes
// machines while its gain exceeds a common price τ, and only the grants near
// τ need its exact tie order. Let R = `remaining` and, for a fixed τ ≥ 0,
// P_g the prefix of price_prefix. Suppose Σ P_g ≤ R. While any group is
// still inside its prefix, the heap top exceeds τ ≥ 0 and machines remain,
// so the loop grants; a group past its prefix has a head gain ≤ τ, because
// P_g is maximal. So the greedy's first Σ P_g grants are exactly those
// prefixes, in whatever order it takes them, and the state they leave is
// unique: the loop continued from alloc = 1 + P_g gives the same allocation
// bit for bit. The gains need not be monotone in fl arithmetic, and ties
// between groups only matter in the continuation, which is the loop itself.
//
// Choosing τ: below the crossing a group's prefix is the real count of
// grants a with ΣW/(a(a+1)) > τ, which rounds √(ΣW/τ) − 1/2 down, so about
// √(ΣW/τ) − 1 grants. The prefixes then sum to about R at
// τ = (Σ√ΣW_g / (R + g))², re-solved once over the groups whose count does
// not reach their crossing (the others take target − 1 grants). Rounding
// leaves Σ P_g above R now and then; the price then rises by (Σ P_g/R)² and
// the prefixes are redone. Returns false, with s.alloc/next_abs/gain
// unspecified, if no attempt fits.
bool price_jump(Scratch& s, std::size_t g_count, std::size_t remaining) {
  const double r = static_cast<double>(remaining);
  double roots = 0.0;
  for (std::size_t g = 0; g < g_count; ++g) roots += std::sqrt(s.sum_work[g]);
  double q = roots / (r + static_cast<double>(g_count));
  double tau = q * q;
  double capped_grants = 0.0;
  double free_roots = 0.0;
  double free_groups = 0.0;
  for (std::size_t g = 0; g < g_count; ++g) {
    const double cap = static_cast<double>(s.targets[g] - 1);
    if (std::sqrt(s.sum_work[g]) >= (cap + 1.0) * q) {  // √(ΣW/τ) − 1 ≥ cap
      capped_grants += cap;
    } else {
      free_roots += std::sqrt(s.sum_work[g]);
      free_groups += 1.0;
    }
  }
  if (free_roots > 0.0 && capped_grants < r) {
    q = free_roots / (r - capped_grants + free_groups);
    tau = q * q;
  }
  for (int attempt = 0; attempt < kPriceAttempts; ++attempt) {
    std::size_t total = 0;
    for (std::size_t g = 0; g < g_count; ++g) total += price_prefix(s, g, tau, remaining);
    if (total <= remaining) return true;
    const double over = static_cast<double>(total) / r;
    tau *= over * over;
  }
  return false;
}

// Step 3 over the first `g_count` groups of s.profiles/s.offsets: fills
// s.alloc (>= 1 each). Greedily hands the next machine to the group that
// "needs additional machines the most": the most CPU-bound one, where an
// extra machine shrinks Σ T_cpu (Eq. 2) and thus the group iteration time.
// Allocation stops at the computation/communication balance point — a
// machine that would tip a group further network-bound is worth more left
// idle for a future group than burned on inflating DoP.
//
// A group's gain only changes when it is granted a machine, so gains are
// cached and each grant costs O(log g + |group|) via a max-heap instead of a
// rescan of every group's members. Heap order (gain desc, then smaller group
// index) picks the same winner as a forward scan with strict '>'.
void allocate_core(std::size_t g_count, std::size_t machines, Scratch& s) {
  s.alloc.assign(g_count, 1);
  if (g_count == 0) return;
  std::size_t remaining = machines - g_count;
  if (remaining == 0) return;

  // ΣW and ΣT_net per group, added in member order. The price jump's error
  // bound needs positive work and finite non-negative terms, and
  // allocate_machines takes unvalidated profiles: any other input keeps the
  // grant loop from one machine per group.
  s.sum_work.resize(g_count);
  s.sum_net.resize(g_count);
  bool priced = true;
  for (std::size_t g = 0; g < g_count; ++g) {
    double work = 0.0;
    double net = 0.0;
    for (std::size_t i = s.offsets[g]; i < s.offsets[g + 1]; ++i) {
      const JobProfile& p = s.profiles[i];
      work += p.cpu_work;
      net += p.t_net;
      if (!(p.cpu_work > 0.0 && p.t_net >= 0.0)) priced = false;
    }
    s.sum_work[g] = work;
    s.sum_net[g] = net;
    if (!(std::isfinite(work) && std::isfinite(net))) priced = false;
  }

  // Fast path: when the greedy never exhausts the machines — the common case
  // on a large cluster — its interleaving is irrelevant: every group simply
  // grows until its own first non-positive gain, independently of the others.
  // That stopping point is the balance crossing: imbalance is non-increasing
  // in the allocation even under FP rounding (each T_cpu term shrinks
  // exactly, and fl-addition is monotone). Gains before the crossing are
  // positive (they only vanish at ULP scale, far beyond realistic profile
  // magnitudes); the two gains at the crossing are evaluated exactly.
  //
  // In real arithmetic imb(a) = ΣW/a − ΣT_net crosses zero at a* = ΣW/ΣT_net,
  // so the smallest a with imb(a+1) <= 0 is ⌈a*⌉ − 1. The fl-evaluated
  // imbalance differs from the real one only by summation rounding, which
  // moves the crossing by a relative ~|group|·ε — under one machine for any
  // realistic M. So the search starts there and steps with the exact imbalance
  // test until imb(lo+1) <= 0 < imb(lo). By monotonicity that is the unique
  // answer a binary search over [1, M] finds, at 2–4 evaluations per group
  // instead of ~log₂M + 2.
  const auto solo_target = [&](std::size_t g) -> std::size_t {
    // Smallest a in [1, machines] where one more machine tips the group
    // network-bound (imb(a+1) <= 0); machines+1 if no crossing in range.
    if (!(segment_imbalance(s, g, machines + 1) <= 0.0)) return machines + 1;
    // Guarded start: allocate_machines takes unvalidated profiles, so a zero
    // ΣT_net starts at 1 and a non-finite estimate is clamped into
    // [1, machines] below (NaN fails both comparisons and starts at 1); the
    // steps fix up any start point.
    const double estimate =
        s.sum_net[g] > 0.0 ? std::ceil(s.sum_work[g] / s.sum_net[g]) - 1.0 : 1.0;
    std::size_t lo = 1;
    if (estimate >= static_cast<double>(machines))
      lo = machines;
    else if (estimate > 1.0)
      lo = static_cast<std::size_t>(estimate);
    double imb_next = segment_imbalance(s, g, lo + 1);
    while (!(imb_next <= 0.0)) {  // crossing lies above: step up (imb(M+1) <= 0 bounds it)
      ++lo;
      imb_next = segment_imbalance(s, g, lo + 1);
    }
    double imb_lo = segment_imbalance(s, g, lo);
    while (lo > 1 && imb_lo <= 0.0) {  // crossing lies below: step down
      imb_next = imb_lo;
      --lo;
      imb_lo = segment_imbalance(s, g, lo);
    }
    const double gain = std::abs(imb_lo) - std::abs(imb_next);
    return gain > 0.0 ? lo + 1 : lo;
  };
  s.targets.resize(g_count);
  std::size_t total_grants = 0;
  for (std::size_t g = 0; g < g_count; ++g) {
    s.targets[g] = solo_target(g);
    total_grants += s.targets[g] - 1;
  }
  if (total_grants <= remaining) {
    for (std::size_t g = 0; g < g_count; ++g) s.alloc[g] = s.targets[g];
    return;
  }

  // Machine-constrained: the grant-by-grant greedy decides who gets the
  // contended machines, ties included. The price jump pre-grants the prefix
  // it is certain to make; the loop below makes the rest.
  static obs::Counter& constrained_calls =
      obs::MetricsRegistry::instance().counter("scheduler.alloc_constrained");
  static obs::Counter& jumped_grants =
      obs::MetricsRegistry::instance().counter("scheduler.alloc_jumped_grants");
  static obs::Counter& stepped_grants =
      obs::MetricsRegistry::instance().counter("scheduler.alloc_stepped_grants");
  constrained_calls.add();
  s.next_abs.resize(g_count);
  s.gain.resize(g_count);
  if (!priced || !price_jump(s, g_count, remaining)) {
    for (std::size_t g = 0; g < g_count; ++g) {
      s.alloc[g] = 1;
      const double now_abs = std::abs(segment_imbalance(s, g, 1));
      s.next_abs[g] = std::abs(segment_imbalance(s, g, 2));
      s.gain[g] = now_abs - s.next_abs[g];
    }
  }

  struct Entry {
    double gain = 0.0;
    std::size_t group = 0;
    bool operator<(const Entry& o) const noexcept {
      if (gain != o.gain) return gain < o.gain;
      return group > o.group;
    }
  };
  // Heap over a reused array (std::priority_queue would allocate per call).
  thread_local std::vector<Entry> heap;
  heap.clear();
  std::size_t jumped = 0;
  for (std::size_t g = 0; g < g_count; ++g) {
    jumped += s.alloc[g] - 1;
    heap.push_back(Entry{s.gain[g], g});
  }
  std::make_heap(heap.begin(), heap.end());
  remaining -= jumped;

  std::size_t stepped = 0;
  while (remaining > 0 && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end());
    const Entry top = heap.back();
    heap.pop_back();
    if (top.gain != s.gain[top.group]) continue;  // stale: a fresher entry exists
    if (!(top.gain > 0.0)) break;                 // every group at (or past) balance
    const std::size_t g = top.group;
    ++s.alloc[g];
    --remaining;
    ++stepped;
    const double now_abs = s.next_abs[g];  // |imbalance| at the new allocation
    s.next_abs[g] = std::abs(segment_imbalance(s, g, s.alloc[g] + 1));
    s.gain[g] = now_abs - s.next_abs[g];
    heap.push_back(Entry{s.gain[g], g});
    std::push_heap(heap.begin(), heap.end());
  }
  jumped_grants.add(jumped);
  stepped_grants.add(stepped);
}

struct CoreResult {
  double score = 0.0;
  Utilization util;
  std::size_t g_count = 0;  // non-empty groups; segments/alloc live in Scratch
};

// One Algorithm-1 evaluation of a candidate job set. Leaves the chosen
// grouping in the Scratch (members/offsets/alloc) so the caller can
// materialize a ScheduleDecision only for candidates that actually win.
CoreResult evaluate_core(std::span<const SchedJob> jobs, std::size_t machines, Scratch& s) {
  const std::size_t ng = pick_core(jobs, machines, s);
  const std::size_t dop_hint = std::max<std::size_t>(1, machines / ng);
  assign_core(jobs, ng, dop_hint, s);
  // Drop empty groups (possible when jobs < groups after the n_G search).
  // Segment sizes are non-increasing, so the empty ones are exactly the
  // trailing segments: pruning keeps the first min(ng, n). The fine-tuning
  // above never moves a job into an empty group (an empty group is never the
  // most imbalanced when any non-empty one is, and its complementarity is 0).
  const std::size_t g_count = std::min(ng, jobs.size());
  s.profiles.resize(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) s.profiles[i] = jobs[s.members[i]].profile;
  allocate_core(g_count, machines, s);

  // One fold yields both: PerfModel::cluster_utilization and ::score are
  // this same fold over the same groups.
  const std::span<const JobProfile> profiles(s.profiles);
  ScoreFold fold;
  for (std::size_t g = 0; g < g_count; ++g)
    fold.add(PerfModel::group_term(
        profiles.subspan(s.offsets[g], s.offsets[g + 1] - s.offsets[g]), s.alloc[g]));
  CoreResult r;
  r.g_count = g_count;
  r.util = fold.utilization();
  r.score = fold.score();
  // Packing more jobs than machines into a group makes utilization look
  // great while starving every job's progress; reject such shapes outright.
  for (std::size_t g = 0; g < g_count; ++g)
    if (s.offsets[g + 1] - s.offsets[g] > s.alloc[g]) r.score -= 1.0;
  return r;
}

ScheduleDecision materialize(std::span<const SchedJob> jobs, const CoreResult& r,
                             const Scratch& s) {
  ScheduleDecision decision;
  decision.predicted_util = r.util;
  decision.score = r.score;
  decision.jobs_scheduled = jobs.size();
  decision.groups.reserve(r.g_count);
  for (std::size_t g = 0; g < r.g_count; ++g) {
    GroupPlan plan;
    plan.machines = s.alloc[g];
    plan.jobs.reserve(s.offsets[g + 1] - s.offsets[g]);
    for (std::size_t i = s.offsets[g]; i < s.offsets[g + 1]; ++i)
      plan.jobs.push_back(jobs[s.members[i]].id);
    decision.groups.push_back(std::move(plan));
  }
  return decision;
}

}  // namespace

std::size_t pick_num_groups(std::span<const SchedJob> jobs, std::size_t machines) {
  return pick_core(jobs, machines, scratch());
}

std::vector<std::vector<SchedJob>> assign_jobs(std::span<const SchedJob> jobs,
                                               std::size_t num_groups, std::size_t dop_hint) {
  Scratch& s = scratch();
  assign_core(jobs, num_groups, dop_hint, s);
  std::vector<std::vector<SchedJob>> out(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    out[g].reserve(s.offsets[g + 1] - s.offsets[g]);
    for (std::size_t i = s.offsets[g]; i < s.offsets[g + 1]; ++i)
      out[g].push_back(jobs[s.members[i]]);
  }
  return out;
}

std::vector<std::size_t> allocate_machines(const std::vector<std::vector<SchedJob>>& groups,
                                           std::size_t machines) {
  if (groups.empty()) return {};
  if (machines < groups.size())
    throw std::invalid_argument("allocate_machines: fewer machines than groups");
  // Flatten into the profile runs allocate_core works on.
  Scratch& s = scratch();
  s.profiles.clear();
  s.offsets.assign(1, 0);
  for (const auto& group : groups) {
    for (const SchedJob& j : group) s.profiles.push_back(j.profile);
    s.offsets.push_back(s.profiles.size());
  }
  allocate_core(groups.size(), machines, s);
  return {s.alloc.begin(), s.alloc.end()};
}

ScheduleDecision schedule(std::span<const SchedJob> jobs, std::size_t machines) {
  if (machines == 0) throw std::invalid_argument("schedule: zero machines");
  if (jobs.empty()) return {};

  // Profiles are validated lazily as the candidate prefix grows: the call's
  // cost tracks the jobs actually examined, not the total queue length (a
  // datacenter-scale queue would otherwise pay an O(n) scan per decision).
  std::size_t validated = 0;
  const auto validate_prefix = [&](std::size_t upto) {
    for (; validated < upto; ++validated)
      if (!jobs[validated].profile.valid())
        throw std::invalid_argument("schedule: invalid profile");
  };

  // Algorithm 1: grow the candidate prefix while the modelled utilization
  // improves; stop once it stops improving (with a little patience so one
  // awkward job in the queue does not end the search). Only improving
  // candidates are materialized into a ScheduleDecision.
  Scratch& s = scratch();
  validate_prefix(1);
  ScheduleDecision best = materialize(
      jobs.first(1), evaluate_core(jobs.first(1), machines, s), s);
  std::size_t since_improvement = 0;
  for (std::size_t nj = 2; nj <= jobs.size(); ++nj) {
    validate_prefix(nj);
    const CoreResult candidate = evaluate_core(jobs.first(nj), machines, s);
    if (candidate.score > best.score) {
      best = materialize(jobs.first(nj), candidate, s);
      since_improvement = 0;
    } else if (++since_improvement >= kGrowthPatience) {
      break;
    }
  }
  // Observation only: counters never feed back into the decision above.
  static obs::Counter& invocations =
      obs::MetricsRegistry::instance().counter("scheduler.invocations");
  static obs::Counter& groups_planned =
      obs::MetricsRegistry::instance().counter("scheduler.groups_planned");
  invocations.add();
  groups_planned.add(best.groups.size());
  return best;
}

ScheduleDecision repack(std::span<const SchedJob> jobs, std::size_t machines) {
  if (machines == 0) throw std::invalid_argument("repack: zero machines");
  if (jobs.empty()) return {};
  for (const SchedJob& j : jobs)
    if (!j.profile.valid()) throw std::invalid_argument("repack: invalid profile");

  // Steps 1-3 over the whole set, no prefix growth: pick_core's min_groups
  // floor (ceil(jobs / kMaxJobsPerGroup)) keeps every group within the
  // member cap, so the result places every job.
  Scratch& s = scratch();
  const CoreResult r = evaluate_core(jobs, machines, s);
  return materialize(jobs, r, s);
}

}  // namespace harmony::core
