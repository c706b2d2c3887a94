#include "harmony/validate.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "common/sorted_view.h"

namespace harmony::core {

void validate_decision(const ScheduleDecision& decision, std::span<const SchedJob> pool,
                       std::size_t machines, check::Validation& v) {
  std::unordered_set<JobId> pool_ids;
  for (const SchedJob& j : pool) pool_ids.insert(j.id);

  std::size_t total_machines = 0;
  std::size_t total_jobs = 0;
  std::unordered_set<JobId> placed;
  for (std::size_t g = 0; g < decision.groups.size(); ++g) {
    const GroupPlan& plan = decision.groups[g];
    HARMONY_VALIDATE(v, plan.machines >= 1)
        << check::group(g) << "group plan allocates zero machines";
    HARMONY_VALIDATE(v, !plan.jobs.empty())
        << check::group(g) << "group plan holds machines but no jobs";
    total_machines += plan.machines;
    for (JobId id : plan.jobs) {
      ++total_jobs;
      HARMONY_VALIDATE(v, placed.insert(id).second)
          << check::job(id) << check::group(g) << "job placed in more than one group";
      HARMONY_VALIDATE(v, pool_ids.contains(id))
          << check::job(id) << check::group(g) << "placed job is not in the scheduling pool";
    }
  }
  HARMONY_VALIDATE(v, total_machines <= machines)
      << "decision allocates " << total_machines << " machines from a budget of " << machines;
  HARMONY_VALIDATE(v, decision.jobs_scheduled == total_jobs)
      << "jobs_scheduled says " << decision.jobs_scheduled << " but the plans place "
      << total_jobs;
  // Algorithm 1 schedules a prefix of the queue: the placed set must be
  // exactly the first jobs_scheduled pool entries.
  const std::size_t prefix = std::min(decision.jobs_scheduled, pool.size());
  for (std::size_t i = 0; i < prefix; ++i)
    HARMONY_VALIDATE(v, placed.contains(pool[i].id))
        << check::job(pool[i].id) << "queue-prefix job at position " << i
        << " missing from the decision";
}

void validate_block_manager(const BlockManager& blocks, check::Validation& v) {
  double disk = 0.0;
  double memory = 0.0;
  double total = 0.0;
  std::size_t disk_count = 0;
  bool seen_disk = false;
  bool suffix_ok = true;
  for (const auto& b : blocks.blocks_) {
    total += b.bytes;
    if (b.on_disk) {
      disk += b.bytes;
      ++disk_count;
      seen_disk = true;
    } else {
      memory += b.bytes;
      if (seen_disk) suffix_ok = false;  // memory block after a disk block
    }
  }
  const double eps = 1e-6 * std::max(total, 1.0);
  HARMONY_VALIDATE(v, std::abs(blocks.memory_bytes() + blocks.disk_bytes() - total) <= eps)
      << "memory (" << blocks.memory_bytes() << ") + disk (" << blocks.disk_bytes()
      << ") bytes do not partition the total (" << total << ")";
  HARMONY_VALIDATE(v, std::abs(blocks.disk_bytes() - disk) <= eps)
      << "disk_bytes() reports " << blocks.disk_bytes() << " but the blocks sum to " << disk
      << " (skewed spill byte count)";
  HARMONY_VALIDATE(v, blocks.disk_blocks() == disk_count)
      << "disk_blocks() reports " << blocks.disk_blocks() << " but " << disk_count
      << " blocks are on disk";
  const double want_alpha =
      blocks.blocks_.empty()
          ? 0.0
          : static_cast<double>(disk_count) / static_cast<double>(blocks.blocks_.size());
  HARMONY_VALIDATE(v, std::abs(blocks.alpha() - want_alpha) <= 1e-12)
      << "alpha() reports " << blocks.alpha() << " but the disk fraction is " << want_alpha;
  HARMONY_VALIDATE(v, suffix_ok)
      << "disk-resident blocks are not a suffix (spill order invariant broken)";
}

void validate_spill_store(const DiskSpillStore& store, check::Validation& v) {
  common::MutexLock lock(store.mu_);
  std::uint64_t ledger_sum = 0;
  for (const auto& [key, payload] : common::sorted_view(store.sizes_)) {
    ledger_sum += payload;
    const auto path = store.path_for(key);
    std::error_code ec;
    const auto file_size = std::filesystem::file_size(path, ec);
    HARMONY_VALIDATE(v, !ec) << check::job(key.job) << "spill file missing for block "
                             << key.block << ": " << path.string();
    if (ec) continue;
    // File layout: u32 job + u64 block + u64 count + payload doubles.
    const std::uint64_t expected = sizeof(std::uint32_t) + 2 * sizeof(std::uint64_t) + payload;
    HARMONY_VALIDATE(v, file_size == expected)
        << check::job(key.job) << "block " << key.block << " file holds " << file_size
        << " bytes, ledger expects " << expected;
  }
  HARMONY_VALIDATE(v, store.bytes_on_disk_ == ledger_sum)
      << "bytes_on_disk (" << store.bytes_on_disk_ << ") != sum of per-block ledger entries ("
      << ledger_sum << ")";
  HARMONY_VALIDATE(v, store.spilled_total_ >= store.bytes_on_disk_)
      << "cumulative spilled bytes (" << store.spilled_total_
      << ") below current on-disk bytes (" << store.bytes_on_disk_ << ")";
}

void validate_incremental_state(const IncrementalScheduler& inc, check::Validation& v) {
  inc.validate(v);
}

void validate_incremental_vs_full(const IncrementalScheduler& inc, double slack,
                                  check::Validation& v) {
  const std::vector<SchedJob> pool = inc.pool();
  if (pool.empty()) return;  // nothing placed; trivially equivalent

  // Score against a full-algorithm *repack* of the same job set — both sides
  // then place every job, so the scores share an objective. (schedule()
  // proper optimizes an admission prefix and may park pool-tail jobs; its
  // score is not comparable to a state that must keep every job running.)
  const ScheduleDecision decision = repack(pool, inc.total_machines());
  validate_decision(decision, pool, inc.total_machines(), v);

  // Score the full decision with the model the incremental state uses.
  std::vector<GroupShape> shapes;
  shapes.reserve(decision.groups.size());
  std::unordered_map<JobId, JobProfile> profiles;
  profiles.reserve(pool.size());
  for (const SchedJob& j : pool) profiles.emplace(j.id, j.profile);
  for (const GroupPlan& plan : decision.groups) {
    GroupShape shape;
    shape.machines = plan.machines;
    shape.jobs.reserve(plan.jobs.size());
    for (JobId id : plan.jobs) shape.jobs.push_back(profiles.at(id));
    shapes.push_back(std::move(shape));
  }
  const double full_score = PerfModel::score(shapes);
  const double inc_score = inc.current_score();

  HARMONY_VALIDATE(v, check::within_relative_slack(inc_score, full_score, slack))
      << "incremental grouping scores " << inc_score << " vs " << full_score
      << " for a full Algorithm-1 repack of the same " << pool.size()
      << " jobs — beyond the documented drift bound (slack " << slack << ")";
}

}  // namespace harmony::core
