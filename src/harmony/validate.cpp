#include "harmony/validate.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

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
