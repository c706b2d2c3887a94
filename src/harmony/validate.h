// Deep validators for the scheduler: cross-check Algorithm 1 decisions and
// incrementally maintained state against brute-force recomputation.
//
// Everything here is read-only and side-effect free on the validated objects,
// so a validation pass can run at any quiescent point (tests, the simulator's
// --validate hook) without perturbing behaviour.
#pragma once

#include <span>

#include "check/check.h"
#include "harmony/incremental.h"
#include "harmony/scheduler.h"

namespace harmony::core {

// Structural invariants of an Algorithm 1 decision against the job pool and
// machine budget it was computed from:
//  * total allocated machines never exceed the budget, every group gets >= 1;
//  * no job is placed twice, every placed job comes from the pool;
//  * jobs_scheduled equals the number of placed jobs and counts a prefix of
//    the pool (Algorithm 1 grows candidate sets from the queue front).
void validate_decision(const ScheduleDecision& decision, std::span<const SchedJob> pool,
                       std::size_t machines, check::Validation& v);

// Incremental-vs-full-reschedule equivalence: re-runs full Algorithm 1
// (repack()) over the incremental state's own job pool and machine budget and
// checks that the modelled score of the locally-repaired grouping stays
// within `slack` (relative) of the from-scratch decision's modelled score.
// This is the documented drift bound of the online service: local repair may
// trail a fresh Algorithm-1 run, but once the gap exceeds the drift
// threshold a full re-run is triggered, so the steady-state gap is bounded
// by drift_threshold plus the score the bounded probe window gives up on a
// single join. `slack` should therefore be chosen comfortably above the
// drift threshold (svc::Service derives 0.35 for its default 0.10).
// The comparison scores each grouping over the machines it actually
// allocates, so a full decision that parks jobs (schedules a prefix) is
// still comparable.
void validate_incremental_vs_full(const IncrementalScheduler& inc, double slack,
                                  check::Validation& v);

}  // namespace harmony::core
