#!/usr/bin/env python3
"""Bench regression tracking over bench/results/*.json.

Aggregates every google-benchmark JSON report under bench/results/ into a
compact baseline (bench/results/HISTORY.json) and compares fresh results
against the committed baseline, failing on significant slowdowns.

    bench_compare.py --check [--results DIR] [--threshold 0.15]
        Compare each report's benchmarks against the committed baseline.
        Exit 1 if any benchmark's real_time regressed by more than the
        threshold (default 15%). New benchmarks (not in the baseline) and
        benchmarks that disappeared are reported but never fail the check,
        so adding or retiring a benchmark does not need a baseline dance.

    bench_compare.py --update [--results DIR]
        Rewrite HISTORY.json from the current reports. Run this (and commit
        the result) when a slowdown is intentional or a benchmark changed
        meaning.

    bench_compare.py --scaling [REPORT]
        Check that simulator cost per event stays flat as job count grows:
        exit 1 if any BM_ClusterSimThroughput row's events_per_sec is below
        half that of the 1000-job row. REPORT defaults to
        bench/results/BENCH_sim_throughput.json.

The baseline stores, per benchmark name, the real_time in its time_unit —
timing only, no context, so HISTORY.json diffs stay readable. A report run
with --benchmark_repetitions carries one row per repetition plus aggregates;
the "median" aggregate then stands for the benchmark. Reports whose top level
carries a "harmony_metrics" member (attach_metrics_snapshot) are handled like
any other: only the "benchmarks" array is read.

Timings on shared CI runners are noisy; 15% is deliberately loose. It will
not catch a 5% drift, but it catches the accidental O(n^2) — and the
baseline is regenerated deliberately, so drift does not compound.
"""

import argparse
import json
import os
import sys

BASELINE_NAME = "HISTORY.json"
SCALING_REPORT = os.path.join("bench", "results", "BENCH_sim_throughput.json")
SCALING_FAMILY = "BM_ClusterSimThroughput"
SCALING_BASE_JOBS = 1000
SCALING_MIN_RATIO = 0.5


def load_report(path):
    """The "benchmarks" array of one google-benchmark JSON report."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"bench_compare: cannot read {path}: {e}")
    benchmarks = doc.get("benchmarks")
    if not isinstance(benchmarks, list):
        raise SystemExit(f"bench_compare: {path} has no 'benchmarks' array")
    return benchmarks


def load_reports(results_dir):
    """Yields (filename, benchmarks-list) for every report in the directory."""
    for name in sorted(os.listdir(results_dir)):
        if not name.endswith(".json") or name == BASELINE_NAME:
            continue
        yield name, load_report(os.path.join(results_dir, name))


def representative_rows(benchmarks):
    """{benchmark name: the row that stands for it}.

    That is the "median" aggregate when the report has repetitions (the
    per-repetition rows and the other aggregates would double-count), else
    the benchmark's iteration row.
    """
    rows = {}
    medians = {}
    for bm in benchmarks:
        if "real_time" not in bm:
            continue
        if bm.get("run_type", "iteration") == "iteration":
            if bm.get("name") is not None:
                rows[bm["name"]] = bm
        elif bm.get("aggregate_name") == "median" and bm.get("run_name") is not None:
            medians[bm["run_name"]] = bm
    rows.update(medians)
    return rows


def collect(results_dir):
    """{report file: {benchmark name: {"real_time": t, "time_unit": u}}}."""
    history = {}
    for report, benchmarks in load_reports(results_dir):
        history[report] = {
            name: {"real_time": bm["real_time"], "time_unit": bm.get("time_unit", "ns")}
            for name, bm in representative_rows(benchmarks).items()
        }
    return history


def update(results_dir):
    history = collect(results_dir)
    path = os.path.join(results_dir, BASELINE_NAME)
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"schema": "harmony-bench-history-v1", "reports": history},
                  f, indent=2, sort_keys=True)
        f.write("\n")
    total = sum(len(v) for v in history.values())
    print(f"bench_compare: wrote {path} "
          f"({len(history)} reports, {total} benchmarks)")
    return 0


def check(results_dir, threshold):
    path = os.path.join(results_dir, BASELINE_NAME)
    try:
        with open(path, encoding="utf-8") as f:
            baseline = json.load(f)
    except OSError:
        raise SystemExit(
            f"bench_compare: no baseline at {path}; run --update and commit it")
    base_reports = baseline.get("reports", {})
    current = collect(results_dir)

    regressions = []
    improvements = []
    new_benchmarks = []
    for report, benchmarks in current.items():
        base = base_reports.get(report, {})
        for name, bm in benchmarks.items():
            if name not in base:
                new_benchmarks.append(f"{report}:{name}")
                continue
            old = base[name]
            if bm["time_unit"] != old["time_unit"]:
                # Unit changed: not comparable; treat as new.
                new_benchmarks.append(f"{report}:{name} (unit changed)")
                continue
            if old["real_time"] <= 0:
                continue
            ratio = bm["real_time"] / old["real_time"]
            line = (f"{report}:{name}  {old['real_time']:.6g} -> "
                    f"{bm['real_time']:.6g} {bm['time_unit']} "
                    f"({100.0 * (ratio - 1.0):+.1f}%)")
            if ratio > 1.0 + threshold:
                regressions.append(line)
            elif ratio < 1.0 - threshold:
                improvements.append(line)

    missing = []
    for report, base in base_reports.items():
        seen = current.get(report, {})
        for name in base:
            if name not in seen:
                missing.append(f"{report}:{name}")

    for label, lines in (("new (not in baseline)", new_benchmarks),
                         ("missing (in baseline, not in results)", missing),
                         ("improved", improvements)):
        if lines:
            print(f"bench_compare: {label}:")
            for line in lines:
                print(f"  {line}")
    if regressions:
        print(f"bench_compare: FAIL — {len(regressions)} benchmark(s) "
              f"regressed more than {100.0 * threshold:.0f}%:")
        for line in regressions:
            print(f"  {line}")
        print("bench_compare: if intentional, re-baseline with --update "
              "and commit HISTORY.json")
        return 1
    compared = sum(len(v) for v in current.values()) - len(new_benchmarks)
    print(f"bench_compare: OK — {compared} benchmark(s) within "
          f"{100.0 * threshold:.0f}% of baseline")
    return 0


def scaling(report_path):
    """Fails unless every simulator-throughput row keeps at least
    SCALING_MIN_RATIO of the 1000-job row's events/s."""
    # Row names are BM_ClusterSimThroughput/<jobs>/<machines>[/...].
    rows = []
    for name, bm in representative_rows(load_report(report_path)).items():
        parts = name.split("/")
        if parts[0] != SCALING_FAMILY or len(parts) < 3 or "events_per_sec" not in bm:
            continue
        rows.append((int(parts[1]), name, bm["events_per_sec"]))
    if not rows:
        print(f"bench_compare: FAIL — {report_path} has no {SCALING_FAMILY} "
              "rows with events_per_sec")
        return 1
    base = [eps for jobs, _, eps in rows if jobs == SCALING_BASE_JOBS]
    if not base:
        print(f"bench_compare: FAIL — {report_path} has no {SCALING_BASE_JOBS}-job row")
        return 1

    failures = []
    for jobs, name, eps in sorted(rows):
        ratio = eps / base[0]
        line = (f"{name}  {eps / 1e6:.3g}M events/s = {ratio:.2f}x the "
                f"{SCALING_BASE_JOBS}-job row")
        print(f"  {line}")
        if ratio < SCALING_MIN_RATIO:
            failures.append(line)
    if failures:
        print(f"bench_compare: FAIL — cost per event grows with job count "
              f"(below {SCALING_MIN_RATIO:g}x the {SCALING_BASE_JOBS}-job row):")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"bench_compare: OK — events/s within {1 / SCALING_MIN_RATIO:g}x of the "
          f"{SCALING_BASE_JOBS}-job row at every scale")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Aggregate bench/results/*.json and track regressions.")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="compare results against the committed baseline")
    mode.add_argument("--update", action="store_true",
                      help="rewrite the baseline from the current results")
    mode.add_argument("--scaling", nargs="?", const=SCALING_REPORT, metavar="REPORT",
                      help="check that events/s stays flat as job count grows "
                           f"(default report: {SCALING_REPORT})")
    parser.add_argument("--results", default="bench/results",
                        help="results directory (default: bench/results)")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed real_time regression fraction "
                             "(default: 0.15)")
    args = parser.parse_args()
    if args.scaling is not None:
        return scaling(args.scaling)
    if not os.path.isdir(args.results):
        raise SystemExit(f"bench_compare: no such directory: {args.results}")
    if args.update:
        return update(args.results)
    return check(args.results, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
