#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. Builds the Harmony libraries, the perfbench
binary and harmony-sim from source into .bench_build/perfbench (an
incremental no-op after the first run), runs perfbench, checks that its
result names exactly the metrics BENCHMARK.json declares, and prints that
result as the last line of stdout. With --trace 1 the benchmark's wall-clock
spans are also written as a Chrome trace under .bench_build/perfbench/.

--self-test shows that the correctness gate trips on injected corruption and
that every workload's simulated metrics equal what harmony-sim prints for the
same arguments. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("replay-batch", "replay-poisson", "service-steady")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no Harmony sources under {ROOT}/src; run from a repository checkout")
    if shutil.which("cmake") is None:
        fail("cmake is not on PATH")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        step = subprocess.run(["cmake", "-S", HERE, "-B", BUILD, *generator,
                               "-DCMAKE_BUILD_TYPE=Release"],
                              stdout=sys.stderr, stderr=sys.stderr)
        if step.returncode != 0:
            fail("configuring the benchmark failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    if step.returncode != 0:
        fail("building the benchmark failed")


def perfbench(*args):
    """Runs the perfbench binary; returns (exit code, stdout lines)."""
    proc = subprocess.run([os.path.join(BUILD, "perfbench"), *args],
                          stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args):
    build()
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_file = os.path.join(BUILD, f"trace-{args.workload}-seed{args.seed}.json")
        argv += ["--trace-out", trace_file]
    code, lines = perfbench(*argv)
    if code not in (0, 1) or not lines:
        fail(f"perfbench exited with {code}")
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared_metrics(args.trace):
        fail("perfbench metrics differ from BENCHMARK.json")
    for line in lines[:-1]:
        print(line)
    if args.trace:
        print(f"chrome trace: {os.path.relpath(trace_file, ROOT)}")
    print(json.dumps(result))
    return code


def cli_figures(command):
    """Runs harmony-sim; returns its simulated figures in hours."""
    out = subprocess.run([os.path.join(BUILD, "harmony-sim"), *command.split()],
                         capture_output=True, text=True, check=True).stdout
    figures = {}
    if m := re.search(r"^makespan\s+([\d.]+) h", out, re.M):
        figures["makespan_h"] = float(m.group(1))
    if m := re.search(r"^mean JCT\s+([\d.]+) h", out, re.M):
        figures["jct_mean_h"] = float(m.group(1))
    if m := re.search(r"^JCT\s+mean\s+([\d.]+) h\s+p50\s+([\d.]+) h\s+p99\s+([\d.]+) h",
                      out, re.M):
        figures.update(jct_mean_h=float(m.group(1)), jct_p50_h=float(m.group(2)),
                       jct_p99_h=float(m.group(3)))
    return figures


def self_test():
    build()
    ok = True
    for workload in WORKLOADS:
        code, lines = perfbench("--workload", workload, "--seed", "1", "--seconds", "0")
        result = json.loads(lines[-1])
        command = next(l for l in lines if l.startswith("reproduce: harmony-sim "))
        cli = cli_figures(command.removeprefix("reproduce: harmony-sim "))
        bench = {k: round(result["metrics"][k]["value"], 2) for k in cli}
        agree = code == 0 and result["correct"] and cli and bench == cli
        ok &= bool(agree)
        print(f"{workload}: benchmark {bench} vs harmony-sim {cli}: "
              f"{'match' if agree else 'MISMATCH'}")

        code, lines = perfbench("--workload", workload, "--seed", "1", "--seconds", "0",
                             "--inject-fault")
        result = json.loads(lines[-1])
        tripped = code == 1 and not result["correct"] and result["failed"] > 0
        ok &= tripped
        print(f"{workload}: injected fault {'trips the gate' if tripped else 'WAS MISSED'}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
