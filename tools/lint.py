#!/usr/bin/env python3
"""Project lint pass: Harmony-specific rules plus an optional clang-tidy run.

Project rules (always run, no dependencies beyond the stdlib):

  nondeterminism   The simulator and scheduler must be bit-reproducible, so
                   `rand()`, `srand()`, `time(...)`-seeding, std::random_device,
                   and unseeded std::mt19937 engines are banned in the
                   deterministic directories (src/sim, src/harmony, src/exp,
                   src/baselines, src/common). Randomness flows through
                   common::Rng with an explicit seed. In src/sim, src/harmony,
                   src/exp and src/baselines the wall clocks
                   (std::chrono::system_clock / steady_clock /
                   high_resolution_clock) are banned too — wall-clock reads
                   are as reproducibility-hostile as time(NULL) seeding, and
                   only the obs wall-clock domain (src/obs, src/common
                   logging) should touch them. Escape hatch for legitimate
                   wall-time measurement: `// lint: allow-nondeterminism`.
  naked-new        No naked `new` / `delete`: ownership lives in containers and
                   smart pointers. The two observability leaky singletons are
                   exempted with a `// lint: allow-naked-new` marker.
  header-hygiene   Every header starts with `#pragma once`; headers never say
                   `using namespace` at file scope; no `#include "../..."`
                   parent-relative includes anywhere (include paths are rooted
                   at src/).
  lock-discipline  All locking goes through the capability-annotated wrappers
                   in src/common/sync.h (common::Mutex / MutexLock / CondVar),
                   so clang Thread Safety Analysis sees every acquisition.
                   Raw std::mutex, std::lock_guard, std::unique_lock,
                   std::scoped_lock, std::condition_variable and their
                   <mutex>/<condition_variable>/<shared_mutex> includes are
                   banned outside sync.h itself. Escape hatch:
                   `// lint: allow-raw-mutex` with a justification.
  layering         src/ modules must respect the dependency DAG below
                   (ALLOWED_DEPS): e.g. src/common depends on nothing,
                   src/obs only on common, and nothing outside src/exp may
                   include src/exp or src/obs/analysis. Enforced by parsing
                   `#include "..."` lines; tools/tests are exempt (they may
                   reach any module).
  event-payload    DES event callbacks live in the simulator's event slots
                   as SmallFn payloads (src/sim/small_fn.h); a std::function
                   in the sim or exp layer reintroduces the per-event heap
                   allocation SmallFn exists to remove, so naming
                   std::function (or including <functional>) there is
                   banned. Escape hatch for genuinely cold paths:
                   `// lint: allow-std-function` with a justification.
  read-only-analysis
                   src/obs/analysis is a pure interpretation layer: it derives
                   reports from trace/metrics snapshots and must never touch
                   the live observability state. Referencing the Tracer or
                   MetricsRegistry singletons (or their mutators) from
                   analysis code is banned, so running an analysis can never
                   perturb the measurement it analyzes.
  detlint-escape   Hygiene for tools/detlint.py escape comments: every
                   `// detlint: <name>(<reason>)` in the deterministic
                   directories must use a known escape name (the canonical
                   list lives in tools/detlint.py) and carry a non-empty
                   reason — a bare or empty escape would not suppress the
                   detlint finding anyway, so it is flagged here where the
                   typo is visible. Mirrors the allow-raw-mutex convention.

clang-tidy (best effort): when a compile_commands.json is available (pass
--build-dir, or let the script probe build*/), and a clang-tidy binary exists,
the checks from .clang-tidy run over the project sources. Missing clang-tidy
degrades to a note, not a failure, so the script works in minimal containers.

When $GITHUB_STEP_SUMMARY is set (GitHub Actions), a per-rule finding-count
table is appended to the job summary so new rules are visible in PR checks.

Exit status: 0 = clean, 1 = findings, 2 = usage error.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import re
import shutil
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Directories whose code must be deterministic (simulation + scheduling core).
DETERMINISTIC_DIRS = ("src/sim", "src/harmony", "src/exp", "src/baselines", "src/common",
                      "src/svc")
# Directories where even reading a wall clock is banned (src/common is spared:
# logging timestamps live there, and they never feed back into simulation).
# src/svc measures decision latency off a wall clock, but only at the one
# marked choke point (its report never feeds simulated time). The live
# telemetry layer (timeseries/slo/flight_recorder) is sim-clocked by design:
# every window and alert timestamp comes from the caller, so the byte-
# deterministic JSONL contract can't be broken by a stray clock read. The
# tracer's wall domain (src/obs/trace.*) stays exempt.
CLOCK_BANNED_DIRS = ("src/sim", "src/harmony", "src/exp", "src/baselines", "src/svc",
                     "src/obs/timeseries", "src/obs/slo", "src/obs/flight_recorder")
# All directories subject to the generic rules.
SOURCE_DIRS = ("src", "tools", "tests")
SOURCE_EXTS = (".h", ".cpp")

# The one file allowed to name std:: synchronization primitives: it wraps them.
SYNC_HEADER = "src/common/sync.h"

ALLOW_NAKED_NEW = "lint: allow-naked-new"
ALLOW_NONDET = "lint: allow-nondeterminism"
ALLOW_RAW_MUTEX = "lint: allow-raw-mutex"
ALLOW_STD_FUNCTION = "lint: allow-std-function"
ALLOW_SIGNAL = "lint: allow-signal-handler"

# Directories where event payloads are hot: std::function's type-erased heap
# state is banned in favor of sim::SmallFn.
EVENT_PAYLOAD_DIRS = ("src/sim", "src/exp")

RULE_NAMES = ("nondeterminism", "naked-new", "header-hygiene", "lock-discipline",
              "layering", "read-only-analysis", "event-payload", "detlint-escape",
              "signal-handling")

# Signal handling is process-global state: one stray handler can shadow the
# flight recorder's crash hook or swallow a CI-visible abort. The APIs are
# confined to the flight-recorder dump path; anywhere else needs the marked
# escape with a justification (tools/harmony_sim.cpp installs the handlers).
SIGNAL_PATTERNS = [
    (re.compile(r"(?<![\w:.])(?:std::)?(?:signal|raise|sigaction)\s*\("),
     "signal-handling API outside the flight-recorder dump path"),
    (re.compile(r"#\s*include\s*<(?:csignal|signal\.h)>"),
     "<csignal>/<signal.h> outside the flight-recorder dump path"),
]
SIGNAL_EXEMPT_FILES = ("src/obs/flight_recorder.h", "src/obs/flight_recorder.cpp")

# tools/detlint.py's escape-comment names, one per rule family (in the order
# of its RULE_NAMES). detlint imports them from here, with
# DETERMINISTIC_DIRS and find_compile_commands; this module imports nothing
# from detlint.
DETLINT_ESCAPE_NAMES = ("sorted-iteration", "pointer-order", "uninit-member",
                        "seeded-random")
DETLINT_ESCAPE_RE = re.compile(r"//\s*detlint:\s*([A-Za-z0-9_-]+)\s*(?:\(([^)]*)\))?")

NONDET_PATTERNS = [
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand() is banned; use common::Rng with an explicit seed"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"), "wall-clock seeding is banned; seeds must be explicit"),
    (re.compile(r"std::random_device"), "std::random_device breaks reproducibility; use a fixed seed"),
    (re.compile(r"std::mt19937(?:_64)?\s+\w+\s*;"), "unseeded std::mt19937 engine; construct with an explicit seed"),
]

# Matches the wall-clock types themselves (not just ::now() calls) so that
# `using Clock = std::chrono::steady_clock;` aliases are caught at the one
# choke point where the marker + justification belongs.
CLOCK_PATTERN = re.compile(r"\b(?:std::chrono::)?(?:system_clock|steady_clock|high_resolution_clock)\b")

RAW_SYNC_PATTERNS = [
    (re.compile(r"std::(?:recursive_|timed_|shared_)?mutex\b"),
     "raw std::mutex; use common::Mutex from common/sync.h"),
    (re.compile(r"std::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"),
     "raw std:: lock holder; use common::MutexLock from common/sync.h"),
    (re.compile(r"std::condition_variable(?:_any)?\b"),
     "raw std::condition_variable; use common::CondVar from common/sync.h"),
    (re.compile(r"#\s*include\s*<(?:mutex|condition_variable|shared_mutex)>"),
     "include common/sync.h instead of the raw <mutex>/<condition_variable> headers"),
]

# --- layering: the module dependency DAG ------------------------------------
# Key: module (directory under src/, with obs/analysis split out). Value: the
# modules its files may #include, besides itself. Keep edges pointing DOWN the
# stack; in particular nothing outside exp-level code may include src/exp, and
# only tools/tests/bench may consume src/obs/analysis. Extending the table is
# the intended way to admit a genuinely new dependency — do it consciously.
ALLOWED_DEPS = {
    "common": set(),
    "ml": {"common"},
    "obs": {"common"},
    "check": {"common", "obs"},
    "cluster": {"common"},
    "sim": {"common", "check", "obs"},
    "ps": {"common", "check", "ml", "obs"},
    "harmony": {"common", "check", "cluster", "ml", "obs", "ps"},
    "baselines": {"common", "check", "cluster", "ml", "obs", "ps", "harmony"},
    "obs/analysis": {"common", "obs"},
    "exp": {"common", "check", "cluster", "ml", "obs", "sim", "ps", "harmony", "baselines"},
    "svc": {"common", "check", "cluster", "ml", "obs", "sim", "ps", "harmony", "baselines",
            "exp"},
}

INCLUDE_RE = re.compile(r'#\s*include\s+"([^"]+)"')


def module_of(src_rel_path: str) -> str:
    """Maps a src/-rooted path ("obs/analysis/report.h") to its module."""
    if src_rel_path.startswith("obs/analysis/") or src_rel_path == "obs/analysis":
        return "obs/analysis"
    return src_rel_path.split("/", 1)[0]


def strip_comments_and_strings(line: str) -> str:
    """Removes // comments and the contents of string/char literals.

    Good enough for line-oriented lint rules; block comments are handled by
    the caller tracking state across lines.
    """
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and line[i] != quote:
                i += 2 if line[i] == "\\" else 1
            out.append(quote)
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def project_files(root: str):
    for top in SOURCE_DIRS:
        subdir = os.path.join(root, top)
        for dirpath, _dirnames, filenames in os.walk(subdir):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    yield os.path.join(dirpath, name)


class Findings:
    def __init__(self):
        self.items: list[str] = []
        self.by_rule = collections.Counter({rule: 0 for rule in RULE_NAMES})

    def add(self, root: str, path: str, line_no: int, rule: str, message: str):
        rel = os.path.relpath(path, root)
        self.items.append(f"{rel}:{line_no}: [{rule}] {message}")
        self.by_rule[rule] += 1


def lint_file(root: str, path: str, findings: Findings):
    rel = os.path.relpath(path, root).replace(os.sep, "/")
    is_header = path.endswith(".h")
    in_deterministic = rel.startswith(DETERMINISTIC_DIRS) or rel.startswith("tools")
    clock_banned = rel.startswith(CLOCK_BANNED_DIRS)
    check_locks = rel != SYNC_HEADER
    in_src = rel.startswith("src/")
    file_module = module_of(rel[len("src/"):]) if in_src else None
    analysis_dir = rel.startswith("src/obs/analysis")
    analysis_banned = re.compile(r"Tracer\s*::|MetricsRegistry|set_enabled\s*\(")

    with open(path, encoding="utf-8") as f:
        raw_lines = f.read().splitlines()

    in_block_comment = False
    saw_pragma_once = False
    for line_no, raw in enumerate(raw_lines, start=1):
        # Track /* ... */ state so commented-out code is never flagged.
        line = raw
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2 :]
            in_block_comment = False
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block_comment = True
                break
            line = line[:start] + line[end + 2 :]

        # Escape comments are comment-only content, so this rule must run
        # before the blank-code fast path below skips the line.
        if in_deterministic:
            for m in DETLINT_ESCAPE_RE.finditer(line):
                name, reason = m.group(1), m.group(2)
                if name not in DETLINT_ESCAPE_NAMES:
                    findings.add(root, path, line_no, "detlint-escape",
                                 f"unknown detlint escape '{name}'; known names: "
                                 + ", ".join(DETLINT_ESCAPE_NAMES))
                elif reason is None or not reason.strip():
                    findings.add(root, path, line_no, "detlint-escape",
                                 f"detlint escape '{name}' must carry a non-empty "
                                 f"reason: `// detlint: {name}(<why>)`")

        code = strip_comments_and_strings(line)
        if not code.strip():
            if "#pragma once" in raw:
                saw_pragma_once = True
            continue

        if "#pragma once" in code:
            saw_pragma_once = True

        # Include-path rules match against `line` (pre string-stripping): the
        # path itself is a string literal and would otherwise be blanked.
        if re.search(r'#\s*include\s+"\.\./', line):
            findings.add(root, path, line_no, "header-hygiene",
                         'parent-relative #include "../..."; include paths are rooted at src/')

        if is_header and re.match(r"^\s*using\s+namespace\s+\w", code):
            findings.add(root, path, line_no, "header-hygiene",
                         "`using namespace` in a header leaks into every includer")

        if ALLOW_NAKED_NEW not in raw:
            if re.search(r"(?<![\w.])new\s+[A-Za-z_(]", code) or \
               re.search(r"(?<![\w.])delete(\s*\[\s*\])?\s+[A-Za-z_*(]", code):
                findings.add(root, path, line_no, "naked-new",
                             "naked new/delete; use containers or smart pointers"
                             f" (or mark the line `// {ALLOW_NAKED_NEW}`)")

        if in_deterministic and ALLOW_NONDET not in raw:
            for pattern, message in NONDET_PATTERNS:
                if pattern.search(code):
                    findings.add(root, path, line_no, "nondeterminism", message)

        if clock_banned and ALLOW_NONDET not in raw and CLOCK_PATTERN.search(code):
            findings.add(root, path, line_no, "nondeterminism",
                         "wall-clock type in deterministic code; only the obs "
                         "wall-clock domain reads real time (or mark the line "
                         f"`// {ALLOW_NONDET}` with a justification)")

        if rel.startswith(EVENT_PAYLOAD_DIRS) and ALLOW_STD_FUNCTION not in raw:
            if re.search(r"std::function\b", code) or \
               re.search(r"#\s*include\s*<functional>", line):
                findings.add(root, path, line_no, "event-payload",
                             "std::function heap-allocates per event; use sim::SmallFn "
                             "(or mark the line "
                             f"`// {ALLOW_STD_FUNCTION}` with a justification)")

        if check_locks and ALLOW_RAW_MUTEX not in raw:
            for pattern, message in RAW_SYNC_PATTERNS:
                if pattern.search(code):
                    findings.add(root, path, line_no, "lock-discipline",
                                 f"{message} (or mark the line `// {ALLOW_RAW_MUTEX}`)")

        if rel not in SIGNAL_EXEMPT_FILES and ALLOW_SIGNAL not in raw:
            for pattern, message in SIGNAL_PATTERNS:
                if pattern.search(code):
                    findings.add(root, path, line_no, "signal-handling",
                                 f"{message}; route crash capture through "
                                 "obs::FlightRecorder (or mark the line "
                                 f"`// {ALLOW_SIGNAL}` with a justification)")
                    break

        if in_src:
            m = INCLUDE_RE.search(line)
            if m:
                dep_module = module_of(m.group(1))
                if dep_module != file_module:
                    allowed = ALLOWED_DEPS.get(file_module)
                    if allowed is None:
                        findings.add(root, path, line_no, "layering",
                                     f"module '{file_module}' is not in the layering "
                                     "table; register it in ALLOWED_DEPS (tools/lint.py)")
                    elif dep_module not in allowed:
                        findings.add(root, path, line_no, "layering",
                                     f"forbidden dependency {file_module} -> {dep_module}; "
                                     "the module DAG (ALLOWED_DEPS in tools/lint.py) "
                                     "does not have this edge")

        if analysis_dir and analysis_banned.search(code):
            findings.add(root, path, line_no, "read-only-analysis",
                         "analysis code must not touch the live Tracer/"
                         "MetricsRegistry; it only consumes snapshots")

    if is_header and not saw_pragma_once:
        findings.add(root, path, 1, "header-hygiene", "header is missing #pragma once")


def find_compile_commands(build_dir: str | None) -> str | None:
    candidates = [build_dir] if build_dir else ["build", "build-asan", "build-tsan"]
    for cand in candidates:
        if not cand:
            continue
        path = os.path.join(REPO, cand, "compile_commands.json") if not os.path.isabs(cand) \
            else os.path.join(cand, "compile_commands.json")
        if os.path.isfile(path):
            return path
    return None


def run_clang_tidy(compile_commands: str, jobs: int) -> int:
    """Runs clang-tidy over every project .cpp in the compilation database.

    Returns the number of files with findings.
    """
    tidy = shutil.which("clang-tidy")
    if not tidy:
        print("lint: note: clang-tidy not found on PATH; skipping the clang-tidy pass")
        return 0
    with open(compile_commands, encoding="utf-8") as f:
        entries = json.load(f)
    files = sorted({
        e["file"] for e in entries
        if e["file"].startswith(os.path.join(REPO, "src") + os.sep)
        or e["file"].startswith(os.path.join(REPO, "tools") + os.sep)
    })
    if not files:
        print("lint: note: no project sources in the compilation database")
        return 0
    build_path = os.path.dirname(compile_commands)
    print(f"lint: clang-tidy ({tidy}) over {len(files)} files ...")
    failed = 0
    # Batch to keep process count sane without pulling in run-clang-tidy.
    batch = max(1, len(files) // max(jobs, 1) + 1)
    procs = []
    for i in range(0, len(files), batch):
        procs.append(subprocess.Popen(
            [tidy, "-p", build_path, "--quiet", *files[i : i + batch]],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True))
    for proc in procs:
        out, _ = proc.communicate()
        if proc.returncode != 0 or "warning:" in out or "error:" in out:
            failed += 1
            sys.stdout.write(out)
    return failed


def write_github_summary(findings: Findings, file_count: int):
    """Appends a per-rule finding table to the GitHub Actions job summary."""
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary_path:
        return
    lines = ["### Lint", "", f"Project rules over {file_count} files.", "",
             "| rule | findings |", "| --- | ---: |"]
    for rule in RULE_NAMES:
        lines.append(f"| `{rule}` | {findings.by_rule[rule]} |")
    lines.append(f"| **total** | **{len(findings.items)}** |")
    lines.append("")
    with open(summary_path, "a", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", help="build tree holding compile_commands.json")
    parser.add_argument("--no-clang-tidy", action="store_true",
                        help="run only the project rules")
    parser.add_argument("--root", default=REPO,
                        help="repo root to lint (default: this checkout; the "
                             "lint self-test points this at fixture trees)")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    args = parser.parse_args()

    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print(f"lint: error: --root {root} is not a directory")
        return 2

    findings = Findings()
    count = 0
    for path in project_files(root):
        count += 1
        lint_file(root, path, findings)
    print(f"lint: project rules over {count} files: {len(findings.items)} finding(s)")
    for item in findings.items:
        print(f"  {item}")
    print("lint: rule counts: " +
          " ".join(f"{rule}={findings.by_rule[rule]}" for rule in RULE_NAMES))
    write_github_summary(findings, count)

    tidy_failures = 0
    if not args.no_clang_tidy:
        compile_commands = find_compile_commands(args.build_dir)
        if compile_commands:
            tidy_failures = run_clang_tidy(compile_commands, args.jobs)
        else:
            print("lint: note: no compile_commands.json found "
                  "(configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON); "
                  "skipping the clang-tidy pass")

    if findings.items or tidy_failures:
        print("lint: FAILED")
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
