#!/usr/bin/env python3
"""Self-test for tools/lint.py.

Each lint rule is exercised both ways: a fixture tree that violates it (the
lint must report the rule and exit 1) and a minimal clean/escaped variant (the
lint must exit 0). Fixture trees are built in a tempdir and pointed at via
--root, so the test never depends on — or mutates — the real checkout.

Registered in ctest as `test_lint`; any exception or failed assert fails the
test. Run directly: python3 tests/test_lint.py
"""

import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT = os.path.join(REPO, "tools", "lint.py")

HEADER = "#pragma once\n"


def run_lint(tree, extra_env=None):
    """Materializes {relpath: content} in a tempdir and lints it."""
    with tempfile.TemporaryDirectory(prefix="lint_selftest_") as root:
        for rel, content in tree.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)
        env = dict(os.environ)
        env.pop("GITHUB_STEP_SUMMARY", None)
        if extra_env:
            env.update(extra_env)
        proc = subprocess.run(
            [sys.executable, LINT, "--root", root, "--no-clang-tidy"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
        return proc.returncode, proc.stdout


class LintSelfTest(unittest.TestCase):
    def assert_finding(self, tree, rule, fragment=None):
        rc, out = run_lint(tree)
        self.assertEqual(rc, 1, f"expected findings, got clean:\n{out}")
        self.assertIn(f"[{rule}]", out, out)
        if fragment:
            self.assertIn(fragment, out, out)

    def assert_clean(self, tree):
        rc, out = run_lint(tree)
        self.assertEqual(rc, 0, f"expected clean, got findings:\n{out}")
        self.assertIn("lint: clean", out, out)

    # --- lock-discipline --------------------------------------------------

    def test_raw_mutex_banned(self):
        self.assert_finding(
            {"src/harmony/queue.h": HEADER + "#include <mutex>\nstd::mutex mu;\n"},
            "lock-discipline", "common/sync.h")

    def test_raw_lock_holder_banned(self):
        self.assert_finding(
            {"src/obs/reg.cpp": "void f() { std::lock_guard<std::mutex> l(mu); }\n"},
            "lock-discipline")

    def test_raw_condvar_banned_in_tests_too(self):
        self.assert_finding(
            {"tests/test_x.cpp": "std::condition_variable cv;\n"},
            "lock-discipline")

    def test_raw_mutex_marker_escapes(self):
        self.assert_clean(
            {"src/harmony/queue.h":
             HEADER + "std::mutex mu;  // lint: allow-raw-mutex interop with pthread API\n"})

    def test_sync_header_is_exempt(self):
        self.assert_clean(
            {"src/common/sync.h":
             HEADER + "#include <mutex>\n#include <condition_variable>\n"
             "std::mutex raw;\nstd::condition_variable cv;\n"})

    def test_commented_mutex_not_flagged(self):
        self.assert_clean(
            {"src/harmony/queue.h": HEADER + "// used to be a std::mutex here\n"})

    # --- layering ---------------------------------------------------------

    def test_upward_dependency_banned(self):
        self.assert_finding(
            {"src/common/bad.h": HEADER + '#include "harmony/runtime.h"\n'},
            "layering", "common -> harmony")

    def test_obs_cannot_reach_ps(self):
        self.assert_finding(
            {"src/obs/peek.cpp": '#include "ps/server.h"\n'},
            "layering", "obs -> ps")

    def test_analysis_is_leaf(self):
        self.assert_finding(
            {"src/sim/engine.cpp": '#include "obs/analysis/report.h"\n'},
            "layering", "sim -> obs/analysis")

    def test_allowed_edges_pass(self):
        self.assert_clean({
            "src/harmony/sched.cpp":
                '#include "common/sync.h"\n#include "ps/server.h"\n',
            "src/obs/analysis/report.cpp": '#include "obs/trace.h"\n',
            "src/exp/run.cpp": '#include "baselines/fifo.h"\n',
        })

    def test_self_includes_always_allowed(self):
        self.assert_clean(
            {"src/common/a.cpp": '#include "common/b.h"\n',
             "src/common/b.h": HEADER})

    def test_unknown_module_must_register(self):
        self.assert_finding(
            {"src/newmod/a.cpp": '#include "common/b.h"\n'},
            "layering", "ALLOWED_DEPS")

    def test_tools_and_tests_exempt_from_layering(self):
        self.assert_clean(
            {"tools/probe.cpp": '#include "exp/cluster_sim.h"\n',
             "tests/test_y.cpp": '#include "obs/analysis/report.h"\n'})

    def test_svc_sits_above_exp(self):
        self.assert_clean(
            {"src/svc/service.cpp":
                '#include "exp/arrivals.h"\n#include "harmony/incremental.h"\n'
                '#include "sim/simulator.h"\n'})

    def test_nothing_below_svc_may_reach_it(self):
        self.assert_finding(
            {"src/exp/run.cpp": '#include "svc/service.h"\n'},
            "layering", "exp -> svc")
        self.assert_finding(
            {"src/harmony/sched.cpp": '#include "svc/admission.h"\n'},
            "layering", "harmony -> svc")

    def test_svc_is_wall_clock_banned(self):
        self.assert_finding(
            {"src/svc/lat.cpp": "auto t = std::chrono::steady_clock::now();\n"},
            "nondeterminism")
        self.assert_clean(
            {"src/svc/lat.cpp":
             "using WallClock = std::chrono::steady_clock;"
             "  // lint: allow-nondeterminism latency metrics only\n"})

    def test_new_obs_telemetry_files_are_wall_clock_banned(self):
        self.assert_finding(
            {"src/obs/timeseries.cpp":
             "auto t = std::chrono::steady_clock::now();\n"},
            "nondeterminism")
        self.assert_finding(
            {"src/obs/slo.cpp": "using C = std::chrono::system_clock;\n"},
            "nondeterminism")
        # The tracer's wall domain stays exempt (covered above too).
        self.assert_clean(
            {"src/obs/trace.cpp": "auto t = std::chrono::steady_clock::now();\n"})

    # --- signal-handling --------------------------------------------------

    def test_signal_api_banned(self):
        self.assert_finding(
            {"src/exp/run.cpp": "#include <csignal>\nvoid f() { std::signal(6, h); }\n"},
            "signal-handling", "FlightRecorder")

    def test_sigaction_banned_in_tools(self):
        self.assert_finding(
            {"tools/probe.cpp": "void f() { sigaction(11, &sa, nullptr); }\n"},
            "signal-handling")

    def test_signal_marker_escapes(self):
        self.assert_clean(
            {"tools/probe.cpp":
             "#include <csignal>  // lint: allow-signal-handler crash hook\n"
             "void f() { std::raise(6); }  // lint: allow-signal-handler re-raise\n"})

    def test_flight_recorder_exempt_from_signal_rule(self):
        self.assert_clean(
            {"src/obs/flight_recorder.cpp":
             "void f() { std::signal(6, h); }\n"})

    def test_signal_like_identifiers_not_flagged(self):
        self.assert_clean(
            {"src/sim/engine.cpp":
             "void fatal_signal_handler(int);\nint raise_count = bus.signal_count();\n"})

    # --- nondeterminism ---------------------------------------------------

    def test_wall_clock_banned_in_sim(self):
        self.assert_finding(
            {"src/sim/engine.cpp":
             "auto t = std::chrono::steady_clock::now();\n"},
            "nondeterminism", "wall-clock")

    def test_clock_alias_caught(self):
        self.assert_finding(
            {"src/exp/run.cpp": "using Clock = std::chrono::system_clock;\n"},
            "nondeterminism")

    def test_wall_clock_marker_escapes(self):
        self.assert_clean(
            {"src/exp/run.cpp":
             "using WallClock = std::chrono::steady_clock;"
             "  // lint: allow-nondeterminism solver wall cost\n"})

    def test_wall_clock_fine_outside_banned_dirs(self):
        self.assert_clean(
            {"src/obs/trace.cpp": "auto t = std::chrono::steady_clock::now();\n",
             "src/common/logging.cpp": "auto t = std::chrono::system_clock::now();\n"})

    def test_rand_banned(self):
        self.assert_finding(
            {"src/harmony/pick.cpp": "int r = rand();\n"},
            "nondeterminism", "common::Rng")

    # --- detlint-escape -----------------------------------------------------

    def test_detlint_escape_empty_reason_flagged(self):
        self.assert_finding(
            {"src/sim/walk.cpp": "// detlint: sorted-iteration()\nint x = 0;\n"},
            "detlint-escape", "non-empty")

    def test_detlint_escape_bare_name_flagged(self):
        self.assert_finding(
            {"src/harmony/walk.cpp": "// detlint: seeded-random\nint x = 0;\n"},
            "detlint-escape", "non-empty")

    def test_detlint_escape_unknown_name_flagged(self):
        self.assert_finding(
            {"src/sim/walk.cpp":
             "// detlint: hash-walk(reads are commutative)\nint x = 0;\n"},
            "detlint-escape", "unknown detlint escape 'hash-walk'")

    def test_detlint_escape_with_reason_passes(self):
        self.assert_clean(
            {"src/sim/walk.cpp":
             "// detlint: sorted-iteration(sum of integers is order-insensitive)\n"
             "int x = 0;\n"})

    def test_detlint_escape_ignored_outside_deterministic_dirs(self):
        self.assert_clean(
            {"tests/fixture.cpp": "// detlint: bogus-name()\nint x = 0;\n"})

    # --- pre-existing rules still wired -----------------------------------

    def test_naked_new_banned(self):
        self.assert_finding(
            {"src/sim/leak.cpp": "int* p = new int(3);\n"}, "naked-new")

    def test_missing_pragma_once(self):
        self.assert_finding(
            {"src/common/loose.h": "struct X {};\n"}, "header-hygiene")

    def test_read_only_analysis(self):
        self.assert_finding(
            {"src/obs/analysis/bad.cpp":
             '#include "obs/metrics.h"\n'
             "void f() { harmony::obs::MetricsRegistry::instance(); }\n"},
            "read-only-analysis")

    # --- event-payload ----------------------------------------------------

    def test_std_function_banned_in_sim(self):
        self.assert_finding(
            {"src/sim/bad.h": HEADER + "#include <functional>\n"
             "std::function<void()> cb;\n"},
            "event-payload", "SmallFn")

    def test_std_function_banned_in_exp(self):
        self.assert_finding(
            {"src/exp/bad.cpp": "std::function<double(int)> f;\n"},
            "event-payload")

    def test_std_function_marker_escapes(self):
        self.assert_clean(
            {"src/sim/cold.h": HEADER +
             "#include <functional>  // lint: allow-std-function: config-time hook\n"
             "std::function<void()> on_setup;  // lint: allow-std-function: cold path\n"})

    def test_std_function_fine_outside_event_dirs(self):
        self.assert_clean(
            {"src/harmony/hook.cpp": "std::function<void()> cb;\n"})

    def test_commented_std_function_not_flagged(self):
        self.assert_clean(
            {"src/sim/doc.cpp": "// replaces std::function in the hot path\nint x;\n"})

    # --- simd-portability -------------------------------------------------

    def test_intrinsics_header_banned_in_src(self):
        self.assert_finding(
            {"src/harmony/kernel.cpp": "#include <immintrin.h>\nint x;\n"},
            "simd-portability", "vector extensions")

    def test_every_isa_header_banned_in_src(self):
        for header in ("x86intrin.h", "emmintrin.h", "arm_neon.h"):
            self.assert_finding(
                {"src/common/fast.h": HEADER + f"#include <{header}>\n"},
                "simd-portability", header)

    def test_intrinsics_headers_fine_in_tests_and_bench(self):
        self.assert_clean(
            {"tests/test_kernel.cpp": "#include <immintrin.h>\nint x;\n",
             "bench/bench_kernel.cpp": "#include <arm_neon.h>\nint y;\n"})

    def test_vector_extensions_and_commented_include_pass(self):
        self.assert_clean(
            {"src/harmony/kernel.cpp":
             "// not <immintrin.h>: GCC/Clang vector extensions\n"
             "typedef double F64x2 __attribute__((vector_size(16)));\n"})

    # --- reporting --------------------------------------------------------

    def test_rule_counts_line(self):
        rc, out = run_lint(
            {"src/sim/a.cpp": "int r = rand();\n",
             "src/common/b.h": "struct X {};\n"})
        self.assertEqual(rc, 1)
        self.assertIn("nondeterminism=1", out, out)
        self.assertIn("header-hygiene=1", out, out)
        self.assertIn("lock-discipline=0", out, out)

    def test_github_step_summary(self):
        with tempfile.NamedTemporaryFile("r", suffix=".md", delete=False) as f:
            summary_path = f.name
        try:
            with tempfile.TemporaryDirectory(prefix="lint_selftest_") as root:
                path = os.path.join(root, "src", "sim", "a.cpp")
                os.makedirs(os.path.dirname(path))
                with open(path, "w", encoding="utf-8") as src:
                    src.write("int r = rand();\n")
                env = dict(os.environ, GITHUB_STEP_SUMMARY=summary_path)
                subprocess.run(
                    [sys.executable, LINT, "--root", root, "--no-clang-tidy"],
                    stdout=subprocess.DEVNULL, env=env, check=False)
            with open(summary_path, encoding="utf-8") as s:
                summary = s.read()
            self.assertIn("| `nondeterminism` | 1 |", summary, summary)
            self.assertIn("| **total** | **1** |", summary, summary)
        finally:
            os.unlink(summary_path)

    def test_real_checkout_is_clean(self):
        proc = subprocess.run(
            [sys.executable, LINT, "--root", REPO, "--no-clang-tidy"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        self.assertEqual(proc.returncode, 0,
                         f"lint must stay clean on the checkout:\n{proc.stdout}")


if __name__ == "__main__":
    unittest.main(verbosity=2)
