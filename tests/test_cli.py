#!/usr/bin/env python3
"""CLI contract test for harmony-sim.

Pins the help/usage surface (every documented mode and flag family appears in
--help, including the service-mode flags) and the error discipline: unknown
options, unknown enum values, and mode-invalid combinations must exit 2 with a
message that *names* the offending input, never a bare usage dump. Also smokes
the service mode itself: two same-seed runs must produce byte-identical
stdout (the deterministic report; wall-clock stats go to stderr).

Registered in ctest as `test_cli` with the binary path as argv[1].
Run directly: python3 tests/test_cli.py /path/to/harmony-sim
"""

import hashlib
import os
import subprocess
import sys
import tempfile
import unittest

BINARY = None


def run(*args):
    return subprocess.run([BINARY, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=120)


def strip_wall_line(stdout):
    # The `scheduler calls ... (X ms wall)` line reads a wall clock.
    return "".join(line for line in stdout.splitlines(keepends=True)
                   if "scheduler calls" not in line)


class CliTest(unittest.TestCase):
    def test_help_documents_all_modes(self):
        proc = run("--help")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        for flag in ("--policy", "--jobs", "--machines", "--arrival", "--seed",
                     "--validate", "--metrics",
                     # service mode
                     "--service", "--duration", "--arrival-rate", "--admission",
                     "--queue-cap", "--drift",
                     # telemetry family
                     "--telemetry-out", "--telemetry-interval", "--prom-out",
                     "--slo", "--flight-recorder"):
            self.assertIn(flag, proc.stdout, f"--help must document {flag}")
        self.assertIn("fifo|sjf", proc.stdout)

    def assert_named_error(self, fragment, *args):
        proc = run(*args)
        self.assertEqual(proc.returncode, 2,
                         f"expected usage error for {args}: {proc.stdout}")
        self.assertIn(fragment, proc.stderr,
                      f"error for {args} must name the input:\n{proc.stderr}")
        self.assertIn("usage:", proc.stderr)

    def test_unknown_option_is_named(self):
        self.assert_named_error("--frobnicate", "--frobnicate")

    def test_unknown_enum_values_are_named(self):
        self.assert_named_error("bogus", "--policy", "bogus")
        self.assert_named_error("wheel", "--service", "--admission", "wheel")
        self.assert_named_error("uniform", "--arrival", "uniform:3")

    def test_removed_event_queue_flag_is_rejected(self):
        # The simulator has one event queue; a script that still selects one
        # must fail loudly instead of running.
        self.assert_named_error("--event-queue", "--event-queue", "heap")

    def test_missing_value_is_named(self):
        self.assert_named_error("--machines", "--machines")

    def test_service_rejects_batch_arrivals(self):
        self.assert_named_error("batch", "--service", "--arrival", "batch")

    def test_service_runs_are_bit_identical(self):
        args = ("--service", "--duration", "1200", "--arrival-rate", "0.2",
                "--machines", "80", "--seed", "5")
        first = run(*args)
        second = run(*args, "--validate")  # validators must not perturb stdout
        self.assertEqual(first.returncode, 0, first.stderr)
        self.assertEqual(second.returncode, 0, second.stderr)
        self.assertEqual(first.stdout, second.stdout)
        self.assertIn("service report (harmony-svc-v1)", first.stdout)
        self.assertIn("scheduling events", first.stdout)
        # Wall-clock stats are stderr-only: nondeterministic surface.
        self.assertIn("events/s", second.stderr)
        self.assertNotIn("events/s", first.stdout)

    def test_validated_service_above_default_slack_is_clean(self):
        # A drift threshold above the validator's default slack (0.35): the
        # service derives a wider slack itself, so the equivalence validator
        # runs clean and stays a pure observer.
        args = ("--service", "--duration", "1200", "--arrival-rate", "0.2",
                "--drift", "0.5")
        plain = run(*args)
        validated = run(*args, "--validate")
        self.assertEqual(plain.returncode, 0, plain.stderr)
        self.assertEqual(validated.returncode, 0, validated.stderr)
        self.assertIn("all invariants clean", validated.stderr)
        self.assertEqual(plain.stdout, validated.stdout)

    def test_bad_slo_spec_is_named(self):
        self.assert_named_error("not-a-slo", "--service", "--slo", "not-a-slo=1")
        self.assert_named_error("'abc'",
                                "--service", "--slo", "queue-delay-p99=abc")

    def test_telemetry_flags_require_service_mode(self):
        self.assert_named_error("--telemetry-out", "--telemetry-out", "t.jsonl")
        self.assert_named_error("--slo", "--slo", "queue-delay-p99=120")

    def test_telemetry_interval_must_be_positive(self):
        self.assert_named_error("--telemetry-interval", "--service",
                                "--telemetry-interval", "0")

    def test_telemetry_files_are_bit_identical_across_runs(self):
        with tempfile.TemporaryDirectory() as tmp:
            outs = []
            for name, extra in (("a", ()), ("b", ()), ("v", ("--validate",))):
                tel = os.path.join(tmp, f"tel-{name}.jsonl")
                prom = os.path.join(tmp, f"prom-{name}.txt")
                proc = run("--service", "--duration", "1200", "--arrival-rate",
                           "0.2", "--machines", "80", "--seed", "5",
                           "--telemetry-out", tel, "--prom-out", prom,
                           "--slo", "queue-delay-p99=120", *extra)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                with open(tel) as f:
                    jsonl = f.read()
                with open(prom) as f:
                    promtext = f.read()
                outs.append((jsonl, promtext, proc.stdout))
            # Rerun and validators-on must both be byte-identical.
            self.assertEqual(outs[0], outs[1])
            self.assertEqual(outs[0], outs[2])
            self.assertIn('"schema":"harmony-telemetry-v1"', outs[0][0])
            self.assertIn("# TYPE harmony_svc_arrivals_total counter",
                          outs[0][1])
            self.assertIn("telemetry windows", outs[0][2])
            self.assertIn("queue-delay-p99", outs[0][2])

    def test_naive_policy_keeps_error_injection(self):
        # Both baseline presets carry --error over: the injected profile
        # error must change a naive run just as it changes an isolated one.
        for policy in ("isolated", "naive"):
            args = ("--policy", policy, "--jobs", "40", "--machines", "40")
            exact = run(*args)
            skewed = run(*args, "--error", "0.2")
            self.assertEqual(exact.returncode, 0, exact.stderr)
            self.assertEqual(skewed.returncode, 0, skewed.stderr)
            self.assertNotEqual(strip_wall_line(exact.stdout),
                                strip_wall_line(skewed.stdout),
                                f"--policy {policy} ignored --error 0.2")

    def test_trace_snapshots_are_pinned(self):
        # --trace prints one cluster snapshot per simulated minute to stderr.
        # The digests were recorded before the job-state counts replaced the
        # per-minute scan over every job. The first run covers paused jobs,
        # pending regroups and stopping groups; the second a deep waiting
        # backlog.
        cases = (
            (("--jobs", "80", "--machines", "100"), 1615,
             "32f17cdc846792a962a48dfb32065dfc4d87bc4f146dd024a86d4b3756e365ef"),
            (("--jobs", "400", "--machines", "40", "--arrival", "poisson:2"),
             32127,
             "4c4585758957fc6c54c520d0f2cdc170d391ad2b53b75e3186cb4bab366a8a43"),
        )
        for args, lines, digest in cases:
            proc = run(*args, "--trace")
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            self.assertEqual(proc.stderr.count("\n"), lines, args)
            self.assertEqual(hashlib.sha256(proc.stderr.encode()).hexdigest(),
                             digest, args)

    def test_service_sjf_policy_accepted(self):
        proc = run("--service", "--duration", "600", "--arrival-rate", "0.2",
                   "--machines", "60", "--admission", "sjf", "--queue-cap", "16",
                   "--drift", "0.2")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("admission=sjf", proc.stdout)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: test_cli.py /path/to/harmony-sim")
    BINARY = sys.argv.pop(1)
    unittest.main(verbosity=2)
