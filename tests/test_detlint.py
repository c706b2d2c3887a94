#!/usr/bin/env python3
"""Self-test for tools/detlint.py.

Three layers:

  * the checked-in corpus under tests/detlint_fixtures/ — every rule family
    has a `bad/` tree that must produce findings of exactly that family and a
    `good/` tree exercising the sanctioned alternatives (sorted_view,
    stable-id comparators, NSDMI / ctor coverage, seeded engines, justified
    escapes) that must come back clean, and deleting the escape comment from
    a copy of a `good/` tree turns the gate red;
  * synthetic trees materialized in a tempdir — include-closure resolution,
    the step-summary table;
  * the checkout itself, which must stay clean.

Registered in ctest as `test_detlint`. Run directly:
python3 tests/test_detlint.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DETLINT = os.path.join(REPO, "tools", "detlint.py")
FIXTURES = os.path.join(REPO, "tests", "detlint_fixtures")

FAMILIES = {
    "unordered_iteration": "unordered-iteration",
    "pointer_order": "pointer-order",
    "uninit_member": "uninit-member",
    "unseeded_random": "unseeded-random",
}


def run_detlint(root, extra_args=(), extra_env=None):
    env = dict(os.environ)
    env.pop("GITHUB_STEP_SUMMARY", None)
    if extra_env:
        env.update(extra_env)
    proc = subprocess.run(
        [sys.executable, DETLINT, "--root", root, *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    return proc.returncode, proc.stdout


def run_on_tree(tree, **kwargs):
    """Materializes {relpath: content} in a tempdir and analyzes it."""
    with tempfile.TemporaryDirectory(prefix="detlint_selftest_") as root:
        for rel, content in tree.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)
        return run_detlint(root, **kwargs)


class FixtureCorpusTest(unittest.TestCase):
    """Every rule family: the bad tree fails with only its own rule, the good
    tree is clean."""

    def test_bad_fixtures_fail_with_their_rule(self):
        for family, rule in FAMILIES.items():
            with self.subTest(family=family):
                rc, out = run_detlint(os.path.join(FIXTURES, family, "bad"))
                self.assertEqual(rc, 1, f"{family}/bad must fail:\n{out}")
                self.assertIn(f"[{rule}]", out, out)
                for other in set(FAMILIES.values()) - {rule}:
                    self.assertNotIn(f"[{other}]", out,
                                     f"{family}/bad leaked rule {other}:\n{out}")

    def test_good_fixtures_are_clean(self):
        for family in FAMILIES:
            with self.subTest(family=family):
                rc, out = run_detlint(os.path.join(FIXTURES, family, "good"))
                self.assertEqual(rc, 0, f"{family}/good must pass:\n{out}")
                self.assertIn("detlint: clean", out, out)

    def test_bad_unordered_reports_all_three_shapes(self):
        # range-for over a map, range-for over a set, iterator walk.
        rc, out = run_detlint(os.path.join(FIXTURES, "unordered_iteration", "bad"))
        self.assertEqual(rc, 1)
        self.assertIn("range-for over unordered container 'counts_'", out, out)
        self.assertIn("range-for over unordered container 'ids_'", out, out)
        self.assertIn("iterator walk over unordered container 'counts_'", out, out)

    def test_deleting_an_escape_comment_fails_the_gate(self):
        # The escaped loop in the unordered-iteration `good` fixture is
        # justified only by its escape comment; stripping it from a copy of
        # the tree must turn the gate red at exactly that site. This pins the
        # acceptance criterion that escapes are load-bearing, not decorative.
        good = os.path.join(FIXTURES, "unordered_iteration", "good")
        victim_rel = os.path.join("src", "sim", "hash_walk.cpp")
        with open(os.path.join(good, victim_rel), encoding="utf-8") as f:
            original = f.read()
        marker = "// detlint: sorted-iteration("
        self.assertIn(marker, original,
                      "expected an escape comment in hash_walk.cpp")
        with tempfile.TemporaryDirectory(prefix="detlint_selftest_") as root:
            shutil.copytree(os.path.join(good, "src"), os.path.join(root, "src"))
            stripped = "\n".join(l for l in original.splitlines()
                                 if marker not in l) + "\n"
            with open(os.path.join(root, victim_rel), "w", encoding="utf-8") as f:
                f.write(stripped)
            rc, out = run_detlint(root)
        self.assertEqual(rc, 1, f"stripping the escape must fail the gate:\n{out}")
        findings = [l for l in out.splitlines() if "[unordered-iteration]" in l]
        self.assertEqual(len(findings), 1, out)
        self.assertIn("src/sim/hash_walk.cpp:21", findings[0], out)


class SyntheticTreeTest(unittest.TestCase):
    def test_member_declared_in_header_is_resolved_through_includes(self):
        # The loop lives in a .cpp, the unordered member two includes away.
        rc, out = run_on_tree({
            "src/sim/state.h": "#pragma once\n#include <unordered_map>\n"
                               "struct State { std::unordered_map<int, double> load_; };\n",
            "src/sim/mid.h": '#pragma once\n#include "sim/state.h"\n',
            "src/sim/use.cpp": '#include "sim/mid.h"\n'
                               "double f(const State& s) {\n"
                               "  double t = 0.0;\n"
                               "  for (const auto& [k, v] : s.load_) t += v;\n"
                               "  return t;\n"
                               "}\n"})
        self.assertEqual(rc, 1, out)
        self.assertIn("[unordered-iteration]", out, out)
        self.assertIn("use.cpp:4", out, out)

    def test_ordered_map_alias_is_not_flagged(self):
        rc, out = run_on_tree({
            "src/sim/tally.cpp":
                "#include \"common/sorted_view.h\"\n"
                "struct T { harmony::common::ordered_map<int, double> m_; };\n"
                "double f(const T& t) {\n"
                "  double s = 0.0;\n"
                "  for (const auto& [k, v] : t.m_) s += v;\n"
                "  return s;\n"
                "}\n"})
        self.assertEqual(rc, 0, out)

    def test_escape_requires_matching_name(self):
        # A pointer-order escape does not cover an unordered-iteration site.
        rc, out = run_on_tree({
            "src/sim/wrong.cpp":
                "#include <unordered_map>\n"
                "std::unordered_map<int, int> m_;\n"
                "int f() {\n"
                "  int s = 0;\n"
                "  // detlint: pointer-order(wrong escape name for this site)\n"
                "  for (const auto& [k, v] : m_) s += v;\n"
                "  return s;\n"
                "}\n"})
        self.assertEqual(rc, 1, out)
        self.assertIn("[unordered-iteration]", out, out)

    def test_github_step_summary_table(self):
        with tempfile.NamedTemporaryFile("r", suffix=".md", delete=False) as f:
            summary_path = f.name
        try:
            run_on_tree({"src/sim/r.cpp": "int f() { return rand(); }\n"},
                        extra_env={"GITHUB_STEP_SUMMARY": summary_path})
            with open(summary_path, encoding="utf-8") as s:
                summary = s.read()
            self.assertIn("### Detlint", summary, summary)
            self.assertIn("| `unseeded-random` | 1 |", summary, summary)
            self.assertIn("| **total** | **1** |", summary, summary)
        finally:
            os.unlink(summary_path)


class RealCheckoutTest(unittest.TestCase):
    def test_real_checkout_is_clean(self):
        rc, out = run_detlint(REPO)
        self.assertEqual(rc, 0, f"detlint must stay clean on the checkout:\n{out}")


if __name__ == "__main__":
    unittest.main(verbosity=2)
