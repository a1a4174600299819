#!/usr/bin/env python3
"""Checks abpair's claim rule on canned pairs; starts no benchmark run.

    python3 tools/abpair_test.py
"""
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import abpair  # noqa: E402


def pairs_of(values, seed0=1, fail=None):
    """Canned pairs from (parent, change) values; fail maps a pair
    index to the side ("A" or "B") whose run failed."""
    out = []
    for k, (a, b) in enumerate(values):
        runs = []
        for side, v in (("A", a), ("B", b)):
            bad = fail is not None and fail.get(k) == side
            runs.append({"seed": seed0 + k, "value": v, "fail_ratio": 0.25 if bad else 0.0})
        out.append(tuple(runs))
    return out


# Parent values spread 100–104 (IQR 101–103 = 2).
PARENT = [100, 101, 102, 103, 104, 100, 101, 102, 103, 104]


class ClaimRule(unittest.TestCase):
    def test_nine_wins_with_gap_above_iqr_passes(self):
        change = [v - 10 for v in PARENT]
        change[3] = 110  # one loss
        s = abpair.summarize(pairs_of(zip(PARENT, change)))
        self.assertEqual(s["wins"], 9)
        self.assertGreater(s["gap"], s["iqr"])
        self.assertTrue(s["passed"])
        line = abpair.verdict_line("rounds", "cpu_ms_per_op", "ms", [1, 10], 30, "abc1234",
                                   pairs_of(zip(PARENT, change)), s)
        self.assertIn("9/10 wins", line)
        self.assertIn("verdict: PASS", line)
        self.assertIn("fail_ratio 0 in all 20 runs", line)

    def test_eight_wins_fails(self):
        change = [v - 10 for v in PARENT]
        change[3] = change[7] = 110
        s = abpair.summarize(pairs_of(zip(PARENT, change)))
        self.assertEqual(s["wins"], 8)
        self.assertGreater(s["gap"], s["iqr"])
        self.assertFalse(s["passed"])
        line = abpair.verdict_line("rounds", "cpu_ms_per_op", "ms", [1, 10], 30, "abc1234",
                                   pairs_of(zip(PARENT, change)), s)
        self.assertIn("verdict: FAIL (8 wins < 9)", line)

    def test_ten_wins_inside_iqr_fails(self):
        change = [v - 1 for v in PARENT]
        s = abpair.summarize(pairs_of(zip(PARENT, change)))
        self.assertEqual(s["wins"], 10)
        self.assertLessEqual(s["gap"], s["iqr"])
        self.assertFalse(s["passed"])
        line = abpair.verdict_line("rounds", "cpu_ms_per_op", "ms", [1, 10], 30, "abc1234",
                                   pairs_of(zip(PARENT, change)), s)
        self.assertIn("not above the parent IQR", line)

    def test_failed_run_is_reported(self):
        change = [v - 10 for v in PARENT]
        pairs = pairs_of(zip(PARENT, change), seed0=41, fail={4: "B"})
        pairs[6][0]["value"] = None  # a parent run with no result line
        pairs[6][0]["fail_ratio"] = 1.0
        s = abpair.summarize(pairs)
        self.assertEqual(s["failed"], ["pair 5 B seed 45", "pair 7 A seed 47"])
        self.assertFalse(s["passed"])
        line = abpair.verdict_line("rounds", "cpu_ms_per_op", "ms", [41, 50], 30, "abc1234", pairs, s)
        self.assertIn("failed runs: pair 5 B seed 45, pair 7 A seed 47", line)
        self.assertIn("fail→", line)
        self.assertIn("2 failed runs", line)

    def test_fewer_pairs_than_the_rule_fail(self):
        # One pair, won, with a zero IQR: the rule still wants 9 wins.
        s = abpair.summarize(pairs_of([(100, 90)]))
        self.assertEqual(s["wins"], 1)
        self.assertFalse(s["passed"])

    def test_higher_change_loses(self):
        change = [v + 10 for v in PARENT]
        s = abpair.summarize(pairs_of(zip(PARENT, change)))
        self.assertEqual(s["wins"], 0)
        self.assertFalse(s["passed"])

    def test_quartiles_interpolate(self):
        q1, med, q3 = abpair.quartiles([77.1, 81.2, 81.6, 82.7, 83.9, 87.3, 88.2, 88.5, 89.8, 91.4])
        self.assertAlmostEqual(q1, 81.875)
        self.assertAlmostEqual(med, 85.6)
        self.assertAlmostEqual(q3, 88.425)


class RegressionRule(unittest.TestCase):
    # PARENT's median is 102 and its IQR 2, so a bound of 0.25 allows
    # 25.5 and a bound of 0.01 allows 1.02, less than the IQR.

    def test_median_within_bound_is_no_regression(self):
        change = [v + 20 for v in PARENT]
        self.assertEqual(abpair.regression(PARENT, change, 0.25), "no regression")

    def test_median_past_bound_is_regression(self):
        change = [v + 30 for v in PARENT]
        self.assertEqual(abpair.regression(PARENT, change, 0.25), "regression")

    def test_spread_wider_than_bound_is_unresolved(self):
        change = [v + 0.5 for v in PARENT]
        self.assertEqual(abpair.regression(PARENT, change, 0.01), "unresolved")

    def test_every_change_run_better_resolves_a_wide_spread(self):
        change = [v - 10 for v in PARENT]
        self.assertEqual(abpair.regression(PARENT, change, 0.01), "no regression")


class Extract(unittest.TestCase):
    def test_copy_holds_the_revision_not_the_working_tree(self):
        with tempfile.TemporaryDirectory() as tmp:
            repo = os.path.join(tmp, "repo")
            os.makedirs(os.path.join(repo, "sub"))
            with open(os.path.join(repo, "sub", "f.txt"), "w") as f:
                f.write("committed\n")
            git = ["git", "-C", repo, "-c", "user.name=t", "-c", "user.email=t@example.com"]
            for args in (["init", "-q"], ["add", "."], ["commit", "-q", "-m", "one"]):
                subprocess.run(git + args, check=True)
            with open(os.path.join(repo, "sub", "f.txt"), "w") as f:
                f.write("edited\n")
            dest = os.path.join(tmp, "copy")
            abpair.extract(repo, "HEAD", dest)
            with open(os.path.join(dest, "sub", "f.txt")) as f:
                self.assertEqual(f.read(), "committed\n")
            self.assertFalse(os.path.exists(os.path.join(dest, ".git")))

    def test_unknown_revision_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            subprocess.run(["git", "-C", tmp, "init", "-q"], check=True)
            with self.assertRaises(RuntimeError):
                abpair.extract(tmp, "no-such-rev", os.path.join(tmp, "copy"))


if __name__ == "__main__":
    unittest.main()
