"""Self-tests of the benchmark: python3 perfbench/selftest.py (from the root).

A benchmark that miscounts is worse than none, so these check that a
tampered certificate is counted as fail.check, that inputs depend only on
the seed, and that a call past its deadline is counted, not raised.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import check  # noqa: E402  (needs framescale on the path)
import framescale.cli as cli  # noqa: E402
from framescale.frames import Frame  # noqa: E402


def _cases(workload: str, seed: int, directory: str):
    classes = run.make_inputs(workload, seed, Path(directory))
    for case in (c for cases in classes for c in cases):
        if case.vectors is not None:
            case.frame = Frame.from_vectors(case.vectors, exact=case.exact)
    return classes


class SelfTest(unittest.TestCase):
    def setUp(self):
        run.OUT.mkdir(exist_ok=True)
        self._dir = tempfile.TemporaryDirectory(dir=run.OUT)
        self.dir = self._dir.name

    def tearDown(self):
        self._dir.cleanup()

    def _report(self, workload: str):
        case = _cases(workload, 7, self.dir)[0][0]  # smallest size class
        outcome, _, text = run.call(cli, case)
        self.assertEqual(outcome, "ok")
        self.assertEqual(run.checked(text, case, check.CheckStats()), "ok")
        return case, json.loads(text)

    def test_tampered_weight_is_fail_check(self):
        case, report = self._report("exact_scalable")
        weights = report["oracle"]["nonneg"]["weights"]
        weights[0] = str(Fraction(weights[0]) + Fraction(1, 7))
        self.assertEqual(
            run.checked(json.dumps(report), case, check.CheckStats()),
            "fail.check")

    def test_tampered_farkas_entry_is_fail_check(self):
        case, report = self._report("exact_farkas")
        self.assertEqual(report["oracle"]["nonneg"]["status"], "infeasible")
        rows = report["oracle"]["nonneg"]["farkas"]["rows"]
        rows[0][0] = str(Fraction(rows[0][0]) + 10**6)
        self.assertEqual(
            run.checked(json.dumps(report), case, check.CheckStats()),
            "fail.check")

    def test_inputs_are_deterministic_in_the_seed(self):
        def files(seed, sub):
            d = Path(self.dir, sub)
            d.mkdir()
            run.make_inputs(name, seed, d)
            return {p.name: p.read_bytes() for p in d.iterdir()}

        for name in run.WORKLOADS:
            first = files(3, f"{name}-a")
            self.assertEqual(first, files(3, f"{name}-b"), name)
            self.assertNotEqual(first, files(4, f"{name}-c"), name)

    def test_deadline_is_counted_not_raised(self):
        classes = _cases("exact_farkas", 1, self.dir)
        case = classes[-1][0]  # (12, 6) takes far longer than 1 ms
        case.deadline = 0.001
        result = run.measure(cli, None, 0, replay=[case, case])
        self.assertEqual(result.outcomes["fail.deadline"], 2)
        self.assertEqual(result.latencies(), [])


if __name__ == "__main__":
    unittest.main()
