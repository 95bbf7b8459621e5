"""Self-tests of compare.py's classification (python3 -m unittest discover benchmark/tests)."""

import pathlib
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
import compare  # noqa: E402

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5]


def shifted(values, factor):
    return [v * factor for v in values]


class Classify(unittest.TestCase):
    def test_within_bound_is_unchanged(self):
        status, worse, _ = compare.classify(STEADY, shifted(STEADY, 1.03), 0.1, "lower")
        self.assertEqual(status, "unchanged")
        self.assertAlmostEqual(worse, 0.03)

    def test_slower_latency_regresses(self):
        status, worse, _ = compare.classify(STEADY, shifted(STEADY, 1.2), 0.1, "lower")
        self.assertEqual(status, "regressed")
        self.assertAlmostEqual(worse, 0.2)

    def test_direction_follows_better(self):
        # The same 20% rise is a regression for a latency, a gain for a throughput.
        self.assertEqual(compare.classify(STEADY, shifted(STEADY, 1.2), 0.1, "higher")[0], "better")
        self.assertEqual(compare.classify(STEADY, shifted(STEADY, 0.8), 0.1, "higher")[0],
                         "regressed")

    def test_wide_spread_is_unresolved(self):
        noisy = [80.0, 100.0, 120.0, 90.0, 115.0]
        status, _, spread = compare.classify(STEADY, noisy, 0.1, "lower")
        self.assertGreater(spread, 0.1)
        self.assertEqual(status, "unresolved")

    def test_wide_spread_but_every_run_better(self):
        noisy_but_faster = [50.0, 60.0, 75.0, 55.0, 70.0]
        self.assertEqual(compare.classify(STEADY, noisy_but_faster, 0.1, "lower")[0], "better")

    def test_compare_reports_each_workload(self):
        spec = {"end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}

        def results(values_by_workload):
            return {"workloads": {w: {"runs": [{"metrics": {"ops_per_s": v}} for v in values]}
                                  for w, values in values_by_workload.items()}}

        base = results({"a": STEADY, "b": STEADY})
        new = results({"a": STEADY, "b": shifted(STEADY, 0.5)})
        rows = compare.compare(base, new, spec)
        self.assertEqual([r[1] for r in rows["a"]], ["unchanged"])
        self.assertEqual([r[1] for r in rows["b"]], ["regressed"])


if __name__ == "__main__":
    unittest.main()
