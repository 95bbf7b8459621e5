"""Self-tests of the benchmark's reductions (python3 -m unittest discover benchmark/tests)."""

import math
import pathlib
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
import metrics  # noqa: E402


def open_phase(rate, server_latency, stall_at=None, stall_s=0.0, count=1000):
    """A synthetic open-loop phase: request k is due at k / rate; the
    generator submits on time except that it stalls for `stall_s` just before
    request `stall_at`, then catches up as fast as it can (1 µs apart)."""
    due, submit = [], []
    clock = 0.0
    for k in range(count):
        d = k / rate
        clock = d + stall_s if k == stall_at else max(clock + 1e-6, d)
        due.append(d)
        submit.append(clock)
    return {"rate": rate, "window_s": count / rate, "due_s": due, "submit_s": submit,
            "latency_s": [server_latency(k, s) for k, s in enumerate(submit)]}


class PercentileRule(unittest.TestCase):
    def test_p99_needs_1000_samples(self):
        self.assertEqual(metrics.min_samples(99), 1000)
        with self.assertRaises(metrics.TooFewSamples):
            metrics.percentile(range(999), 99)
        self.assertEqual(metrics.percentile(range(1000), 99), 989)  # 10 samples beyond it

    def test_p90_needs_100_samples(self):
        self.assertEqual(metrics.min_samples(90), 100)
        with self.assertRaises(metrics.TooFewSamples):
            metrics.percentile(range(99), 90)
        self.assertEqual(metrics.percentile(range(100), 90), 89)

    def test_p75_needs_40_samples(self):
        # The serve and incremental tails: 1,000 requests give 25 windows.
        self.assertEqual(metrics.min_samples(75), 40)
        with self.assertRaises(metrics.TooFewSamples):
            metrics.percentile(range(39), 75)
        self.assertIn("25 windows", metrics.tail([0.01] * 1000, 75)[1])

    def test_tail_is_the_median_of_window_tails(self):
        # 3,000 samples of 10 ms with a 40-sample burst of 100 ms inside the
        # first 1,000: the plain p99 lands in the burst, the windowed one not.
        samples = [0.01] * 3000
        samples[100:140] = [0.1] * 40
        self.assertEqual(metrics.percentile(samples, 99), 0.1)
        value, label = metrics.tail(samples, 99)
        self.assertEqual(value, 0.01)
        self.assertIn("3 windows", label)

    def test_tail_without_a_percentile_is_the_median(self):
        self.assertEqual(metrics.tail([1.0, 5.0, 3.0], None)[0], 3.0)

    def test_median_of_small_sample(self):
        self.assertEqual(metrics.percentile([3.0, 1.0, 2.0], 50), 2.0)
        with self.assertRaises(metrics.TooFewSamples):
            metrics.percentile([], 50)


class LatencyFromDue(unittest.TestCase):
    def test_generator_stall_is_charged_to_delayed_requests(self):
        # The server answers every request in 5 ms, but the generator stalls
        # for 300 ms before request 500 of a 100 req/s schedule.
        phase = open_phase(100.0, lambda k, s: 0.005, stall_at=500, stall_s=0.3)
        server_only = [l for l in phase["latency_s"]]
        from_due = metrics.open_loop_latencies(phase["due_s"], phase["submit_s"], phase["latency_s"])
        self.assertAlmostEqual(metrics.percentile(server_only, 99), 0.005)
        # Requests 500..529 were due during the stall and wait out its rest.
        self.assertAlmostEqual(from_due[500], 0.305, places=6)
        self.assertGreater(from_due[529], 0.005)
        self.assertAlmostEqual(from_due[531], 0.005, places=6)
        self.assertGreater(metrics.percentile(from_due, 99), 0.1)
        late = metrics.lateness(phase["due_s"], phase["submit_s"])
        self.assertAlmostEqual(max(late), 0.3)

    def test_failed_request_misses_every_limit(self):
        lat = metrics.open_loop_latencies([0.0, 0.01], [0.0, 0.01], [0.004, -1.0])
        self.assertEqual(lat[0], 0.004)
        self.assertTrue(math.isinf(lat[1]))


class Ladder(unittest.TestCase):
    LIMIT_MS = metrics.LATENCY_LIMIT_MS
    SHARE = metrics.LADDER_MIN_COMPLETED_SHARE
    LATE_MS = metrics.LADDER_MAX_LATENESS_MS

    def judge(self, phase, limit_ms=LIMIT_MS):
        return metrics.ladder_step(phase, limit_ms, self.SHARE, self.LATE_MS)

    def test_steady_step_holds(self):
        step = self.judge(open_phase(250.0, lambda k, s: 0.004))
        self.assertTrue(step["ok"])
        self.assertGreaterEqual(step["completed_share"], 0.99)

    def test_growing_backlog_is_detected(self):
        # Service capacity 240 req/s under 250 req/s offered: every request
        # waits for the backlog ahead of it, so the last 4% finish after the
        # step's schedule ends. The latency limit is lifted so that only the
        # backlog can fail the step.
        phase = open_phase(250.0, lambda k, s: (k + 1) / 240.0 - s)
        step = self.judge(phase, limit_ms=1000.0)
        self.assertLess(step["p99_ms"], 1000.0)
        self.assertAlmostEqual(step["completed_share"], 0.96, places=2)
        self.assertFalse(step["ok"])

    def test_late_generator_fails_the_step(self):
        # A 60 ms stall at a 4 ms period leaves 15 requests late by 4-60 ms.
        phase = open_phase(250.0, lambda k, s: 0.004, stall_at=100, stall_s=0.06)
        step = self.judge(phase)
        self.assertLessEqual(step["p99_ms"], self.LIMIT_MS)
        self.assertGreater(step["lateness_p99_ms"], self.LATE_MS)
        self.assertFalse(step["ok"])

    def test_max_rate_is_the_highest_step_that_holds(self):
        ok = open_phase(250.0, lambda k, s: 0.004)
        stalled = open_phase(300.0, lambda k, s: 0.004, stall_at=100, stall_s=0.06)
        later_ok = open_phase(345.0, lambda k, s: 0.004)
        slow = open_phase(400.0, lambda k, s: 0.08)
        self.assertEqual(metrics.max_rate([ok, stalled, later_ok, slow], self.LIMIT_MS, self.SHARE,
                                          self.LATE_MS), 345.0)
        self.assertEqual(metrics.max_rate([slow], self.LIMIT_MS, self.SHARE, self.LATE_MS), 0.0)


class SelfTimes(unittest.TestCase):
    def test_parent_self_time_excludes_children(self):
        events = [
            ["parent", 1, 0, 100, 0, 0],
            ["stage.a", 1, 0, 30, 0, 0],
            ["stage.b", 1, 40, 50, 0, 0],
            ["other.thread", 2, 10, 80, 0, 0],
        ]
        spans = {s[0]: s for s in metrics.self_times(events)}
        self.assertEqual(spans["parent"][3], 20)
        self.assertEqual(spans["stage.a"][3], 30)
        self.assertEqual(spans["other.thread"][3], 80)

    def test_overlapping_span_is_not_a_child(self):
        # A serve lane records a request's admission span (10..120) while it
        # still runs an earlier batch's forward (0..100); the admission ends
        # after the forward, so it takes nothing from the forward's self time.
        events = [
            ["serve.forward", 1, 0, 100, 0, 0],
            ["serve.admission", 1, 10, 110, 0, 0],
            ["serve.merge", 1, 105, 5, 0, 0],
        ]
        spans = {s[0]: s for s in metrics.self_times(events)}
        self.assertEqual(spans["serve.forward"][3], 100)
        self.assertEqual(spans["serve.admission"][3], 105)
        self.assertEqual(spans["serve.merge"][3], 5)

    def test_grandchildren_count_once(self):
        events = [["a", 1, 0, 10, 0, 0], ["b", 1, 0, 10, 0, 0], ["c", 1, 2, 3, 0, 0]]
        spans = {s[0]: s for s in metrics.self_times(events)}
        self.assertEqual(spans["a"][3], 0)
        self.assertEqual(spans["b"][3], 7)
        self.assertEqual(spans["c"][3], 3)


if __name__ == "__main__":
    unittest.main()
