#!/usr/bin/env python3
"""Unit tests for the benchmark's own logic (benchlib.py). Stdlib only:

    python3 perfbench/test_benchlib.py
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402


class TailRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        q, v, n = benchlib.tail(list(range(1000)))
        self.assertEqual((q, v, n), (0.99, 989, 1000))
        self.assertEqual(1000 - (v + 1), 10)  # exactly ten samples beyond

    def test_small_sample_falls_back_to_highest_supported(self):
        q, v, n = benchlib.tail(list(range(100)))
        self.assertAlmostEqual(q, 0.90)
        self.assertEqual(v, 89)
        self.assertEqual(sum(1 for x in range(100) if x > v), 10)

    def test_every_size_keeps_ten_beyond(self):
        for n in range(11, 3000, 7):
            values = list(range(n))
            q, v, _ = benchlib.tail(values)
            self.assertLessEqual(q, 0.99)
            self.assertGreaterEqual(sum(1 for x in values if x > v), 10, n)

    def test_too_few_samples(self):
        self.assertEqual(benchlib.tail([1.0] * 10), (None, None, 10))
        self.assertEqual(benchlib.tail([]), (None, None, 0))

    def test_order_does_not_matter(self):
        values = [((i * 7919) % 1009) / 10 for i in range(1009)]
        self.assertEqual(benchlib.tail(values), benchlib.tail(sorted(values)))

    def test_windowed_tail_ignores_one_bad_window(self):
        quiet = [1.0] * 990 + [2.0] * 10
        stall = [50.0] * 1000
        q, v, k = benchlib.windowed_tail(quiet * 3 + stall)
        self.assertEqual((q, k), (0.99, 4))
        self.assertEqual(v, 1.0)
        self.assertEqual(benchlib.windowed_tail([1.0] * 999), (None, None, 0))


def span(i, parent, t0, t1, name="s", calls=1):
    return {"id": i, "parent": parent, "req": 0, "name": name, "t0": t0,
            "t1": t1, "calls": calls}


class SelfTime(unittest.TestCase):
    def test_disjoint_children(self):
        st = benchlib.self_times([span(0, -1, 0, 100, "root"),
                                  span(1, 0, 10, 20, "a"),
                                  span(2, 0, 50, 80, "b")])
        self.assertEqual(st["root"], (60, 1))
        self.assertEqual(st["a"], (10, 1))
        self.assertEqual(st["b"], (30, 1))

    def test_overlapping_children_counted_once(self):
        st = benchlib.self_times([span(0, -1, 0, 100, "root"),
                                  span(1, 0, 10, 60, "a"),
                                  span(2, 0, 40, 70, "b"),
                                  span(3, 0, 45, 50, "c")])
        # The union of [10,60), [40,70) and [45,50) is [10,70): 60 covered.
        self.assertEqual(st["root"], (40, 1))

    def test_child_outside_parent_is_clipped(self):
        st = benchlib.self_times([span(0, -1, 100, 200, "root"),
                                  span(1, 0, 50, 150, "a"),
                                  span(2, 0, 190, 260, "b")])
        self.assertEqual(st["root"], (40, 1))

    def test_grandchildren_only_reduce_their_parent(self):
        st = benchlib.self_times([span(0, -1, 0, 100, "root"),
                                  span(1, 0, 0, 50, "mid"),
                                  span(2, 1, 10, 40, "leaf")])
        self.assertEqual(st["root"], (50, 1))
        self.assertEqual(st["mid"], (20, 1))
        self.assertEqual(st["leaf"], (30, 1))

    def test_names_and_calls_aggregate(self):
        st = benchlib.self_times([span(0, -1, 0, 10, "x", 4),
                                  span(1, -1, 20, 25, "x", 6)])
        self.assertEqual(st["x"], (15, 10))

    def test_read_spans_round_trip(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "spans.txt")
            with open(path, "w") as f:
                f.write("0 -1 7 get 100 200 1\n1 0 7 rtt 120 190 1\n")
            spans = benchlib.read_spans(path)
        self.assertEqual(spans[1], span(1, 0, 120, 190, "rtt") | {"req": 7})
        self.assertEqual(benchlib.self_times(spans)["get"], (30, 1))


def step(rate, p99_ms=1.0, late_ms=0.01, failures=0, backlog=(0, 1),
         drained=True, n=2000):
    lat = [0.1] * n
    for i in range(n // 50):  # top 2% at p99_ms, spread over the run
        lat[i * 50] = p99_ms
    return {"rate": rate, "failures": failures, "backlog_start": backlog[0],
            "backlog_end": backlog[1], "drained": drained,
            "latency_ms": lat, "late_ms": [late_ms] * n}


class MaxRate(unittest.TestCase):
    def test_judge(self):
        self.assertEqual(benchlib.judge_step(step(1000), 5.0)[0], "pass")
        self.assertEqual(benchlib.judge_step(step(1000, p99_ms=6), 5.0)[0], "fail")
        self.assertEqual(benchlib.judge_step(step(1000, failures=1), 5.0)[0],
                         "fail")
        self.assertEqual(benchlib.judge_step(step(1000, drained=False), 5.0)[0],
                         "fail")
        # Late generator: invalid, not a daemon failure.
        self.assertEqual(benchlib.judge_step(step(1000, late_ms=2.0), 5.0)[0],
                         "invalid")
        self.assertEqual(benchlib.judge_step(step(1000, n=500), 5.0)[0],
                         "invalid")

    def test_backlog_slack_is_rate_times_limit(self):
        # 10k/s x 5 ms = 50 requests may be in flight at the end.
        self.assertEqual(benchlib.judge_step(step(10_000, backlog=(0, 50)), 5.0)[0],
                         "pass")
        self.assertEqual(benchlib.judge_step(step(10_000, backlog=(0, 51)), 5.0)[0],
                         "fail")
        self.assertEqual(benchlib.judge_step(step(10_000, backlog=(40, 90)), 5.0)[0],
                         "pass")

    def test_bisection_finds_highest_passing(self):
        rates = [100 * 1.05 ** i for i in range(31)]
        for capacity in (50, 100, 180, 250, 431.0, 1e9):
            probed = []

            def probe(r):
                probed.append(r)
                return r <= capacity

            best = benchlib.max_rate(probe, rates)
            want = max([r for r in rates if r <= capacity], default=0.0)
            self.assertEqual(best, want)
            self.assertLessEqual(len(probed), 6)
            self.assertTrue(set(probed) <= set(rates))


class Accounting(unittest.TestCase):
    def client(self, **kw):
        c = {"gets": 100, "cache_bytes": 300.0, "origin_bytes": 700.0,
             "requested_bytes": 1000.0, "delay_sum": 5.0}
        c.update(kw)
        return c

    def stats(self, requests, bhr=0.3, delay=0.05):
        return {"requests": requests, "byte_hit_ratio": bhr,
                "mean_delay_s": delay}

    def test_consistent(self):
        self.assertEqual(benchlib.check_accounting(
            self.client(), self.stats(0), self.stats(100)), [])

    def test_request_count_mismatch(self):
        bad = benchlib.check_accounting(self.client(), self.stats(0),
                                        self.stats(99))
        self.assertEqual(len(bad), 1)
        self.assertIn("GETs", bad[0])

    def test_byte_split_mismatch(self):
        bad = benchlib.check_accounting(self.client(origin_bytes=600.0),
                                        self.stats(0), self.stats(100))
        self.assertTrue(any("requested" in b for b in bad))

    def test_ratio_and_delay_mismatch(self):
        bad = benchlib.check_accounting(self.client(), self.stats(0),
                                        self.stats(100, bhr=0.31, delay=0.06))
        self.assertEqual(len(bad), 2)

    def test_lifetime_ratios_only_from_fresh_daemon(self):
        # Deltas from a daemon that already served requests: only the
        # request count can be compared.
        self.assertEqual(benchlib.check_accounting(
            self.client(), self.stats(50), self.stats(150, bhr=0.9)), [])


if __name__ == "__main__":
    unittest.main()
