"""Tests for the benchmark's reduction code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import reduce


def span(sid, parent, name, start, dur, pass_id=0, **args):
    return {"id": sid, "parent": parent, "pass": pass_id, "name": name,
            "start": float(start), "dur": float(dur), "args": args}


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(reduce.median([3, 1, 2]), 2)
        self.assertEqual(reduce.median([4, 1, 3, 2]), 2.5)

    def test_median_of_nothing_raises(self):
        with self.assertRaises(ValueError):
            reduce.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [9.0, 1.0, 5.0, 7.0, 3.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(reduce.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        # Exclusive method: Q1 = 2.75, Q3 = 8.25 for 1..10.
        q1, q2, q3 = reduce.quartiles(values)
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q2, 5.5)
        self.assertAlmostEqual(q3, 8.25)

    def test_quartiles_of_one_value(self):
        self.assertEqual(reduce.quartiles([4.0]), (4.0, 4.0, 4.0))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(reduce.spread(range(1, 11)), 5.5 / 5.5)
        self.assertEqual(reduce.spread([2.0, 2.0, 2.0, 2.0]), 0.0)


class Rate(unittest.TestCase):
    def test_items_per_second(self):
        self.assertAlmostEqual(reduce.rate(1_000_000, 2.5), 400_000.0)

    def test_non_positive_time_raises(self):
        for seconds in (0.0, -1.0, float("nan")):
            with self.assertRaises(ValueError):
                reduce.rate(10, seconds)

    def test_end_to_end_rate_is_total_work_over_total_time(self):
        raw = {"setup_s": [0.3, 0.1, 0.2], "items_per_pass": 100.0,
               "pass_s": [1.0, 4.0, 1.0], "peak_rss_kb": 2048.0}
        m = reduce.end_to_end_metrics(raw)
        self.assertAlmostEqual(m["setup_s"], 0.2)
        self.assertAlmostEqual(m["items_per_s"], 50.0)
        self.assertAlmostEqual(m["peak_rss_mb"], 2.0)


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        own = reduce.self_times([span(0, -1, "runner/run", 0, 10)])
        self.assertEqual(own, {0: 10.0})

    def test_disjoint_children(self):
        spans = [span(0, -1, "perfbench/pass", 0, 100),
                 span(1, 0, "serve.trace/parse", 10, 20),
                 span(2, 0, "serve.engine/run", 40, 30)]
        own = reduce.self_times(spans)
        self.assertEqual(own[0], 50.0)
        self.assertEqual(own[1], 20.0)
        self.assertEqual(own[2], 30.0)

    def test_overlapping_children_count_once(self):
        # [10, 40) and [30, 60) overlap on [30, 40): union is 50.
        spans = [span(0, -1, "perfbench/pass", 0, 100),
                 span(1, 0, "sim/bitfusion", 10, 30),
                 span(2, 0, "sim/eyeriss", 30, 30)]
        self.assertEqual(reduce.self_times(spans)[0], 50.0)

    def test_nested_and_contained_children(self):
        # Child 2 lies inside child 1; only child 1's extent counts for
        # the root, and child 1 loses child 2's time.
        spans = [span(0, -1, "perfbench/pass", 0, 100),
                 span(1, 0, "runner/run", 10, 50),
                 span(2, 1, "core.cache/get", 20, 10),
                 span(3, 0, "runner/run", 20, 5)]
        own = reduce.self_times(spans)
        self.assertEqual(own[0], 50.0)
        self.assertEqual(own[1], 40.0)
        self.assertEqual(own[2], 10.0)

    def test_children_clipped_to_parent(self):
        spans = [span(0, -1, "perfbench/pass", 10, 20),
                 span(1, 0, "runner/run", 0, 15),
                 span(2, 0, "runner/run", 25, 30)]
        self.assertEqual(reduce.self_times(spans)[0], 10.0)

    def test_layer_shares_and_uncovered(self):
        spans = [span(0, -1, "perfbench/setup", 0, 20),
                 span(1, 0, "compiler/compile", 0, 5),
                 span(2, -1, "perfbench/pass", 20, 80),
                 span(3, 2, "isa.interp/rnn_4x4", 20, 60)]
        shares, uncovered = reduce.layer_shares(spans)
        self.assertAlmostEqual(shares["compiler"], 0.05)
        self.assertAlmostEqual(shares["isa.interp"], 0.6)
        self.assertAlmostEqual(uncovered, 0.35)
        self.assertAlmostEqual(sum(shares.values()) + uncovered, 1.0)

    def test_unknown_layer_is_an_error(self):
        spans = [span(0, -1, "perfbench/pass", 0, 10),
                 span(1, 0, "nosuch/op", 0, 1)]
        with self.assertRaises(ValueError):
            reduce.layer_shares(spans)


class PerLayer(unittest.TestCase):
    def test_rates_from_spans(self):
        spans = [span(0, -1, "perfbench/pass", 0, 100, pass_id=1000),
                 span(1, 0, "serve.trace/parse", 0, 20, pass_id=1000,
                      requests=1000.0),
                 span(2, 0, "serve.engine/run", 20, 50, pass_id=1000,
                      requests=1000.0, batches=100.0),
                 span(3, -1, "perfbench/pass", 100, 100, pass_id=1002),
                 span(4, 3, "isa.interp/rnn_4x4", 100, 80, pass_id=1002,
                      macs=16_000.0)]
        raw = {"pass_s": [1.0, 1.0], "traced_pass_s": [1.1, 1.1],
               "counts": {"core.cache.hits": 7}}
        m = reduce.per_layer_metrics(raw, spans)
        self.assertAlmostEqual(m["serve.trace.parse_ns_per_req"], 20.0)
        self.assertAlmostEqual(m["serve.engine.run_ns_per_req"], 50.0)
        self.assertAlmostEqual(m["serve.engine.run_ns_per_batch"], 500.0)
        self.assertAlmostEqual(m["isa.interp.rnn_4x4_mmac_per_s"], 200.0)
        self.assertAlmostEqual(m["trace.overhead_frac"], 0.1)
        self.assertEqual(m["serve.trace.generate_ns_per_req"], 0.0)
        self.assertEqual(m["core.cache.hits"], 7.0)
        self.assertEqual(m["runner.thread_speedup"], 0.0)

    def test_compile_time_counts_only_gets_that_compiled(self):
        # Two compiles of 40 us and three hits of 10 us: the hits'
        # fingerprinting must not inflate the per-artifact figure.
        gets = [span(1 + i, 0, "core.cache/get", 10 * i, dur,
                     compiled=compiled)
                for i, (dur, compiled) in enumerate(
                    [(40, 1.0), (10, 0.0), (40, 1.0), (10, 0.0),
                     (10, 0.0)])]
        spans = [span(0, -1, "perfbench/pass", 0, 200)] + gets
        raw = {"pass_s": [1.0], "traced_pass_s": [1.0], "counts": {}}
        m = reduce.per_layer_metrics(raw, spans)
        self.assertAlmostEqual(m["runner.compile_us_per_artifact"], 40.0)

    def test_overhead_against_untraced_decomposed_pass(self):
        spans = [span(0, -1, "perfbench/pass", 0, 10)]
        raw = {"pass_s": [1.0, 1.0, 1.0], "traced_pass_s": [2.5, 2.5],
               "traced_base_s": [2.0, 2.0], "counts": {}}
        m = reduce.per_layer_metrics(raw, spans)
        self.assertAlmostEqual(m["trace.overhead_frac"], 0.25)

    def test_thread_speedup_from_paired_passes(self):
        spans = [span(0, -1, "perfbench/pass", 0, 10)]
        raw = {"pass_s": [9.0], "traced_pass_s": [9.0], "counts": {},
               "serial_pass_s": [4.0, 6.0, 5.0],
               "parallel_pass_s": [2.0, 2.5, 3.0]}
        m = reduce.per_layer_metrics(raw, spans)
        self.assertAlmostEqual(m["runner.thread_speedup"], 2.0)


if __name__ == "__main__":
    unittest.main()
