"""Unit tests for perfbench/pbstats.py.

    python3 -m unittest discover -s perfbench/tests
"""

import math
import os
import struct
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
import pbstats  # noqa: E402


class QuantileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        v = [1.0, 2.0, 3.0, 4.0]
        self.assertEqual(pbstats.quantile(v, 0.0), 1.0)
        self.assertEqual(pbstats.quantile(v, 1.0), 4.0)
        self.assertAlmostEqual(pbstats.quantile(v, 0.5), 2.5)
        self.assertAlmostEqual(pbstats.quantile(v, 0.25), 1.75)

    def test_single_sample_and_empty(self):
        self.assertEqual(pbstats.quantile([7.0], 0.99), 7.0)
        with self.assertRaises(ValueError):
            pbstats.quantile([], 0.5)

    def test_median_sorts(self):
        self.assertEqual(pbstats.median([5, 1, 3]), 3)


class WindowedRateTest(unittest.TestCase):
    def test_rates_use_measured_window_lengths(self):
        # 100 keys in 0.5 s and 100 keys in 0.25 s: rates 200/s and 400/s.
        self.assertAlmostEqual(
            pbstats.windowed_median([100, 100], [0.5, 0.25]), 300.0)

    def test_median_ignores_a_stalled_window(self):
        counts = [1000, 1000, 1000, 10, 1000]
        secs = [0.25] * 5
        self.assertAlmostEqual(pbstats.windowed_median(counts, secs), 4000.0)

    def test_mismatched_lengths_rejected(self):
        with self.assertRaises(ValueError):
            pbstats.windowed_median([1, 2], [1.0])
        with self.assertRaises(ValueError):
            pbstats.windowed_median([], [])


class LatenessTest(unittest.TestCase):
    def test_p99_of_lag(self):
        lag = [0.0] * 99 + [500.0]
        # Rank 0.99 * 99 = 98.01: 1% of the way from 0 to 500.
        self.assertAlmostEqual(pbstats.lateness(lag), 5.0)

    def test_on_time_generator_reads_zero(self):
        self.assertEqual(pbstats.lateness([0.0] * 1000), 0.0)


class SamplesTest(unittest.TestCase):
    def test_reads_raw_float64(self):
        with tempfile.NamedTemporaryFile(delete=False) as f:
            f.write(struct.pack("<3d", 1.5, 2.5, 1e6))
        try:
            self.assertEqual(list(pbstats.read_samples(f.name)),
                             [1.5, 2.5, 1e6])
        finally:
            os.unlink(f.name)


BEFORE = """\
# HELP mpcbf_server_requests_total Requests served by opcode
# TYPE mpcbf_server_requests_total counter
mpcbf_server_requests_total{op="query"} 10
mpcbf_server_requests_total{op="insert"} 4
mpcbf_journal_syncs_total 7
# TYPE mpcbf_server_request_duration_ns histogram
mpcbf_server_request_duration_ns_bucket{op="query",le="1023"} 2
mpcbf_server_request_duration_ns_bucket{op="query",le="+Inf"} 2
mpcbf_server_request_duration_ns_sum{op="query"} 1800
mpcbf_server_request_duration_ns_count{op="query"} 2
"""

AFTER = """\
mpcbf_server_requests_total{op="query"} 30
mpcbf_server_requests_total{op="insert"} 4
mpcbf_server_requests_total{op="erase"} 6
mpcbf_journal_syncs_total 19
mpcbf_server_request_duration_ns_bucket{op="query",le="1023"} 2
mpcbf_server_request_duration_ns_bucket{op="query",le="2047"} 12
mpcbf_server_request_duration_ns_bucket{op="query",le="+Inf"} 12
mpcbf_server_request_duration_ns_sum{op="query"} 16800
mpcbf_server_request_duration_ns_count{op="query"} 12
mpcbf_server_request_duration_ns_bucket{op="insert",le="1023"} 10
mpcbf_server_request_duration_ns_bucket{op="insert",le="+Inf"} 10
mpcbf_server_request_duration_ns_sum{op="insert"} 9000
mpcbf_server_request_duration_ns_count{op="insert"} 10
"""


class PrometheusTest(unittest.TestCase):
    def setUp(self):
        self.before = pbstats.parse_prometheus(BEFORE)
        self.after = pbstats.parse_prometheus(AFTER)

    def test_parses_labels_and_skips_comments(self):
        key = ("mpcbf_server_requests_total", (("op", "query"),))
        self.assertEqual(self.before[key], 10.0)
        self.assertEqual(self.before[("mpcbf_journal_syncs_total", ())], 7.0)
        self.assertFalse(any(n.startswith("#") for n, _ in self.before))

    def test_label_values_with_escapes(self):
        m = pbstats.parse_prometheus('x{a="q\\"uote",b="c"} 1\n')
        self.assertEqual(m, {("x", (("a", 'q\\"uote'), ("b", "c"))): 1.0})

    def test_malformed_line_rejected(self):
        with self.assertRaises(ValueError):
            pbstats.parse_prometheus("not a sample line at all\n")

    def test_counter_delta_sums_label_sets_and_new_series(self):
        self.assertEqual(pbstats.counter_delta(
            self.before, self.after, "mpcbf_server_requests_total"), 26.0)
        self.assertEqual(pbstats.counter_delta(
            self.before, self.after, "mpcbf_journal_syncs_total"), 12.0)
        self.assertEqual(pbstats.counter_delta(
            self.before, self.after, "absent_total"), 0.0)

    def test_histogram_delta_handles_sparse_buckets(self):
        # Query gained 10 samples in (1023, 2047]; insert is new with 10
        # samples <= 1023. Bounds missing from a scrape carry the
        # cumulative count of the largest listed bound below them.
        delta = pbstats.histogram_delta(self.before, self.after,
                                        "mpcbf_server_request_duration_ns")
        self.assertEqual(delta, [(1023.0, 10.0), (2047.0, 20.0),
                                 (math.inf, 20.0)])

    def test_histogram_quantile_interpolates_inside_bucket(self):
        delta = pbstats.histogram_delta(self.before, self.after,
                                        "mpcbf_server_request_duration_ns")
        # The 75th percentile (rank 15 of 20) lies halfway through the
        # [1792, 2047] bucket holding ranks 11..20.
        self.assertAlmostEqual(pbstats.histogram_quantile(delta, 0.75),
                               1792 + 256 * 0.5)
        self.assertIsNone(pbstats.histogram_quantile([(math.inf, 0)], 0.5))

    def test_histogram_mean(self):
        self.assertAlmostEqual(pbstats.histogram_mean(
            self.before, self.after, "mpcbf_server_request_duration_ns"),
            (16800 - 1800 + 9000) / 20)
        self.assertIsNone(pbstats.histogram_mean(self.before, self.after,
                                                 "absent"))

    def test_bucket_lower_matches_repository_layout(self):
        # metrics/histogram.hpp: values < 4 exact; then 4 sub-buckets per
        # octave, bucket [2^o + s*2^(o-2), 2^o + (s+1)*2^(o-2) - 1].
        def upper(i):
            if i < 4:
                return i
            octave, sub = divmod(i, 4)
            width = 1 << (octave - 2)
            return (1 << octave) + sub * width + width - 1

        self.assertEqual(pbstats.bucket_lower(0), 0)
        self.assertEqual(pbstats.bucket_lower(4), 4)
        for i in list(range(1, 4)) + list(range(9, 200)):
            self.assertEqual(pbstats.bucket_lower(upper(i)), upper(i - 1) + 1,
                             i)


class SpanTest(unittest.TestCase):
    def write(self, rows):
        f = tempfile.NamedTemporaryFile("w", delete=False, suffix=".csv")
        f.write("id,name,parent,req,start_ns,end_ns\n")
        for r in rows:
            f.write(",".join(str(x) for x in r) + "\n")
        f.close()
        self.addCleanup(os.unlink, f.name)
        return pbstats.read_spans(f.name)

    def test_self_time_subtracts_children(self):
        spans = self.write([
            (0, "batch", -1, 1, 0, 100),
            (1, "encode", 0, 1, 10, 20),
            (2, "check", 0, 1, 90, 100),
        ])
        totals, counts = pbstats.self_times(spans)
        self.assertEqual(totals, {"batch": 80, "encode": 10, "check": 10})
        self.assertEqual(counts, {"batch": 1, "encode": 1, "check": 1})

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = self.write([
            (0, "batch", -1, 7, 0, 100),
            (1, "call", 0, 7, 10, 50),
            (2, "call", 0, 7, 40, 60),    # overlaps the first call
            (3, "check", 0, 7, 95, 130),  # runs past its parent's end
        ])
        totals, _ = pbstats.self_times(spans)
        self.assertEqual(totals["batch"], 100 - 50 - 5)

    def test_root_spans_and_missing_ids(self):
        # Span 5's parent (4) was never closed, so it was not written;
        # the child still reports its own time.
        spans = self.write([
            (3, "send", -1, 0, 0, 7),
            (5, "decode", 4, 9, 10, 12),
        ])
        totals, counts = pbstats.self_times(spans)
        self.assertEqual(totals, {"send": 7, "decode": 2})
        self.assertEqual(counts["send"], 1)


if __name__ == "__main__":
    unittest.main()
