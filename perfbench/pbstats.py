"""Statistics helpers for the benchmark: sample quantiles, the windowed
median, Prometheus /metrics parsing and before/after diffs (histograms
included), and span self time. Pure functions; tested by
perfbench/tests/test_pbstats.py."""

import csv
import math
import re
from array import array
from collections import defaultdict


def median(values):
    return quantile(sorted(values), 0.5)


def quantile(sorted_values, q):
    """Quantile of already sorted values, interpolating between the two
    nearest ranks (the 'linear' method of most statistics packages)."""
    if not sorted_values:
        raise ValueError("quantile of no samples")
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * frac


def windowed_median(window_counts, window_secs):
    """Median per-second rate over consecutive windows, given the work
    completed in each and its measured length. Host-wide contention
    comes and goes in bursts; the median window ignores them where a
    whole-run mean would not."""
    if not window_counts or len(window_counts) != len(window_secs):
        raise ValueError("need one length per window")
    return median([c / s for c, s in zip(window_counts, window_secs)])


def read_samples(path):
    """Raw little-endian float64 samples written by pb_load."""
    a = array("d")
    with open(path, "rb") as f:
        a.frombytes(f.read())
    return a


def lateness(lag_us):
    """p99 of how late an open-loop generator sent, in microseconds."""
    return quantile(sorted(lag_us), 0.99)


_SAMPLE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+(\S+)$')
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text):
    """Parses Prometheus text exposition into
    {(name, ((label, value), ...)): float}; labels are sorted."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE.match(line)
        if not m:
            raise ValueError("bad metrics line: " + line)
        labels = tuple(sorted(_LABEL.findall(m.group(3) or "")))
        out[(m.group(1), labels)] = float(m.group(4))
    return out


def counter_delta(before, after, name):
    """Sum over all label sets of after - before for one counter."""
    total = 0.0
    for (n, labels), v in after.items():
        if n == name:
            total += v - before.get((n, labels), 0.0)
    return total


def counter_value(samples, name):
    return sum(v for (n, _), v in samples.items() if n == name)


def _cumulative(samples, name):
    """{series labels without le: sorted [(le, cumulative)]} of a
    histogram; exports may be sparse (only bounds that hold samples)."""
    series = defaultdict(list)
    for (n, labels), v in samples.items():
        if n != name + "_bucket":
            continue
        le = dict(labels)["le"]
        rest = tuple(kv for kv in labels if kv[0] != "le")
        series[rest].append((math.inf if le == "+Inf" else float(le), v))
    return {k: sorted(v) for k, v in series.items()}


def _at(points, x):
    """Cumulative count at bound x of a sparse cumulative histogram:
    that of the largest listed bound <= x (empty buckets are omitted)."""
    c = 0.0
    for le, v in points:
        if le > x:
            break
        c = v
    return c


def histogram_delta(before, after, name):
    """Cumulative buckets [(le, count)] of the samples a histogram
    gained between two scrapes, summed over its label sets."""
    b, a = _cumulative(before, name), _cumulative(after, name)
    bounds = sorted({le for pts in list(a.values()) + list(b.values())
                     for le, _ in pts})
    return [(le, sum(_at(a.get(k, []), le) - _at(b.get(k, []), le)
                     for k in set(a) | set(b)))
            for le in bounds]


def bucket_lower(upper):
    """Inclusive lower edge of the bucket whose inclusive upper edge is
    `upper` in the repository's log-linear histogram (metrics/histogram.hpp:
    exact below 4, then four sub-buckets per power of two)."""
    upper = int(upper)
    if upper < 4:
        return upper
    octave = upper.bit_length() - 1
    return upper - (1 << (octave - 2)) + 1


def histogram_quantile(buckets, q):
    """Quantile of cumulative buckets [(le, count)], interpolating
    linearly inside the bucket that holds the rank. None if empty."""
    finite = [(le, c) for le, c in buckets if le != math.inf]
    total = buckets[-1][1] if buckets else 0
    if total <= 0:
        return None
    rank = q * total
    prev_le, prev_c = None, 0.0
    for le, c in finite:
        if c >= rank and c > prev_c:
            lo = bucket_lower(le)
            if prev_le is not None:
                lo = max(lo, prev_le + 1)
            return lo + (le + 1 - lo) * (rank - prev_c) / (c - prev_c)
        prev_le, prev_c = le, c
    return prev_le


def histogram_mean(before, after, name):
    """Mean of the samples a histogram gained between two scrapes."""
    n = counter_delta(before, after, name + "_count")
    s = counter_delta(before, after, name + "_sum")
    return s / n if n > 0 else None


def read_spans(path):
    """Spans written by pb_load: {id: (name, parent, req, start, end)}."""
    spans = {}
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            spans[int(row["id"])] = (row["name"], int(row["parent"]),
                                     int(row["req"]), int(row["start_ns"]),
                                     int(row["end_ns"]))
    return spans


def self_times(spans):
    """Total self time per span name, in ns: a span's duration minus the
    part of it covered by its children. Also returns span counts."""
    children = defaultdict(list)
    for sid, (_, parent, _, start, end) in spans.items():
        if parent >= 0:
            children[parent].append((start, end))
    totals, counts = defaultdict(float), defaultdict(int)
    for sid, (name, _, _, start, end) in spans.items():
        covered, cur_lo, cur_hi = 0, None, None
        for lo, hi in sorted(children.get(sid, [])):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        totals[name] += (end - start) - covered
        counts[name] += 1
    return dict(totals), dict(counts)
