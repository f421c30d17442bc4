#!/usr/bin/env python3
"""Regression gate over the JSON bench reports.

Compares the metric series in freshly generated
results/json/BENCH_<name>.json reports against a committed baseline
directory and fails (exit 1) when any gated metric regressed by more
than --tolerance (default 15%).

A series is gated by its unit, which each report lists in its `units`
object (bench/bench_json.hpp), for the benches listed in --benches
(default: the ones the CI perf gate watches):
  * "ns" (latency per operation) fails on an INCREASE beyond tolerance;
  * "qps" (throughput) fails on a DECREASE beyond tolerance — the server
    saturation curve reports qps series so a scalability regression
    trips the gate even when per-key latency holds.
Series in any other unit (us, ms, x, ratio, count) and the series that
match REPORT_ONLY below are listed as "report-only" rows, so their
movement is visible without gating them:
  * BM_Crc32c_* — kernel timings, checked for equality by test_crc32c;
  * *_QueryPositive — scalar positive queries, which the gated fig08
    ns_per_query/* and elastic query_seg* series time as well;
  * BM_WordBitset_InsertRemove — a 0.36 ns loop that swings 60% with
    host load.
Units come from the candidate reports (the baseline's where a series
is missing from the candidate). Improvements and new metrics are
reported but never fail the gate; a gated metric present in the
baseline but missing from the candidate fails it (a silently vanished
series is how perf coverage rots), and so does a vanished series whose
unit no report names, unless REPORT_ONLY lists it.

Both --baseline and --candidate may be given multiple times; each
metric is reduced to its best value across the runs before comparing
(minimum for ns, maximum for qps). Min-of-N is the standard de-noising
for latency series — scheduler and cache interference only ever add
time — so run the candidate benches ~3 times on shared hardware to keep
the gate from tripping on noise.

Usage:
  scripts/bench_compare.py \
      --baseline results/json/baseline \
      --candidate run1 --candidate run2 --candidate run3 \
      [--benches micro_ops,fig08_query_time] \
      [--tolerance 0.15]
"""

import argparse
import fnmatch
import json
import os
import sys

DEFAULT_BENCHES = "micro_ops,fig08_query_time,server,elastic,multitenant,admin"

# Gated units: unit -> True when higher is better.
GATED_UNITS = {"ns": False, "qps": True}

REPORT_ONLY = ("BM_Crc32c_*", "*_QueryPositive", "BM_WordBitset_InsertRemove")


def is_report_only(name: str) -> bool:
    return any(fnmatch.fnmatchcase(name, pat) for pat in REPORT_ONLY)


def load_reports(directories, bench: str):
    """Numeric metrics and units of every directory holding this bench's
    report, each metric reduced to its best value across the runs.
    Returns (metrics-or-None, units, paths-searched)."""
    reports = []
    paths = []
    for directory in directories:
        path = os.path.join(directory, f"BENCH_{bench}.json")
        paths.append(path)
        if os.path.exists(path):
            with open(path) as fh:
                reports.append(json.load(fh))
    if not reports:
        return None, {}, paths
    units = {}
    for report in reports:
        for name, unit in report.get("units", {}).items():
            units.setdefault(name, unit)
    merged = {}
    for report in reports:
        for name, value in report.get("metrics", {}).items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            if name not in merged:
                merged[name] = value
            elif GATED_UNITS.get(units.get(name)):
                merged[name] = max(merged[name], value)
            else:
                merged[name] = min(merged[name], value)
    return merged, units, paths


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True, action="append",
                    help="directory with committed BENCH_<name>.json files "
                         "(repeatable; per-metric best is used)")
    ap.add_argument("--candidate", required=True, action="append",
                    help="directory with freshly generated reports "
                         "(repeatable; per-metric best is used)")
    ap.add_argument("--benches", default=DEFAULT_BENCHES,
                    help="comma-separated bench names to gate "
                         f"(default: {DEFAULT_BENCHES})")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed fractional regression (default 0.15)")
    args = ap.parse_args()

    failures = []
    rows = []
    for bench in [b for b in args.benches.split(",") if b]:
        base_metrics, base_units, base_paths = load_reports(args.baseline,
                                                            bench)
        cand_metrics, units, cand_paths = load_reports(args.candidate, bench)
        if base_metrics is None:
            print(f"[bench_compare] no baseline for {bench} "
                  f"(searched {base_paths}) — skipping", file=sys.stderr)
            continue
        if cand_metrics is None:
            failures.append(f"{bench}: candidate report missing "
                            f"(searched {cand_paths})")
            continue
        for name, unit in base_units.items():
            units.setdefault(name, unit)

        def gated(name):
            return units.get(name) in GATED_UNITS and not is_report_only(name)

        for name, base_val in sorted(base_metrics.items()):
            if name not in cand_metrics:
                if gated(name) or (name not in units
                                   and not is_report_only(name)):
                    failures.append(f"{bench}/{name}: metric vanished from "
                                    "candidate report")
                continue
            cand_val = cand_metrics[name]
            delta = ((cand_val - base_val) / base_val
                     if base_val > 0 else None)
            if not gated(name):
                rows.append((bench, name, base_val, cand_val, delta,
                             "report-only"))
                continue
            if delta is None:
                continue
            unit = units[name]
            status = "ok"
            worse = -delta if GATED_UNITS[unit] else delta
            if worse > args.tolerance:
                status = "REGRESSED"
                failures.append(
                    f"{bench}/{name}: {base_val:.2f} -> {cand_val:.2f} "
                    f"{unit} ({delta * 100.0:+.1f}%, tolerance "
                    f"{args.tolerance * 100.0:.0f}%)")
            rows.append((bench, name, base_val, cand_val, delta, status))
        for name in sorted(set(cand_metrics) - set(base_metrics)):
            rows.append((bench, name, None, cand_metrics[name], None,
                         "new" if gated(name) else "report-only"))

    if rows:
        width = max(len(f"{b}/{n}") for b, n, *_ in rows) + 2
        print(f"{'metric':<{width}}{'baseline':>12}{'candidate':>12}"
              f"{'delta':>9}  status")
        for bench, name, base_val, cand_val, delta, status in rows:
            base_s = f"{base_val:.2f}" if base_val is not None else "-"
            delta_s = f"{delta * 100.0:+.1f}%" if delta is not None else "-"
            print(f"{bench + '/' + name:<{width}}{base_s:>12}"
                  f"{cand_val:>12.2f}{delta_s:>9}  {status}")
    else:
        print("[bench_compare] no gated metrics found", file=sys.stderr)

    if failures:
        print("\nFAILED perf gate:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nperf gate passed "
          f"(tolerance {args.tolerance * 100.0:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
