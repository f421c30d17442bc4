#!/usr/bin/env python3
"""Regression gate over the JSON bench reports.

Compares the ns/op metric series in freshly generated
results/json/BENCH_<name>.json reports against a committed baseline
directory and fails (exit 1) when any gated metric regressed by more
than --tolerance (default 15%).

Two metric families are gated, for the benches listed in --benches
(default: the ones the CI perf gate watches): latency-style metrics
(name containing "ns") fail on an INCREASE beyond tolerance, and
throughput-style metrics (name containing "qps") fail on a DECREASE
beyond tolerance — the server saturation curve reports qps series so a
scalability regression trips the gate even when per-key latency holds.
Improvements and new metrics are reported but never fail the gate; a
metric present in the baseline but missing from the candidate fails it
(a silently vanished series is how perf coverage rots). Numeric series
of the same reports that neither family matches (for example
BM_Crc32c_* or the *_QueryPositive micro benches) are listed as
"report-only" rows, so their movement is visible without gating them.

Both --baseline and --candidate may be given multiple times; each
metric is reduced to its minimum across the runs before comparing.
Min-of-N is the standard de-noising for latency series — scheduler and
cache interference only ever add time — so run the candidate benches
~3 times on shared hardware to keep the gate from tripping on noise.

Usage:
  scripts/bench_compare.py \
      --baseline results/json/baseline \
      --candidate run1 --candidate run2 --candidate run3 \
      [--benches micro_ops,fig08_query_time] \
      [--tolerance 0.15]
"""

import argparse
import json
import os
import sys

DEFAULT_BENCHES = "micro_ops,fig08_query_time,server,elastic,multitenant"


def is_throughput(name: str) -> bool:
    """qps series gate on decrease; everything else gated is ns/op."""
    return "qps" in name


def load_metrics(directories, bench: str, select=None):
    """Best value per metric across every directory holding this
    bench's report: minimum for ns/op series, maximum for qps series —
    interference only ever adds latency and removes throughput.
    `select` picks the series (default: gated_metrics).
    Returns (metrics-or-None, paths-searched)."""
    select = select or gated_metrics
    merged = None
    paths = []
    for directory in directories:
        path = os.path.join(directory, f"BENCH_{bench}.json")
        paths.append(path)
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            report = json.load(fh)
        metrics = select(report)
        if merged is None:
            merged = metrics
        else:
            for name, value in metrics.items():
                if name not in merged:
                    merged[name] = value
                elif is_throughput(name):
                    merged[name] = max(merged[name], value)
                else:
                    merged[name] = min(merged[name], value)
    return merged, paths


def gated_metrics(report: dict):
    """ns/op and qps series — counts, ratios, and RSS are not gates."""
    return {
        name: value
        for name, value in report.get("metrics", {}).items()
        if ("ns" in name or "qps" in name)
        and isinstance(value, (int, float))
    }


def report_only_metrics(report: dict):
    """Numeric series the gate does not watch."""
    gated = gated_metrics(report)
    return {
        name: value
        for name, value in report.get("metrics", {}).items()
        if name not in gated and isinstance(value, (int, float))
        and not isinstance(value, bool)
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True, action="append",
                    help="directory with committed BENCH_<name>.json files "
                         "(repeatable; per-metric min is used)")
    ap.add_argument("--candidate", required=True, action="append",
                    help="directory with freshly generated reports "
                         "(repeatable; per-metric min is used)")
    ap.add_argument("--benches", default=DEFAULT_BENCHES,
                    help="comma-separated bench names to gate "
                         f"(default: {DEFAULT_BENCHES})")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed fractional ns/op increase (default 0.15)")
    args = ap.parse_args()

    failures = []
    rows = []
    for bench in [b for b in args.benches.split(",") if b]:
        base_metrics, base_paths = load_metrics(args.baseline, bench)
        cand_metrics, cand_paths = load_metrics(args.candidate, bench)
        if base_metrics is None:
            print(f"[bench_compare] no baseline for {bench} "
                  f"(searched {base_paths}) — skipping", file=sys.stderr)
            continue
        if cand_metrics is None:
            failures.append(f"{bench}: candidate report missing "
                            f"(searched {cand_paths})")
            continue
        for name, base_val in sorted(base_metrics.items()):
            if name not in cand_metrics:
                failures.append(f"{bench}/{name}: metric vanished from "
                                "candidate report")
                continue
            cand_val = cand_metrics[name]
            if base_val <= 0:
                continue
            delta = (cand_val - base_val) / base_val
            status = "ok"
            if is_throughput(name):
                if -delta > args.tolerance:
                    status = "REGRESSED"
                    failures.append(
                        f"{bench}/{name}: {base_val:.2f} -> {cand_val:.2f} "
                        f"qps ({delta * 100.0:.1f}% < -"
                        f"{args.tolerance * 100.0:.0f}%)")
            elif delta > args.tolerance:
                status = "REGRESSED"
                failures.append(
                    f"{bench}/{name}: {base_val:.2f} -> {cand_val:.2f} "
                    f"ns/op (+{delta * 100.0:.1f}% > "
                    f"{args.tolerance * 100.0:.0f}%)")
            rows.append((bench, name, base_val, cand_val, delta, status))
        for name in sorted(set(cand_metrics) - set(base_metrics)):
            rows.append((bench, name, None, cand_metrics[name], None, "new"))
        base_other, _ = load_metrics(args.baseline, bench,
                                     report_only_metrics)
        cand_other, _ = load_metrics(args.candidate, bench,
                                     report_only_metrics)
        for name, cand_val in sorted(cand_other.items()):
            base_val = base_other.get(name)
            delta = ((cand_val - base_val) / base_val
                     if base_val else None)
            rows.append((bench, name, base_val, cand_val, delta,
                         "report-only"))

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
