#!/usr/bin/env python3
"""One command for the benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload filter-dram|serve-read|serve-write \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --tiny      # every workload, in seconds

Run from the root of a checkout. It builds the library, `mpcbf_tool` and
the pb_load measuring program from source into .bench_build/, runs one workload
with pb_load, checks that it reported no failed operation, and prints
one JSON line: the end-to-end metrics (--trace 0) or the per-layer
metrics (--trace 1). Everything it writes stays under .bench_build/.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # write nothing outside .bench_build/
sys.path.insert(0, str(Path(__file__).resolve().parent))
import pbstats  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".bench_build"
BUILD = WORK / "perfbench"
WORKLOADS = ("filter-dram", "serve-read", "serve-write")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("run.py: repository sources (src/) not found; run from the "
            "root of a checkout")
        sys.exit(2)
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                        str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                    "pb_load", "mpcbf_tool"], check=True, stdout=sys.stderr)


def stop_group(pgid):
    """SIGKILLs what is left of a process group and waits until it is
    gone (servers outlive a pb_load that crashed)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_load(workload, seed, seconds, trace, tiny):
    out = WORK / "runs" / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [str(BUILD / "pb_load"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out), "--tool", str(BUILD / "mpcbf_tool")]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rc = None
        log("run.py: pb_load timed out")
    finally:
        stop_group(proc.pid)
        proc.wait()
    raw_path = out / "raw.json"
    raw = json.loads(raw_path.read_text()) if raw_path.is_file() else None
    return rc, raw, out


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(raw, out):
    lat = sorted(pbstats.read_samples(out / "lat_us.bin"))
    m = {
        "setup_s": metric(pbstats.median(raw["setup_s"]), "s"),
        "kkeys_per_s": metric(pbstats.windowed_median(
            raw["windows"], raw["window_secs"]) / 1e3, "kkeys/s"),
        "p50_us": metric(pbstats.quantile(lat, 0.50), "us"),
        "fpr": metric(raw["fpr"], "ratio"),
        "peak_rss_mb": metric(raw["peak_rss_kb"] / 1024, "MiB"),
    }
    if "recover_s" in raw:  # serve-write's crash/restart cycles
        m["recover_s"] = metric(pbstats.median(raw["recover_s"]), "s")
    return m


def per_layer(workload, raw, out):
    """Per-layer figures. A figure of a layer that is not on a workload's
    path reads 0 (server.* on filter-dram)."""
    m = {}

    def put(name, value, unit):
        m[name] = metric(0.0 if value is None else float(value), unit)

    put("hash.ns_per_key", raw["layer.hash_ns_per_key"], "ns")
    put("hash.bits_per_op", raw["layer.bits_per_op"], "bits")
    put("core.query_ns_per_key", raw["layer.query_ns_per_key"], "ns")
    put("core.insert_ns_per_key", raw["layer.insert_ns_per_key"], "ns")
    put("core.erase_ns_per_key", raw["layer.erase_ns_per_key"], "ns")
    put("core.derive_ns_per_key", raw["layer.derive_ns_per_key"], "ns")
    put("core.words_per_op", raw["layer.words_per_op"], "count")
    put("net.encode_ns_per_frame", raw["layer.encode_ns_per_frame"], "ns")
    put("net.decode_ns_per_frame", raw["layer.decode_ns_per_frame"], "ns")
    put("io.crc32c_ns_per_kib", raw["layer.crc32c_ns_per_kib"], "ns")

    lat = sorted(pbstats.read_samples(out / "lat_us.bin"))
    # The tail does not repeat run to run on a shared host, so it is
    # reported here, without a bound, next to its sample count.
    put("client.p99_us", pbstats.quantile(lat, 0.99), "us")
    put("client.latency_samples", len(lat), "count")

    if workload == "filter-dram":
        put("net.wire_bytes_per_key", raw["layer.frame_wire_bytes_per_key"],
            "bytes")
        for name, unit in SERVER_METRICS + DURABLE_METRICS:
            put(name, None, unit)
    else:
        served_layers(raw, out, lat, put)
        # serve-write takes these from its server; serve-read from a
        # DurableMpcbf timed in process.
        durable_layers(raw, out, put, workload == "serve-read")

    # Tracing: overhead against the untraced segments of the same run,
    # and self time per benchmark-side span, per batch.
    untraced = pbstats.windowed_median(raw["windows_untraced"],
                                       raw["window_secs_untraced"])
    traced = pbstats.windowed_median(raw["windows"], raw["window_secs"])
    put("trace.overhead_ratio", untraced / traced - 1, "ratio")
    totals, counts = pbstats.self_times(pbstats.read_spans(out / "spans.csv"))
    batches = counts.get("batch", 0)
    for name in ("batch", "keygen", "encode", "send", "call", "decode",
                 "check"):
        put(f"trace.{name}_self_us",
            totals.get(name, 0.0) / batches / 1e3 if batches else None, "us")
    return m


SERVER_METRICS = (("server.request_p50_us", "us"),
                  ("server.keys_per_request", "count"),
                  ("server.protocol_errors", "count"),
                  ("server.wire_overhead_us", "us"),
                  ("loadgen.lag_p99_us", "us"))
DURABLE_METRICS = (("journal.syncs_per_key", "count"),
                   ("journal.flush_p50_us", "us"),
                   ("journal.commit_batch_records", "count"),
                   ("journal.bytes_per_key", "bytes"),
                   ("durable.snapshot_load_s", "s"),
                   ("durable.replay_records_per_s", "1/s"),
                   ("durable.replayed_records", "count"))


def scrapes(out, names, prefix="metrics"):
    return {k: pbstats.parse_prometheus(
        (out / f"{prefix}-{k}.txt").read_text()) for k in names}


def served_layers(raw, out, lat, put):
    """net/server figures from the client's byte counts and the server's
    own /metrics, diffed around the timed phases."""
    scr = scrapes(out, ("start", "closed", "open"))
    put("net.wire_bytes_per_key", raw["phase_bytes"] / raw["phase_keys"],
        "bytes")
    req = pbstats.histogram_quantile(pbstats.histogram_delta(
        scr["closed"], scr["open"], "mpcbf_server_request_duration_ns"), 0.5)
    req_us = None if req is None else req / 1e3
    put("server.request_p50_us", req_us, "us")
    reqs = pbstats.counter_delta(scr["start"], scr["open"],
                                 "mpcbf_server_requests_total")
    keys = pbstats.counter_delta(scr["start"], scr["open"],
                                 "mpcbf_server_keys_total")
    put("server.keys_per_request", keys / reqs if reqs else None, "count")
    put("server.protocol_errors", pbstats.counter_delta(
        scr["start"], scr["open"], "mpcbf_server_protocol_errors_total"),
        "count")
    put("server.wire_overhead_us",
        None if req_us is None else pbstats.quantile(lat, 0.5) - req_us, "us")
    put("loadgen.lag_p99_us",
        pbstats.lateness(pbstats.read_samples(out / "lag_us.bin")), "us")


def durable_layers(raw, out, put, in_process):
    """io/journal and core/durable_mpcbf figures: from the server's
    /metrics (serve-write), or from pb_load's own registry around an
    in-process DurableMpcbf (serve-read)."""
    scr = scrapes(out, ("start", "open", "recovered"),
                  "registry" if in_process else "metrics")
    mutated = raw["phase_mutated_keys"]
    syncs = pbstats.counter_delta(scr["start"], scr["open"],
                                  "mpcbf_journal_syncs_total")
    put("journal.syncs_per_key", syncs / mutated if mutated else None,
        "count")
    flush = pbstats.histogram_quantile(pbstats.histogram_delta(
        scr["start"], scr["open"], "mpcbf_journal_flush_duration_ns"), 0.5)
    put("journal.flush_p50_us", None if flush is None else flush / 1e3, "us")
    put("journal.commit_batch_records", pbstats.histogram_mean(
        scr["start"], scr["open"], "mpcbf_durable_commit_batch_records"),
        "count")
    put("journal.bytes_per_key",
        raw["wal_bytes_delta"] / mutated if mutated else None, "bytes")
    # The restarted server counts the records its own recovery replayed;
    # in process, the registry also counts earlier recoveries.
    replayed = pbstats.counter_value(scr["recovered"],
                                     "mpcbf_durable_replayed_records_total")
    if in_process:
        replayed -= pbstats.counter_value(
            scr["open"], "mpcbf_durable_replayed_records_total")
    put("durable.replayed_records", replayed, "count")
    snap = raw["durable_snapshot_load_s"]
    put("durable.snapshot_load_s", snap, "s")
    replay_s = raw["durable_recover_s"] - snap
    put("durable.replay_records_per_s",
        replayed / replay_s if replay_s > 0 else None, "1/s")


def run_one(workload, seed, seconds, trace, tiny=False):
    """Runs one workload; returns (ok, result dict)."""
    rc, raw, out = run_load(workload, seed, seconds, trace, tiny)
    if raw is None:
        log(f"run.py: {workload}: pb_load left no record (exit {rc})")
        return False, None
    for reason in raw["failures"]:
        log(f"run.py: {workload}: failed: {reason}")
    correct = rc == 0 and raw["failed"] == 0
    metrics = per_layer(workload, raw, out) if trace else \
        end_to_end(raw, out)
    return correct, {"correct": correct, "attempted": raw["attempted"],
                     "failed": raw["failed"], "metrics": metrics}


def main():
    # A SIGTERM still runs run_load's clean-up of its process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="run every workload at toy sizes for a few "
                         "seconds, traced and untraced (harness check "
                         "only; never compare its numbers)")
    args = ap.parse_args()
    if not args.tiny and args.workload is None:
        ap.error("--workload is required (or --tiny)")
    build()
    if args.tiny:
        ok_all = True
        for workload in WORKLOADS:
            for trace in (0, 1):
                ok, result = run_one(workload, args.seed, 1.5, trace, True)
                ok_all &= ok
                print(json.dumps({"workload": workload, "trace": trace,
                                  **(result or {"correct": False})}))
        sys.exit(0 if ok_all else 1)
    ok, result = run_one(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        sys.exit(1)
    print(json.dumps(result))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
