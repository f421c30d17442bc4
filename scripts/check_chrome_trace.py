#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON capture.

Checks what chrome://tracing and Perfetto need to load the output of
`mpcbf_tool trace --out` and of the admin plane's /tracez:

    python3 scripts/check_chrome_trace.py replay.trace.json
    python3 scripts/check_chrome_trace.py --require-trace-id tracez.out

Checks:
  * the file is valid JSON holding a `traceEvents` list
  * every event has ph, ts, name, cat, pid and tid
  * every complete ("X") event has dur
  * a present args.trace_id is a 16-digit lowercase hex string (a JSON
    number would be read as a double and lose the low bits of a 64-bit
    id); --require-trace-id additionally demands at least one

Exit 0 when clean; 1 with one diagnostic per line on stderr otherwise.
"""

import argparse
import json
import re
import sys

REQUIRED = ("ph", "ts", "name", "cat", "pid", "tid")
HEX16_RE = re.compile(r"^[0-9a-f]{16}$")


def check(doc, require_trace_id):
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"),
                                                   list):
        return ["top level must be an object with a traceEvents list"]
    errors = []
    traced = 0
    for i, ev in enumerate(doc["traceEvents"]):
        if not isinstance(ev, dict):
            errors.append(f"event {i}: not an object")
            continue
        missing = [k for k in REQUIRED if k not in ev]
        if missing:
            errors.append(f"event {i} ({ev.get('name')!r}): missing "
                          + ", ".join(missing))
        if ev.get("ph") == "X" and "dur" not in ev:
            errors.append(f"event {i} ({ev.get('name')!r}): X without dur")
        args = ev.get("args", {})
        if isinstance(args, dict) and "trace_id" in args:
            tid = args["trace_id"]
            if isinstance(tid, str) and HEX16_RE.match(tid):
                traced += 1
            else:
                errors.append(f"event {i} ({ev.get('name')!r}): trace_id "
                              f"{tid!r} is not 16-digit hex")
    if require_trace_id and traced == 0:
        errors.append("no event carries a 16-digit hex trace_id")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("path")
    ap.add_argument("--require-trace-id", action="store_true",
                    help="fail unless some event carries args.trace_id")
    args = ap.parse_args()
    try:
        with open(args.path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"{args.path}: {e}", file=sys.stderr)
        return 1
    errors = check(doc, args.require_trace_id)
    for e in errors:
        print(f"{args.path}: {e}", file=sys.stderr)
    if not errors:
        print(f"{args.path}: ok ({len(doc['traceEvents'])} events)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
