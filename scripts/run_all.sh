#!/usr/bin/env bash
# Builds everything, runs the full test suite, then regenerates every
# paper table/figure into results/ — text to results/<bench>.txt,
# machine-readable telemetry to results/json/BENCH_<name>.json (see
# bench/bench_json.hpp), plus results/json/manifest.json indexing the
# run. Exits non-zero if any harness fails (every harness still runs, so
# one broken bench does not hide the state of the rest).
#
# Pass --full to run the paper-scale workloads (slower).
set -uo pipefail
cd "$(dirname "$0")/.."

FULL_FLAG=""
if [[ "${1:-}" == "--full" ]]; then
  FULL_FLAG="--full"
fi

set -e
cmake -B build -G Ninja -DCMAKE_BUILD_TYPE=Release
cmake --build build
ctest --test-dir build --output-on-failure
set +e

mkdir -p results results/json
export MPCBF_JSON_DIR="results/json"

failed=()
run_bench() {
  local name=$1
  shift
  echo "== $name"
  if ! "build/bench/$name" "$@" | tee "results/$name.txt"; then
    failed+=("$name")
  fi
}

for bench in build/bench/bench_*; do
  name=$(basename "$bench")
  case "$name" in
    bench_micro_ops|bench_journal)
      run_bench "$name" --benchmark_min_time=0.2
      ;;
    bench_fig07*|bench_fig08*|bench_fig11*|bench_fig12*|bench_table3*|bench_table4*)
      run_bench "$name" $FULL_FLAG
      ;;
    *)
      run_bench "$name"
      ;;
  esac
done

# Admin-plane overhead summary: the logging compiled-out twin
# (bench_admin_nolog) vs the disarmed/armed costs (bench_admin).
{
  echo "Admin-plane overhead (see bench/bench_admin.cpp)"
  echo "================================================"
  echo
  echo "--- logging compiled out (MPCBF_DISABLE_LOGGING) ---"
  cat results/bench_admin_nolog.txt
  echo
  echo "--- logging compiled in (disarmed site + armed costs) ---"
  cat results/bench_admin.txt
} > results/bench_admin_summary.tmp
mv results/bench_admin_summary.tmp results/bench_admin.txt
rm -f results/bench_admin_nolog.txt

# Manifest: one entry per JSON report produced by this run.
python3 - <<'EOF'
import json, os, time

d = "results/json"
entries = []
for f in sorted(os.listdir(d)):
    if not (f.startswith("BENCH_") and f.endswith(".json")):
        continue
    path = os.path.join(d, f)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as e:
        raise SystemExit(f"manifest: {path} is not valid JSON: {e}")
    entries.append({
        "file": f,
        "bench": doc.get("bench"),
        "git_sha": doc.get("git_sha"),
        "timestamp_unix": doc.get("timestamp_unix"),
        "metrics": sorted(doc.get("metrics", {})),
    })
manifest = {
    "generated_unix": int(time.time()),
    "count": len(entries),
    "reports": entries,
}
with open(os.path.join(d, "manifest.json"), "w") as fh:
    json.dump(manifest, fh, indent=2)
    fh.write("\n")
print(f"manifest: {len(entries)} reports indexed in {d}/manifest.json")
EOF
if [[ $? -ne 0 ]]; then
  failed+=("manifest")
fi

if [[ ${#failed[@]} -gt 0 ]]; then
  echo "FAILED: ${failed[*]}" >&2
  exit 1
fi
echo "All benches complete; outputs in results/ (JSON in results/json/)."
