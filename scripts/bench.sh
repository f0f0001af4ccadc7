#!/usr/bin/env bash
# Canonical perf run: Release build, the headline bench set, one merged
# JSON artifact so the perf trajectory accumulates across PRs.
#
# Usage: scripts/bench.sh [output.json]
#   BUILD_DIR   override the build directory (default: build-bench)
#   BENCH_ARGS  extra args for every bench binary (e.g. --benchmark_filter=...)
#
# Benches: C1 (range locking, streamed and credited scan arms; the
# retired blocking/eager baselines live only in BENCH_PR8.json), C9
# (logging / group commit), C10 (pipelining msgs/txn), F2 (Figure 2
# cloud scenario — channel AND loopback-TCP socket arms; their msgs/txn
# must match — plus the replica ship/failover arm: lag under a write
# burst and the suffix-only resend economics of promoting a hot standby).
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_PR8.json}"
BUILD_DIR="${BUILD_DIR:-build-bench}"
BENCHES=(bench_c1_range_locking bench_c9_logging bench_c10_pipelining
         bench_f2_cloud_scenario)

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
if ! cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${BENCHES[@]}"; then
  echo "bench targets unavailable (is Google Benchmark installed?)" >&2
  exit 1
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
for bench in "${BENCHES[@]}"; do
  echo "== $bench"
  "$BUILD_DIR/$bench" \
    --benchmark_out="$TMP/$bench.json" \
    --benchmark_out_format=json \
    ${BENCH_ARGS:-}
done

python3 - "$OUT" "$TMP" "${BENCHES[@]}" <<'EOF'
import json, sys, datetime
out_path, tmp = sys.argv[1], sys.argv[2]
merged = {
    "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    "suites": {},
}
for bench in sys.argv[3:]:
    with open(f"{tmp}/{bench}.json") as f:
        data = json.load(f)
    merged["suites"][bench] = {
        "context": data.get("context", {}),
        "benchmarks": data.get("benchmarks", []),
    }
with open(out_path, "w") as f:
    json.dump(merged, f, indent=1)
print(f"wrote {out_path} "
      f"({sum(len(s['benchmarks']) for s in merged['suites'].values())} "
      "benchmark results)")
EOF
