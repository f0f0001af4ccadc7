#!/usr/bin/env bash
# Tier-1 verify with warnings on: configure, build, ctest.
# Usage: scripts/check.sh [--asan|--tsan|--socket|--stress N|--bench-smoke]
#                         [--filter REGEX] [extra cmake args...]
#   --asan    build and test under ASan+UBSan (its own build dir), so the
#             concurrent multi-TC / channel paths are sanitizer-checked.
#   --tsan    build and test under ThreadSanitizer (its own build dir) —
#             the scan-stream credit/cursor machinery, server threads and
#             resend daemons are data-race-checked end to end.
#   --socket  ASan+UBSan build of just the real-network arm: the frame
#             codec, the loopback-TCP cluster tests, the redo-shipping /
#             failover suite (dc_replication_test), and the
#             separate-process daemons (untx_tcd/untx_dcd SIGKILL'd,
#             promoted and recovered by process_cluster_test).
#   --stress N  the default build, then the whole ctest suite N times at
#             -j$(nproc), so load-dependent flakes show up. Every failing
#             round's output is kept as $BUILD_DIR/stress-logs/round-K.log;
#             the script exits non-zero if any round failed.
#   --bench-smoke  no ctest: for every workload BENCHMARK.json names, run
#             python3 perfbench/run.py --workload W --seed 1 --seconds 1
#             (it builds its own Release tree under .bench_build/; the
#             run's stderr goes to .bench_build/smoke-W.log). Exits
#             non-zero unless every run reports correct: true with 0
#             failed, i.e. every acknowledged write read back exactly as
#             the per-key model says. Changes nothing under perfbench/
#             and ignores --filter.
#   --filter REGEX  run only the ctest suites matching REGEX (ctest -R),
#             with any of the modes above, e.g.
#             scripts/check.sh --tsan --filter recovery_test
#             scripts/check.sh --stress 20 --filter 'cloud_test|recovery_test'
#             It replaces --socket's own suite list.
set -euo pipefail
cd "$(dirname "$0")/.."

CTEST_FILTER=()
CXX_FLAGS="-Wall -Wextra"
LINK_FLAGS=""
STRESS_ROUNDS=0
MODE=""
FILTER=""
usage() {
  echo "usage: scripts/check.sh [--asan|--tsan|--socket|--stress N" \
    "|--bench-smoke] [--filter REGEX] [cmake args...]" >&2
  exit 2
}
while (( $# > 0 )); do
  case "$1" in
    --asan|--tsan|--socket|--bench-smoke)
      MODE="$1"
      shift
      ;;
    --stress)
      STRESS_ROUNDS="${2:-}"
      [[ "$STRESS_ROUNDS" =~ ^[1-9][0-9]*$ ]] || usage
      MODE="$1"
      shift 2
      ;;
    --filter)
      FILTER="${2:-}"
      [[ -n "$FILTER" ]] || usage
      shift 2
      ;;
    *)
      break
      ;;
  esac
done

if [[ "$MODE" == "--bench-smoke" ]]; then
  mkdir -p .bench_build
  failed=0
  workloads=$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
  for w in $workloads; do
    result=$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 \
      2> ".bench_build/smoke-$w.log" | tail -n 1) || true
    if python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' \
        "$result" 2> /dev/null; then
      echo "bench-smoke $w: ok"
    else
      failed=$((failed + 1))
      echo "bench-smoke $w: FAIL (log: .bench_build/smoke-$w.log)"
      echo "  result: ${result:-<none>}"
    fi
  done
  exit $(( failed > 0 ))
fi

if [[ "$MODE" == "--socket" ]]; then
  BUILD_DIR="${BUILD_DIR:-build-socket}"
  SAN="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
  CXX_FLAGS="$CXX_FLAGS $SAN"
  LINK_FLAGS="$SAN"
  CTEST_FILTER=(-R 'frame_codec_test|socket_transport_test|process_cluster_test|dc_replication_test')
elif [[ "$MODE" == "--asan" ]]; then
  BUILD_DIR="${BUILD_DIR:-build-asan}"
  SAN="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
  CXX_FLAGS="$CXX_FLAGS $SAN"
  LINK_FLAGS="$SAN"
elif [[ "$MODE" == "--tsan" ]]; then
  BUILD_DIR="${BUILD_DIR:-build-tsan}"
  SAN="-fsanitize=thread -fno-omit-frame-pointer -O1 -g"
  CXX_FLAGS="$CXX_FLAGS $SAN"
  LINK_FLAGS="-fsanitize=thread"
else
  BUILD_DIR="${BUILD_DIR:-build-check}"
fi
if [[ -n "$FILTER" ]]; then
  CTEST_FILTER=(-R "$FILTER")
fi

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_CXX_FLAGS="$CXX_FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$LINK_FLAGS" \
  "$@"
cmake --build "$BUILD_DIR" -j "$(nproc)"

if (( STRESS_ROUNDS > 0 )); then
  LOG_DIR="$BUILD_DIR/stress-logs"
  mkdir -p "$LOG_DIR"
  failed=0
  for ((round = 1; round <= STRESS_ROUNDS; round++)); do
    log="$LOG_DIR/round-$round.log"
    if ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
        ${CTEST_FILTER[@]+"${CTEST_FILTER[@]}"} > "$log" 2>&1; then
      rm -f "$log"
      echo "stress round $round/$STRESS_ROUNDS: pass"
    else
      failed=$((failed + 1))
      echo "stress round $round/$STRESS_ROUNDS: FAIL (log: $log)"
      grep -E '^\s*[0-9]+ - .*\((Failed|Timeout|SEGFAULT|Subprocess)' "$log" \
        || true
    fi
  done
  echo "stress: $failed of $STRESS_ROUNDS rounds failed"
  exit $(( failed > 0 ))
fi

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
  ${CTEST_FILTER[@]+"${CTEST_FILTER[@]}"}
