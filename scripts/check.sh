#!/usr/bin/env bash
# Tier-1 verify with warnings on: configure, build, ctest.
# Usage: scripts/check.sh [--asan|--tsan|--socket|--stress N] [extra cmake args...]
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
set -euo pipefail
cd "$(dirname "$0")/.."

CTEST_FILTER=()
CXX_FLAGS="-Wall -Wextra"
LINK_FLAGS=""
STRESS_ROUNDS=0
if [[ "${1:-}" == "--socket" ]]; then
  shift
  BUILD_DIR="${BUILD_DIR:-build-socket}"
  SAN="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
  CXX_FLAGS="$CXX_FLAGS $SAN"
  LINK_FLAGS="$SAN"
  CTEST_FILTER=(-R 'frame_codec_test|socket_transport_test|process_cluster_test|dc_replication_test')
elif [[ "${1:-}" == "--asan" ]]; then
  shift
  BUILD_DIR="${BUILD_DIR:-build-asan}"
  SAN="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
  CXX_FLAGS="$CXX_FLAGS $SAN"
  LINK_FLAGS="$SAN"
elif [[ "${1:-}" == "--tsan" ]]; then
  shift
  BUILD_DIR="${BUILD_DIR:-build-tsan}"
  SAN="-fsanitize=thread -fno-omit-frame-pointer -O1 -g"
  CXX_FLAGS="$CXX_FLAGS $SAN"
  LINK_FLAGS="-fsanitize=thread"
elif [[ "${1:-}" == "--stress" ]]; then
  STRESS_ROUNDS="${2:-}"
  if ! [[ "$STRESS_ROUNDS" =~ ^[1-9][0-9]*$ ]]; then
    echo "usage: scripts/check.sh --stress N (N >= 1)" >&2
    exit 2
  fi
  shift 2
  BUILD_DIR="${BUILD_DIR:-build-check}"
else
  BUILD_DIR="${BUILD_DIR:-build-check}"
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
        > "$log" 2>&1; then
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
