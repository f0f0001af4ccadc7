#!/usr/bin/env bash
# CPU profile of one perfbench workload, without perf: the benchmark runs
# under an LD_PRELOAD sampler (scripts/sampler.cc) that takes a stack
# every tick of process CPU time and, at exit, prints the top symbols by
# self and by inclusive samples.
#
# Usage: scripts/profile.sh --workload W [--seed S] [--seconds T]
#                           [--filter SYM,...]
#   --workload W  a workload BENCHMARK.json names.
#   --seed S      the seed (default 1).
#   --seconds T   the measured window (default 5). The set-ups, warm-up,
#                 verification and drills around it are sampled too.
#   --filter SYM,...  count only samples whose stack holds a symbol
#                 containing one of these substrings, e.g.
#                 --filter TransactionComponent::Submit,TransactionComponent::Await,TransactionComponent::Commit
#                 for the client's transaction calls.
#
# The sampling interval is set by the kernel's tick, not by the timer
# asked for: on a 250 Hz kernel a sample lands about every 4 ms of CPU
# time, so a 5 s run of a busy thread yields about 1 250 samples.
#
# perfbench's CMake package is configured into .bench_build/profile/
# (Release, with -fno-omit-frame-pointer -g and -rdynamic given on the
# cmake command line; nothing under perfbench/ changes), and the sampler
# is built beside it. The report is written to
# .bench_build/profile/report-W.txt and printed; the benchmark's own
# JSON result goes to .bench_build/profile/result-W.json.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/profile.sh --workload W [--seed S] [--seconds T]" \
    "[--filter SYM,...]" >&2
  exit 2
}

WORKLOAD=""
SEED=1
RUN_SECONDS=5
FILTER=""
while (( $# > 0 )); do
  case "$1" in
    --workload) WORKLOAD="${2:-}"; shift 2 ;;
    --seed) SEED="${2:-}"; shift 2 ;;
    --seconds) RUN_SECONDS="${2:-}"; shift 2 ;;
    --filter) FILTER="${2:-}"; shift 2 ;;
    *) usage ;;
  esac
done
[[ -n "$WORKLOAD" ]] || usage
[[ "$SEED" =~ ^[0-9]+$ ]] || usage

BUILD=.bench_build/profile
JOBS=$(( $(nproc) < 4 ? $(nproc) : 4 ))
if [[ ! -f "$BUILD/CMakeCache.txt" ]]; then
  cmake -S perfbench -B "$BUILD" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="-fno-omit-frame-pointer -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-rdynamic" >&2
fi
cmake --build "$BUILD" -j "$JOBS" >&2
if [[ ! -f "$BUILD/libsampler.so" || scripts/sampler.cc -nt "$BUILD/libsampler.so" ]]; then
  g++ -std=c++17 -O2 -fPIC -shared scripts/sampler.cc -o "$BUILD/libsampler.so" -ldl
fi

REPORT="$BUILD/report-$WORKLOAD.txt"
SAMPLER_OUT="$REPORT" SAMPLER_FILTER="$FILTER" \
  LD_PRELOAD="$PWD/$BUILD/libsampler.so" \
  "$BUILD/untx_perfbench" --workload "$WORKLOAD" --seed "$SEED" \
  --seconds "$RUN_SECONDS" --trace 0 > "$BUILD/result-$WORKLOAD.json"
echo "workload $WORKLOAD, seed $SEED, ${RUN_SECONDS} s window${FILTER:+, filter $FILTER}"
cat "$REPORT"
