#!/usr/bin/env bash
# Alternating A/B end-to-end comparison of two revisions.
#
# Usage: scripts/bench_pairs.sh REV_A REV_B --workload W --seed S --pairs N
#                               [--seconds T] [--workdir DIR]
#   REV_A, REV_B  any git revisions (commit, branch, tag, HEAD~1, ...).
#   --workload W  a workload BENCHMARK.json names.
#   --seed S      the seed every run uses.
#   --pairs N     how many A/B pairs to run. Pair k runs A first when k is
#                 odd and B first when k is even, so a slow host phase
#                 hits both sides alike.
#   --seconds T   run length (default: BENCHMARK.json's run_seconds).
#   --workdir DIR where the two throwaway trees, their Release builds and
#                 the per-run JSON results go (default: a fresh mktemp -d,
#                 removed on exit). With --workdir the trees are kept, and
#                 a second call with the same DIR skips the rebuild.
#
# Each revision is exported with git archive into its own tree and its
# perfbench is built there once; every run is
# `python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
# inside that tree, so neither side sees the other's sources or build.
# The report names, for every end-to-end metric in BENCHMARK.json, the
# median and quartiles per side, the change of the medians B vs A, and
# how many pairs each side won (per the metric's better direction; ties
# count for neither). Runs that report correct: false
# or failed > 0 are counted and shown. Nothing under perfbench/ changes.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/bench_pairs.sh REV_A REV_B --workload W --seed S" \
    "--pairs N [--seconds T] [--workdir DIR]" >&2
  exit 2
}

(( $# >= 2 )) || usage
REV_A="$1"
REV_B="$2"
shift 2
WORKLOAD=""
SEED=""
PAIRS=""
SECONDS_ARG=""
WORKDIR=""
while (( $# > 0 )); do
  case "$1" in
    --workload) WORKLOAD="${2:-}"; shift 2 ;;
    --seed) SEED="${2:-}"; shift 2 ;;
    --pairs) PAIRS="${2:-}"; shift 2 ;;
    --seconds) SECONDS_ARG="${2:-}"; shift 2 ;;
    --workdir) WORKDIR="${2:-}"; shift 2 ;;
    *) usage ;;
  esac
done
[[ -n "$WORKLOAD" ]] || usage
[[ "$SEED" =~ ^[0-9]+$ ]] || usage
[[ "$PAIRS" =~ ^[1-9][0-9]*$ ]] || usage
if [[ -z "$SECONDS_ARG" ]]; then
  SECONDS_ARG=$(python3 -c 'import json
print(json.load(open("BENCHMARK.json"))["run_seconds"])')
fi

SHA_A=$(git rev-parse --verify "$REV_A^{commit}")
SHA_B=$(git rev-parse --verify "$REV_B^{commit}")
if [[ -z "$WORKDIR" ]]; then
  WORKDIR="$(mktemp -d)"
  trap 'rm -rf "$WORKDIR"' EXIT
fi
mkdir -p "$WORKDIR"
WORKDIR="$(cd "$WORKDIR" && pwd)"
BENCH_SPEC="$PWD/BENCHMARK.json"

# prepare SIDE SHA: export the revision into $WORKDIR/SIDE and build it.
prepare() {
  local side="$1" sha="$2" tree="$WORKDIR/$1"
  if [[ "$(cat "$tree.sha" 2> /dev/null)" != "$sha" ]]; then
    rm -rf "$tree"
    mkdir -p "$tree"
    git archive "$sha" | tar -x -C "$tree"
    echo "$sha" > "$tree.sha"
  fi
  echo "== build $side (${sha:0:12}) in $tree" >&2
  (cd "$tree" &&
    cmake -S perfbench -B .bench_build/perfbench \
      -DCMAKE_BUILD_TYPE=Release > "$WORKDIR/build-$side.log" 2>&1 &&
    cmake --build .bench_build/perfbench -j "$(( $(nproc) < 4 ? $(nproc) : 4 ))" \
      >> "$WORKDIR/build-$side.log" 2>&1) || {
    echo "build of $side failed; log: $WORKDIR/build-$side.log" >&2
    exit 1
  }
}

# run SIDE PAIR: one benchmark run; appends its JSON line to SIDE.jsonl.
run() {
  local side="$1" pair="$2" line
  line=$(cd "$WORKDIR/$side" &&
    python3 perfbench/run.py --workload "$WORKLOAD" --seed "$SEED" \
      --seconds "$SECONDS_ARG" --trace 0 2>> "$WORKDIR/run-$side.log" |
    tail -n 1) || true
  if [[ -z "$line" ]]; then
    echo "pair $pair: run of $side failed; log: $WORKDIR/run-$side.log" >&2
    exit 1
  fi
  echo "$pair $line" >> "$WORKDIR/$side.jsonl"
}

prepare A "$SHA_A"
prepare B "$SHA_B"
rm -f "$WORKDIR/A.jsonl" "$WORKDIR/B.jsonl"
for ((pair = 1; pair <= PAIRS; pair++)); do
  if (( pair % 2 == 1 )); then
    run A "$pair"
    run B "$pair"
  else
    run B "$pair"
    run A "$pair"
  fi
  echo "pair $pair/$PAIRS done" >&2
done

python3 - "$BENCH_SPEC" "$WORKDIR" "$REV_A" "$REV_B" "$WORKLOAD" "$SEED" \
  "$SECONDS_ARG" <<'EOF'
import json
import statistics
import sys

spec_path, workdir, rev_a, rev_b, workload, seed, seconds = sys.argv[1:]
spec = json.load(open(spec_path))


def load(side):
    runs = {}
    for line in open(f"{workdir}/{side}.jsonl"):
        pair, payload = line.split(" ", 1)
        runs[int(pair)] = json.loads(payload)
    return runs


a, b = load("A"), load("B")
pairs = sorted(a)
print(f"workload {workload}, seed {seed}, {seconds} s runs, "
      f"{len(pairs)} pairs; A = {rev_a}, B = {rev_b}")
for side, runs in (("A", a), ("B", b)):
    bad = [p for p in pairs
           if runs[p]["correct"] is not True or runs[p]["failed"] != 0]
    failed = sum(runs[p]["failed"] for p in pairs)
    attempted = sum(runs[p]["attempted"] for p in pairs)
    print(f"{side}: {len(pairs) - len(bad)}/{len(pairs)} runs correct, "
          f"{failed} of {attempted} ops failed")


def fmt(x):
    return f"{x:.0f}" if abs(x) >= 100 else f"{x:.2f}" if abs(x) >= 1 \
        else f"{x:.3f}"


def summary(values):
    if len(values) < 2:
        return fmt(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{fmt(statistics.median(values))} [{fmt(q1)}-{fmt(q3)}]"


print("medians with [first-third quartile]")
print(f"{'metric':<15}{'A':>24}{'B':>24}{'B vs A':>9}{'A wins':>8}"
      f"{'B wins':>8}")
for metric in spec["end_to_end"]:
    name = metric["name"]
    lower = metric["better"] == "lower"
    va = [a[p]["metrics"].get(name, {}).get("value") for p in pairs]
    vb = [b[p]["metrics"].get(name, {}).get("value") for p in pairs]
    if None in va or None in vb:
        print(f"{name:<15}{'missing':>24}")
        continue
    ma, mb = statistics.median(va), statistics.median(vb)
    change = f"{(mb - ma) / ma * 100:+.1f}%" if ma else "n/a"
    a_wins = sum(1 for x, y in zip(va, vb) if (x < y if lower else x > y))
    b_wins = sum(1 for x, y in zip(va, vb) if (y < x if lower else y > x))
    print(f"{name:<15}{summary(va):>24}{summary(vb):>24}{change:>9}"
          f"{a_wins:>8}{b_wins:>8}")
EOF
