#!/usr/bin/env bash
# A/A: the driver's acceptance test of the benchmark, run on this commit.
# Every workload's end-to-end run is made on ten seeds (SEED .. SEED+9),
# twice over: side A and side B, the same code and the same seeds.
#
#   benchmark/aa.sh [--seed N] [--write-bounds]
#
# The sides alternate (A B, B A, A B, ...) and so does the workload order,
# so neither side owns a stretch of the sandbox's slow speed. Prints per
# workload and metric the two medians, their gap, each side's spread over
# its ten runs and the bound, and exits non-zero if a gap or a spread
# exceeds its bound. --write-bounds sets every bound in BENCHMARK.json to
# max(2 x largest gap, 3 x largest spread), 10 % to 25 %. About 37 minutes.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed=42
write=()
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --write-bounds) write=(--write-bounds); shift ;;
    *) echo "aa.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")"
forward=(batch_sparse batch_dnsheavy batch_parallel daemon_seq daemon_mixed)
reverse=(daemon_mixed daemon_seq batch_parallel batch_dnsheavy batch_sparse)
rm -rf "$here/out/aa-A" "$here/out/aa-B"
for run in 0 1 2 3 4 5 6 7 8 9; do
  sides=(A B); order=("${forward[@]}")
  if [ $((run % 2)) -eq 1 ]; then sides=(B A); order=("${reverse[@]}"); fi
  for side in "${sides[@]}"; do
    mkdir -p "$here/out/aa-$side/$run"
    for w in "${order[@]}"; do
      "$here/run.sh" --workload "$w" --seed $((seed + run)) --seconds "$seconds" --trace 0 \
        | tail -n 1 | grep -q '"correct":true' \
        || { echo "aa.sh: $w failed on side $side, run $run" >&2; exit 1; }
      mv "$here/out/report-$w.json" "$here/out/aa-$side/$run/"
      echo "side $side seed $((seed + run)): $w done"
    done
  done
done
"${CARGO_TARGET_DIR:-$here/target}/release/dnsimpact-benchmark" aa-compare \
  "$here/out/aa-A" "$here/out/aa-B" --benchmark-json "$here/../BENCHMARK.json" ${write[@]+"${write[@]}"}
