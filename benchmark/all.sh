#!/usr/bin/env bash
# The whole benchmark in one command:
#
#   benchmark/all.sh [--seed N] [--workload NAME]...
#
# Runs every workload (or the ones named, in the order named) as its own
# OS process, first with the benchmark's spans off (end-to-end metrics),
# then as the traced run (per-layer metrics); prints every metric as
# `workload name value unit`; checks the outputs that span workloads; and
# gathers the per-run reports into benchmark/out/report.json. Exits
# non-zero if any run or check fails.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed=42
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")"
workloads=()
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --workload) workloads+=("$2"); shift 2 ;;
    *) echo "all.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(batch_sparse batch_dnsheavy batch_parallel daemon_seq daemon_mixed)
fi

failed=0
for w in "${workloads[@]}"; do
  for trace in 0 1; do
    # Metric rows and check rows pass through; the JSON line stays in the report file.
    "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
      | grep -v '^{' || { echo "all.sh: $w --trace $trace failed" >&2; failed=1; }
  done
done

# Outputs that must agree across workloads: the same catalog at jobs=1 and
# jobs=2, and the same feed ingested with and without a reader alongside.
note() { sed -n "s/.*\"$2\":\"\([^\"]*\)\".*/\1/p" "$here/out/report-$1.json" 2>/dev/null; }
same() {
  local a b; a="$(note "$2" "$1")"; b="$(note "$3" "$1")"
  if [ -z "$a" ] || [ -z "$b" ]; then return; fi   # one of the pair was not run
  if [ "$a" = "$b" ]; then echo "# ok   $1 equal on $2 and $3: $a"
  else echo "# FAIL $1 differs: $2 $a, $3 $b"; failed=1; fi
}
same pipeline_fingerprint batch_dnsheavy batch_parallel
same daemon_full_fingerprint daemon_seq daemon_mixed

{
  printf '{"seed":%s,"seconds":%s,"runs":[' "$seed" "$seconds"
  sep=""
  for w in "${workloads[@]}"; do
    for kind in report trace; do
      # The span table stays in trace-<workload>.json; report.json carries the numbers.
      printf '%s' "$sep"; sed 's/,"trace_spans":.*$/}/' "$here/out/$kind-$w.json"; sep=","
    done
  done
  printf ']}\n'
} > "$here/out/report.json"
echo "# wrote $here/out/report.json"
exit "$failed"
