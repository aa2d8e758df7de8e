#!/usr/bin/env bash
# The benchmark's own tests: unit tests (percentile picker, span self-time
# arithmetic, open-loop schedule, Zipf stream), then a smoke pass of every
# workload in both modes on 1.5k-attack inputs. The smoke pass discards the
# numbers; it asserts that every code path runs, that the output checks
# pass, and that BENCHMARK.json and the printed metric names agree.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo test --release --offline --quiet --manifest-path "$here/Cargo.toml"
for w in batch_sparse batch_dnsheavy batch_parallel daemon_seq daemon_mixed; do
  for trace in 0 1; do
    "$here/run.sh" --workload "$w" --seed 7 --seconds 1 --trace "$trace" --smoke \
      --benchmark-json "$here/../BENCHMARK.json" | tail -n 1 | grep -q '"correct":true' \
      || { echo "check.sh: smoke of $w --trace $trace failed" >&2; exit 1; }
    echo "smoke $w --trace $trace ok"
  done
done
