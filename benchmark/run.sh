#!/usr/bin/env bash
# One run of one workload — the command BENCHMARK.json names:
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds the benchmark (release, offline; a no-op when nothing changed),
# then runs it in this one process. Every metric is printed as
# `workload name value unit`; the last line of stdout is the result as one
# JSON object. The report goes to benchmark/out/. all.sh runs every workload.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/dnsimpact-benchmark" --out "$here/out" "$@"
