#!/bin/sh
# Offline CI gates. Default run order:
#
#   lint         cargo fmt --check + cargo clippy -D warnings + sh -n ci.sh,
#                every name the lib.rs of `streamproc`, `dnswire`,
#                `dnssim`, `obs`, `telescope`, `openintel`, `simcore`,
#                `core`, `netbase`, `reactive`, `census`, `scenarios` or
#                `attack` re-exports must be used outside its crate (crates/*/src,
#                src/, benchmark/src), every `name.rs:N` cited in
#                DESIGN.md, README.md, EXPERIMENTS.md or ROADMAP.md must
#                name a file under crates/ src/ tests/ examples/
#                benchmark/src/ with at least N lines, and every
#                `crate::item` named in DESIGN.md, README.md or
#                EXPERIMENTS.md must be a module or item defined or
#                `pub use`d in that crate's src/ (crate names read from
#                crates/*/Cargo.toml; ROADMAP.md names planned items)
#   build        cargo build --release (workspace)
#   tests        cargo test --workspace
#   determinism  repro at --jobs 1 vs --jobs 2: byte-identical CSVs+stdout
#   chaos        fault injection, kill -9 mid-run, resume, diff vs clean
#   metrics      repro bench: schema-validated run report, counter
#                invariants, nothing on stdout (the exact counter pin is
#                tier-1: tests/metrics.rs)
#   wirebench    criterion smoke over the telescope/load-book and
#                trace-emit benches: every expected benchmark must run to
#                completion and report a number
#   trace        pinned scenario with --trace-json: schema + causality
#                validation, and `repro explain` byte-identical across
#                worker counts
#   sweep        repro bench --scale-sweep smoke (1.5k + 15k cells):
#                cross-jobs artifact fingerprints enforced in-run, the
#                emitted dnsimpact-sweep/v1 report schema-validated
#                (heavy 150k/1.5M cells stay local: DNSIMPACT_SCALE_HEAVY);
#                on failure the sweep's stderr (the failing ratio) is shown
#   daemon       dnsimpactd on the pinned feed: query a known-impacted
#                domain mid-ingest (only after /statz proves ingest
#                progress), kill -9, restart from the checkpoint, diff the
#                recovered index fingerprint against a clean replay
#   live         the telemetry plane (dnsimpactd's own modules): scrape
#                /metricsz mid-ingest and parse the exposition, assert SLO
#                verdicts surface in /statz, then replay the same feed
#                prefix twice (different chaos seed and --jobs) and
#                byte-diff the deterministic /seriesz + /sloz fields; the
#                emitted dnsimpactd-live/v2 report must schema-validate
#   results      hygiene, over `git ls-files results`: every tracked
#                results/*.json must schema-validate, every tracked file
#                must be covered by results/INDEX.md, and every series
#                INDEX.md documents must have a tracked report
#   benchmark    bash benchmark/check.sh: the driver benchmark's own
#                unit tests, then a 1.5k-attack smoke of all five workloads
#                in both modes — output checks (fingerprints, the traced
#                replica against longitudinal::run, layer sums) pass and
#                BENCHMARK.json agrees with the printed metric names.
#                Builds benchmark/'s own package; numbers are discarded
#
# Usage:
#   ./ci.sh                 run every gate in order
#   ./ci.sh --quick         run only build + tests (the tier-1 loop)
#   ./ci.sh --gate NAME     run one named gate (repeatable); gates that
#                           exercise the release binaries expect a prior
#                           build (`./ci.sh --gate build`)
#   ./ci.sh --list          print the gate names and what each one proves
#
# Every run ends with a per-gate wall-clock table (printed even when a
# gate fails, with the failing gate marked) so slow gates are visible in
# CI logs.
#
# Everything here works without network access: all external dependencies
# are local shim crates (see shims/README.md).
set -eu

cd "$(dirname "$0")"

ALL_GATES="lint build tests determinism chaos metrics wirebench trace sweep daemon live results benchmark"

REPRO=target/release/repro
DAEMON=target/release/dnsimpactd

list_gates() {
    cat << 'EOF'
lint         cargo fmt --check, cargo clippy -D warnings, sh -n ci.sh, no
             re-export of streamproc/dnswire/dnssim/obs/telescope/openintel/
             simcore/core/netbase/reactive/census/scenarios/attack without a
             caller outside its crate, no docs citation name.rs:N past the
             end of its file, no docs `crate::item` its crate does not define
build        cargo build --release (workspace)
tests        cargo test --workspace
determinism  repro --jobs 1 vs --jobs 2: byte-identical CSVs + stdout
chaos        kill -9 mid-run + resume must equal a clean, fault-free run
metrics      repro bench: report schema + counter invariants + empty stdout
wirebench    criterion smoke: every telescope/load-book/trace bench runs and reports
trace        trace export schema + causality; repro explain deterministic
sweep        bench --scale-sweep smoke: cross-jobs fingerprints + sweep schema
daemon       dnsimpactd kill -9 crash recovery fingerprint-identical to clean replay
live         /metricsz parses mid-ingest, SLO verdicts surface in /statz, deterministic
             /seriesz + /sloz byte-identical across chaos seed and jobs
results      every tracked results/*.json validates; INDEX.md and results/ cover each other
benchmark    benchmark/check.sh: its unit tests + every workload smoked in both modes
EOF
}

usage() {
    echo "usage: ./ci.sh [--quick | --gate NAME ... | --list]"
    echo "known gates: $ALL_GATES"
}

SELECTED=""
while [ $# -gt 0 ]; do
    case "$1" in
        --quick) SELECTED="build tests" ;;
        --gate)
            shift
            [ $# -gt 0 ] || {
                echo "ci.sh: --gate needs a name (one of: $ALL_GATES)" >&2
                exit 2
            }
            case " $ALL_GATES " in
                *" $1 "*) SELECTED="$SELECTED $1" ;;
                *)
                    echo "ci.sh: unknown gate '$1' (known: $ALL_GATES)" >&2
                    exit 2
                    ;;
            esac
            ;;
        --list)
            list_gates
            exit 0
            ;;
        -h | --help)
            usage
            exit 0
            ;;
        *)
            echo "ci.sh: unknown argument '$1'" >&2
            usage >&2
            exit 2
            ;;
    esac
    shift
done
[ -n "$SELECTED" ] || SELECTED="$ALL_GATES"

# --- preflight: name everything missing up front, so a mid-pipeline ----
# --- failure can't masquerade as a perf regression ---------------------
MISSING=""
for T in cargo date diff git grep mktemp seq basename sort ls cat sh bash find wc; do
    command -v "$T" > /dev/null 2>&1 || MISSING="$MISSING $T"
done
[ -z "$MISSING" ] || {
    echo "ci.sh preflight: missing required tool(s):$MISSING" >&2
    exit 2
}
# Gates that exercise the release binaries need them to exist already
# unless this run's own build gate will produce them.
NEEDS_BINARIES=0
BUILDS=0
for G in $SELECTED; do
    case "$G" in
        build) BUILDS=1 ;;
        determinism | chaos | metrics | trace | sweep | daemon | live | results)
            NEEDS_BINARIES=1
            ;;
    esac
done
if [ "$NEEDS_BINARIES" -eq 1 ] && [ "$BUILDS" -eq 0 ]; then
    for B in "$REPRO" "$DAEMON"; do
        [ -x "$B" ] || MISSING="$MISSING $B"
    done
    [ -z "$MISSING" ] || {
        echo "ci.sh preflight: missing release binar(ies):$MISSING" >&2
        echo "ci.sh preflight: run ./ci.sh --gate build first" >&2
        exit 2
    }
fi

SMOKE=$(mktemp -d)
DPID=""
CURRENT_GATE=""
GATE_T0=0

# Printed from the EXIT trap so the table appears on failures too, with
# the in-flight gate marked FAILED.
finish() {
    status=$?
    [ -n "$DPID" ] && kill -9 "$DPID" 2> /dev/null
    if [ -n "$CURRENT_GATE" ]; then
        printf '  %-12s %5ss  FAILED\n' "$CURRENT_GATE" "$(($(date +%s) - GATE_T0))" \
            >> "$SMOKE/gate-times"
    fi
    if [ -s "$SMOKE/gate-times" ]; then
        echo ""
        echo "==> per-gate wall clock:"
        cat "$SMOKE/gate-times"
    fi
    rm -rf "$SMOKE"
    return "$status"
}
trap finish EXIT

# Run one gate function with timing. Gate bodies are called outside any
# condition context so `set -e` still aborts on their first failing
# command — never wrap the call in `||` or `if`.
run_gate() {
    CURRENT_GATE=$1
    GATE_T0=$(date +%s)
    "gate_$1"
    printf '  %-12s %5ss\n' "$1" "$(($(date +%s) - GATE_T0))" >> "$SMOKE/gate-times"
    CURRENT_GATE=""
}

# All repro invocations share the run identity; only jobs/output/chaos
# flags vary per gate. Keeps the gates honest: one config, many angles.
repro_run() {
    scale=$1
    jobs=$2
    out=$3
    shift 3
    "$REPRO" --seed 42 --scale "$scale" --jobs "$jobs" --out "$SMOKE/$out" "$@"
}

# A cheap but representative catalog subset: longitudinal renders, the
# shared-run coalescing trio, and a self-contained scenario experiment.
EXPERIMENTS="table1 table3 table5 fig5 fig8 fig11 ablate futurework"

gate_lint() {
    echo "==> lint gate: sh -n ci.sh"
    sh -n ci.sh
    echo "==> lint gate: cargo fmt --check"
    cargo fmt --check
    echo "==> lint gate: cargo clippy -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
    UNUSED=0
    for C in streamproc dnswire dnssim obs telescope openintel simcore \
        core netbase reactive census scenarios attack; do
        echo "==> lint gate: every $C re-export has a caller outside the crate"
        # The names of lib.rs's `pub use` items (single- or multi-line).
        EXPORTS=$(awk '/^pub use/ { on = 1 } on { print } /;/ { on = 0 }' "crates/$C/src/lib.rs" |
            sed 's/^pub use [a-z_]*:://' | tr -d '{};' | tr ',' '\n' | tr -d ' ')
        for N in $EXPORTS; do
            grep -rlw -- "$N" crates/*/src src benchmark/src | grep -qv "^crates/$C/" || {
                echo "$C re-exports $N but nothing outside the crate uses it" >&2
                UNUSED=$((UNUSED + 1))
            }
        done
    done
    [ "$UNUSED" -eq 0 ]
    echo "==> lint gate: every name.rs:N cited in the docs names a file of >= N lines"
    # A bare `name.rs:N` passes if any file of that name is long enough; a
    # cited path must also match the file's path.
    STALE=0
    for CITE in $(grep -ohE '[A-Za-z0-9_./-]*[A-Za-z0-9_]\.rs:[0-9]+' \
        DESIGN.md README.md EXPERIMENTS.md ROADMAP.md | sort -u); do
        F=${CITE%:*}
        N=${CITE##*:}
        FOUND=0
        for C in $(find crates src tests examples benchmark/src -name "$(basename "$F")" -type f); do
            case "/$C" in
                */"$F")
                    if [ "$(wc -l < "$C")" -ge "$N" ]; then FOUND=1; fi
                    ;;
            esac
        done
        [ "$FOUND" -eq 1 ] || {
            echo "docs cite $CITE but no such file has $N lines" >&2
            STALE=$((STALE + 1))
        }
    done
    [ "$STALE" -eq 0 ]
    echo "==> lint gate: every \`crate::item\` named in the docs is defined in that crate"
    # A crate answers to its directory name and to its [package] and [lib]
    # names (dashes as underscores), all read from its Cargo.toml.
    NAMES=$(for T in crates/*/Cargo.toml; do
        D=$(dirname "$T")
        echo "$(basename "$D") $D"
        awk -v d="$D" '/^\[/ { sec = $0 }
            /^name *=/ && (sec == "[package]" || sec == "[lib]") {
                gsub(/[" ]/, "", $3); gsub(/-/, "_", $3); print $3, d }' "$T"
    done)
    UNDEFINED=0
    for M in $(grep -ohE '`[a-z_][a-z0-9_]*::[A-Za-z_][A-Za-z0-9_]*' \
        DESIGN.md README.md EXPERIMENTS.md | tr -d '`' | sort -u); do
        CRATE=${M%%::*}
        SEG=${M#*::}
        D=$(echo "$NAMES" | awk -v c="$CRATE" '$1 == c { print $2; exit }')
        [ -n "$D" ] || continue
        [ -f "$D/src/$SEG.rs" ] || [ -f "$D/src/$SEG/mod.rs" ] ||
            grep -rqE "(\b(fn|struct|enum|trait|type|const|static|mod|union) +|macro_rules! *)$SEG\b" \
                "$D/src" ||
            awk '/^ *pub use/ { on = 1 } on { print } /;/ { on = 0 }' $(find "$D/src" -name '*.rs') |
            grep -qw -- "$SEG" || {
            echo "docs name \`$M\` but $D/src defines no $SEG" >&2
            UNDEFINED=$((UNDEFINED + 1))
        }
    done
    [ "$UNDEFINED" -eq 0 ]
}

gate_build() {
    echo "==> cargo build --release"
    cargo build --release --workspace
}

gate_tests() {
    echo "==> cargo test -q (workspace)"
    cargo test --workspace -q
}

gate_determinism() {
    echo "==> determinism smoke: repro --jobs 1 vs --jobs 2"
    repro_run 1500 1 j1 $EXPERIMENTS > "$SMOKE/j1.stdout" 2> /dev/null
    repro_run 1500 2 j2 $EXPERIMENTS > "$SMOKE/j2.stdout" 2> /dev/null
    diff -r "$SMOKE/j1" "$SMOKE/j2"
    diff "$SMOKE/j1.stdout" "$SMOKE/j2.stdout"
    echo "==> determinism smoke passed (artifacts byte-identical across job counts)"
}

gate_chaos() {
    echo "==> chaos gate: fault injection, kill -9 mid-run, resume, diff vs clean"
    # The same catalog subset plus the self-contained scenario experiments,
    # so the killed run has checkpointable jobs both before and after the
    # kill. Scale 100 makes the run long enough (~2-3 s) for the kill to
    # land mid-flight; the diff holds wherever it lands.
    CHAOS_EXPERIMENTS="$EXPERIMENTS table2 fig2 fig3 russia"
    repro_run 100 2 chaos-clean $CHAOS_EXPERIMENTS > /dev/null 2>&1
    # Chaos run with completion markers, killed hard mid-flight.
    repro_run 100 2 chaos-out --chaos-seed 9 --checkpoint-dir "$SMOKE/ckpt" \
        $CHAOS_EXPERIMENTS > /dev/null 2>&1 &
    CHAOS_PID=$!
    sleep 1
    kill -9 "$CHAOS_PID" 2> /dev/null || true
    wait "$CHAOS_PID" 2> /dev/null || true
    # Resume with the same seed, chaos seed, and checkpoint dir: completed
    # jobs are skipped, the rest re-run; the output must match a run that
    # was never killed and never saw a fault.
    repro_run 100 2 chaos-out --chaos-seed 9 --checkpoint-dir "$SMOKE/ckpt" \
        $CHAOS_EXPERIMENTS > /dev/null 2>&1
    diff -r "$SMOKE/chaos-clean" "$SMOKE/chaos-out"
    echo "==> chaos gate passed (killed-and-resumed run byte-identical to clean run)"
}

gate_metrics() {
    echo "==> metrics gate: repro bench + schema/invariant validation"
    # The bench subcommand replays its pinned catalog subset (chaos on, so
    # the fault-accounting invariant is exercised) and emits the schema-v2
    # run report; validate-metrics re-reads it and fails on any schema
    # violation or counter-invariant break.
    BENCH_JSON="$SMOKE/bench/BENCH.json"
    "$REPRO" bench --metrics-json "$BENCH_JSON" --out "$SMOKE/bench-out" \
        > "$SMOKE/bench.stdout" 2> /dev/null
    # Bench suppresses artifact text: non-empty stdout means metrics leaked.
    if [ -s "$SMOKE/bench.stdout" ]; then
        echo "bench wrote to stdout:" >&2
        cat "$SMOKE/bench.stdout" >&2
        exit 1
    fi
    "$REPRO" validate-metrics "$BENCH_JSON"
    echo "==> metrics gate passed (report valid, invariants hold, stdout clean)"
}

gate_wirebench() {
    echo "==> wire gate: criterion smoke over telescope + trace benches"
    # The batch hot path's sorted-run and packed-key kernels (cell merge
    # inside the sampler, classification, episode extraction, the load
    # book filled and indexed), and the trace's price per event (onset
    # payload vs formatted text, ring empty and full) must run to
    # completion and report every expected benchmark — a panicking or
    # silently-dropped bench fails here.
    cargo bench -p dnsimpact-bench --bench telescope --bench trace \
        > "$SMOKE/wirebench.txt" 2>&1 || {
        cat "$SMOKE/wirebench.txt" >&2
        exit 1
    }
    for B in telescope/backscatter_sample telescope/classify telescope/episodes \
        loadbook/fill_and_index_585k_cells trace/emit_onset/empty_ring \
        trace/emit_onset/full_ring trace/emit_text/empty_ring trace/emit_text/full_ring; do
        grep -q "$B" "$SMOKE/wirebench.txt" || {
            echo "benchmark $B missing from criterion smoke output" >&2
            cat "$SMOKE/wirebench.txt" >&2
            exit 1
        }
    done
    echo "==> wire gate passed (all telescope/load-book/trace benches ran and reported)"
}

gate_trace() {
    echo "==> trace gate: causal event trace export + forensics"
    # The pinned scenario covers every emission layer: the longitudinal
    # pipeline (rsdos episodes), the reactive feeds (milru/rdz), and the
    # catalog's stage brackets. validate-trace re-reads the Chrome trace
    # and checks schema + causality (triggers within the 10-minute bound,
    # probe rounds within the 50-domain budget, faults paired
    # inject/repair).
    TRACE_JSON="$SMOKE/trace.json"
    repro_run 1500 2 trace-out --trace-json "$TRACE_JSON" table1 russia \
        > /dev/null 2> /dev/null
    "$REPRO" validate-trace "$TRACE_JSON"
    # Episode forensics are part of the determinism contract: the explain
    # timeline for the same episode must be byte-identical whatever --jobs.
    repro_run 1500 1 expl-j1 explain milru/0 > "$SMOKE/explain-j1.txt" 2> /dev/null
    repro_run 1500 4 expl-j4 explain milru/0 > "$SMOKE/explain-j4.txt" 2> /dev/null
    diff "$SMOKE/explain-j1.txt" "$SMOKE/explain-j4.txt"
    grep -q "AttackOnset" "$SMOKE/explain-j1.txt"
    echo "==> trace gate passed (trace causally sound, explain deterministic)"
}

gate_sweep() {
    echo "==> sweep gate: repro bench --scale-sweep smoke"
    # The sweep refuses to emit a report unless every jobs=N cell's
    # artifact fingerprint matches its scale's jobs=1 cell, and (on
    # multi-core hosts) the largest scale's jobs=N cell shows speedup > 1;
    # on a single-CPU host the speedup gate auto-skips but the 8-thread
    # determinism cell still runs. validate-metrics then re-reads the
    # report through the sweep-v1 schema: sorted cells, finite rates,
    # consistent record accounting. The sweep's progress lines go to a
    # file, shown only when it fails, so a failed check shows its ratio.
    "$REPRO" bench --scale-sweep --seed 42 --out "$SMOKE/sweep" 2> "$SMOKE/sweep.stderr" || {
        rc=$?
        cat "$SMOKE/sweep.stderr" >&2
        exit "$rc"
    }
    SWEEP_JSON=$(ls "$SMOKE"/sweep/SWEEP_*.json)
    "$REPRO" validate-metrics "$SWEEP_JSON"
    echo "==> sweep gate passed (cross-jobs fingerprints equal, report schema valid)"
}

gate_daemon() {
    echo "==> daemon gate: dnsimpactd crash recovery + query surface"
    # The daemon's whole robustness claim in one experiment: the index a
    # kill -9'd, checkpoint-recovered, chaos-injected daemon ends up
    # serving must fingerprint identically to an in-process clean
    # single-pass replay of the same feed. `dnsimpactd get` is the HTTP
    # client (curl is not guaranteed in this container).
    DFEED="--seed 7 --scale-target 15000 --months 2 --providers 20 --domains 6000"
    CLEAN_FP=$("$DAEMON" fingerprint $DFEED)
    DOM=$("$DAEMON" domains $DFEED --impacted -n 1)
    DCKPT="$SMOKE/daemon-ckpt"
    mkdir -p "$DCKPT"

    # First incarnation: paced ingest (so the kill lands mid-stream) under
    # a chaos seed (so recovery is proven against transport faults too).
    "$DAEMON" serve $DFEED --chaos-seed 3 --pace-ms 15 \
        --port-file "$SMOKE/daemon.port" --checkpoint-dir "$DCKPT" \
        2> "$SMOKE/daemon1.log" &
    DPID=$!
    for _ in $(seq 1 100); do
        [ -s "$SMOKE/daemon.port" ] && break
        sleep 0.1
    done
    DADDR=$(cat "$SMOKE/daemon.port")
    daemon_wait "$DADDR/healthz"
    # The kill must provably land mid-stream: poll /statz until at least
    # one batch has been applied rather than trusting wall-clock timing —
    # on a slow host a blind delay can kill a daemon that has ingested
    # nothing yet, which would make "recovery" vacuous.
    SEQ=0
    for _ in $(seq 1 100); do
        SEQ=$("$DAEMON" get --field applied_seq "$DADDR/statz" 2> /dev/null || echo 0)
        [ "$SEQ" -gt 0 ] 2> /dev/null && break
        sleep 0.1
    done
    [ "$SEQ" -gt 0 ] || {
        echo "daemon made no ingest progress within 10s; cannot prove mid-stream kill" >&2
        exit 1
    }
    # The query surface answers while ingest is still running.
    "$DAEMON" get "$DADDR/query?domain=$DOM" > "$SMOKE/daemon-answer1.json"
    grep -q '"staleness_s"' "$SMOKE/daemon-answer1.json"
    INGEST_DONE=$("$DAEMON" get --field ingest_done "$DADDR/statz" || true)
    kill -9 "$DPID"
    wait "$DPID" 2> /dev/null || true
    DPID=""
    # The paced feed takes ~18s to ingest; the kill above landed after
    # proven progress but before completion.
    [ "$INGEST_DONE" = "false" ] || {
        echo "daemon finished ingest before the kill; gate is vacuous" >&2
        exit 1
    }

    # Second incarnation: same checkpoint dir, no pacing. It must recover,
    # finish ingest, and serve the clean-replay fingerprint.
    "$DAEMON" serve $DFEED --chaos-seed 3 \
        --port-file "$SMOKE/daemon.port2" --checkpoint-dir "$DCKPT" \
        2> "$SMOKE/daemon2.log" &
    DPID=$!
    for _ in $(seq 1 100); do
        [ -s "$SMOKE/daemon.port2" ] && break
        sleep 0.1
    done
    DADDR=$(cat "$SMOKE/daemon.port2")
    daemon_wait "$DADDR/healthz"
    for _ in $(seq 1 100); do
        [ "$("$DAEMON" get --field ingest_done "$DADDR/statz" || true)" = "true" ] && break
        sleep 0.1
    done
    grep -q "recovered: replayed" "$SMOKE/daemon2.log"
    RECOVERED_FP=$("$DAEMON" get --field full_fp "$DADDR/statz")
    [ "$RECOVERED_FP" = "$CLEAN_FP" ] || {
        echo "recovered fingerprint $RECOVERED_FP != clean replay $CLEAN_FP" >&2
        exit 1
    }
    "$DAEMON" get "$DADDR/query?domain=$DOM" > "$SMOKE/daemon-answer2.json"
    grep -q '"attacks_seen"' "$SMOKE/daemon-answer2.json"
    "$DAEMON" get "$DADDR/readyz" > /dev/null
    kill -9 "$DPID"
    wait "$DPID" 2> /dev/null || true
    DPID=""
    echo "==> daemon gate passed (kill -9 recovery fingerprint-identical, shed-accounted serving)"
}

# Fetch the deterministic halves of the live series and the SLO verdict
# sequence from a running daemon into one file — the byte-diff unit of
# the live gate. Every live.* series the tick clock emits is included.
live_capture() {
    ADDR=$1
    OUT=$2
    : > "$OUT"
    for N in live.batches live.records live.episodes live.joined_rows \
        live.staleness_s live.ingest_lag live.clock_s; do
        "$DAEMON" get --field deterministic "$ADDR/seriesz?name=$N&last=1000000" >> "$OUT"
    done
    "$DAEMON" get --field deterministic "$ADDR/sloz" >> "$OUT"
}

gate_live() {
    echo "==> live gate: telemetry plane (exposition, SLO verdicts, replay diff)"
    LFEED="--seed 7 --scale-target 15000 --months 2 --providers 20 --domains 6000"

    # Phase 1: a paced, chaos-seeded daemon is scraped MID-ingest — the
    # exposition must parse and the SLO evaluator must already be issuing
    # verdicts while batches are still applying.
    "$DAEMON" serve $LFEED --chaos-seed 5 --pace-ms 15 \
        --port-file "$SMOKE/live.port" 2> "$SMOKE/live-paced.log" &
    DPID=$!
    for _ in $(seq 1 100); do
        [ -s "$SMOKE/live.port" ] && break
        sleep 0.1
    done
    LADDR=$(cat "$SMOKE/live.port")
    daemon_wait "$LADDR/healthz"
    SEQ=0
    for _ in $(seq 1 100); do
        SEQ=$("$DAEMON" get --field applied_seq "$LADDR/statz" 2> /dev/null || echo 0)
        [ "$SEQ" -gt 0 ] 2> /dev/null && break
        sleep 0.1
    done
    [ "$SEQ" -gt 0 ] || {
        echo "live daemon made no ingest progress within 10s" >&2
        exit 1
    }
    # Exposition parses via the daemon's own zero-dependency parser.
    "$DAEMON" get --expo "$LADDR/metricsz"
    # SLO verdicts surface in /statz while ingest is live.
    "$DAEMON" get --field slo "$LADDR/statz" > "$SMOKE/live-slo.json"
    grep -q '"diagnosis"' "$SMOKE/live-slo.json"
    grep -q '"worst"' "$SMOKE/live-slo.json"
    kill -9 "$DPID"
    wait "$DPID" 2> /dev/null || true
    DPID=""

    # Phase 2: replay the same feed prefix twice — different chaos seed
    # and worker count — and byte-diff the deterministic /seriesz and
    # /sloz fields. The live report each run emits must schema-validate.
    "$DAEMON" serve $LFEED --chaos-seed 5 --jobs 1 \
        --live-report "$SMOKE/live-a.json" --port-file "$SMOKE/live-a.port" \
        2> "$SMOKE/live-a.log" &
    DPID=$!
    for _ in $(seq 1 100); do
        [ -s "$SMOKE/live-a.port" ] && break
        sleep 0.1
    done
    LADDR=$(cat "$SMOKE/live-a.port")
    daemon_wait "$LADDR/healthz"
    for _ in $(seq 1 300); do
        [ "$("$DAEMON" get --field ingest_done "$LADDR/statz" || true)" = "true" ] && break
        sleep 0.1
    done
    live_capture "$LADDR" "$SMOKE/live-det-a.txt"
    kill -9 "$DPID"
    wait "$DPID" 2> /dev/null || true
    DPID=""

    "$DAEMON" serve $LFEED --chaos-seed 11 --jobs 4 \
        --live-report "$SMOKE/live-b.json" --port-file "$SMOKE/live-b.port" \
        2> "$SMOKE/live-b.log" &
    DPID=$!
    for _ in $(seq 1 100); do
        [ -s "$SMOKE/live-b.port" ] && break
        sleep 0.1
    done
    LADDR=$(cat "$SMOKE/live-b.port")
    daemon_wait "$LADDR/healthz"
    for _ in $(seq 1 300); do
        [ "$("$DAEMON" get --field ingest_done "$LADDR/statz" || true)" = "true" ] && break
        sleep 0.1
    done
    live_capture "$LADDR" "$SMOKE/live-det-b.txt"
    kill -9 "$DPID"
    wait "$DPID" 2> /dev/null || true
    DPID=""

    diff "$SMOKE/live-det-a.txt" "$SMOKE/live-det-b.txt"
    "$REPRO" validate-metrics "$SMOKE/live-a.json"
    "$REPRO" validate-metrics "$SMOKE/live-b.json"
    echo "==> live gate passed (exposition parses, verdicts live, series replay-deterministic)"
}

# Poll an endpoint with `dnsimpactd get` until it answers 2xx (10s cap).
daemon_wait() {
    for _ in $(seq 1 100); do
        if "$DAEMON" get "$@" > /dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "daemon did not answer: $*" >&2
    return 1
}

gate_results() {
    echo "==> results gate: committed report hygiene"
    # Judged on what is tracked (`git ls-files`), not on what happens to
    # sit in the directory: a report that an ignore rule or a forgotten
    # `git add` kept out of the tree is not part of the record.
    TRACKED=$(git ls-files results)
    # Every committed machine-readable report must still parse under its
    # schema — a hand-edited or torn results/*.json fails CI here, not in
    # whatever later tooling happens to read it first.
    for J in $TRACKED; do
        case "$J" in
            *.json) "$REPRO" validate-metrics "$J" ;;
        esac
    done
    # Every tracked file under results/ must be covered by the index:
    # named outright, or matched by a documented series pattern.
    for F in $TRACKED; do
        B=$(basename "$F")
        case "$B" in
            INDEX.md) continue ;;
            BENCH_*.json) PAT='BENCH_<date>' ;;
            SWEEP_*.json) PAT='SWEEP_<date>' ;;
            LIVE_*.json) PAT='LIVE_<date>' ;;
            *) PAT="$B" ;;
        esac
        grep -qF "$PAT" results/INDEX.md || {
            echo "results hygiene: $B is not covered by results/INDEX.md (looked for \"$PAT\")" >&2
            exit 1
        }
    done
    # And the reverse: every series the index documents has at least one
    # tracked report, so the docs cannot describe a record that never
    # landed.
    for SERIES in $(grep -o '[A-Z][A-Z]*_<date>' results/INDEX.md | sort -u); do
        PREFIX=${SERIES%<date>}
        echo "$TRACKED" | grep -q "^results/${PREFIX}.*\.json\$" || {
            echo "results hygiene: INDEX.md documents $SERIES but no results/${PREFIX}*.json is tracked" >&2
            exit 1
        }
    done
    echo "==> results gate passed (tracked reports valid, INDEX.md and results/ cover each other)"
}

gate_benchmark() {
    echo "==> benchmark gate: bash benchmark/check.sh"
    bash benchmark/check.sh
    echo "==> benchmark gate passed (every workload's output checks hold in both modes)"
}

for G in $SELECTED; do
    run_gate "$G"
done

echo "==> ci green ($SELECTED)"
