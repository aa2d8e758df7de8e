//! The observability layer's headline invariants (DESIGN §9), as cells of
//! the contract matrix (`tests/common`):
//!
//! - the deterministic metric namespace (everything not prefixed `time.`
//!   or `sched.`) is identical across `--jobs` counts;
//! - pipeline counters are identical across chaos seeds (recovery is
//!   exact), and the fault accounting balances: every injected fault is
//!   repaired;
//! - span timers and scheduling metrics exist, but are excluded from the
//!   deterministic snapshot that comparisons run on;
//! - a run report built from a live registry snapshot round-trips through
//!   its JSON text byte-identically and passes schema validation;
//! - `repro bench`'s configuration counts exactly what it counted when the
//!   counter pin was recorded.

mod common;
use common::{counted_cell, digest, BENCH, CATALOG};

/// The `(jobs, chaos seed)` cells of [`CATALOG`] run under chaos.
const CHAOS: [(usize, u64); 2] = [(8, 1337), (1, 4242)];

#[test]
fn metrics_are_out_of_band_and_deterministic() {
    // --- jobs 1 vs jobs 8, fault-free -----------------------------------
    let seq = counted_cell((&CATALOG, 1, None, None));
    let par = counted_cell((&CATALOG, 8, None, None));

    // Wall-clock and scheduling metrics exist in the raw snapshot...
    assert!(
        seq.snapshot.as_ref().unwrap().histograms.keys().any(|k| k.starts_with("time.span.")),
        "span timers recorded: {:?}",
        seq.snapshot.as_ref().unwrap().histograms.keys().collect::<Vec<_>>()
    );
    assert!(par.snapshot.as_ref().unwrap().gauges.contains_key("sched.pool.jobs_max"));

    // ...and are exactly what the deterministic filter strips.
    let (d_seq, d_par) = (seq.counted(), par.counted());
    for s in [&d_seq, &d_par] {
        let nondet = s
            .counters
            .keys()
            .chain(s.gauges.keys())
            .chain(s.histograms.keys())
            .filter(|k| k.starts_with("time.") || k.starts_with("sched."))
            .count();
        assert_eq!(nondet, 0, "time./sched. leaked into the deterministic snapshot");
    }

    // The deterministic namespace is identical whatever the worker count.
    assert_eq!(d_seq, d_par, "deterministic metrics differ across --jobs");
    assert!(d_seq.counters.get("join.rows_joined").copied().unwrap_or(0) > 0);

    // --- chaos runs: exact recovery, balanced fault accounting ----------
    let mut total_injected = 0;
    for (jobs, chaos_seed) in CHAOS {
        let c = counted_cell((&CATALOG, jobs, Some(chaos_seed), None));
        let injected = c.counted().counters.get("chaos.faults_injected").copied().unwrap_or(0);
        let repaired = c.counted().counters.get("chaos.faults_repaired").copied().unwrap_or(0);
        assert_eq!(
            injected, repaired,
            "fault accounting out of balance under chaos seed {chaos_seed}"
        );
        total_injected += injected;
        // Whatever the chaos seed injected, the pipeline's own counters
        // match a fault-free run exactly: recovery leaves no trace.
        assert_eq!(
            c.pipeline_counters(),
            seq.pipeline_counters(),
            "pipeline counters perturbed by chaos seed {chaos_seed}"
        );
    }
    assert!(total_injected > 0, "calibrated chaos injected nothing at this scale");

    // --- report round-trip from a live snapshot -------------------------
    let report = obs::RunReport {
        meta: obs::RunMeta {
            seed: 42,
            scale: 400,
            jobs: CHAOS[1].0 as u64,
            run: 1,
            chaos_seed: Some(CHAOS[1].1),
            bench: false,
            date: obs::report::today_utc(),
            experiments: CATALOG.ids.iter().map(|s| s.to_string()).collect(),
        },
        total_wall_ms: 1,
        peak_rss_kb: obs::rss::peak_rss_kb(),
        stages: vec![obs::StageWall { name: "test".into(), wall_ms: 1 }],
        metrics: counted_cell((&CATALOG, CHAOS[1].0, Some(CHAOS[1].1), None))
            .snapshot
            .clone()
            .unwrap(),
        trace: obs::trace::summary(),
    };
    let doc = report.to_json();
    obs::report::validate(&doc).expect("live report validates");
    obs::report::check_invariants(&doc).expect("live report invariants hold");
    let text = doc.pretty();
    let back = obs::RunReport::from_json(&obs::Json::parse(&text).unwrap()).unwrap();
    assert_eq!(back, report, "report round-trips through JSON text");
    assert_eq!(back.to_json().pretty(), text, "re-serialization is byte-identical");
}

/// What `repro bench`'s configuration counts. Recorded when `repro bench
/// --compare` was retired: on its last commit, this cell's snapshot
/// compared equal — no failure, no warning — to the committed baseline
/// that flag diffed against (`results/BENCH_2026-08-08.json`).
const BENCH_COUNTERS: u64 = 0x1506_a7dc_69c5_7927;

/// The counters are pure functions of the code for a pinned seed, scale
/// and chaos seed, so any drift — a counter added, dropped or moved —
/// fails here; re-record the constant when a change means to move them,
/// and say so.
#[test]
fn bench_counters_match_the_recorded_digest() {
    let c = counted_cell((&BENCH, 2, Some(bench_support::BENCH_CHAOS_SEED), None));
    let counted = c.counted();
    let got = digest(&[&counted]);
    assert_eq!(got, BENCH_COUNTERS, "got {got:#018x} for {counted:#?}");
}
