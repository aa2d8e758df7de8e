//! Scale-parameterized determinism: the byte-equality contract holds at
//! sweep scale, not just on toy feeds. Cells of the contract matrix
//! (`tests/common`).
//!
//! The tier-1 cell runs the longitudinal pipeline at the sweep's 15k
//! target and compares jobs=1 against jobs=8 and a chaos run against the
//! fault-free run. The 150k and 1.5M cells are the same check at
//! `repro bench --scale-sweep`'s heavy scales, gated behind
//! `DNSIMPACT_SCALE_HEAVY=1` / `=2` (they are minutes of debug-build work,
//! and the release-built sweep already enforces the same fingerprints on
//! every run that emits a report).

mod common;
use bench_support::sweep::heavy_level;
use common::{assert_same_artifacts, cell, cells, Fixture, SWEEP_150K, SWEEP_15K, SWEEP_1M5};

fn assert_scale_deterministic(fixture: &Fixture) {
    let specs =
        [(fixture, 1, None, None), (fixture, 8, None, None), (fixture, 8, Some(1337), None)];
    // A 1.5M cell holds ~3.8 GB (SWEEP_2026-10-01.json): those run one at a time.
    let [base, par, chaos] =
        if fixture.name == SWEEP_1M5.name { specs.map(cell) } else { cells(specs) };
    assert!(base.episodes > 0, "{} produced episodes", fixture.name);
    assert_same_artifacts(&base, &par, "jobs 1 vs jobs 8");
    assert_same_artifacts(&base, &chaos, "chaos");
}

#[test]
fn sweep_scale_15k_is_jobs_and_chaos_invariant() {
    assert_scale_deterministic(&SWEEP_15K);
}

#[test]
fn sweep_scale_150k_is_jobs_and_chaos_invariant_heavy() {
    if heavy_level() < 1 {
        eprintln!("skipped: set DNSIMPACT_SCALE_HEAVY=1 to run the 150k cell");
        return;
    }
    assert_scale_deterministic(&SWEEP_150K);
}

#[test]
fn sweep_scale_1m5_is_jobs_and_chaos_invariant_heavy() {
    if heavy_level() < 2 {
        eprintln!("skipped: set DNSIMPACT_SCALE_HEAVY=2 to run the 1.5M cell");
        return;
    }
    assert_scale_deterministic(&SWEEP_1M5);
}
