//! The chaos layer's headline invariant (ROADMAP robustness milestone):
//! fault-free output ≡ faulted-and-recovered output ≡ killed-and-resumed
//! output — byte for byte, for any chaos seed and any `--jobs` value.
//! Cells of the contract matrix (`tests/common`).

mod common;
use common::{assert_same_artifacts, cells, CATALOG, SCENARIOS};

/// The longitudinal pipeline and every artifact rendered from it must be
/// unchanged by fault injection, whatever the worker count.
#[test]
fn chaos_never_changes_artifacts() {
    let [clean, a, b] = cells([
        (&CATALOG, 1, None, None),
        (&CATALOG, 8, Some(1337), None),
        (&CATALOG, 1, Some(4242), None),
    ]);
    assert_same_artifacts(&clean, &a, "chaos 1337, jobs 8");
    assert_same_artifacts(&clean, &b, "chaos 4242, jobs 1");
    assert!(a.restarts + b.restarts > 0, "the calibrated plan crashed no catalog job at all");
}

/// A run killed after completing only part of the catalog, then resumed
/// with the same checkpoint dir under chaos and parallelism, leaves the
/// output directory byte-identical to an uninterrupted fault-free run.
#[test]
fn killed_and_resumed_run_is_byte_identical() {
    // Killed after the first requested id (`table2`, the transip job).
    let [clean, resumed] = cells([(&SCENARIOS, 1, None, None), (&SCENARIOS, 8, Some(9), Some(1))]);
    assert_eq!(resumed.resumed, vec!["transip"], "only the pre-kill job is skipped");
    assert_eq!(clean.csv, resumed.csv, "killed-and-resumed bytes differ");
}
