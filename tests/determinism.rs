//! Whole-pipeline determinism: one seed, one result — across every
//! subsystem at once. Cells of the contract matrix (`tests/common`).

mod common;
use common::{assert_same_artifacts, cells, CATALOG, RESEEDED};

/// Two independent runs of one seed agree on every layer: the longitudinal
/// report and every artifact rendered from it.
#[test]
fn same_seed_same_everything() {
    let [a, b] = cells([(&CATALOG, 1, None, None), (&CATALOG, 8, None, None)]);
    assert_eq!((a.episodes, a.impacts), (b.episodes, b.impacts), "episode and impact counts");
    assert_same_artifacts(&a, &b, "seed 42 twice");
}

#[test]
fn different_seed_different_world() {
    let [a, c] = cells([(&CATALOG, 1, None, None), (&RESEEDED, 1, None, None)]);
    assert!(c.episodes > 0, "the reseeded world has attacks");
    assert_ne!(a.report, c.report, "different seeds must diverge");
}

/// The parallel scheduler's determinism lock: the whole experiment catalog
/// rendered with `--jobs 1` and `--jobs 8` must be byte-identical — same
/// CSVs, same stdout tables, same order.
#[test]
fn thread_count_never_changes_artifacts() {
    let [seq, par] = cells([(&CATALOG, 1, None, None), (&CATALOG, 8, None, None)]);
    assert_eq!(seq.tables.len(), CATALOG.ids.len(), "every experiment rendered its table");
    assert_same_artifacts(&seq, &par, "jobs 1 vs jobs 8");
}
