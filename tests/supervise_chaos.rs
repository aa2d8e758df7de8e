//! Property lock on `streamproc`'s supervision under combined fault
//! classes (DESIGN §9, §12): for any item vector, any chaos seed, and any
//! fault intensity mixing drops, duplicate/reordered delivery, late (held)
//! delivery, and task crashes with supervisor restarts, the delivered
//! output must equal the fault-free output exactly — order, multiplicity,
//! and values. The daemon's replay-determinism contract rests on this:
//! `dnsimpactd` feeds every batch through the repaired transport, so the
//! index must be a pure function of the batch prefix no matter what the
//! chaos layer does in between.
//!
//! A deterministic companion test pins down that the property is not
//! vacuous: over a handful of fixed seeds, every fault class actually
//! fires — drops, duplicates and reordering in the transport, crashes
//! repaired by restarts in the supervised pool.
//!
//! The metrics registry and trace ring are process-global, so tests in
//! this binary serialize on [`lock`].

use std::sync::{Mutex, MutexGuard, OnceLock};

use proptest::prelude::*;
use streamproc::{
    parallel_map_supervised, reliable_stream, ChaosConfig, FaultPlan, SuperviseStats,
    SupervisorConfig,
};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
}

/// The intensity grid the properties sweep. `HEAVY` turns every knob up
/// at once — drops, duplicates, long holds, and a near-certain crash per
/// incarnation — so combined-fault interactions (a held record crossing
/// a restart, a drop repaired after a late delivery) are exercised, not
/// just each class alone.
const HEAVY: ChaosConfig = ChaosConfig {
    drop_prob: 0.2,
    dup_prob: 0.2,
    hold_prob: 0.25,
    max_hold: 6,
    crash_prob: 0.9,
    max_crashes: 3,
};

fn intensity(choice: u8) -> ChaosConfig {
    match choice % 3 {
        0 => ChaosConfig::CALIBRATED,
        1 => ChaosConfig::SPARSE,
        _ => HEAVY,
    }
}

/// A supervisor with fast backoff so 128 proptest cases stay quick; the
/// restart budget still covers `HEAVY.max_crashes`.
fn quick_supervisor() -> SupervisorConfig {
    SupervisorConfig { backoff_base_ms: 0, backoff_cap_ms: 1, ..SupervisorConfig::default() }
}

/// The deterministic task body used by the supervised-pool properties:
/// output size varies with the item (0, 1, or 2 records) so a restarted
/// task is checked on a non-trivial seq→output mapping.
fn stage_body(i: u64, item: &u64) -> Vec<(u64, u64)> {
    match item % 3 {
        0 => vec![],
        1 => vec![(i, item.wrapping_mul(3))],
        _ => vec![(i, *item), (i, item.rotate_left(7))],
    }
}

proptest! {
    /// Transport level: `reliable_stream` returns the items exactly, in
    /// order, for any (items, seed, intensity).
    #[test]
    fn reliable_stream_is_exactly_once(
        items in prop::collection::vec(any::<u64>(), 0..160),
        seed in any::<u64>(),
        choice in any::<u8>(),
    ) {
        let _g = lock();
        let plan = FaultPlan::from_seed(seed, "prop-transport", intensity(choice));
        let (out, stats) =
            reliable_stream("prop-transport", items.clone(), Some(&plan), &quick_supervisor());
        prop_assert_eq!(&out, &items);
        // Every drop must have been repaired, never papered over.
        prop_assert!(stats.repair_rounds > 0 || stats.dropped == 0);
    }

    /// Task level: `parallel_map_supervised` under crashes and restarts at
    /// every intensity, on any worker count, equals the fault-free map
    /// byte-for-byte.
    #[test]
    fn supervised_parallel_map_matches_fault_free(
        items in prop::collection::vec(any::<u64>(), 0..120),
        seed in any::<u64>(),
        choice in any::<u8>(),
        jobs in 1usize..4,
    ) {
        let _g = lock();
        let expected: Vec<(u64, u64)> = items
            .iter()
            .enumerate()
            .flat_map(|(i, item)| stage_body(i as u64, item))
            .collect();
        let plan = FaultPlan::from_seed(seed, "prop-stage", intensity(choice));
        let (out, stats) = parallel_map_supervised(
            jobs,
            items,
            Some(&plan),
            &quick_supervisor(),
            |i, item| stage_body(i as u64, item),
        );
        prop_assert_eq!(&out.concat(), &expected);
        // Each task is restarted once per planned crash, whatever `jobs` is.
        let planned: u64 = (0..out.len() as u64).map(|i| plan.planned_crashes(i) as u64).sum();
        prop_assert_eq!(stats.restarts, planned);
    }

    /// Sub-stream plans (what the daemon's ingest loop uses per segment)
    /// inherit the same guarantee: segmenting a stream and repairing each
    /// segment independently reassembles the original stream.
    #[test]
    fn segmented_substreams_reassemble(
        items in prop::collection::vec(any::<u64>(), 0..150),
        seed in any::<u64>(),
    ) {
        let _g = lock();
        let base = FaultPlan::from_seed(seed, "prop-segments", ChaosConfig::CALIBRATED);
        let cfg = quick_supervisor();
        let mut out = Vec::new();
        for (idx, segment) in items.chunks(32).enumerate() {
            let plan = base.for_substream(idx as u64);
            let (seg, _) =
                reliable_stream("prop-segments", segment.to_vec(), Some(&plan), &cfg);
            out.extend(seg);
        }
        prop_assert_eq!(&out, &items);
    }
}

/// The properties above would pass vacuously if the chaos layer never
/// fired. Pin that it does: across a few fixed seeds at CALIBRATED
/// intensity, every fault class is observed — drops, duplicates and
/// reordering repaired by the transport, crashes repaired by restarts.
#[test]
fn calibrated_chaos_injects_every_fault_class() {
    let _g = lock();
    let items: Vec<u64> = (0..300).collect();
    let expected: Vec<(u64, u64)> =
        items.iter().enumerate().flat_map(|(i, item)| stage_body(i as u64, item)).collect();
    let cfg = quick_supervisor();
    let mut totals = SuperviseStats::default();
    for seed in 0..6 {
        let plan = FaultPlan::from_seed(seed, "chaos-coverage", ChaosConfig::CALIBRATED);
        let (delivered, stats) =
            reliable_stream("chaos-coverage", items.clone(), Some(&plan), &cfg);
        assert_eq!(delivered, items, "seed {seed}: transport diverged from the batch");
        totals.merge(&stats);
        let (out, stats) = parallel_map_supervised(2, delivered, Some(&plan), &cfg, |i, item| {
            stage_body(i as u64, item)
        });
        assert_eq!(out.concat(), expected, "seed {seed} diverged from fault-free output");
        totals.merge(&stats);
    }
    assert!(totals.dropped > 0, "no drops injected: {totals:?}");
    assert!(totals.duplicated > 0, "no duplicates injected: {totals:?}");
    assert!(totals.reordered > 0, "no reordering injected: {totals:?}");
    assert!(totals.restarts > 0, "no task restarts: {totals:?}");
    assert!(totals.repair_rounds > 0, "drops were never repaired: {totals:?}");
}

/// `plan: None` must stay a true no-op passthrough — the daemon relies on
/// this for chaos-disabled production runs.
#[test]
fn no_plan_is_passthrough() {
    let _g = lock();
    let items: Vec<u64> = (0..64).collect();
    let (out, stats) =
        reliable_stream("no-plan", items.clone(), None, &SupervisorConfig::default());
    assert_eq!(out, items);
    assert!(stats.is_clean());
}
