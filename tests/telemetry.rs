//! Telemetry-plane invariants that back the live `/metricsz` surface:
//!
//! 1. Per-route registry histograms survive concurrent writers without
//!    losing or cross-routing samples.
//! 2. The tick ring ([`dnsimpactd::timeseries::TsStore`]) never double-counts a sample
//!    across ring wrap: for every window width, the conservation law
//!    `evicted_sum + Σ window deltas == cumulative` holds exactly.

use dnsimpactd::timeseries::TsStore;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const WRITERS: usize = 4;

proptest! {
    /// Ring-wrap conservation, property-tested: arbitrary tick count,
    /// ring capacity, and per-tick increments — every window width of
    /// every series satisfies `evicted_sum + Σ values == cumulative`,
    /// so no sample is counted twice (or dropped) across wrap.
    #[test]
    fn ring_wrap_conserves_deltas(spec in (1usize..8, 1usize..40, 0u64..50)) {
        let (cap, ticks, salt) = spec;
        let mut store = TsStore::new(cap);
        let mut cum = 0u64;
        for t in 0..ticks as u64 {
            // Deterministic but irregular increments, including zeros.
            cum += (t * 7 + salt) % 5;
            let mut counters = BTreeMap::new();
            counters.insert("live.records".to_string(), cum);
            let mut levels = BTreeMap::new();
            levels.insert("live.ingest_lag".to_string(), ticks as u64 - t);
            store.observe(t + 1, 0, &counters, &levels);
        }
        store.check_conservation().map_err(proptest::test_runner::TestCaseError::fail)?;
        for last_n in 1..=ticks + 2 {
            let w = store.series("live.records", last_n).expect("known series");
            let windowed: u64 = w.values.iter().sum();
            prop_assert_eq!(w.evicted_sum + windowed, cum);
            prop_assert_eq!(w.cumulative, cum);
        }
    }
}

/// Concurrent writers into the same per-route registry histograms: no
/// sample lost, none attributed to the wrong route. Mirrors the daemon's
/// HTTP workers recording latency into `sched.daemon.http.latency_us.*`.
#[test]
fn per_route_histograms_survive_concurrent_writers() {
    // Unique names so other tests in this binary can't collide.
    const ROUTES: [&str; 2] =
        ["test.telemetry.latency_us.query", "test.telemetry.latency_us.statz"];
    const PER_WRITER: u64 = 5_000;

    let go = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let go = Arc::clone(&go);
            std::thread::spawn(move || {
                while !go.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                for i in 0..PER_WRITER {
                    // Writer w sends even samples to route 0, odd to
                    // route 1, with values spread across buckets.
                    let route = ROUTES[(i % 2) as usize];
                    obs::histogram(route).record((w as u64 + 1) << (i % 20));
                }
            })
        })
        .collect();
    go.store(true, Ordering::Release);
    for h in handles {
        h.join().expect("writer thread panicked");
    }

    // Each route's exact fields, as one sequential recorder would have
    // left them, against the registry snapshot.
    for (r, route) in ROUTES.iter().enumerate() {
        let (mut count, mut sum, mut min, mut max) = (0u64, 0u64, u64::MAX, 0u64);
        let mut buckets: Vec<u64> = Vec::new();
        for w in 0..WRITERS as u64 {
            for i in (0..PER_WRITER).filter(|i| (i % 2) as usize == r) {
                let v = (w + 1) << (i % 20);
                count += 1;
                sum += v;
                min = min.min(v);
                max = max.max(v);
                let bucket = (64 - v.leading_zeros()) as usize;
                if buckets.len() <= bucket {
                    buckets.resize(bucket + 1, 0);
                }
                buckets[bucket] += 1;
            }
        }
        let snap = obs::histogram(route).snapshot();
        assert_eq!(snap.count, (WRITERS as u64 * PER_WRITER) / 2, "route {route}: lost samples");
        assert_eq!(
            (snap.count, snap.sum, snap.min, snap.max, &snap.buckets),
            (count, sum, min, max, &buckets),
            "route {route}: concurrent recording diverged from sequential"
        );
        assert_eq!(snap.defects(), Vec::<String>::new(), "route {route}");
    }
}

/// Deterministic ring-wrap walkthrough at the exact tick boundary: the
/// tick that evicts the oldest entry moves that entry's delta into
/// `evicted_sum` and nowhere else.
#[test]
fn tick_boundary_moves_deltas_to_evicted_exactly_once() {
    let mut store = TsStore::new(3);
    let increments = [10u64, 20, 30, 40, 50];
    let mut cum = 0u64;
    for (t, inc) in increments.iter().enumerate() {
        cum += inc;
        let mut counters = BTreeMap::new();
        counters.insert("live.batches".to_string(), cum);
        store.observe(t as u64 + 1, 0, &counters, &BTreeMap::new());

        let w = store.series("live.batches", usize::MAX).expect("known series");
        let retained: u64 = w.values.iter().sum();
        assert_eq!(w.evicted_sum + retained, cum, "after tick {}", t + 1);
    }
    // Ticks 1 and 2 (deltas 10, 20) were evicted; 3..5 retained.
    assert_eq!(store.evicted_ticks(), 2);
    let w = store.series("live.batches", usize::MAX).unwrap();
    assert_eq!(w.evicted_sum, 30);
    assert_eq!(w.values, vec![30, 40, 50]);
    assert_eq!(w.cumulative, 150);

    // A narrower window folds retained-but-excluded ticks into its own
    // evicted_sum — still exactly once.
    let w = store.series("live.batches", 2).unwrap();
    assert_eq!(w.evicted_sum, 60);
    assert_eq!(w.values, vec![40, 50]);
    assert_eq!(w.cumulative, 150);
    store.check_conservation().expect("conservation holds");
}
