//! Supervision: at-least-once delivery repaired to exactly-once, and the
//! restart policy supervised tasks run under.
//!
//! Recovery is layered the way the paper's stack layers Kafka under Spark
//! (§4.3.1), except that no layer needs a thread: each is a deterministic
//! function of its input and a [`FaultPlan`]:
//!
//! 1. **Transport repair** ([`reliable_stream`]): a batch is sequence-
//!    stamped and sent through one pure chaos round per attempt; the sink
//!    dedups and re-orders, detects gaps, and retransmits the missing
//!    sequences in bounded repair rounds. Rounds past
//!    `max_repair_rounds` are fault-free, so delivery always terminates
//!    with the exact input batch, in order.
//! 2. **Task supervision** ([`crate::pool::parallel_map_supervised`]): each
//!    task runs in a bounded-restart retry loop with exponential backoff,
//!    whether the panic is an injected [`crate::fault::InjectedCrash`] or a
//!    real bug; a restarted task re-runs from its input, so its one result
//!    is the fault-free one.
//!
//! Together these give the headline invariant: for a deterministic task,
//! *fault-free output ≡ faulted-and-recovered output*.

use crate::fault::{chaos_round, note_fault, seq_stamp, FaultPlan, Seq};
use std::collections::BTreeMap;

/// Restart and delivery policy for supervised tasks and transports.
#[derive(Clone, Copy, Debug)]
pub struct SupervisorConfig {
    /// Restart budget per task; the panic propagates once it is exhausted.
    /// Keep `>= ChaosConfig::max_crashes` so injected crashes always recover.
    pub max_restarts: u32,
    /// Exponential backoff between restarts: `base << attempt`, capped.
    pub backoff_base_ms: u64,
    pub backoff_cap_ms: u64,
    /// Chaos repair rounds before the transport falls back to a fault-free
    /// retransmission, bounding delivery time.
    pub max_repair_rounds: u32,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            max_restarts: 8,
            backoff_base_ms: 1,
            backoff_cap_ms: 16,
            max_repair_rounds: 8,
        }
    }
}

/// What the recovery machinery observed and repaired. All counters are
/// deterministic for a given plan + input (they never depend on thread
/// timing), so chaos runs can assert on them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SuperviseStats {
    /// Records dropped in transit (each retransmitted later).
    pub dropped: u64,
    /// Duplicate deliveries collapsed by sequence-number dedup.
    pub duplicated: u64,
    /// Records that arrived out of order and were re-sequenced.
    pub reordered: u64,
    /// Transport repair rounds that had to retransmit missing sequences.
    pub repair_rounds: u64,
    /// Task attempts restarted after a panic.
    pub restarts: u64,
    /// Total restart backoff slept, in milliseconds.
    pub backoff_ms: u64,
}

impl SuperviseStats {
    pub fn merge(&mut self, other: &SuperviseStats) {
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.repair_rounds += other.repair_rounds;
        self.restarts += other.restarts;
        self.backoff_ms += other.backoff_ms;
    }

    /// True when no fault of any kind was observed.
    pub fn is_clean(&self) -> bool {
        *self == SuperviseStats::default()
    }
}

/// Deliver `items` across a chaos transport with at-least-once semantics
/// and return them exactly, in order, plus what it took to get there.
///
/// With `plan: None` this is free: the batch is returned untouched.
pub fn reliable_stream<T: Clone>(
    name: &str,
    items: Vec<T>,
    plan: Option<&FaultPlan>,
    cfg: &SupervisorConfig,
) -> (Vec<T>, SuperviseStats) {
    repair(name, items, plan, cfg, |_| {})
}

/// [`reliable_stream`], handing each round's delivered sequence — before
/// dedup — to `observe`.
fn repair<T: Clone>(
    name: &str,
    items: Vec<T>,
    plan: Option<&FaultPlan>,
    cfg: &SupervisorConfig,
    mut observe: impl FnMut(&[Seq<T>]),
) -> (Vec<T>, SuperviseStats) {
    let mut stats = SuperviseStats::default();
    let Some(plan) = plan else { return (items, stats) };
    let total = items.len();
    let mut received: BTreeMap<u64, T> = BTreeMap::new();
    let mut pending: Vec<Seq<T>> = seq_stamp(items);
    let mut round = 0u64;
    while !pending.is_empty() {
        if round > 0 {
            // This round's retransmission is the repair of the previous
            // round's drops (records dropped again re-inject and get a
            // further round, so the totals balance exactly).
            for m in &pending {
                note_fault(name, true, "drop", m.seq, None);
            }
        }
        // Bounded repair: after `max_repair_rounds` faulty rounds the
        // retransmission is fault-free, so delivery always terminates.
        let delivered = if round < cfg.max_repair_rounds as u64 {
            chaos_round(name, plan, round, &pending)
        } else {
            pending.clone()
        };
        observe(&delivered);
        // Sink-side dedup + re-sequencing.
        let mut high_water = None;
        for m in delivered {
            if high_water.is_some_and(|hw| m.seq < hw) {
                stats.reordered += 1;
                obs::counter("chaos.reordered_observed").incr();
            }
            high_water = Some(high_water.map_or(m.seq, |hw: u64| hw.max(m.seq)));
            if received.insert(m.seq, m.payload).is_some() {
                // Sink-side dedup repairs exactly the duplicate copies the
                // chaos round injected.
                stats.duplicated += 1;
                note_fault(name, true, "dup", m.seq, None);
            }
        }
        // Gap detection: whatever is still missing goes into the next
        // retransmission round.
        pending.retain(|m| !received.contains_key(&m.seq));
        stats.dropped += pending.len() as u64;
        if !pending.is_empty() {
            stats.repair_rounds += 1;
            obs::counter("chaos.retransmit_rounds").incr();
        }
        round += 1;
    }
    debug_assert_eq!(received.len(), total);
    (received.into_values().collect(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{chaos_counters_lock, ChaosConfig};
    use simcore::rng::RngFactory;

    fn plan(cfg: ChaosConfig) -> FaultPlan {
        FaultPlan::new(&RngFactory::new(11), "supervise-test", cfg)
    }

    #[test]
    fn reliable_stream_is_exactly_once_end_to_end() {
        let _g = chaos_counters_lock();
        let items: Vec<u64> = (0..700).collect();
        let p = plan(ChaosConfig::CALIBRATED);
        let (got, stats) =
            reliable_stream("t", items.clone(), Some(&p), &SupervisorConfig::default());
        assert_eq!(got, items, "dedup + reorder + retransmit restores the batch");
        assert!(stats.dropped > 0, "chaos actually dropped records: {stats:?}");
        assert!(stats.duplicated > 0);
        assert!(stats.reordered > 0);
        assert!(stats.repair_rounds > 0);
    }

    #[test]
    fn reliable_stream_stats_are_deterministic() {
        let _g = chaos_counters_lock();
        let p = plan(ChaosConfig::CALIBRATED);
        let run =
            || reliable_stream("t", (0..300u64).collect(), Some(&p), &SupervisorConfig::default());
        assert_eq!(run(), run());
    }

    #[test]
    fn reliable_stream_without_plan_is_identity() {
        let (got, stats) = reliable_stream("t", vec![1, 2, 3], None, &SupervisorConfig::default());
        assert_eq!(got, vec![1, 2, 3]);
        assert!(stats.is_clean());
    }

    #[test]
    fn reliable_stream_terminates_even_at_full_drop_rate() {
        let _g = chaos_counters_lock();
        // Every chaos round drops everything; the bounded fault-free round
        // must still deliver.
        let cfg = ChaosConfig {
            drop_prob: 1.0,
            dup_prob: 0.0,
            hold_prob: 0.0,
            max_hold: 0,
            crash_prob: 0.0,
            max_crashes: 0,
        };
        let p = plan(cfg);
        let sup = SupervisorConfig { max_repair_rounds: 3, ..SupervisorConfig::default() };
        let (got, stats) = reliable_stream("t", (0..50u32).collect(), Some(&p), &sup);
        assert_eq!(got, (0..50).collect::<Vec<u32>>());
        assert_eq!(stats.repair_rounds, 3);
        assert_eq!(stats.dropped, 150);
    }

    /// The chaos counters a transport run moves, in the order the pinned
    /// cases list their deltas.
    const CHAOS_COUNTERS: [&str; 11] = [
        "chaos.drops_injected",
        "chaos.drops_repaired",
        "chaos.dups_injected",
        "chaos.dups_repaired",
        "chaos.holds_injected",
        "chaos.holds_repaired",
        "chaos.faults_injected",
        "chaos.faults_repaired",
        "chaos.reordered_observed",
        "chaos.retransmit_rounds",
        "chaos.trace.events",
    ];

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    fn fnv(h: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01B3))
    }

    /// Pins the transport on fixed plans — three seeds at the calibrated and
    /// at a heavy profile, and one run cut off by `max_repair_rounds` — to
    /// what the threaded transport it replaced produced: the exact stats,
    /// the `chaos.*` counter deltas, an FNV over every round's delivered
    /// sequence before dedup, and an FNV over the run's sorted trace lines.
    #[test]
    fn transport_is_pinned_on_fixed_plans() {
        let _g = chaos_counters_lock();
        const HEAVY: ChaosConfig = ChaosConfig {
            drop_prob: 0.2,
            dup_prob: 0.2,
            hold_prob: 0.25,
            max_hold: 6,
            crash_prob: 0.9,
            max_crashes: 3,
        };
        let stats = |dropped, duplicated, reordered, repair_rounds| SuperviseStats {
            dropped,
            duplicated,
            reordered,
            repair_rounds,
            ..SuperviseStats::default()
        };
        #[rustfmt::skip]
        let cases = [
            (1, ChaosConfig::CALIBRATED, 8, stats(16, 26, 21, 2),
             [16, 16, 26, 26, 23, 23, 65, 65, 21, 2, 130], 0x39f2e37100f9b4c0, 0x881d65a0c8788bbd),
            (2, ChaosConfig::CALIBRATED, 8, stats(15, 11, 22, 1),
             [15, 15, 11, 11, 23, 23, 49, 49, 22, 1, 98], 0x26a1d8ad001cb0db, 0xf5fc7f6495b7f6cc),
            (3, ChaosConfig::CALIBRATED, 8, stats(20, 20, 17, 1),
             [20, 20, 20, 20, 19, 19, 59, 59, 17, 1, 118], 0xf9b4776c94c4fe80, 0x79005cf86a592152),
            (1, HEAVY, 8, stats(76, 57, 59, 4),
             [76, 76, 57, 57, 85, 85, 218, 218, 59, 4, 436], 0x066bbd26e91ca72b, 0x255c3a02e2108787),
            (2, HEAVY, 8, stats(57, 67, 60, 3),
             [57, 57, 67, 67, 87, 87, 211, 211, 60, 3, 422], 0xf11df9a46e6ab138, 0x9e7b6a27b91b8a3c),
            (3, HEAVY, 8, stats(71, 69, 52, 5),
             [71, 71, 69, 69, 77, 77, 217, 217, 52, 5, 434], 0x7c934e088f04c8ee, 0x980285312f4ab7ed),
            // Two faulty rounds leave records pending; the third passes through.
            (4, HEAVY, 2, stats(70, 63, 50, 2),
             [70, 70, 63, 63, 75, 75, 208, 208, 50, 2, 416], 0x5d37a8be28a06f59, 0x6375535633830ae9),
        ];
        let items: Vec<u64> = (0..256).map(|i| i * 7 + 3).collect();
        for (case, (seed, chaos, rounds, want_stats, want_counters, want_delivered, want_trace)) in
            cases.into_iter().enumerate()
        {
            let site = format!("pinned-{case}");
            let plan = FaultPlan::from_seed(seed, "pinned", chaos);
            let sup = SupervisorConfig { max_repair_rounds: rounds, ..SupervisorConfig::default() };
            let before = CHAOS_COUNTERS.map(|c| obs::counter(c).get());
            let mut delivered = FNV_OFFSET;
            let (got, stats) = repair(&site, items.clone(), Some(&plan), &sup, |round| {
                for m in round {
                    delivered = fnv(fnv(delivered, &m.seq.to_le_bytes()), &m.payload.to_le_bytes());
                }
            });
            let mut counters = CHAOS_COUNTERS.map(|c| obs::counter(c).get());
            for (c, b) in counters.iter_mut().zip(before) {
                *c -= b;
            }
            let trace = obs::trace::snapshot()
                .iter()
                .filter(|e| e.scope == site)
                .fold(FNV_OFFSET, |h, e| fnv(h, e.deterministic_line().as_bytes()));
            assert_eq!(got, items, "case {case}: the batch comes back exactly");
            assert_eq!(stats, want_stats, "case {case}");
            assert_eq!(counters, want_counters, "case {case}: {CHAOS_COUNTERS:?}");
            assert_eq!(delivered, want_delivered, "case {case}: delivered sequence");
            assert_eq!(trace, want_trace, "case {case}: trace events");
        }
    }
}
