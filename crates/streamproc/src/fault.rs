//! Deterministic fault injection ("chaos") for stream stages.
//!
//! The paper's production pipeline (Kafka + Spark + Flume, §4.3.1) is built
//! on the assumption that telemetry transport is lossy: records drop, arrive
//! twice, arrive out of order or long after their window's watermark, and
//! whole stages crash. This module injects exactly those faults — but
//! *deterministically*, from a [`FaultPlan`] derived off the experiment's
//! [`RngFactory`] — so a chaos run is reproducible bit-for-bit and the
//! recovery machinery in [`crate::supervise`] can be held to the invariant
//! *fault-free output ≡ faulted-and-recovered output*.
//!
//! Every fault decision is a pure function of `(plan seed, round, sequence
//! number)` or `(plan seed, task, attempt)` — never of thread timing — which
//! is what makes the injected schedule independent of `--jobs`.

use simcore::rng::{hash_label, splitmix64, RngFactory};

/// A sequence-numbered envelope: the unit of at-least-once delivery.
///
/// Sequence numbers are assigned once, at the stream source, and survive
/// duplication/reordering so sinks can dedup and restore order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seq<T> {
    pub seq: u64,
    pub payload: T,
}

/// Stamp a batch with consecutive sequence numbers starting at 0.
pub fn seq_stamp<T>(items: impl IntoIterator<Item = T>) -> Vec<Seq<T>> {
    items.into_iter().enumerate().map(|(i, payload)| Seq { seq: i as u64, payload }).collect()
}

/// What the chaos layer does to one delivered record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver normally.
    Deliver,
    /// Drop on the floor (a repair round must retransmit it).
    Drop,
    /// Deliver twice back-to-back (sinks must dedup).
    Duplicate,
    /// Hold back until `lag` further records have passed, then deliver late
    /// — past the watermark if the stream ends first.
    Hold(u32),
}

/// Fault intensity knobs. All probabilities are per-record (or per-attempt
/// for `crash_prob`).
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    pub drop_prob: f64,
    pub dup_prob: f64,
    pub hold_prob: f64,
    /// Maximum records a held message waits before late delivery.
    pub max_hold: u32,
    /// Probability that a stage incarnation is crashed before finishing.
    pub crash_prob: f64,
    /// Hard cap on planned crashes per task, so the supervisor's bounded
    /// restart budget always suffices and chaos runs always terminate.
    pub max_crashes: u32,
}

impl ChaosConfig {
    /// No faults at all (a plan with this config is a no-op).
    pub const DISABLED: ChaosConfig = ChaosConfig {
        drop_prob: 0.0,
        dup_prob: 0.0,
        hold_prob: 0.0,
        max_hold: 0,
        crash_prob: 0.0,
        max_crashes: 0,
    };

    /// The default intensity for stream transports and coarse-grained task
    /// sets (e.g. the experiment catalog): every fault class fires visibly
    /// on streams of a few hundred records.
    pub const CALIBRATED: ChaosConfig = ChaosConfig {
        drop_prob: 0.06,
        dup_prob: 0.06,
        hold_prob: 0.08,
        max_hold: 12,
        crash_prob: 0.6,
        max_crashes: 2,
    };

    /// A sparse profile for very large task sets (e.g. per-cell measurement
    /// tasks), where per-task restart backoff would otherwise dominate the
    /// wall clock.
    pub const SPARSE: ChaosConfig = ChaosConfig {
        drop_prob: 0.02,
        dup_prob: 0.02,
        hold_prob: 0.03,
        max_hold: 8,
        crash_prob: 0.01,
        max_crashes: 1,
    };
}

/// A deterministic schedule of faults for one named stage/transport.
///
/// The plan is `Copy` and carries only a seed + config; all decisions are
/// recomputed on demand from hashes, so plans can be shared freely across
/// worker threads without any state.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    seed: u64,
    pub cfg: ChaosConfig,
}

impl FaultPlan {
    /// Derive the plan for the stage named `stage` from an experiment RNG
    /// factory. Distinct stages get independent fault schedules.
    pub fn new(rngs: &RngFactory, stage: &str, cfg: ChaosConfig) -> FaultPlan {
        FaultPlan { seed: rngs.fork_indexed("chaos", hash_label(stage)).seed(), cfg }
    }

    /// Convenience: derive from a bare chaos seed (the `--chaos-seed` flag).
    pub fn from_seed(chaos_seed: u64, stage: &str, cfg: ChaosConfig) -> FaultPlan {
        FaultPlan::new(&RngFactory::new(chaos_seed), stage, cfg)
    }

    /// A sub-plan for the `idx`-th logical sub-stream of this stage.
    pub fn for_substream(&self, idx: u64) -> FaultPlan {
        FaultPlan {
            seed: RngFactory::new(self.seed).fork_indexed("chaos-substream", idx).seed(),
            cfg: self.cfg,
        }
    }

    /// A uniform draw in `[0, 1)`, pure in `(seed, tag, a, b)`.
    fn unit(&self, tag: u64, a: u64, b: u64) -> f64 {
        let mut s = self.seed
            ^ tag
            ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ b.wrapping_mul(0xE703_7ED1_A0B4_28DB);
        (splitmix64(&mut s) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The fault applied to sequence number `seq` during delivery round
    /// `round` (repair rounds re-roll, so a record dropped in round 0 is
    /// usually delivered in round 1).
    pub fn action(&self, round: u64, seq: u64) -> FaultAction {
        let c = self.cfg;
        let u = self.unit(hash_label("action"), round, seq);
        if u < c.drop_prob {
            FaultAction::Drop
        } else if u < c.drop_prob + c.dup_prob {
            FaultAction::Duplicate
        } else if u < c.drop_prob + c.dup_prob + c.hold_prob && c.max_hold > 0 {
            let lag = 1 + (self.unit(hash_label("hold"), round, seq) * c.max_hold as f64) as u32;
            FaultAction::Hold(lag)
        } else {
            FaultAction::Deliver
        }
    }

    /// How many incarnations of logical task `task` are crashed before one
    /// is allowed to finish. Always `<= cfg.max_crashes`, so a supervisor
    /// with `max_restarts >= max_crashes` is guaranteed to terminate.
    pub fn planned_crashes(&self, task: u64) -> u32 {
        let mut n = 0;
        while n < self.cfg.max_crashes
            && self.unit(hash_label("crash"), task, n as u64) < self.cfg.crash_prob
        {
            n += 1;
        }
        n
    }

    /// For incarnation `attempt` of `task` over `remaining` inputs: the
    /// number of inputs processed before the injected panic, or `None` if
    /// this incarnation runs to completion.
    pub fn crash_point(&self, task: u64, attempt: u32, remaining: u64) -> Option<u64> {
        if attempt >= self.planned_crashes(task) {
            return None;
        }
        let u = self.unit(hash_label("crash-point"), task ^ remaining, attempt as u64);
        Some((u * (remaining + 1) as f64) as u64)
    }
}

/// Marker payload carried by injected panics, so supervisors (and tests)
/// can tell a planned chaos crash from a real stage failure.
#[derive(Clone, Copy, Debug)]
pub struct InjectedCrash;

/// Unwind with an [`InjectedCrash`] payload. Uses `resume_unwind` rather
/// than `panic!` so the process-global panic hook stays quiet — injected
/// crashes are expected and would otherwise spam stderr on every chaos run.
pub fn injected_crash() -> ! {
    obs::counter("chaos.crashes_injected").incr();
    obs::counter("chaos.faults_injected").incr();
    std::panic::resume_unwind(Box::new(InjectedCrash))
}

/// Deliver `batch` through round `round` of `plan`'s chaos transport and
/// return what arrives, in arrival order. Drops vanish, for a repair round
/// to retransmit; duplicates arrive twice back-to-back; held records arrive
/// late — after `lag` further records, or past the watermark at the end of
/// the batch, in (remaining lag, seq) order.
///
/// Fault accounting (out-of-band, see `obs`): each fault is counted where it
/// is applied, here, and where the recovery machinery undoes it — holds at
/// release (here), drops at retransmission and duplicates at sink dedup (in
/// [`crate::supervise::reliable_stream`]), crashes at restart (in
/// [`crate::pool::parallel_map_supervised`]). For a completed run every
/// class balances, so `chaos.faults_repaired == chaos.faults_injected`.
pub(crate) fn chaos_round<T: Clone>(
    site: &str,
    plan: &FaultPlan,
    round: u64,
    batch: &[Seq<T>],
) -> Vec<Seq<T>> {
    let mut out = Vec::with_capacity(batch.len());
    let mut held: Vec<(u32, Seq<T>)> = Vec::new();
    for msg in batch {
        match plan.action(round, msg.seq) {
            FaultAction::Deliver => out.push(msg.clone()),
            FaultAction::Drop => note_fault(site, false, "drop", msg.seq, None),
            FaultAction::Duplicate => {
                note_fault(site, false, "dup", msg.seq, None);
                out.push(msg.clone());
                out.push(msg.clone());
            }
            FaultAction::Hold(lag) => {
                note_fault(site, false, "hold", msg.seq, Some(lag as u64));
                held.push((lag, msg.clone()));
            }
        }
        // Age held records; release the due ones (late, out of order).
        let mut due = Vec::new();
        held.retain_mut(|h| {
            h.0 -= 1;
            if h.0 == 0 {
                due.push(h.1.clone());
                false
            } else {
                true
            }
        });
        for m in due {
            note_fault(site, true, "hold", m.seq, None);
            out.push(m);
        }
    }
    held.sort_by_key(|(lag, m)| (*lag, m.seq));
    for (_, m) in held {
        note_fault(site, true, "hold", m.seq, None);
        out.push(m);
    }
    out
}

/// Count one `class` fault (`drop`, `dup` or `hold`) on record `seq` as
/// injected or `repaired`, and trace it with the `(site, detail)` key that
/// `obs::trace::check_causality` pairs an injection with its repair by.
pub(crate) fn note_fault(site: &str, repaired: bool, class: &str, seq: u64, value: Option<u64>) {
    let by_class = match (class, repaired) {
        ("drop", false) => "chaos.drops_injected",
        ("drop", true) => "chaos.drops_repaired",
        ("dup", false) => "chaos.dups_injected",
        ("dup", true) => "chaos.dups_repaired",
        ("hold", false) => "chaos.holds_injected",
        ("hold", true) => "chaos.holds_repaired",
        _ => unreachable!("no fault class '{class}'"),
    };
    let (kind, total) = if repaired {
        (obs::EventKind::FaultRepaired, "chaos.faults_repaired")
    } else {
        (obs::EventKind::FaultInjected, "chaos.faults_injected")
    };
    obs::counter(by_class).incr();
    obs::counter(total).incr();
    obs::trace::emit(kind, site, None, None, format!("{class} seq={seq}"), value);
}

/// Serialises the unit tests that move the process-global `chaos.*`
/// counters, so a test can assert on their deltas.
#[cfg(test)]
pub(crate) fn chaos_counters_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(cfg: ChaosConfig) -> FaultPlan {
        FaultPlan::new(&RngFactory::new(7), "test-stage", cfg)
    }

    #[test]
    fn actions_are_deterministic_and_varied() {
        let p = plan(ChaosConfig::CALIBRATED);
        let a: Vec<FaultAction> = (0..500).map(|s| p.action(0, s)).collect();
        let b: Vec<FaultAction> = (0..500).map(|s| p.action(0, s)).collect();
        assert_eq!(a, b, "same plan, same decisions");
        assert!(a.contains(&FaultAction::Drop));
        assert!(a.contains(&FaultAction::Duplicate));
        assert!(a.iter().any(|x| matches!(x, FaultAction::Hold(_))));
        assert!(a.contains(&FaultAction::Deliver));
        // Repair rounds re-roll: round 1 differs from round 0.
        let r1: Vec<FaultAction> = (0..500).map(|s| p.action(1, s)).collect();
        assert_ne!(a, r1);
    }

    #[test]
    fn distinct_stages_get_distinct_schedules() {
        let rngs = RngFactory::new(7);
        let a = FaultPlan::new(&rngs, "stage-a", ChaosConfig::CALIBRATED);
        let b = FaultPlan::new(&rngs, "stage-b", ChaosConfig::CALIBRATED);
        let sa: Vec<FaultAction> = (0..200).map(|s| a.action(0, s)).collect();
        let sb: Vec<FaultAction> = (0..200).map(|s| b.action(0, s)).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn planned_crashes_are_bounded() {
        let p = plan(ChaosConfig::CALIBRATED);
        for task in 0..200 {
            let c = p.planned_crashes(task);
            assert!(c <= ChaosConfig::CALIBRATED.max_crashes);
            // Crash points exist exactly for attempts below the planned count.
            for attempt in 0..c {
                assert!(p.crash_point(task, attempt, 50).is_some());
            }
            assert!(p.crash_point(task, c, 50).is_none());
        }
        assert!(
            (0..200).any(|t| p.planned_crashes(t) > 0),
            "calibrated profile crashes some tasks"
        );
    }

    #[test]
    fn disabled_config_is_a_no_op() {
        let p = plan(ChaosConfig::DISABLED);
        assert!((0..1000).all(|s| p.action(0, s) == FaultAction::Deliver));
        assert!((0..1000).all(|t| p.planned_crashes(t) == 0));
    }

    #[test]
    fn chaos_round_drops_dups_and_reorders_deterministically() {
        let _g = chaos_counters_lock();
        let batch = seq_stamp(0..400u64);
        let a = chaos_round("t", &plan(ChaosConfig::CALIBRATED), 0, &batch);
        let b = chaos_round("t", &plan(ChaosConfig::CALIBRATED), 0, &batch);
        assert_eq!(a, b, "chaos round output is reproducible");
        let seqs: Vec<u64> = a.iter().map(|m| m.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort();
        sorted.dedup();
        assert!(sorted.len() < 400, "some records dropped");
        assert!(seqs.len() > sorted.len(), "some records duplicated");
        assert!(seqs.windows(2).any(|w| w[0] > w[1]), "some records reordered");
        // Payloads survive intact.
        assert!(a.iter().all(|m| m.payload == m.seq));
    }

    #[test]
    fn held_records_flush_at_end_of_stream() {
        let _g = chaos_counters_lock();
        // With hold probability 1 everything is held and must still come out.
        let cfg = ChaosConfig {
            drop_prob: 0.0,
            dup_prob: 0.0,
            hold_prob: 1.0,
            max_hold: 100,
            crash_prob: 0.0,
            max_crashes: 0,
        };
        let out = chaos_round("t", &plan(cfg), 0, &seq_stamp(0..20u32));
        let mut got: Vec<u64> = out.iter().map(|m| m.seq).collect();
        got.sort();
        assert_eq!(got, (0..20).collect::<Vec<u64>>(), "nothing lost to the watermark");
    }
}
