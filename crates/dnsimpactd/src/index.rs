//! The hot NSSet→impact index and its serving snapshot.
//!
//! [`IndexState`] is the ingester's mutable view: the columnar episode
//! table and join grown incrementally per record
//! ([`EpisodeColumns::push_episode`], [`JoinTable::extend`]), plus the
//! per-NSSet impact summaries and the baseline cells the aggregates feed.
//! Application is strictly sequential and deterministic, so the state
//! after batch `k` is a pure function of batches `0..=k` — the property
//! the fingerprints lock.
//!
//! [`IndexSnapshot`] is the immutable serving view published through a
//! [`streamproc::SwapCell`] after every applied batch. Queries clone an
//! `Arc` to the current snapshot and never observe a half-applied batch.

use crate::feed::{FeedBatch, FeedRecord};
use dnsimpact_core::columnar::JoinTable;
use dnssim::{DomainId, Infra, NsSetId};
use obs::metrics::Held;
use obs::{Counter, Gauge};
use scenarios::BuiltWorld;
/// The hasher both fingerprints below are taken with.
pub use simcore::hash::FnvWriter;
use simcore::time::{SimTime, Window};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use telescope::EpisodeColumns;

/// Where an NSSet's current impact ratio got its baseline. Mirrors the
/// batch pipeline's fallback ladder: day-before sweep, else week-before
/// (sensor outage), else nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaselineSource {
    DayBefore,
    WeekBefore,
    Missing,
}

impl BaselineSource {
    pub fn as_str(self) -> &'static str {
        match self {
            BaselineSource::DayBefore => "day_before",
            BaselineSource::WeekBefore => "week_before",
            BaselineSource::Missing => "missing",
        }
    }
}

/// Everything the daemon serves about one NSSet.
#[derive(Clone, Debug, Default)]
pub struct NsSetImpact {
    /// Episodes joined to this NSSet so far.
    pub attacks_seen: u64,
    pub first_attack_window: Option<Window>,
    pub last_attack_window: Option<Window>,
    pub peak_ppm: f64,
    /// Latest during-attack RTT aggregate.
    pub during_rtt_ms: Option<f64>,
    pub domains_measured: u64,
    /// Latest Impact_on_RTT (during / baseline), when a baseline existed.
    pub impact_on_rtt: Option<f64>,
    /// Worst ratio observed across all attacks.
    pub worst_impact_on_rtt: Option<f64>,
    pub baseline_source: Option<BaselineSource>,
}

// Applied per batch and per record: each handle is interned at its first
// use and held, so no apply takes the metric registry's lock.
static BATCHES_APPLIED: Held<Counter> = Held::counter("daemon.batches_applied");
static RECORDS_APPLIED: Held<Counter> = Held::counter("daemon.records_applied");
static STALENESS_S: Held<Gauge> = Held::gauge("daemon.staleness_s");
static EPISODES_APPLIED: Held<Counter> = Held::counter("daemon.episodes_applied");
static BASELINES_APPLIED: Held<Counter> = Held::counter("daemon.baselines_applied");
static BASELINE_FALLBACKS: Held<Counter> = Held::counter("daemon.baseline_fallbacks");
static BASELINES_MISSING: Held<Counter> = Held::counter("daemon.baselines_missing");
static ATTACK_OBS_APPLIED: Held<Counter> = Held::counter("daemon.attack_obs_applied");

/// The ingester's mutable index.
#[derive(Clone, Debug, Default)]
pub struct IndexState {
    pub columns: EpisodeColumns,
    pub join: JoinTable,
    pub nssets: BTreeMap<u32, NsSetImpact>,
    /// `(nsset, day)` → `(avg_rtt_ms, domains_measured)`.
    pub baselines: BTreeMap<(u32, u64), (f64, u64)>,
    /// Batches applied so far (the next expected `seq`).
    pub applied_seq: u64,
    pub records_applied: u64,
    pub clock: SimTime,
    pub horizon: Window,
}

impl IndexState {
    /// Apply one batch. Panics on out-of-order application — the
    /// transport below guarantees in-order delivery, and a violated
    /// guarantee must never be papered over into a wrong index.
    pub fn apply(&mut self, world: &BuiltWorld, batch: &FeedBatch) {
        assert_eq!(batch.seq, self.applied_seq, "batches must apply in seq order");
        for rec in &batch.records {
            self.apply_record(world, rec);
            self.records_applied += 1;
        }
        self.applied_seq = batch.seq + 1;
        self.clock = batch.clock;
        self.horizon = batch.horizon;
        BATCHES_APPLIED.incr();
        RECORDS_APPLIED.add(batch.records.len() as u64);
        STALENESS_S.set(self.staleness_s());
    }

    fn apply_record(&mut self, world: &BuiltWorld, rec: &FeedRecord) {
        match rec {
            FeedRecord::Episode(e) => {
                let from = self.columns.len();
                let rows_before = self.join.len();
                self.columns.push_episode(e);
                self.join.extend(
                    &world.infra,
                    &world.infra,
                    &self.columns,
                    from,
                    &world.meta.open_resolvers,
                    false,
                    1,
                    None,
                );
                for row in rows_before..self.join.len() {
                    for &nsset in self.join.nssets.row(row) {
                        let s = self.nssets.entry(nsset.0).or_default();
                        s.attacks_seen += 1;
                        s.first_attack_window = Some(
                            s.first_attack_window.map_or(e.first_window, |w| w.min(e.first_window)),
                        );
                        s.last_attack_window = Some(
                            s.last_attack_window.map_or(e.last_window, |w| w.max(e.last_window)),
                        );
                        if e.peak_ppm > s.peak_ppm {
                            s.peak_ppm = e.peak_ppm;
                        }
                    }
                }
                EPISODES_APPLIED.incr();
            }
            FeedRecord::DayBaseline { nsset, day, avg_rtt_ms, domains_measured } => {
                self.baselines.insert((nsset.0, *day), (*avg_rtt_ms, *domains_measured));
                BASELINES_APPLIED.incr();
            }
            FeedRecord::AttackObs { nsset, first_window, avg_rtt_ms, domains_measured, .. } => {
                let day = first_window.day();
                let (baseline, source) =
                    match day.checked_sub(1).and_then(|d| self.baselines.get(&(nsset.0, d))) {
                        Some(&(rtt, _)) => (Some(rtt), BaselineSource::DayBefore),
                        None => {
                            match day.checked_sub(7).and_then(|d| self.baselines.get(&(nsset.0, d)))
                            {
                                Some(&(rtt, _)) => (Some(rtt), BaselineSource::WeekBefore),
                                None => (None, BaselineSource::Missing),
                            }
                        }
                    };
                if source == BaselineSource::WeekBefore {
                    BASELINE_FALLBACKS.incr();
                }
                if source == BaselineSource::Missing {
                    BASELINES_MISSING.incr();
                }
                let s = self.nssets.entry(nsset.0).or_default();
                s.during_rtt_ms = Some(*avg_rtt_ms);
                s.domains_measured = *domains_measured;
                s.baseline_source = Some(source);
                s.impact_on_rtt = baseline.filter(|b| *b > 0.0).map(|b| avg_rtt_ms / b);
                if let Some(r) = s.impact_on_rtt {
                    if s.worst_impact_on_rtt.is_none_or(|w| r > w) {
                        s.worst_impact_on_rtt = Some(r);
                    }
                }
                ATTACK_OBS_APPLIED.incr();
            }
        }
    }

    /// Clock-minus-horizon, in seconds: how far the served view lags the
    /// feed's own sense of now.
    pub fn staleness_s(&self) -> u64 {
        self.clock.secs().saturating_sub(self.horizon.end().secs())
    }

    /// FNV-1a over the scalar serving state (per-NSSet summaries,
    /// baselines, progress marks). Cheap enough to stamp into every
    /// checkpoint; `Debug` on `f64` prints the shortest round-tripping
    /// form, so equal fingerprints mean bit-equal floats.
    pub fn state_fingerprint(&self) -> u64 {
        let mut w = FnvWriter::new();
        let _ = write!(
            w,
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            self.applied_seq,
            self.records_applied,
            self.clock,
            self.horizon,
            self.nssets,
            self.baselines
        );
        w.finish()
    }

    /// FNV-1a over the scalar state *and* the columnar structures — the
    /// byte-identity the replay-determinism contract is stated over.
    pub fn full_fingerprint(&self) -> u64 {
        let mut w = FnvWriter::new();
        let _ = write!(w, "{:016x}|{:?}|{:?}", self.state_fingerprint(), self.columns, self.join);
        w.finish()
    }

    /// The immutable serving view of the current state. `with_full_fp`
    /// stamps the O(index)-cost full fingerprint (done once, after ingest
    /// completes); per-batch publishes carry only the cheap scalar one.
    pub fn snapshot(&self, total_batches: u64, with_full_fp: bool) -> IndexSnapshot {
        IndexSnapshot {
            applied_seq: self.applied_seq,
            total_batches,
            records_applied: self.records_applied,
            episodes: self.columns.len() as u64,
            joined_rows: self.join.len() as u64,
            clock: self.clock,
            horizon: self.horizon,
            nssets: self.nssets.clone(),
            state_fp: self.state_fingerprint(),
            full_fp: with_full_fp.then(|| self.full_fingerprint()),
        }
    }
}

/// What queries see: an immutable copy of the serving state, swapped
/// whole after each batch.
#[derive(Clone, Debug, Default)]
pub struct IndexSnapshot {
    pub applied_seq: u64,
    pub total_batches: u64,
    pub records_applied: u64,
    pub episodes: u64,
    pub joined_rows: u64,
    pub clock: SimTime,
    pub horizon: Window,
    pub nssets: BTreeMap<u32, NsSetImpact>,
    pub state_fp: u64,
    pub full_fp: Option<u64>,
}

impl IndexSnapshot {
    pub fn staleness_s(&self) -> u64 {
        self.clock.secs().saturating_sub(self.horizon.end().secs())
    }

    /// Readiness = something has been served-worthy ingested AND the view
    /// is fresher than the bound.
    pub fn ready(&self, staleness_bound_s: u64) -> bool {
        self.applied_seq > 0 && self.staleness_s() <= staleness_bound_s
    }

    pub fn ingest_done(&self) -> bool {
        self.total_batches > 0 && self.applied_seq >= self.total_batches
    }
}

/// Name → (domain, NSSet) lookup, built once from the static world. (The
/// world's domain table is config, not feed — only impact state streams.)
pub struct DomainDir {
    map: BTreeMap<String, (DomainId, NsSetId)>,
}

impl DomainDir {
    pub fn build(infra: &Infra) -> DomainDir {
        let mut map = BTreeMap::new();
        for id in 0..infra.domain_count() {
            let rec = infra.domain(DomainId(id as u32));
            map.insert(rec.name.to_string(), (DomainId(id as u32), rec.nsset));
        }
        DomainDir { map }
    }

    pub fn lookup(&self, name: &str) -> Option<(DomainId, NsSetId)> {
        self.map.get(name).copied()
    }

    /// All names, ascending — the deterministic rank order the Zipf query
    /// generator draws from.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.map.keys().map(String::as_str)
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}
