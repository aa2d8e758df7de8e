//! The daemon's deterministic feed source.
//!
//! A real deployment would tail the RSDoS feed and the OpenINTEL daily
//! dumps from a broker; here the feed is regenerated from the pinned
//! synthetic world, which is what makes "checkpoint + feed replay" a
//! complete recovery story: the retained feed prefix is always available,
//! byte-identical, at restart.
//!
//! The source emits [`FeedBatch`]es — sequence-numbered, clock-stamped
//! groups of records ordered by *arrival* time:
//!
//! - [`FeedRecord::Episode`]: an RSDoS attack episode from the telescope.
//!   Arrival is the episode's last window's close, except inside a
//!   [`FeedGapModel`] gap, where the collector is down and the backlog
//!   arrives when the gap closes (or is lost outright).
//! - [`FeedRecord::DayBaseline`]: the OpenINTEL daily aggregate for an
//!   NSSet (expected RTT over the day's scheduled measurements), arriving
//!   at the end of its day — unless the [`OutageModel`] missed the day,
//!   in which case it is never emitted and consumers must degrade to the
//!   week-before baseline.
//! - [`FeedRecord::AttackObs`]: the during-attack aggregate for one
//!   (episode, NSSet) join, arriving at the attack's last window's close.
//!
//! Every batch carries the feed `clock` (sim time reached) and the data
//! `horizon` (the last window through which the telescope feed is
//! complete). During a gap the clock advances on empty "tick" batches
//! while the horizon stalls — that growing spread is exactly the
//! staleness the serving layer must report instead of hiding.

use attack::AttackScheduler;
use dnsimpact_core::front;
use dnssim::{NsSetId, Resolver};
use openintel::{expected_span_rtt, OutageModel, SweepSchedule};
use scenarios::{
    divisor_for_target, paper_longitudinal_config, world, BuiltWorld, PaperScale, WorldConfig,
};
use simcore::rng::RngFactory;
use simcore::time::{SimTime, Window, WINDOWS_PER_DAY, WINDOW_SECS};
use std::collections::BTreeSet;
use telescope::{AttackEpisode, Darknet, EpisodeColumns, FeedGapModel, RsdosRecord};

/// Identity and shape of the daemon's feed. Every field participates in
/// the determinism contract: two sources built from equal configs emit
/// byte-identical batch streams.
#[derive(Clone, Debug)]
pub struct FeedConfig {
    pub seed: u64,
    /// `PaperScale` divisor (see [`divisor_for_target`]).
    pub divisor: u32,
    /// Truncate the paper's 17-month interval to the first `months`
    /// (0 = full interval). Small values keep tests fast.
    pub months: usize,
    pub world: WorldConfig,
    /// Telescope gap schedule (seed + shape).
    pub gap_seed: u64,
    pub gap_prob: f64,
    pub max_gap_windows: u32,
    /// Fraction of in-gap episodes lost outright (the rest arrive late).
    pub loss_frac: f64,
    /// OpenINTEL sensor-outage schedule.
    pub outage_seed: u64,
    pub outage_prob: f64,
    /// Batch shape: cut after this many records …
    pub batch_records: usize,
    /// … or once the batch spans this many 5-minute windows of clock.
    pub batch_windows: u64,
}

impl FeedConfig {
    /// The pinned serving feed the CI gate and the perf snapshot run on:
    /// the paper catalog scaled to `scale_target` attacks, with the
    /// calibrated gap/outage schedules.
    pub fn pinned(scale_target: u64) -> FeedConfig {
        FeedConfig {
            seed: 42,
            divisor: divisor_for_target(scale_target),
            months: 0,
            world: WorldConfig::default(),
            gap_seed: 5,
            gap_prob: 0.25,
            max_gap_windows: 24,
            loss_frac: 0.1,
            outage_seed: 6,
            outage_prob: 0.05,
            batch_records: 64,
            batch_windows: 12,
        }
    }
}

/// One feed record. See the module docs for arrival semantics.
#[derive(Clone, Debug)]
pub enum FeedRecord {
    Episode(AttackEpisode),
    DayBaseline {
        nsset: NsSetId,
        day: u64,
        avg_rtt_ms: f64,
        domains_measured: u64,
    },
    AttackObs {
        nsset: NsSetId,
        first_window: Window,
        last_window: Window,
        avg_rtt_ms: f64,
        domains_measured: u64,
    },
}

/// A sequence-numbered ingest unit. Batches apply strictly in `seq`
/// order; the served index after batch `k` is a pure function of batches
/// `0..=k`.
#[derive(Clone, Debug)]
pub struct FeedBatch {
    pub seq: u64,
    /// Feed time reached once this batch is applied.
    pub clock: SimTime,
    /// Last window through which the telescope feed is complete at
    /// `clock`. `clock - horizon.end()` is the staleness the daemon must
    /// report.
    pub horizon: Window,
    pub records: Vec<FeedRecord>,
}

/// The built feed: the world it describes plus the full batch schedule.
pub struct FeedSource {
    pub world: BuiltWorld,
    pub batches: Vec<FeedBatch>,
    pub total_records: u64,
    pub episodes_lost: u64,
    pub baselines_suppressed: u64,
}

/// The last complete telescope window at instant `clock`: normally the
/// window that just closed, but while the collector is down (or until a
/// closed gap's backlog has arrived) completeness stalls at the window
/// before the gap opened.
pub fn horizon_at(gap: &FeedGapModel, clock: SimTime) -> Window {
    let mut h = (clock.secs() / WINDOW_SECS).saturating_sub(1);
    while h > 0 && gap.in_gap(Window(h)) && gap.arrival_of(Window(h)).secs() > clock.secs() {
        h -= 1;
    }
    Window(h)
}

/// Internal: one arrival-ordered event. `rank` breaks same-instant ties
/// deterministically (baselines land before the attack observations that
/// may consume them; ticks last).
struct Ev {
    at: SimTime,
    rank: u8,
    idx: u64,
    rec: Option<FeedRecord>,
}

/// Build the feed. `jobs` parallelizes the build-time join that decides
/// which aggregates OpenINTEL would have produced; the emitted batch
/// stream is byte-identical for any value.
pub fn build(cfg: &FeedConfig, jobs: usize) -> FeedSource {
    let rngs = RngFactory::new(cfg.seed);
    let built = world::build(&cfg.world, &rngs);

    let mut schedule_cfg = paper_longitudinal_config(PaperScale { divisor: cfg.divisor });
    if cfg.months > 0 && cfg.months < schedule_cfg.months.len() {
        schedule_cfg.months.truncate(cfg.months);
        schedule_cfg.attacks_per_month.truncate(cfg.months);
        schedule_cfg.dns_share_per_month.truncate(cfg.months);
    }
    let attacks = AttackScheduler::new(schedule_cfg).generate(&built.target_pool(), &rngs);
    let loads = front::load_book(&attacks);

    // Telescope view → episode stream. The record block is consumed here:
    // it is freed before the load book's index is built (at the first
    // span aggregate), not after the feed is.
    let episodes = front::observe(
        &Darknet::ucsd_like(),
        telescope::RsdosThresholds::default(),
        &attacks,
        &rngs,
    )
    .episodes;

    let gap =
        FeedGapModel::from_seed(cfg.gap_seed, cfg.gap_prob, cfg.max_gap_windows, cfg.loss_frac);
    let outage = OutageModel::from_seed(cfg.outage_seed, cfg.outage_prob);

    // Build-time join: which episodes touch the DNS decides which
    // OpenINTEL aggregates exist.
    let columns = EpisodeColumns::from_episodes(&episodes);
    let join = front::join(&built.infra, &columns, &built.meta.open_resolvers, false, jobs, None);

    let resolver = Resolver::default();
    let sweep = SweepSchedule::new(rngs.seed());

    let mut events: Vec<Ev> = Vec::new();
    let mut idx = 0u64;
    fn push(events: &mut Vec<Ev>, at: SimTime, rank: u8, rec: Option<FeedRecord>, idx: &mut u64) {
        events.push(Ev { at, rank, idx: *idx, rec });
        *idx += 1;
    }

    // Episodes, gap-delayed; a deterministic fraction of in-gap episodes
    // is lost with the collector.
    let mut episodes_lost = 0u64;
    for e in &episodes {
        let probe = RsdosRecord {
            window: e.last_window,
            victim: e.victim,
            slash16s: e.slash16s,
            protocol: e.protocol,
            first_port: e.first_port,
            unique_ports: e.unique_ports,
            max_ppm: e.peak_ppm,
            packets: e.packets,
        };
        if gap.record_lost(&probe) {
            episodes_lost += 1;
            continue;
        }
        push(
            &mut events,
            gap.arrival_of(e.last_window),
            1,
            Some(FeedRecord::Episode(e.clone())),
            &mut idx,
        );
    }

    // OpenINTEL aggregates for joined episodes: the during-attack
    // observation plus the baseline days it will want (day-before, and
    // week-before as the outage fallback).
    let mut baseline_days: BTreeSet<(NsSetId, u64)> = BTreeSet::new();
    for row in 0..join.len() {
        let ei = join.episode_idx[row] as usize;
        let (first, last) = (columns.first_windows[ei], columns.last_windows[ei]);
        for &nsset in join.nssets.row(row) {
            let (avg, n) =
                expected_span_rtt(&built.infra, &sweep, &resolver, nsset, first, last, &loads);
            if n > 0 {
                push(
                    &mut events,
                    last.end(),
                    2,
                    Some(FeedRecord::AttackObs {
                        nsset,
                        first_window: first,
                        last_window: last,
                        avg_rtt_ms: avg,
                        domains_measured: n,
                    }),
                    &mut idx,
                );
            }
            let day = first.day();
            for d in [day.checked_sub(1), day.checked_sub(7)].into_iter().flatten() {
                baseline_days.insert((nsset, d));
            }
        }
    }
    let mut baselines_suppressed = 0u64;
    for &(nsset, day) in &baseline_days {
        if outage.day_missed(day) {
            // The sensor was down: the daily dump never materializes.
            baselines_suppressed += 1;
            continue;
        }
        let first = Window(day * WINDOWS_PER_DAY);
        let last = Window((day + 1) * WINDOWS_PER_DAY - 1);
        let (avg, n) =
            expected_span_rtt(&built.infra, &sweep, &resolver, nsset, first, last, &loads);
        if n > 0 {
            push(
                &mut events,
                SimTime::from_days(day + 1),
                0,
                Some(FeedRecord::DayBaseline { nsset, day, avg_rtt_ms: avg, domains_measured: n }),
                &mut idx,
            );
        }
    }

    // Gap ticks: record-less events that advance the clock through the
    // collector's downtime so the horizon visibly stalls behind it.
    if let (Some(lo), Some(hi)) = (
        events.iter().map(|e| e.at.secs() / WINDOW_SECS).min(),
        events.iter().map(|e| e.at.secs() / WINDOW_SECS).max(),
    ) {
        for w in lo..=hi {
            if gap.in_gap(Window(w)) {
                push(&mut events, Window(w).end(), 3, None, &mut idx);
            }
        }
    }

    events.sort_by_key(|e| (e.at, e.rank, e.idx));

    // Cut the arrival-ordered stream into batches: bounded record count,
    // bounded clock span.
    let mut batches: Vec<FeedBatch> = Vec::new();
    let mut cur: Vec<FeedRecord> = Vec::new();
    let mut cur_first_w: Option<u64> = None;
    let mut cur_at = SimTime::EPOCH;
    let mut total_records = 0u64;
    let flush = |cur: &mut Vec<FeedRecord>, at: SimTime, batches: &mut Vec<FeedBatch>| {
        let seq = batches.len() as u64;
        batches.push(FeedBatch {
            seq,
            clock: at,
            horizon: horizon_at(&gap, at),
            records: std::mem::take(cur),
        });
    };
    for ev in events {
        let w = ev.at.secs() / WINDOW_SECS;
        let split = match cur_first_w {
            None => false,
            Some(fw) => {
                cur.len() >= cfg.batch_records.max(1)
                    || w.saturating_sub(fw) >= cfg.batch_windows.max(1)
            }
        };
        if split {
            flush(&mut cur, cur_at, &mut batches);
            cur_first_w = None;
        }
        cur_first_w.get_or_insert(w);
        cur_at = ev.at;
        if let Some(rec) = ev.rec {
            cur.push(rec);
            total_records += 1;
        }
    }
    if cur_first_w.is_some() {
        flush(&mut cur, cur_at, &mut batches);
    }

    obs::counter("daemon.feed.batches").add(batches.len() as u64);
    obs::counter("daemon.feed.records").add(total_records);
    obs::counter("daemon.feed.episodes_lost").add(episodes_lost);
    obs::counter("daemon.feed.baselines_suppressed").add(baselines_suppressed);

    FeedSource { world: built, batches, total_records, episodes_lost, baselines_suppressed }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FeedConfig {
        FeedConfig {
            seed: 7,
            divisor: divisor_for_target(2_000),
            months: 2,
            world: WorldConfig { providers: 20, domains: 6_000, ..WorldConfig::default() },
            gap_seed: 5,
            gap_prob: 0.5,
            max_gap_windows: 24,
            loss_frac: 0.1,
            outage_seed: 6,
            outage_prob: 0.1,
            batch_records: 32,
            batch_windows: 6,
        }
    }

    #[test]
    fn batches_are_sequenced_and_arrival_ordered() {
        let src = build(&tiny(), 2);
        assert!(!src.batches.is_empty());
        assert!(src.total_records > 0);
        let mut prev_clock = SimTime::EPOCH;
        for (i, b) in src.batches.iter().enumerate() {
            assert_eq!(b.seq, i as u64, "dense sequence numbers");
            assert!(b.clock >= prev_clock, "clock is monotone");
            assert!(
                b.horizon.end().secs() <= b.clock.secs(),
                "horizon never runs ahead of the clock"
            );
            prev_clock = b.clock;
        }
        let staleness_seen = src.batches.iter().any(|b| b.clock.secs() > b.horizon.end().secs());
        assert!(staleness_seen, "gap_prob 0.5 must stall the horizon somewhere");
    }

    #[test]
    fn feed_is_deterministic_across_jobs() {
        let a = build(&tiny(), 1);
        let b = build(&tiny(), 4);
        assert_eq!(format!("{:?}", a.batches), format!("{:?}", b.batches));
        assert_eq!(a.episodes_lost, b.episodes_lost);
        assert_eq!(a.baselines_suppressed, b.baselines_suppressed);
    }

    #[test]
    fn horizon_stalls_inside_gaps_only() {
        let gap = FeedGapModel::from_seed(5, 1.0, 24, 0.0);
        // Find a gapped window and check the stall.
        let w = (0..5_000).map(Window).find(|w| gap.in_gap(*w)).expect("gap exists");
        let h = horizon_at(&gap, w.end());
        assert!(h.0 < w.0, "horizon stalls before the gap");
        assert!(!gap.in_gap(h), "horizon rests on a complete window");
        // After the backlog arrives the horizon catches back up.
        let recovery = gap.arrival_of(w);
        assert_eq!(horizon_at(&gap, recovery).0, recovery.secs() / WINDOW_SECS - 1);
    }
}
