//! Step 4 of the methodology: the per-(attack, NSSet) impact events.
//!
//! For every joined attack event and every NSSet it touches, measure the
//! domains OpenINTEL would have measured in the attack's windows, build the
//! previous-day baseline, and compute `Impact_on_RTT` (Equation 1) plus
//! failure rates. NSSets with fewer than five domains measured during the
//! attack are discarded as noise, exactly as §6.3 does.

use crate::columnar::JoinTable;
use crate::join::DnsAttackEvent;
use attack::Protocol;
use census::{AnycastCensus, AnycastClass};
use dnssim::{DomainId, Infra, LoadBook, NsSetId, Resolver};
use openintel::measure::{measure_baseline, measure_domains};
use openintel::{MeasurementRec, MeasurementStore, OutageModel, SweepSchedule};
use simcore::hash::PackedMap;
use simcore::rng::RngFactory;
use simcore::time::{Window, WINDOWS_PER_DAY};
use std::borrow::Cow;
use std::collections::HashSet;
use telescope::{AttackEpisode, EpisodeColumns};

/// Which baseline day the denominator of Equation 1 came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaselineSource {
    /// The normal case: the sweep of the day before the attack.
    DayBefore,
    /// Degraded: the day-before sweep was lost to a sensor outage, so the
    /// week-before day substitutes (§4.1's ablation: the two baselines
    /// correlate at r = 0.999).
    WeekBefore,
    /// No usable baseline day (day-zero attack, or both candidate sweeps
    /// lost) — `impact_on_rtt` is `None`.
    Missing,
}

/// One row of the paper's impact analysis: an attack on one NSSet, with
/// its measured consequences and the deployment metadata the resilience
/// analyses slice by.
#[derive(Clone, Debug)]
pub struct ImpactEvent {
    pub episode_idx: usize,
    pub nsset: NsSetId,
    /// Domains OpenINTEL measured during the attack windows.
    pub domains_measured: u64,
    /// Equation 1; `None` when no usable baseline exists.
    pub impact_on_rtt: Option<f64>,
    /// Where the baseline denominator came from (degradation accounting).
    pub baseline_source: BaselineSource,
    /// Fraction of measured domains that failed to resolve.
    pub failure_rate: f64,
    pub timeouts: u64,
    pub servfails: u64,
    /// Domains hosted by the NSSet (the size classes of Figures 7–8).
    pub nsset_domains: u64,
    /// Attack attributes from the feed.
    pub protocol: Protocol,
    pub first_port: u16,
    pub peak_ppm: f64,
    pub duration_min: f64,
    /// Deployment metadata (Figures 11–13).
    pub anycast: AnycastClass,
    pub asn_count: usize,
    pub prefix_count: usize,
}

impl ImpactEvent {
    /// Complete resolution failure: every measured domain failed.
    pub fn complete_failure(&self) -> bool {
        self.domains_measured > 0 && self.failure_rate >= 1.0
    }
}

/// Tunables of the impact computation.
#[derive(Clone, Copy, Debug)]
pub struct ImpactConfig {
    /// Minimum domains measured during the attack (the paper uses 5).
    pub min_domains_measured: u64,
    /// Baseline sampling cap: at most this many of the NSSet's domains are
    /// measured on the previous day to form the denominator of Equation 1.
    pub baseline_sample_cap: usize,
    /// Simulated sensor outages: daily sweeps on missed days produce no
    /// measurements, and baselines falling on them trigger the week-before
    /// fallback. `None` (the default) models a lossless platform.
    pub sweep_outage: Option<OutageModel>,
    /// When set, the measurement phase runs under chaos: injected task
    /// crashes, supervised with bounded restarts. The impacts are
    /// byte-identical to a fault-free run — this knob only exercises the
    /// recovery machinery.
    pub chaos_seed: Option<u64>,
    /// Trace scope for `BaselineFallback`/`ImpactComputed` events (see
    /// `obs::trace`); `None` disables emission. Both emission sites sit in
    /// the sequential plan/aggregate phases, so the event stream is
    /// `--jobs`- and chaos-independent.
    pub trace_scope: Option<&'static str>,
}

impl Default for ImpactConfig {
    fn default() -> ImpactConfig {
        ImpactConfig {
            min_domains_measured: 5,
            baseline_sample_cap: 200,
            sweep_outage: None,
            chaos_seed: None,
            trace_scope: None,
        }
    }
}

/// One unit of OpenINTEL measurement work, planned sequentially and
/// executed on any worker. Tasks never share RNG state: measurement derives
/// a fresh stream per `(domain, window)` from the factory, so a task's
/// records depend only on its inputs — not on which thread ran it or when.
enum MeasureTask<'a> {
    /// One deduplicated (NSSet, window) attack-measurement cell.
    Cell { nsset: NsSetId, window: Window, domains: Cow<'a, [DomainId]> },
    /// The sampled previous-day baseline for one (NSSet, day), each domain
    /// probed in the window the sweep gives it that day.
    Baseline { nsset: NsSetId, day: u64, domains: Vec<DomainId> },
}

/// One (attack, NSSet) pair that passed the ≥5-domains filter, with its
/// resolved baseline day and the attack's attributes: the aggregate phase
/// emits exactly one [`ImpactEvent`] per row.
struct PlannedRow {
    /// Index into the feed's episode list.
    episode_idx: usize,
    nsset: NsSetId,
    first: Window,
    last: Window,
    base_day: Option<u64>,
    base_source: BaselineSource,
    protocol: Protocol,
    first_port: u16,
    peak_ppm: f64,
}

/// What a planner hands [`measure_and_aggregate`]: the canonical task list
/// and the rows, both in event order.
struct Plan<'a> {
    tasks: Vec<MeasureTask<'a>>,
    rows: Vec<PlannedRow>,
    /// Days a planned measurement fell on and the outage model lost.
    /// Out-of-band accounting only (see `obs`): recorded for the run
    /// report, never read back by a planner.
    lost_days: HashSet<u64>,
}

/// The baseline day of an attack whose first window is `first`:
/// day-before normally; week-before when the day-before sweep was lost
/// (graceful degradation, §4.1), which is traced.
fn resolve_baseline(
    trace_scope: Option<&'static str>,
    day_swept: &mut impl FnMut(u64) -> bool,
    episode_idx: usize,
    nsset: NsSetId,
    first: Window,
) -> (Option<u64>, BaselineSource) {
    let attack_day = first.day();
    let (base_day, base_source) = match attack_day.checked_sub(1) {
        Some(d) if day_swept(d) => (Some(d), BaselineSource::DayBefore),
        _ => match attack_day.checked_sub(7) {
            Some(d) if day_swept(d) => (Some(d), BaselineSource::WeekBefore),
            _ => (None, BaselineSource::Missing),
        },
    };
    if let (Some(scope), BaselineSource::WeekBefore) = (trace_scope, base_source) {
        obs::trace::emit(
            obs::EventKind::BaselineFallback,
            scope,
            Some(episode_idx as u64),
            Some(first.start().secs()),
            format!(
                "nsset {nsset:?}: day-before sweep lost, week-before day {} substitutes",
                base_day.unwrap_or(0)
            ),
            base_day,
        );
    }
    (base_day, base_source)
}

/// The baseline sweep of `nsset` on `day`, sampled: every `len / cap`-th
/// of its domains, at most `cap`.
fn baseline_task<'a>(
    infra: &Infra,
    config: &ImpactConfig,
    nsset: NsSetId,
    day: u64,
) -> MeasureTask<'a> {
    let all = infra.domains_of_nsset(nsset);
    let step = (all.len() / config.baseline_sample_cap).max(1);
    let domains = all.iter().step_by(step).take(config.baseline_sample_cap).copied().collect();
    MeasureTask::Baseline { nsset, day, domains }
}

/// Compute the impact events for all joined attacks. Also returns the
/// filled measurement store (per-window aggregates) for time-series
/// rendering. Sequential convenience wrapper around
/// [`compute_impacts_with_jobs`].
#[allow(clippy::too_many_arguments)]
pub fn compute_impacts(
    infra: &Infra,
    schedule: &SweepSchedule,
    resolver: &Resolver,
    loads: &LoadBook,
    episodes: &[AttackEpisode],
    events: &[DnsAttackEvent],
    census: &AnycastCensus,
    rngs: &RngFactory,
    config: &ImpactConfig,
) -> (Vec<ImpactEvent>, MeasurementStore) {
    compute_impacts_with_jobs(
        infra, schedule, resolver, loads, episodes, events, census, rngs, config, 1,
    )
}

/// [`compute_impacts`] with the measurement phase fanned out over up to
/// `jobs` worker threads (`0` → available parallelism).
///
/// Three phases keep the output independent of `jobs`:
///
/// 1. **Plan** (sequential, [`plan_from_events`]): walk the events in order
///    and emit a canonical, deduplicated task list — attack-window cells
///    and sampled baselines.
/// 2. **Measure** (parallel): run the tasks on a shared-queue worker pool;
///    [`streamproc::parallel_map`] returns the record batches in plan
///    order regardless of scheduling.
/// 3. **Merge + aggregate** (sequential): fold the batches in plan order
///    (fixing the f64 summation order inside the store), then derive every
///    event's statistics from the fully-populated store.
///
/// Phases 2 and 3 are [`measure_and_aggregate`], which the columnar path
/// shares.
#[allow(clippy::too_many_arguments)]
pub fn compute_impacts_with_jobs(
    infra: &Infra,
    schedule: &SweepSchedule,
    resolver: &Resolver,
    loads: &LoadBook,
    episodes: &[AttackEpisode],
    events: &[DnsAttackEvent],
    census: &AnycastCensus,
    rngs: &RngFactory,
    config: &ImpactConfig,
    jobs: usize,
) -> (Vec<ImpactEvent>, MeasurementStore) {
    let plan = plan_from_events(infra, schedule, episodes, events, config);
    measure_and_aggregate(infra, schedule, resolver, loads, census, rngs, config, jobs, plan)
}

/// Phase 1 of the reference path: plan from row events.
fn plan_from_events(
    infra: &Infra,
    schedule: &SweepSchedule,
    episodes: &[AttackEpisode],
    events: &[DnsAttackEvent],
    config: &ImpactConfig,
) -> Plan<'static> {
    let mut lost_days: HashSet<u64> = HashSet::new();
    let mut day_swept = |day: u64| {
        let swept = config.sweep_outage.is_none_or(|o| !o.day_missed(day));
        if !swept {
            lost_days.insert(day);
        }
        swept
    };
    let mut measured_cells: HashSet<(NsSetId, u64)> = HashSet::new();
    let mut baseline_days: HashSet<(NsSetId, u64)> = HashSet::new();
    let mut tasks: Vec<MeasureTask> = Vec::new();
    let mut rows: Vec<PlannedRow> = Vec::new();

    for ev in events {
        let ep = &episodes[ev.episode_idx];
        for &nsset in &ev.nssets {
            let mut measured =
                schedule.domains_in_window_range(infra, nsset, ep.first_window, ep.last_window);
            // A sweep outage during the attack loses those windows' probes.
            measured.retain(|(_, w)| day_swept(w.day()));
            if (measured.len() as u64) < config.min_domains_measured {
                continue;
            }
            let (base_day, base_source) = resolve_baseline(
                config.trace_scope,
                &mut day_swept,
                ev.episode_idx,
                nsset,
                ep.first_window,
            );
            rows.push(PlannedRow {
                episode_idx: ev.episode_idx,
                nsset,
                first: ep.first_window,
                last: ep.last_window,
                base_day,
                base_source,
                protocol: ep.protocol,
                first_port: ep.first_port,
                peak_ppm: ep.peak_ppm,
            });
            // Measure the attack windows (once per (nsset, window) cell
            // even when episodes overlap).
            let mut by_window: std::collections::BTreeMap<u64, Vec<DomainId>> =
                std::collections::BTreeMap::new();
            for (d, w) in &measured {
                by_window.entry(w.0).or_default().push(*d);
            }
            for (w, ds) in by_window {
                if measured_cells.insert((nsset, w)) {
                    tasks.push(MeasureTask::Cell { nsset, window: Window(w), domains: ds.into() });
                }
            }
            // Plan the baseline sweep day (sampled).
            if let Some(day) = base_day {
                if baseline_days.insert((nsset, day)) {
                    tasks.push(baseline_task(infra, config, nsset, day));
                }
            }
        }
    }
    Plan { tasks, rows, lost_days }
}

/// The columnar twin of [`compute_impacts_with_jobs`]: plan from a
/// [`JoinTable`] + [`EpisodeColumns`] instead of row events, walking each
/// row's windows over its NSSets' window-of-day buckets
/// ([`SweepSchedule::by_window_of_day`]) so the `(domain, window)`
/// cross-product is never materialized or sorted. Cells another event
/// already claimed are counted but not planned again, and a planned cell
/// borrows its bucket.
///
/// The row path above is the *reference implementation*; this function's
/// planner replicates its plan order, task list and trace stream exactly
/// (the differential suite in `tests/columnar_equivalence.rs` holds both to
/// identical outputs), and everything after the plan is the same function,
/// so the three-phase `--jobs`- and chaos-independence argument carries
/// over unchanged.
#[allow(clippy::too_many_arguments)]
pub fn compute_impacts_columnar(
    infra: &Infra,
    schedule: &SweepSchedule,
    resolver: &Resolver,
    loads: &LoadBook,
    episodes: &EpisodeColumns,
    table: &JoinTable,
    census: &AnycastCensus,
    rngs: &RngFactory,
    config: &ImpactConfig,
    jobs: usize,
) -> (Vec<ImpactEvent>, MeasurementStore) {
    // Each joined NSSet's domains by window-of-day, grouped before
    // planning starts so that the plan can borrow the buckets: a row then
    // walks its own windows and meets only the domains scheduled in them,
    // where the reference path's day scan touches every domain of the
    // NSSet. Same measurements, and each window's domains in the same
    // ascending id order (see `SweepSchedule::by_window_of_day`).
    let mut groups: PackedMap<NsSetId, Vec<Vec<DomainId>>> = PackedMap::default();
    for r in 0..table.len() {
        for &nsset in table.nssets.row(r) {
            groups.entry(nsset).or_insert_with(|| schedule.by_window_of_day(infra, nsset));
        }
    }
    let plan = plan_from_table(infra, episodes, table, config, &groups);
    measure_and_aggregate(infra, schedule, resolver, loads, census, rngs, config, jobs, plan)
}

/// Phase 1 of the columnar path (see the reference planner for the scheme).
fn plan_from_table<'a>(
    infra: &Infra,
    episodes: &EpisodeColumns,
    table: &JoinTable,
    config: &ImpactConfig,
    groups: &'a PackedMap<NsSetId, Vec<Vec<DomainId>>>,
) -> Plan<'a> {
    let mut lost_days: HashSet<u64> = HashSet::new();
    let mut day_swept = |day: u64| {
        let swept = config.sweep_outage.is_none_or(|o| !o.day_missed(day));
        if !swept {
            lost_days.insert(day);
        }
        swept
    };
    let mut measured_cells: HashSet<(NsSetId, u64)> = HashSet::new();
    let mut baseline_days: HashSet<(NsSetId, u64)> = HashSet::new();
    let mut tasks: Vec<MeasureTask> = Vec::new();
    let mut rows: Vec<PlannedRow> = Vec::new();
    // The row's windows no earlier row claimed.
    let mut unclaimed: Vec<u64> = Vec::new();

    for r in 0..table.len() {
        let episode_idx = table.episode_idx[r] as usize;
        let (first, last) =
            (episodes.first_windows[episode_idx], episodes.last_windows[episode_idx]);
        for &nsset in table.nssets.row(r) {
            let by_window_of_day = &groups[&nsset];
            // Count every surviving measurement; a window another row
            // already claimed is counted but not planned again.
            let mut measured: u64 = 0;
            unclaimed.clear();
            for w in first.0..=last.0 {
                let domains = &by_window_of_day[(w % WINDOWS_PER_DAY) as usize];
                // A window nobody is measured in does not make its day a
                // lost one.
                if domains.is_empty() || !day_swept(Window(w).day()) {
                    continue;
                }
                measured += domains.len() as u64;
                if !measured_cells.contains(&(nsset, w)) {
                    unclaimed.push(w);
                }
            }
            if measured < config.min_domains_measured {
                continue;
            }
            let (base_day, base_source) =
                resolve_baseline(config.trace_scope, &mut day_swept, episode_idx, nsset, first);
            rows.push(PlannedRow {
                episode_idx,
                nsset,
                first,
                last,
                base_day,
                base_source,
                protocol: episodes.protocols[episode_idx],
                first_port: episodes.first_ports[episode_idx],
                peak_ppm: episodes.peak_ppm[episode_idx],
            });
            for &w in &unclaimed {
                measured_cells.insert((nsset, w));
                let domains = by_window_of_day[(w % WINDOWS_PER_DAY) as usize].as_slice().into();
                tasks.push(MeasureTask::Cell { nsset, window: Window(w), domains });
            }
            if let Some(day) = base_day {
                if baseline_days.insert((nsset, day)) {
                    tasks.push(baseline_task(infra, config, nsset, day));
                }
            }
        }
    }
    Plan { tasks, rows, lost_days }
}

/// Phases 2 and 3, for either planner: measure the plan's tasks on the
/// worker pool, fold the batches into the store in plan order, and emit one
/// [`ImpactEvent`] per planned row.
#[allow(clippy::too_many_arguments)]
fn measure_and_aggregate(
    infra: &Infra,
    schedule: &SweepSchedule,
    resolver: &Resolver,
    loads: &LoadBook,
    census: &AnycastCensus,
    rngs: &RngFactory,
    config: &ImpactConfig,
    jobs: usize,
    plan: Plan,
) -> (Vec<ImpactEvent>, MeasurementStore) {
    let Plan { tasks, rows, lost_days } = plan;
    let baselines = tasks.iter().filter(|t| matches!(t, MeasureTask::Baseline { .. })).count();
    let sourced = |source| rows.iter().filter(|r| r.base_source == source).count() as u64;
    obs::counter("impact.rows").add(rows.len() as u64);
    obs::counter("impact.windows_computed").add((tasks.len() - baselines) as u64);
    obs::counter("impact.baselines").add(baselines as u64);
    obs::counter("impact.baseline_fallbacks").add(sourced(BaselineSource::WeekBefore));
    obs::counter("impact.baselines_missing").add(sourced(BaselineSource::Missing));
    obs::counter("outage.sweep_days_lost").add(lost_days.len() as u64);

    // The book builds its index at its first lookup. Take that here, on the
    // calling thread: built inside a pool worker, the maps land in that
    // worker's allocator arena, and jobs=2 peak RSS read +16 % (DESIGN.md
    // §19).
    let _ = loads.len();
    let batches = measure(infra, schedule, resolver, loads, rngs, config, jobs, &tasks);
    let store = merge(&tasks, &batches, &rows);
    obs::counter("openintel.records_measured").add(batches.iter().map(|b| b.len() as u64).sum());

    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let PlannedRow { episode_idx, nsset, first, last, base_day, base_source, .. } = row;
        let during = store.range_stats(nsset, first, last);
        let impact = base_day.and_then(|day| store.impact_on_rtt_from_day(nsset, first, last, day));
        let (asns, prefixes) = (infra.nsset_asns(nsset).len(), infra.nsset_slash24s(nsset).len());
        if let Some(scope) = config.trace_scope {
            obs::trace::emit(
                obs::EventKind::ImpactComputed,
                scope,
                Some(episode_idx as u64),
                Some(first.start().secs()),
                format!(
                    "nsset {nsset:?} ({:?} baseline), failure rate {:.4}",
                    base_source,
                    during.failure_rate()
                ),
                Some(during.domains_measured),
            );
        }
        out.push(ImpactEvent {
            episode_idx,
            nsset,
            domains_measured: during.domains_measured,
            impact_on_rtt: impact,
            baseline_source: base_source,
            failure_rate: during.failure_rate(),
            timeouts: during.timeout,
            servfails: during.servfail,
            nsset_domains: infra.domains_of_nsset(nsset).len() as u64,
            protocol: row.protocol,
            first_port: row.first_port,
            peak_ppm: row.peak_ppm,
            duration_min: ((last.0 - first.0 + 1) * 300) as f64 / 60.0,
            anycast: census.classify(infra, nsset, first.start()),
            asn_count: asns,
            prefix_count: prefixes,
        });
    }
    (out, store)
}

/// Phase 2: one record batch per task, in plan order. With a chaos seed
/// configured the pool runs supervised — tasks are crashed on schedule and
/// retried — which cannot change the batches: tasks are pure functions of
/// their inputs.
#[allow(clippy::too_many_arguments)]
fn measure(
    infra: &Infra,
    schedule: &SweepSchedule,
    resolver: &Resolver,
    loads: &LoadBook,
    rngs: &RngFactory,
    config: &ImpactConfig,
    jobs: usize,
    tasks: &[MeasureTask],
) -> Vec<Vec<MeasurementRec>> {
    let run_task = |task: &MeasureTask| match task {
        MeasureTask::Cell { nsset, window, domains } => {
            measure_domains(infra, resolver, domains, *nsset, *window, loads, rngs)
        }
        MeasureTask::Baseline { nsset, day, domains } => {
            measure_baseline(infra, schedule, resolver, domains, *nsset, *day, loads, rngs)
        }
    };
    let plan = config.chaos_seed.map(|cs| {
        streamproc::FaultPlan::from_seed(cs, "impact-measure", streamproc::ChaosConfig::SPARSE)
    });
    let (batches, _chaos) = streamproc::parallel_map_supervised(
        jobs,
        tasks.iter().collect(),
        plan.as_ref(),
        &streamproc::SupervisorConfig::default(),
        |_, task| run_task(task),
    );
    batches
}

/// Phase 3, first half: fold the batches into a store, in plan order. A
/// cell's batch is ingested whole. A baseline is read back as its day's
/// aggregate, so it is folded as one; of its window cells only those inside
/// some row's `[first, last]` of the same NSSet are ever read
/// (`range_stats`), and only those are kept.
fn merge(
    tasks: &[MeasureTask],
    batches: &[Vec<MeasurementRec>],
    rows: &[PlannedRow],
) -> MeasurementStore {
    let mut ranges: PackedMap<NsSetId, Vec<(Window, Window)>> = PackedMap::default();
    for row in rows {
        ranges.entry(row.nsset).or_default().push((row.first, row.last));
    }
    let mut store = MeasurementStore::new();
    // The ranges of the baseline's NSSet that reach into the baseline's day.
    let mut on_day: Vec<(Window, Window)> = Vec::new();
    for (task, batch) in tasks.iter().zip(batches) {
        match task {
            MeasureTask::Cell { .. } => store.ingest(batch),
            MeasureTask::Baseline { nsset, day, .. } => {
                on_day.clear();
                on_day.extend(
                    ranges[nsset]
                        .iter()
                        .filter(|(first, last)| (first.day()..=last.day()).contains(day)),
                );
                store.ingest_baseline(batch, |_, w| {
                    on_day.iter().any(|&(first, last)| first <= w && w <= last)
                });
            }
        }
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::join_episodes;
    use census::OpenResolverList;
    use dnssim::Deployment;
    use netbase::Asn;
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    fn world(domains: u32) -> (Infra, Vec<Ipv4Addr>) {
        let mut infra = Infra::new();
        let addrs: Vec<Ipv4Addr> = vec![
            "195.135.195.195".parse().unwrap(),
            "195.8.195.195".parse().unwrap(),
            "37.97.199.195".parse().unwrap(),
        ];
        let ids: Vec<_> = addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                infra.add_nameserver(
                    format!("ns{i}.transip.net").parse().unwrap(),
                    a,
                    Asn(20857),
                    Deployment::Unicast,
                    50_000.0,
                    1_000.0,
                    15.0,
                )
            })
            .collect();
        let set = infra.intern_nsset(ids);
        for i in 0..domains {
            infra.add_domain(format!("klant{i}.nl").parse().unwrap(), set);
        }
        (infra, addrs)
    }

    fn census_of(infra: &Infra) -> AnycastCensus {
        AnycastCensus::from_ground_truth(
            infra,
            AnycastCensus::paper_snapshot_dates(),
            1.0,
            &RngFactory::new(1),
        )
    }

    fn episode(victim: Ipv4Addr, first: u64, last: u64) -> AttackEpisode {
        AttackEpisode {
            victim,
            first_window: Window(first),
            last_window: Window(last),
            packets: 100_000,
            peak_ppm: 20_000.0,
            protocol: Protocol::Tcp,
            first_port: 53,
            unique_ports: 1,
            slash16s: 100,
        }
    }

    #[test]
    fn heavy_attack_produces_high_impact_event() {
        let (infra, addrs) = world(6_000);
        let rngs = RngFactory::new(11);
        let schedule = SweepSchedule::new(1);
        // Attack all three nameservers for 2 hours on day 3: ρ ≈ 0.96.
        let first = 3 * 288 + 100;
        let last = first + 23;
        let mut loads = LoadBook::new();
        for w in first..=last {
            for a in &addrs {
                loads.add(*a, Window(w), 47_000.0);
            }
        }
        let eps: Vec<AttackEpisode> = addrs.iter().map(|&a| episode(a, first, last)).collect();
        let events = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), false);
        assert_eq!(events.len(), 3);
        let (impacts, _store) = compute_impacts(
            &infra,
            &schedule,
            &Resolver::default(),
            &loads,
            &eps,
            &events,
            &census_of(&infra),
            &rngs,
            &ImpactConfig::default(),
        );
        assert!(!impacts.is_empty());
        let e = &impacts[0];
        assert!(e.domains_measured >= 5);
        let impact = e.impact_on_rtt.expect("baseline exists on day 2");
        assert!(impact > 5.0, "expected ≈10x+ inflation, got {impact}");
        assert_eq!(e.anycast, AnycastClass::Unicast);
        assert_eq!(e.asn_count, 1);
        assert_eq!(e.prefix_count, 3);
        assert!((e.duration_min - 120.0).abs() < 1e-9);
    }

    #[test]
    fn thread_count_does_not_change_impacts() {
        let (infra, addrs) = world(6_000);
        let rngs = RngFactory::new(11);
        let schedule = SweepSchedule::new(1);
        let first = 3 * 288 + 100;
        let last = first + 23;
        let mut loads = LoadBook::new();
        for w in first..=last {
            for a in &addrs {
                loads.add(*a, Window(w), 47_000.0);
            }
        }
        let eps: Vec<AttackEpisode> = addrs.iter().map(|&a| episode(a, first, last)).collect();
        let events = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), false);
        let census = census_of(&infra);
        let run = |jobs| {
            compute_impacts_with_jobs(
                &infra,
                &schedule,
                &Resolver::default(),
                &loads,
                &eps,
                &events,
                &census,
                &rngs,
                &ImpactConfig::default(),
                jobs,
            )
        };
        let (seq, seq_store) = run(1);
        for jobs in [2, 8] {
            let (par, par_store) = run(jobs);
            assert_eq!(seq.len(), par.len(), "jobs={jobs}");
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.episode_idx, b.episode_idx);
                assert_eq!(a.nsset, b.nsset);
                assert_eq!(a.domains_measured, b.domains_measured);
                assert_eq!(a.impact_on_rtt, b.impact_on_rtt, "bit-identical f64s");
                assert_eq!(a.failure_rate, b.failure_rate);
                assert_eq!(a.timeouts, b.timeouts);
                assert_eq!(a.servfails, b.servfails);
            }
            let (s, p) = (
                seq_store.range_stats(seq[0].nsset, Window(first), Window(last)),
                par_store.range_stats(seq[0].nsset, Window(first), Window(last)),
            );
            assert_eq!(s.domains_measured, p.domains_measured);
            assert_eq!(s.avg_rtt().to_bits(), p.avg_rtt().to_bits(), "f64 merge order fixed");
        }
    }

    #[test]
    fn small_nsset_filtered_by_min_domains() {
        let (infra, addrs) = world(20); // 20 domains → ≈0.07/window
        let rngs = RngFactory::new(2);
        let schedule = SweepSchedule::new(1);
        let eps = vec![episode(addrs[0], 3 * 288, 3 * 288 + 2)]; // 15 min
        let events = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), false);
        let (impacts, _) = compute_impacts(
            &infra,
            &schedule,
            &Resolver::default(),
            &LoadBook::new(),
            &eps,
            &events,
            &census_of(&infra),
            &rngs,
            &ImpactConfig::default(),
        );
        assert!(impacts.is_empty(), "fewer than 5 measured domains → no event");
    }

    #[test]
    fn unattacked_nsset_has_unit_impact() {
        let (infra, addrs) = world(6_000);
        let rngs = RngFactory::new(3);
        let schedule = SweepSchedule::new(1);
        // Episode exists but we put no load in the book (e.g. attack too
        // small to matter).
        let eps = vec![episode(addrs[0], 3 * 288, 3 * 288 + 11)];
        let events = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), false);
        let (impacts, _) = compute_impacts(
            &infra,
            &schedule,
            &Resolver::default(),
            &LoadBook::new(),
            &eps,
            &events,
            &census_of(&infra),
            &rngs,
            &ImpactConfig::default(),
        );
        assert_eq!(impacts.len(), 1);
        let impact = impacts[0].impact_on_rtt.unwrap();
        assert!((impact - 1.0).abs() < 0.5, "no attack → impact ≈ 1, got {impact}");
        assert!(impacts[0].failure_rate < 0.01);
        assert!(!impacts[0].complete_failure());
    }

    #[test]
    fn day_zero_attack_lacks_baseline() {
        let (infra, addrs) = world(6_000);
        let rngs = RngFactory::new(4);
        let schedule = SweepSchedule::new(1);
        let eps = vec![episode(addrs[0], 10, 40)];
        let events = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), false);
        let (impacts, _) = compute_impacts(
            &infra,
            &schedule,
            &Resolver::default(),
            &LoadBook::new(),
            &eps,
            &events,
            &census_of(&infra),
            &rngs,
            &ImpactConfig::default(),
        );
        assert_eq!(impacts.len(), 1);
        assert!(impacts[0].impact_on_rtt.is_none());
    }

    #[test]
    fn sweep_outage_falls_back_to_week_before_baseline() {
        let (infra, addrs) = world(6_000);
        let rngs = RngFactory::new(7);
        let schedule = SweepSchedule::new(1);
        // Attack on day 8 so a week-before baseline (day 1) exists.
        let first = 8 * 288 + 100;
        let last = first + 23;
        let eps = vec![episode(addrs[0], first, last)];
        let events = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), false);
        let census = census_of(&infra);
        // Find an outage draw that loses exactly the day-before sweep
        // (day 7) while keeping the attack day and the week-before day.
        let outage = (0u64..)
            .map(|s| openintel::OutageModel::from_seed(s, 0.5))
            .find(|o| o.day_missed(7) && !o.day_missed(8) && !o.day_missed(1))
            .unwrap();
        let config = ImpactConfig { sweep_outage: Some(outage), ..ImpactConfig::default() };
        let (impacts, _) = compute_impacts(
            &infra,
            &schedule,
            &Resolver::default(),
            &LoadBook::new(),
            &eps,
            &events,
            &census,
            &rngs,
            &config,
        );
        assert_eq!(impacts.len(), 1);
        let e = &impacts[0];
        assert_eq!(e.baseline_source, BaselineSource::WeekBefore);
        let impact = e.impact_on_rtt.expect("week-before sweep provides a baseline");
        assert!((impact - 1.0).abs() < 0.5, "no load → impact ≈ 1, got {impact}");
        // The same attack without the outage uses the day before.
        let (clean, _) = compute_impacts(
            &infra,
            &schedule,
            &Resolver::default(),
            &LoadBook::new(),
            &eps,
            &events,
            &census,
            &rngs,
            &ImpactConfig::default(),
        );
        assert_eq!(clean[0].baseline_source, BaselineSource::DayBefore);
    }

    #[test]
    fn chaos_seed_never_changes_impacts() {
        let (infra, addrs) = world(6_000);
        let rngs = RngFactory::new(11);
        let schedule = SweepSchedule::new(1);
        let first = 3 * 288 + 100;
        let last = first + 23;
        let mut loads = LoadBook::new();
        for w in first..=last {
            for a in &addrs {
                loads.add(*a, Window(w), 47_000.0);
            }
        }
        let eps: Vec<AttackEpisode> = addrs.iter().map(|&a| episode(a, first, last)).collect();
        let events = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), false);
        let census = census_of(&infra);
        let run = |chaos_seed, jobs| {
            let config = ImpactConfig { chaos_seed, ..ImpactConfig::default() };
            compute_impacts_with_jobs(
                &infra,
                &schedule,
                &Resolver::default(),
                &loads,
                &eps,
                &events,
                &census,
                &rngs,
                &config,
                jobs,
            )
        };
        let (clean, _) = run(None, 1);
        for (chaos, jobs) in [(Some(42), 1), (Some(42), 8), (Some(7), 4)] {
            let (faulted, _) = run(chaos, jobs);
            assert_eq!(clean.len(), faulted.len());
            for (a, b) in clean.iter().zip(&faulted) {
                assert_eq!(a.nsset, b.nsset);
                assert_eq!(
                    a.impact_on_rtt.map(f64::to_bits),
                    b.impact_on_rtt.map(f64::to_bits),
                    "chaos={chaos:?} jobs={jobs}: bit-identical impacts"
                );
                assert_eq!(a.failure_rate.to_bits(), b.failure_rate.to_bits());
                assert_eq!(a.timeouts, b.timeouts);
            }
        }
    }

    #[test]
    fn saturating_attack_causes_failures() {
        let (infra, addrs) = world(6_000);
        let rngs = RngFactory::new(5);
        let schedule = SweepSchedule::new(1);
        let first = 3 * 288;
        let last = first + 35; // 3 hours
        let mut loads = LoadBook::new();
        for w in first..=last {
            for a in &addrs {
                loads.add(*a, Window(w), 5_000_000.0); // 100x capacity
            }
        }
        let eps: Vec<AttackEpisode> = addrs.iter().map(|&a| episode(a, first, last)).collect();
        let events = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), false);
        let (impacts, _) = compute_impacts(
            &infra,
            &schedule,
            &Resolver::default(),
            &loads,
            &eps,
            &events,
            &census_of(&infra),
            &rngs,
            &ImpactConfig::default(),
        );
        let e = &impacts[0];
        assert!(e.failure_rate > 0.8, "failure rate {}", e.failure_rate);
        assert!(e.timeouts > e.servfails, "timeouts dominate (92/8 split)");
    }

    // -----------------------------------------------------------------
    // Folded store ≡ per-record `ingest` store, wherever anything reads
    // -----------------------------------------------------------------

    /// One plan measured once and merged twice: by [`merge`], and by the
    /// loop it replaced, every batch through `MeasurementStore::ingest`.
    struct TwoStores {
        folded: MeasurementStore,
        ingested: MeasurementStore,
        /// `(nsset, first, last, baseline source)` of every planned row.
        rows: Vec<(NsSetId, Window, Window, BaselineSource)>,
        cell_tasks: usize,
        /// Records the cell tasks measured.
        cell_records: u64,
        /// Per baseline task, its probes' windows.
        baselines: Vec<(NsSetId, Vec<Window>)>,
    }

    impl TwoStores {
        fn of(
            infra: &Infra,
            loads: &LoadBook,
            eps: &[AttackEpisode],
            rngs: &RngFactory,
            config: &ImpactConfig,
        ) -> TwoStores {
            let schedule = SweepSchedule::new(1);
            let events = join_episodes(infra, infra, eps, &OpenResolverList::new(), false);
            let plan = plan_from_events(infra, &schedule, eps, &events, config);
            let batches = measure(
                infra,
                &schedule,
                &Resolver::default(),
                loads,
                rngs,
                config,
                2,
                &plan.tasks,
            );
            let mut ingested = MeasurementStore::new();
            let (mut baselines, mut cell_records) = (Vec::new(), 0);
            for (task, batch) in plan.tasks.iter().zip(&batches) {
                ingested.ingest(batch);
                match task {
                    MeasureTask::Cell { .. } => cell_records += batch.len() as u64,
                    MeasureTask::Baseline { nsset, .. } => {
                        baselines.push((*nsset, batch.iter().map(|r| r.window).collect()))
                    }
                }
            }
            TwoStores {
                folded: merge(&plan.tasks, &batches, &plan.rows),
                ingested,
                rows: plan.rows.iter().map(|r| (r.nsset, r.first, r.last, r.base_source)).collect(),
                cell_tasks: plan.tasks.len() - baselines.len(),
                cell_records,
                baselines,
            }
        }

        fn in_a_row_range(&self, nsset: NsSetId, w: Window) -> bool {
            self.rows.iter().any(|&(set, first, last, _)| set == nsset && first <= w && w <= last)
        }

        /// Baseline probes that land inside some row's range of their NSSet.
        fn probes_in_range(&self) -> usize {
            self.baselines
                .iter()
                .map(|(set, ws)| ws.iter().filter(|&&w| self.in_a_row_range(*set, w)).count())
                .sum()
        }

        /// `Debug`-equal (f64 bits) on every window of every row's range and
        /// on every day. The fold kept the planned cells, with the baseline
        /// probes that land in them, and left out exactly the cells of the
        /// probes outside every range.
        fn assert_read_equal(&self) {
            let (mut last_day, mut kept_records) = (0, 0);
            let mut seen = HashSet::new();
            for &(nsset, first, last, _) in &self.rows {
                for w in (first.0..=last.0).map(Window) {
                    let kept = self.folded.window_stats(nsset, w);
                    assert_eq!(
                        format!("{kept:?}"),
                        format!("{:?}", self.ingested.window_stats(nsset, w)),
                        "cell ({nsset:?}, {w:?})"
                    );
                    if seen.insert((nsset, w)) {
                        kept_records += kept.map_or(0, |s| s.domains_measured);
                    }
                }
                last_day = last_day.max(last.day());
            }
            assert_eq!(kept_records, self.cell_records + self.probes_in_range() as u64);
            for &(nsset, ..) in &self.rows {
                for day in 0..=last_day {
                    assert_eq!(
                        format!("{:?}", self.folded.day_stats(nsset, day)),
                        format!("{:?}", self.ingested.day_stats(nsset, day)),
                        "day ({nsset:?}, {day})"
                    );
                }
            }
            assert_eq!(self.folded.cell_count(), self.cell_tasks, "only planned cells are kept");
            let outside: HashSet<(NsSetId, Window)> = self
                .baselines
                .iter()
                .flat_map(|(set, ws)| ws.iter().map(move |&w| (*set, w)))
                .filter(|&(set, w)| !self.in_a_row_range(set, w))
                .collect();
            assert_eq!(self.ingested.cell_count(), self.cell_tasks + outside.len());
        }
    }

    /// The three-nameserver world under load on day 3, and two attacks on
    /// its one NSSet: `early` on day 3 over `early_windows`, `late` on day
    /// 4, whose baseline day is therefore day 3.
    fn overlapping_attacks(
        early_windows: std::ops::RangeInclusive<u64>,
        late_first: bool,
    ) -> TwoStores {
        let (infra, addrs) = world(6_000);
        let (first, last) = (3 * 288 + early_windows.start(), 3 * 288 + early_windows.end());
        let mut loads = LoadBook::new();
        for w in first..=last {
            loads.add(addrs[0], Window(w), 47_000.0);
        }
        let mut eps =
            vec![episode(addrs[0], first, last), episode(addrs[1], 4 * 288 + 10, 4 * 288 + 40)];
        if late_first {
            eps.reverse();
        }
        TwoStores::of(&infra, &loads, &eps, &RngFactory::new(11), &ImpactConfig::default())
    }

    #[test]
    fn baseline_probe_inside_another_rows_range_counts_there() {
        let s = overlapping_attacks(50..=250, false);
        assert_eq!(s.rows.len(), 2);
        assert_eq!(s.baselines.len(), 2, "day 2 for the early attack, day 3 for the late one");
        let inside = s.probes_in_range();
        assert!((100..200).contains(&inside), "{inside} of day 3's 200 probes are in the range");
        s.assert_read_equal();
        // A probe outside every range is in no cell at all.
        let (nsset, ..) = s.rows[0];
        let out = *s.baselines[1].1.iter().find(|&&w| !s.in_a_row_range(nsset, w)).unwrap();
        assert!(s.folded.window_stats(nsset, out).is_none());
        assert!(s.ingested.window_stats(nsset, out).is_some());
    }

    #[test]
    fn attack_cells_on_the_baseline_day_share_its_aggregate() {
        // The late attack is planned first, so day 3's baseline is folded
        // before the early attack's cells, which are on that same day, are
        // ingested: the read set is the plan's, not the store's so far.
        let s = overlapping_attacks(50..=250, true);
        assert!(s.probes_in_range() > 0);
        s.assert_read_equal();
        let (nsset, ..) = s.rows[0];
        let day3 = s.folded.day_stats(nsset, 3).unwrap();
        assert!(day3.domains_measured > 200, "200 baseline probes and the attack's measurements");
    }

    #[test]
    fn two_probes_of_one_baseline_in_one_window_fold_in_order() {
        // The early attack covers all of day 3, so every probe of the late
        // attack's baseline is read window by window as well.
        let s = overlapping_attacks(0..=287, false);
        assert_eq!(s.probes_in_range(), 200);
        let day3 = &s.baselines[1].1;
        let shared = day3.iter().filter(|w| day3.iter().filter(|x| x == w).count() > 1).count();
        assert!(shared > 0, "200 probes over 288 windows share some");
        s.assert_read_equal();
    }

    #[test]
    fn week_before_fallback_baseline_is_folded_like_any_other() {
        let (infra, addrs) = world(6_000);
        // Day 7's sweep is lost: the day-8 attack falls back to day 1,
        // where an earlier attack's range reads window by window.
        let outage = (0u64..)
            .map(|s| openintel::OutageModel::from_seed(s, 0.5))
            .find(|o| o.day_missed(7) && [0, 1, 8].iter().all(|&d| !o.day_missed(d)))
            .unwrap();
        let config = ImpactConfig { sweep_outage: Some(outage), ..ImpactConfig::default() };
        let eps = vec![
            episode(addrs[0], 288 + 20, 288 + 220),
            episode(addrs[1], 8 * 288 + 100, 8 * 288 + 123),
        ];
        let s = TwoStores::of(&infra, &LoadBook::new(), &eps, &RngFactory::new(7), &config);
        let sources: Vec<BaselineSource> = s.rows.iter().map(|r| r.3).collect();
        assert_eq!(sources, [BaselineSource::DayBefore, BaselineSource::WeekBefore]);
        assert!(s.probes_in_range() > 0);
        s.assert_read_equal();
    }

    proptest! {
        #[test]
        fn folded_store_equals_the_per_record_ingest_store(
            specs in prop::collection::vec((0usize..3, 1u64..9, 0u64..288, 0u64..400), 1..6),
            outage_seed in prop_oneof![Just(None), (0u64..50).prop_map(Some)],
            seed in 0u64..1_000,
        ) {
            let (infra, addrs) = world(600);
            let mut loads = LoadBook::new();
            let eps: Vec<AttackEpisode> = specs
                .iter()
                .map(|&(ns, day, onset, windows)| {
                    let first = day * 288 + onset;
                    loads.add(addrs[ns], Window(first), 47_000.0);
                    episode(addrs[ns], first, first + windows)
                })
                .collect();
            let config = ImpactConfig {
                min_domains_measured: 1,
                sweep_outage: outage_seed.map(|s| openintel::OutageModel::from_seed(s, 0.3)),
                ..ImpactConfig::default()
            };
            TwoStores::of(&infra, &loads, &eps, &RngFactory::new(seed), &config).assert_read_equal();
        }
    }
}
