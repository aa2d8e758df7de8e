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
use dnssim::{Infra, LoadBook, NsSetId, Resolver};
use openintel::{measure::measure_domains, MeasurementStore, OutageModel, SweepSchedule};
use simcore::hash::PackedMap;
use simcore::rng::RngFactory;
use simcore::time::{Window, WINDOWS_PER_DAY};
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
/// executed on any worker. Tasks never share RNG state: `measure_domains`
/// derives a fresh stream per `(domain, window)` from the factory, so a
/// task's records depend only on its inputs — not on which thread ran it
/// or when.
enum MeasureTask {
    /// One deduplicated (NSSet, window) attack-measurement cell.
    Cell { nsset: NsSetId, window: u64, domains: Vec<dnssim::DomainId> },
    /// The sampled previous-day baseline for one (NSSet, day), each probe
    /// in its own scheduled window.
    Baseline { nsset: NsSetId, probes: Vec<(dnssim::DomainId, simcore::time::Window)> },
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
/// 1. **Plan** (sequential): walk the events in order and emit a canonical,
///    deduplicated task list — attack-window cells and sampled baselines.
/// 2. **Measure** (parallel): run the tasks on a shared-queue worker pool;
///    [`streamproc::parallel_map`] returns the record batches in plan
///    order regardless of scheduling.
/// 3. **Merge + aggregate** (sequential): ingest the batches in plan order
///    (fixing the f64 summation order inside the store), then derive every
///    event's statistics from the fully-populated store.
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
    // Phase 1: plan. Out-of-band accounting only (see `obs`): the lost-day
    // set is recorded for the run report, never read back by the planner.
    let lost_days: std::cell::RefCell<HashSet<u64>> = std::cell::RefCell::new(HashSet::new());
    let day_swept = |day: u64| {
        let swept = config.sweep_outage.is_none_or(|o| !o.day_missed(day));
        if !swept {
            lost_days.borrow_mut().insert(day);
        }
        swept
    };
    let mut measured_cells: HashSet<(NsSetId, u64)> = HashSet::new();
    let mut baseline_days: HashSet<(NsSetId, u64)> = HashSet::new();
    let mut tasks: Vec<MeasureTask> = Vec::new();
    // The (event, NSSet) pairs that pass the ≥5-domains filter, in event
    // order, with their resolved baseline day — phase 3 emits exactly one
    // ImpactEvent per entry.
    let mut rows: Vec<(usize, NsSetId, Option<u64>, BaselineSource)> = Vec::new();

    for (ei, ev) in events.iter().enumerate() {
        let ep = &episodes[ev.episode_idx];
        for &nsset in &ev.nssets {
            let mut measured =
                schedule.domains_in_window_range(infra, nsset, ep.first_window, ep.last_window);
            // A sweep outage during the attack loses those windows' probes.
            measured.retain(|(_, w)| day_swept(w.day()));
            if (measured.len() as u64) < config.min_domains_measured {
                continue;
            }
            // Baseline day: day-before normally; week-before when the
            // day-before sweep was lost (graceful degradation, §4.1).
            let attack_day = ep.first_window.day();
            let (base_day, base_source) = match attack_day.checked_sub(1) {
                Some(d) if day_swept(d) => (Some(d), BaselineSource::DayBefore),
                _ => match attack_day.checked_sub(7) {
                    Some(d) if day_swept(d) => (Some(d), BaselineSource::WeekBefore),
                    _ => (None, BaselineSource::Missing),
                },
            };
            if let (Some(scope), BaselineSource::WeekBefore) = (config.trace_scope, base_source) {
                obs::trace::emit(
                    obs::EventKind::BaselineFallback,
                    scope,
                    Some(ev.episode_idx as u64),
                    Some(ep.first_window.start().secs()),
                    format!(
                        "nsset {nsset:?}: day-before sweep lost, week-before day {} substitutes",
                        base_day.unwrap_or(0)
                    ),
                    base_day,
                );
            }
            rows.push((ei, nsset, base_day, base_source));
            // Measure the attack windows (once per (nsset, window) cell
            // even when episodes overlap).
            let mut by_window: std::collections::BTreeMap<u64, Vec<dnssim::DomainId>> =
                std::collections::BTreeMap::new();
            for (d, w) in &measured {
                by_window.entry(w.0).or_default().push(*d);
            }
            for (w, ds) in by_window {
                if measured_cells.insert((nsset, w)) {
                    tasks.push(MeasureTask::Cell { nsset, window: w, domains: ds });
                }
            }
            // Plan the baseline sweep day (sampled).
            if let Some(day) = base_day {
                if baseline_days.insert((nsset, day)) {
                    let all = infra.domains_of_nsset(nsset);
                    let step = (all.len() / config.baseline_sample_cap).max(1);
                    let probes: Vec<(dnssim::DomainId, simcore::time::Window)> = all
                        .iter()
                        .step_by(step)
                        .take(config.baseline_sample_cap)
                        .map(|&d| (d, schedule.window_on_day(d, day)))
                        .collect();
                    tasks.push(MeasureTask::Baseline { nsset, probes });
                }
            }
        }
    }

    obs::counter("impact.rows").add(rows.len() as u64);
    obs::counter("impact.windows_computed").add(measured_cells.len() as u64);
    obs::counter("impact.baselines").add(baseline_days.len() as u64);
    obs::counter("impact.baseline_fallbacks")
        .add(rows.iter().filter(|(_, _, _, s)| *s == BaselineSource::WeekBefore).count() as u64);
    obs::counter("impact.baselines_missing")
        .add(rows.iter().filter(|(_, _, _, s)| *s == BaselineSource::Missing).count() as u64);
    obs::counter("outage.sweep_days_lost").add(lost_days.borrow().len() as u64);

    // Phase 2: measure on the worker pool. With a chaos seed configured the
    // pool runs supervised — tasks are crashed on schedule and retried —
    // which cannot change the batches: tasks are pure functions of their
    // inputs.
    let run_task = |task: &MeasureTask| match task {
        MeasureTask::Cell { nsset, window, domains } => measure_domains(
            infra,
            resolver,
            domains,
            *nsset,
            simcore::time::Window(*window),
            loads,
            rngs,
        ),
        MeasureTask::Baseline { nsset, probes } => {
            let mut recs = Vec::new();
            for (d, w) in probes {
                recs.extend(measure_domains(infra, resolver, &[*d], *nsset, *w, loads, rngs));
            }
            recs
        }
    };
    let plan = config.chaos_seed.map(|cs| {
        streamproc::FaultPlan::from_seed(cs, "impact-measure", streamproc::ChaosConfig::SPARSE)
    });
    let (batches, _chaos) = streamproc::parallel_map_supervised(
        jobs,
        tasks,
        plan.as_ref(),
        &streamproc::SupervisorConfig::default(),
        |_, task| run_task(task),
    );

    // Phase 3: merge in plan order, then aggregate per event.
    let mut store = MeasurementStore::new();
    for batch in &batches {
        obs::counter("openintel.records_measured").add(batch.len() as u64);
        store.ingest(batch);
    }
    let mut out = Vec::with_capacity(rows.len());
    for (ei, nsset, base_day, base_source) in rows {
        let ev = &events[ei];
        let ep = &episodes[ev.episode_idx];
        let during = store.range_stats(nsset, ep.first_window, ep.last_window);
        let impact = base_day.and_then(|day| {
            store.impact_on_rtt_from_day(nsset, ep.first_window, ep.last_window, day)
        });
        let (asns, prefixes) = (infra.nsset_asns(nsset).len(), infra.nsset_slash24s(nsset).len());
        if let Some(scope) = config.trace_scope {
            obs::trace::emit(
                obs::EventKind::ImpactComputed,
                scope,
                Some(ev.episode_idx as u64),
                Some(ep.first_window.start().secs()),
                format!(
                    "nsset {nsset:?} ({:?} baseline), failure rate {:.4}",
                    base_source,
                    during.failure_rate()
                ),
                Some(during.domains_measured),
            );
        }
        out.push(ImpactEvent {
            episode_idx: ev.episode_idx,
            nsset,
            domains_measured: during.domains_measured,
            impact_on_rtt: impact,
            baseline_source: base_source,
            failure_rate: during.failure_rate(),
            timeouts: during.timeout,
            servfails: during.servfail,
            nsset_domains: infra.domains_of_nsset(nsset).len() as u64,
            protocol: ep.protocol,
            first_port: ep.first_port,
            peak_ppm: ep.peak_ppm,
            duration_min: ep.duration().secs() as f64 / 60.0,
            anycast: census.classify(infra, nsset, ep.first_window.start()),
            asn_count: asns,
            prefix_count: prefixes,
        });
    }
    (out, store)
}

/// The columnar twin of [`compute_impacts_with_jobs`]: plan from a
/// [`JoinTable`] + [`EpisodeColumns`] instead of row events, streaming
/// each NSSet's sweep measurements ([`SweepSchedule::for_each_in_window_range`])
/// straight into the per-window buckets so the `(domain, window)`
/// cross-product is never materialized or sorted. Cells another event
/// already claimed are counted but not buffered at all.
///
/// The row path above is the *reference implementation*; this function
/// replicates its plan order, task list, counters, and trace stream
/// exactly (the differential suite in `tests/columnar_equivalence.rs`
/// holds both to identical outputs), so the three-phase `--jobs`- and
/// chaos-independence argument carries over unchanged.
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
    // Phase 1: plan (sequential; see the reference path for the scheme).
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
    // One entry per (event, NSSet) pair passing the ≥5-domains filter, in
    // event order, carrying the *global* episode index (the row path
    // stores the event index and dereferences it later — same value).
    let mut rows: Vec<(usize, NsSetId, Option<u64>, BaselineSource)> = Vec::new();
    // Each NSSet's domains by window-of-day, grouped the first time a row
    // names it: a row then walks its own windows and meets only the
    // domains scheduled in them, where the reference path's day scan
    // touches every domain of the NSSet. Same measurements, and each
    // window's domains in the same ascending id order (see
    // `SweepSchedule::by_window_of_day`).
    let mut groups: PackedMap<NsSetId, Vec<Vec<dnssim::DomainId>>> = PackedMap::default();
    // The row's windows no earlier row claimed.
    let mut unclaimed: Vec<u64> = Vec::new();

    for r in 0..table.len() {
        let episode_idx = table.episode_idx[r] as usize;
        let (first, last) =
            (episodes.first_windows[episode_idx], episodes.last_windows[episode_idx]);
        for &nsset in table.nssets.row(r) {
            let by_window_of_day =
                groups.entry(nsset).or_insert_with(|| schedule.by_window_of_day(infra, nsset));
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
            let attack_day = first.day();
            let (base_day, base_source) = match attack_day.checked_sub(1) {
                Some(d) if day_swept(d) => (Some(d), BaselineSource::DayBefore),
                _ => match attack_day.checked_sub(7) {
                    Some(d) if day_swept(d) => (Some(d), BaselineSource::WeekBefore),
                    _ => (None, BaselineSource::Missing),
                },
            };
            if let (Some(scope), BaselineSource::WeekBefore) = (config.trace_scope, base_source) {
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
            rows.push((episode_idx, nsset, base_day, base_source));
            for &w in &unclaimed {
                measured_cells.insert((nsset, w));
                let domains = by_window_of_day[(w % WINDOWS_PER_DAY) as usize].clone();
                tasks.push(MeasureTask::Cell { nsset, window: w, domains });
            }
            if let Some(day) = base_day {
                if baseline_days.insert((nsset, day)) {
                    let all = infra.domains_of_nsset(nsset);
                    let step = (all.len() / config.baseline_sample_cap).max(1);
                    let probes: Vec<(dnssim::DomainId, simcore::time::Window)> = all
                        .iter()
                        .step_by(step)
                        .take(config.baseline_sample_cap)
                        .map(|&d| (d, schedule.window_on_day(d, day)))
                        .collect();
                    tasks.push(MeasureTask::Baseline { nsset, probes });
                }
            }
        }
    }

    obs::counter("impact.rows").add(rows.len() as u64);
    obs::counter("impact.windows_computed").add(measured_cells.len() as u64);
    obs::counter("impact.baselines").add(baseline_days.len() as u64);
    obs::counter("impact.baseline_fallbacks")
        .add(rows.iter().filter(|(_, _, _, s)| *s == BaselineSource::WeekBefore).count() as u64);
    obs::counter("impact.baselines_missing")
        .add(rows.iter().filter(|(_, _, _, s)| *s == BaselineSource::Missing).count() as u64);
    obs::counter("outage.sweep_days_lost").add(lost_days.len() as u64);

    // Phase 2: measure on the worker pool (identical to the reference
    // path — the task list is, so the chaos schedule is too).
    let run_task = |task: &MeasureTask| match task {
        MeasureTask::Cell { nsset, window, domains } => measure_domains(
            infra,
            resolver,
            domains,
            *nsset,
            simcore::time::Window(*window),
            loads,
            rngs,
        ),
        MeasureTask::Baseline { nsset, probes } => {
            let mut recs = Vec::new();
            for (d, w) in probes {
                recs.extend(measure_domains(infra, resolver, &[*d], *nsset, *w, loads, rngs));
            }
            recs
        }
    };
    let plan = config.chaos_seed.map(|cs| {
        streamproc::FaultPlan::from_seed(cs, "impact-measure", streamproc::ChaosConfig::SPARSE)
    });
    let (batches, _chaos) = streamproc::parallel_map_supervised(
        jobs,
        tasks,
        plan.as_ref(),
        &streamproc::SupervisorConfig::default(),
        |_, task| run_task(task),
    );

    // Phase 3: merge in plan order, then aggregate per row.
    let mut store = MeasurementStore::new();
    for batch in &batches {
        obs::counter("openintel.records_measured").add(batch.len() as u64);
        store.ingest(batch);
    }
    let mut out = Vec::with_capacity(rows.len());
    for (episode_idx, nsset, base_day, base_source) in rows {
        let (first, last) =
            (episodes.first_windows[episode_idx], episodes.last_windows[episode_idx]);
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
            protocol: episodes.protocols[episode_idx],
            first_port: episodes.first_ports[episode_idx],
            peak_ppm: episodes.peak_ppm[episode_idx],
            duration_min: ((last.0 - first.0 + 1) * 300) as f64 / 60.0,
            anycast: census.classify(infra, nsset, first.start()),
            asn_count: asns,
            prefix_count: prefixes,
        });
    }
    (out, store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::join_episodes;
    use census::OpenResolverList;
    use dnssim::Deployment;
    use netbase::Asn;
    use simcore::time::Window;
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
}
