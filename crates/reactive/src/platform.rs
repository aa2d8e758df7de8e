//! The reactive pipeline: feed records in, probe reports out.
//!
//! The trigger is a fold over the feed in arrival order that maintains one
//! [`ProbePlan`] per victim, extending it while the attack stays visible.
//! The executor then replays the plans over virtual time against the
//! offered-load book.

use crate::plan::{ProbePlan, TriggerConfig};
use crate::probe::{probe_all_ns, DomainProbe};
use dnssim::{Infra, LoadBook};
use simcore::rng::RngFactory;
use simcore::time::SimTime;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;
use telescope::RsdosRecord;

/// Summary of one probe round (one 5-minute window of one plan).
#[derive(Clone, Debug, PartialEq)]
pub struct RoundSummary {
    pub round: u64,
    pub at: SimTime,
    pub probes: u64,
    /// Domains that resolved via at least one nameserver.
    pub resolvable: u64,
    /// Mean best-RTT over resolvable domains (ms).
    pub avg_best_rtt_ms: Option<f64>,
    /// Mean fraction of nameservers responsive per domain.
    pub responsive_ns_share: f64,
}

impl RoundSummary {
    pub fn fully_unresolvable(&self) -> bool {
        self.probes > 0 && self.resolvable == 0
    }
}

/// The full probing record for one attacked nameserver IP.
#[derive(Clone, Debug)]
pub struct ReactiveReport {
    pub plan: ProbePlan,
    pub rounds: Vec<RoundSummary>,
}

impl ReactiveReport {
    /// Number of rounds in which the probed domains were completely
    /// unresolvable (the mil.ru condition).
    pub fn unresolvable_rounds(&self) -> usize {
        self.rounds.iter().filter(|r| r.fully_unresolvable()).count()
    }

    /// First time after `after` at which a majority of domains resolved —
    /// the recovery instant the RDZ case study reports.
    pub fn recovery_after(&self, after: SimTime) -> Option<SimTime> {
        self.rounds
            .iter()
            .find(|r| r.at >= after && r.probes > 0 && r.resolvable * 2 > r.probes)
            .map(|r| r.at)
    }
}

/// The reactive platform.
#[derive(Default)]
pub struct ReactivePlatform {
    pub config: TriggerConfig,
    /// Trace attribution (see `obs::trace`): the feed scope this platform
    /// consumes (`milru`, `rdz`, …). `None` disables trace emission —
    /// the default, so unscoped constructions behave exactly as before.
    pub trace_scope: Option<&'static str>,
    /// Victim → episode lookup attributing feed records and probe rounds
    /// to `scope/idx` causal ids; only consulted when `trace_scope` is set.
    pub episode_index: Option<Arc<telescope::EpisodeIndex>>,
}

impl ReactivePlatform {
    /// Build probe plans from a stream of feed records, one per victim IP.
    /// Models a healthy feed: each window's record arrives the moment the
    /// window closes.
    pub fn build_plans(&self, infra: &Infra, records: &[RsdosRecord]) -> Vec<ProbePlan> {
        let arrivals: Vec<(RsdosRecord, SimTime)> =
            records.iter().map(|r| (*r, r.window.end())).collect();
        self.build_plans_with_arrivals(infra, &arrivals)
    }

    /// [`ReactivePlatform::build_plans`] for a possibly degraded feed:
    /// each record carries the instant it actually reached the platform
    /// (e.g. the output of [`telescope::FeedGapModel::apply`], which
    /// delivers gapped windows as a backlog at the gap's end). Records
    /// must be given in arrival order. Each victim's plan triggers from
    /// its first *arrived* record and starts probing at the next window
    /// boundary — the ≤10-minute trigger bound holds relative to arrival
    /// even when the record itself is hours late.
    pub fn build_plans_with_arrivals(
        &self,
        infra: &Infra,
        arrivals: &[(RsdosRecord, SimTime)],
    ) -> Vec<ProbePlan> {
        let config = &self.config;
        let mut open: HashMap<Ipv4Addr, ProbePlan> = HashMap::new();
        // One pass in arrival order, so the trace stream and the latency
        // maximum are deterministic.
        for (r, at) in arrivals {
            let ep = self
                .trace_scope
                .and(self.episode_index.as_ref())
                .and_then(|ix| ix.lookup(r.victim, r.window));
            if let Some(scope) = self.trace_scope {
                obs::trace::emit(
                    obs::EventKind::FeedRecordArrived,
                    scope,
                    ep,
                    Some(at.secs()),
                    format!("victim {} window {}", r.victim, r.window.0),
                    None,
                );
                // Backlog delivery after a feed gap: the record is at least
                // one whole window late.
                let delay_windows =
                    at.secs().saturating_sub(r.window.end().secs()) / simcore::time::WINDOW_SECS;
                if delay_windows > 0 {
                    obs::trace::emit(
                        obs::EventKind::FeedGap,
                        scope,
                        ep,
                        Some(at.secs()),
                        format!("victim {} window {} delivered late", r.victim, r.window.0),
                        Some(delay_windows),
                    );
                }
            }
            if let Some(plan) = open.get_mut(&r.victim) {
                plan.extend(r.window, config);
                continue;
            }
            let Some(plan) =
                ProbePlan::from_record_with_arrival(infra, r.victim, r.window, *at, config)
            else {
                continue;
            };
            // Out-of-band: worst observed trigger latency vs. the ≤10-minute
            // bound, gated in CI.
            let delay = plan.trigger_delay_from_arrival(*at).secs();
            obs::gauge("reactive.trigger_latency_max_secs").record_max(delay);
            if let Some(scope) = self.trace_scope {
                let victim = format!("victim {}", r.victim);
                let start = Some(plan.start.secs());
                obs::trace::emit(
                    obs::EventKind::TriggerFired,
                    scope,
                    ep,
                    start,
                    &victim,
                    Some(delay),
                );
                let probes = Some(plan.domains.len() as u64);
                obs::trace::emit(obs::EventKind::ProbeScheduled, scope, ep, start, victim, probes);
            }
            open.insert(r.victim, plan);
        }
        let mut plans: Vec<ProbePlan> = open.into_values().collect();
        plans.sort_by_key(|p| (p.start, u32::from(p.victim)));
        obs::counter("reactive.plans").add(plans.len() as u64);
        plans
    }

    /// Execute the plans over virtual time. `max_rounds` bounds each
    /// plan's execution (tests cap it; production uses `u64::MAX`).
    pub fn execute(
        &self,
        infra: &Infra,
        plans: &[ProbePlan],
        loads: &LoadBook,
        rngs: &RngFactory,
        max_rounds: u64,
    ) -> Vec<ReactiveReport> {
        plans
            .iter()
            .map(|plan| {
                let trace = self.plan_trace(plan);
                let mut rng = rngs.stream_indexed("reactive-probe", u32::from(plan.victim) as u64);
                let rounds = (0..plan.rounds().min(max_rounds))
                    .map(|k| {
                        let probes: Vec<DomainProbe> = plan
                            .round_times(k)
                            .into_iter()
                            .map(|(d, at)| probe_all_ns(infra, d, at, loads, &mut rng))
                            .collect();
                        summarize_round(k, plan, &probes, trace)
                    })
                    .collect();
                ReactiveReport { plan: plan.clone(), rounds }
            })
            .collect()
    }

    /// Trace attribution of one plan's probe rounds: the platform's scope
    /// plus the episode the plan's triggering victim/window belongs to.
    fn plan_trace(&self, plan: &ProbePlan) -> Option<(&'static str, Option<u64>)> {
        self.trace_scope.map(|scope| {
            (
                scope,
                self.episode_index
                    .as_ref()
                    .and_then(|ix| ix.lookup(plan.victim, plan.start.window())),
            )
        })
    }

    /// Convenience: trigger + execute in one call.
    pub fn run(
        &self,
        infra: &Infra,
        records: &[RsdosRecord],
        loads: &LoadBook,
        rngs: &RngFactory,
        max_rounds: u64,
    ) -> Vec<ReactiveReport> {
        let plans = self.build_plans(infra, records);
        self.execute(infra, &plans, loads, rngs, max_rounds)
    }
}

fn summarize_round(
    k: u64,
    plan: &ProbePlan,
    probes: &[DomainProbe],
    trace: Option<(&'static str, Option<u64>)>,
) -> RoundSummary {
    // Probe-budget accounting: both executors summarize through here, so
    // the counters cover every round however the plans were replayed. The
    // per-round maximum is gated in CI against the 50-domain budget.
    obs::counter("reactive.probe_rounds").incr();
    obs::counter("reactive.probes").add(probes.len() as u64);
    obs::gauge("reactive.probe_round_max_probes").record_max(probes.len() as u64);
    if let Some((scope, ep)) = trace {
        obs::trace::emit(
            obs::EventKind::ProbeCompleted,
            scope,
            ep,
            Some(
                (plan.start
                    + simcore::time::SimDuration::from_secs(k * simcore::time::WINDOW_SECS))
                .secs(),
            ),
            format!("victim {} round {k}", plan.victim),
            Some(probes.len() as u64),
        );
    }
    let resolvable = probes.iter().filter(|p| p.resolvable()).count() as u64;
    let best: Vec<f64> = probes.iter().filter_map(|p| p.best_rtt_ms()).collect();
    let avg_best =
        if best.is_empty() { None } else { Some(best.iter().sum::<f64>() / best.len() as f64) };
    let ns_share = if probes.is_empty() {
        0.0
    } else {
        probes
            .iter()
            .map(|p| {
                if p.outcomes.is_empty() {
                    0.0
                } else {
                    p.responsive_ns() as f64 / p.outcomes.len() as f64
                }
            })
            .sum::<f64>()
            / probes.len() as f64
    };
    RoundSummary {
        round: k,
        at: plan.start + simcore::time::SimDuration::from_secs(k * simcore::time::WINDOW_SECS),
        probes: probes.len() as u64,
        resolvable,
        avg_best_rtt_ms: avg_best,
        responsive_ns_share: ns_share,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attack::Protocol;
    use dnssim::Deployment;
    use netbase::Asn;
    use simcore::time::Window;

    fn world() -> (Infra, Vec<Ipv4Addr>) {
        let mut infra = Infra::new();
        let addrs: Vec<Ipv4Addr> =
            (1..=3).map(|i| format!("188.128.110.{i}").parse().unwrap()).collect();
        let ids: Vec<_> = addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                infra.add_nameserver(
                    format!("ns{i}.mil.ru").parse().unwrap(),
                    a,
                    Asn(8342),
                    Deployment::Unicast,
                    30_000.0,
                    500.0,
                    45.0,
                )
            })
            .collect();
        let set = infra.intern_nsset(ids);
        for i in 0..120 {
            infra.add_domain(format!("svc{i}.mil.ru").parse().unwrap(), set);
        }
        (infra, addrs)
    }

    fn record(victim: Ipv4Addr, w: u64) -> RsdosRecord {
        RsdosRecord {
            window: Window(w),
            victim,
            slash16s: 50,
            protocol: Protocol::Tcp,
            first_port: 53,
            unique_ports: 1,
            max_ppm: 5_000.0,
            packets: 25_000,
        }
    }

    #[test]
    fn streaming_trigger_builds_one_plan_per_victim() {
        let (infra, addrs) = world();
        let platform = ReactivePlatform::default();
        let records = vec![
            record(addrs[0], 100),
            record(addrs[0], 101), // extension, not a new plan
            record(addrs[1], 102),
            record("9.9.9.99".parse().unwrap(), 100), // not a nameserver
        ];
        let plans = platform.build_plans(&infra, &records);
        assert_eq!(plans.len(), 2);
        assert_eq!(plans[0].victim, addrs[0]);
        // Extension moved `until` to record 101's window end + 24 h.
        assert_eq!(plans[0].until, Window(101).end() + simcore::time::SimDuration::from_hours(24));
    }

    #[test]
    fn execution_detects_blackout_and_recovery() {
        let (infra, addrs) = world();
        let platform = ReactivePlatform::default();
        // Attack saturates all three servers for windows 100..=105.
        let mut loads = LoadBook::new();
        for w in 100..=105u64 {
            for a in &addrs {
                loads.add(*a, Window(w), 30_000_000.0);
            }
        }
        let records: Vec<RsdosRecord> =
            (100..=105).flat_map(|w| addrs.iter().map(move |&a| record(a, w))).collect();
        let reports = platform.run(&infra, &records, &loads, &RngFactory::new(3), 12);
        assert_eq!(reports.len(), 3);
        let r = &reports[0];
        // Probing starts at window 101 (trigger after first record) — the
        // attack still runs through 105, so the first ~5 rounds black out.
        assert!(r.unresolvable_rounds() >= 3, "blackout rounds {}", r.unresolvable_rounds());
        // After the attack ends the domains recover.
        let recovery = r.recovery_after(Window(106).start()).expect("recovers");
        assert!(recovery >= Window(106).start());
        // Probes respect the 50-domain cap.
        assert!(r.rounds[0].probes <= 50);
    }

    #[test]
    fn healthy_execution_resolves_everything() {
        let (infra, addrs) = world();
        let platform = ReactivePlatform::default();
        let records = vec![record(addrs[2], 10)];
        let reports = platform.run(&infra, &records, &LoadBook::new(), &RngFactory::new(4), 3);
        let r = &reports[0];
        assert_eq!(r.unresolvable_rounds(), 0);
        for round in &r.rounds {
            assert_eq!(round.resolvable, round.probes);
            assert!(round.responsive_ns_share > 0.99);
            assert!(round.avg_best_rtt_ms.unwrap() < 100.0);
        }
    }

    /// The ≤10-minute trigger bound and the 50-domain / 5-minute probe
    /// budget on a feed degraded by `gaps`, under a saturating attack on
    /// every recorded window: every plan triggers within
    /// `max_trigger_delay` of its victim's first *arrived* record, and
    /// every round probes at most 50 domains, all inside the round's own
    /// 5-minute window — the ethics budget (≈1 query/6 s) is never
    /// front-loaded to catch up after a gap.
    fn assert_trigger_bound_and_probe_budget(
        infra: &Infra,
        gaps: &telescope::FeedGapModel,
        records: &[RsdosRecord],
    ) -> (Vec<(RsdosRecord, SimTime)>, Vec<ProbePlan>) {
        use simcore::time::{SimDuration, WINDOW_SECS};
        let platform = ReactivePlatform::default();
        let (arrivals, _) = gaps.apply(records);
        let plans = platform.build_plans_with_arrivals(infra, &arrivals);
        let cfg = TriggerConfig::default();
        for plan in &plans {
            let (_, arrival) =
                arrivals.iter().find(|(r, _)| r.victim == plan.victim).expect("triggering record");
            assert!(
                plan.trigger_delay_from_arrival(*arrival) <= cfg.max_trigger_delay,
                "victim {}: probing follows arrival within 10 min",
                plan.victim
            );
        }
        let mut loads = LoadBook::new();
        for r in records {
            loads.add(r.victim, r.window, 30_000_000.0);
        }
        for report in platform.execute(infra, &plans, &loads, &RngFactory::new(9), 6) {
            for (k, round) in report.rounds.iter().enumerate() {
                assert!(round.probes <= 50, "50-domain cap holds under degradation");
                let base = report.plan.start + SimDuration::from_secs(k as u64 * WINDOW_SECS);
                for (_, t) in report.plan.round_times(k as u64) {
                    assert!(t >= base && t < base + SimDuration::from_secs(WINDOW_SECS));
                }
            }
        }
        (arrivals, plans)
    }

    /// Every day has a gap of up to 4 hours; a quarter of in-gap records
    /// are lost, the rest are delivered late as a backlog.
    #[test]
    fn seed_13_daily_gaps_keep_trigger_bound_and_probe_budget() {
        use telescope::FeedGapModel;
        let (infra, addrs) = world();
        let gaps = FeedGapModel::from_seed(13, 1.0, 48, 0.25);
        let records: Vec<RsdosRecord> =
            (0..2_000u64).flat_map(|w| addrs.iter().map(move |&a| record(a, w))).collect();
        let (arrivals, plans) = assert_trigger_bound_and_probe_budget(&infra, &gaps, &records);
        assert!(arrivals.len() < records.len(), "the gap model actually degrades this feed");
        assert!(arrivals.iter().any(|(r, at)| *at > r.window.end()), "some records arrive late");
        assert_eq!(plans.len(), addrs.len());
    }

    proptest::proptest! {
        /// Arbitrary gap schedules over arbitrary victim/window record
        /// sets, including records for a victim that is no nameserver.
        #[test]
        fn trigger_bound_and_probe_budget_hold_on_any_degraded_feed(
            seed in proptest::prelude::any::<u64>(),
            gap_prob in 0.0f64..1.0,
            max_gap_windows in 0u32..96,
            loss_frac in 0.0f64..1.0,
            picks in proptest::collection::vec((0usize..4, 0u64..2_000), 1..40),
        ) {
            use telescope::FeedGapModel;
            let (infra, mut addrs) = world();
            addrs.push("9.9.9.99".parse().unwrap());
            let records: Vec<RsdosRecord> =
                picks.iter().map(|&(v, w)| record(addrs[v], w)).collect();
            let gaps = FeedGapModel::from_seed(seed, gap_prob, max_gap_windows, loss_frac);
            assert_trigger_bound_and_probe_budget(&infra, &gaps, &records);
        }
    }

    #[test]
    fn deterministic_reports() {
        let (infra, addrs) = world();
        let platform = ReactivePlatform::default();
        let records = vec![record(addrs[0], 10)];
        let a = platform.run(&infra, &records, &LoadBook::new(), &RngFactory::new(5), 2);
        let b = platform.run(&infra, &records, &LoadBook::new(), &RngFactory::new(5), 2);
        assert_eq!(a[0].rounds, b[0].rounds);
    }
}
