//! The longitudinal analysis orchestrator (§6): runs the whole pipeline
//! over an attack population and produces every table and figure series of
//! the paper's evaluation.

use crate::casestudy;
use crate::columnar::JoinTable;
use crate::correlate::{self, CorrelationSeries};
use crate::failures::{self, FailureSummary};
use crate::front;
use crate::impact::{compute_impacts_columnar, ImpactConfig, ImpactEvent};
use crate::join::DnsAttackEvent;
use crate::ports::{self, PortBreakdown};
use crate::resilience::{self, ClassImpact};
use attack::Attack;
use census::{AnycastCensus, OpenResolverList};
use dnssim::{Infra, Resolver};
use netbase::{As2Org, OrgRegistry, Prefix2As};
use openintel::{MeasurementStore, SweepSchedule};
use simcore::rng::RngFactory;
use simcore::time::Month;
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use telescope::{Darknet, RsdosFeed};

/// Trace scope of the longitudinal feed: episode `i` is `rsdos/i`.
const TRACE_SCOPE: &str = "rsdos";

/// Ancillary lookup tables (the paper's §3.3 datasets).
pub struct MetaTables {
    pub prefix2as: Prefix2As,
    pub as2org: As2Org,
    pub orgs: OrgRegistry,
    pub open_resolvers: OpenResolverList,
    pub census: AnycastCensus,
}

/// Orchestrator configuration.
#[derive(Clone, Debug, Default)]
pub struct LongitudinalConfig {
    pub resolver: Resolver,
    pub impact: ImpactConfig,
    pub thresholds: telescope::RsdosThresholds,
    /// Include /24-collateral joins in the DNS-attack accounting (the
    /// headline Table 3 counts direct nameserver-IP hits).
    pub include_collateral: bool,
    /// Worker threads for the sharded join and the measurement phase
    /// (`0` = available parallelism, `1` = fully sequential). The report is
    /// byte-identical for any value — parallelism only buys wall clock.
    pub jobs: usize,
}

/// One row of Table 3.
#[derive(Clone, Debug, PartialEq)]
pub struct MonthlyRow {
    pub month: Month,
    pub dns_attacks: u64,
    pub other_attacks: u64,
    pub dns_ips: u64,
    pub other_ips: u64,
}

impl MonthlyRow {
    pub fn total_attacks(&self) -> u64 {
        self.dns_attacks + self.other_attacks
    }
    pub fn dns_share(&self) -> f64 {
        if self.total_attacks() == 0 {
            0.0
        } else {
            self.dns_attacks as f64 / self.total_attacks() as f64
        }
    }
}

/// Everything the evaluation section needs.
pub struct LongitudinalReport {
    pub feed: RsdosFeed,
    pub dns_events: Vec<DnsAttackEvent>,
    pub monthly: Vec<MonthlyRow>,
    /// Per month: the per-event "potentially affected domains" samples
    /// (Figure 5's distributions).
    pub affected_domains_by_month: Vec<(Month, Vec<u64>)>,
    /// Table 4: (ASN, attack count, organization name).
    pub top_asns: Vec<(netbase::Asn, u64, String)>,
    /// Table 5: (IP, attack count, open-resolver flag).
    pub top_ips: Vec<(Ipv4Addr, u64, bool)>,
    /// Figure 6 population (all DNS-infra attacks).
    pub port_breakdown: PortBreakdown,
    /// §6.3.1 population (attacks that caused failures).
    pub successful_port_breakdown: PortBreakdown,
    pub impacts: Vec<ImpactEvent>,
    pub failure_summary: FailureSummary,
    /// Figure 9.
    pub intensity_impact: CorrelationSeries,
    /// Figure 10.
    pub duration_impact: CorrelationSeries,
    /// Figures 11–13.
    pub by_anycast: Vec<ClassImpact>,
    pub by_as_diversity: Vec<ClassImpact>,
    pub by_prefix_diversity: Vec<ClassImpact>,
    /// Table 6: (org name, max Impact_on_RTT observed).
    pub top_affected_orgs: Vec<(String, f64)>,
    pub store: MeasurementStore,
}

impl LongitudinalReport {
    /// How many impact events degraded to the week-before baseline because
    /// the day-before sweep was lost to a sensor outage. Reported alongside
    /// the impacts whenever an outage model is active.
    pub fn baseline_fallbacks(&self) -> u64 {
        self.impacts
            .iter()
            .filter(|e| e.baseline_source == crate::impact::BaselineSource::WeekBefore)
            .count() as u64
    }

    /// Impact events with no usable baseline at all.
    pub fn baselines_missing(&self) -> u64 {
        self.impacts
            .iter()
            .filter(|e| e.baseline_source == crate::impact::BaselineSource::Missing)
            .count() as u64
    }
}

/// Run the full longitudinal pipeline.
pub fn run(
    infra: &Infra,
    darknet: &Darknet,
    attacks: &[Attack],
    months: &[Month],
    meta: &MetaTables,
    config: &LongitudinalConfig,
    rngs: &RngFactory,
) -> LongitudinalReport {
    let loads = front::load_book(attacks);

    // Telescope view → feed. The view's records live until `run` returns,
    // as they do in the benchmark's traced replica of this function:
    // freeing them here made `run` ~10 % faster than the replica on
    // `batch_sparse` and parted the two timings the replica is checked by.
    let mut telescope = front::observe(darknet, config.thresholds, attacks, rngs);
    let feed = telescope.take_feed();
    // Causal tracing (see `obs::trace`): the longitudinal feed owns the
    // `rsdos` scope, so episode `i` is addressable as `rsdos/i`.
    feed.trace_onsets(TRACE_SCOPE);

    // Join to the DNS on the columnar hot path (the row join in
    // `crate::join` is the differential reference). Only this headline
    // join traces — the unfiltered Tables-3–5 join below re-joins the same
    // episodes and must not double-emit.
    let columns = telescope::EpisodeColumns::from_episodes(&feed.episodes);
    let join_table = front::join(
        infra,
        &columns,
        &meta.open_resolvers,
        config.include_collateral,
        config.jobs,
        Some(TRACE_SCOPE),
    );
    let dns_events = join_table.to_events();
    // Tables 3–5 count every victim that serves as a nameserver —
    // including the open resolvers that misconfigured domains point NS
    // records at. The open-resolver filter (§6.1) applies to the *impact*
    // analyses below, not to the raw attack accounting.
    let unfiltered_table = JoinTable::build(
        infra,
        infra,
        &columns,
        &OpenResolverList::new(),
        config.include_collateral,
        1,
        config.jobs,
        None,
    );
    let unfiltered_events = unfiltered_table.to_events();
    let unfiltered_idxs: HashSet<usize> = unfiltered_events.iter().map(|e| e.episode_idx).collect();

    // Table 3.
    let monthly = monthly_rows(&feed, &unfiltered_idxs, months);

    // Figure 5.
    let mut by_month: HashMap<Month, Vec<u64>> = HashMap::new();
    for ev in &dns_events {
        by_month.entry(ev.month).or_default().push(ev.domains_affected);
    }
    let affected_domains_by_month: Vec<(Month, Vec<u64>)> =
        months.iter().map(|m| (*m, by_month.remove(m).unwrap_or_default())).collect();

    // Tables 4–5 include the open-resolver victims too (the paper's
    // tables show Google DNS et al. precisely to expose the
    // misconfiguration artifact).
    let (top_asns, top_ips) = top_targets(&feed, &unfiltered_events, meta);

    // Figure 6 over authoritative DNS-infra episodes (post-filter).
    let dns_episode_idxs: HashSet<usize> = dns_events.iter().map(|e| e.episode_idx).collect();
    let port_breakdown =
        ports::breakdown_episodes(dns_episode_idxs.iter().map(|&i| &feed.episodes[i]));

    // Impacts (step 4), trace-attributed to the feed's scope.
    let schedule = SweepSchedule::new(rngs.seed());
    let impact_config = ImpactConfig {
        trace_scope: config.impact.trace_scope.or(Some(TRACE_SCOPE)),
        ..config.impact
    };
    let (impacts, store) = compute_impacts_columnar(
        infra,
        &schedule,
        &config.resolver,
        &loads,
        &columns,
        &join_table,
        &meta.census,
        rngs,
        &impact_config,
        config.jobs,
    );

    let successful_port_breakdown = ports::breakdown_successful(&impacts);
    let failure_summary = failures::summarize(&impacts);
    let intensity_impact = correlate::intensity_vs_impact(&impacts);
    let duration_impact = correlate::duration_vs_impact(&impacts);
    let by_anycast = resilience::by_anycast(&impacts);
    let by_as_diversity = resilience::by_as_diversity(&impacts);
    let by_prefix_diversity = resilience::by_prefix_diversity(&impacts);
    let top_affected_orgs = top_affected_orgs(infra, &impacts, meta);

    LongitudinalReport {
        feed,
        dns_events,
        monthly,
        affected_domains_by_month,
        top_asns,
        top_ips,
        port_breakdown,
        successful_port_breakdown,
        impacts,
        failure_summary,
        intensity_impact,
        duration_impact,
        by_anycast,
        by_as_diversity,
        by_prefix_diversity,
        top_affected_orgs,
        store,
    }
}

fn monthly_rows(feed: &RsdosFeed, dns_idxs: &HashSet<usize>, months: &[Month]) -> Vec<MonthlyRow> {
    months
        .iter()
        .map(|&month| {
            let mut dns_attacks = 0;
            let mut other_attacks = 0;
            let mut dns_ips: HashSet<Ipv4Addr> = HashSet::new();
            let mut other_ips: HashSet<Ipv4Addr> = HashSet::new();
            for (i, ep) in feed.episodes.iter().enumerate() {
                if ep.first_window.start().month() != month {
                    continue;
                }
                if dns_idxs.contains(&i) {
                    dns_attacks += 1;
                    dns_ips.insert(ep.victim);
                } else {
                    other_attacks += 1;
                    other_ips.insert(ep.victim);
                }
            }
            MonthlyRow {
                month,
                dns_attacks,
                other_attacks,
                dns_ips: dns_ips.len() as u64,
                other_ips: other_ips.len() as u64,
            }
        })
        .collect()
}

/// Table 4 rows: (ASN, attack count, organization name).
pub type TopAsns = Vec<(netbase::Asn, u64, String)>;
/// Table 5 rows: (IP, attack count, open-resolver flag).
pub type TopIps = Vec<(Ipv4Addr, u64, bool)>;

fn top_targets(
    feed: &RsdosFeed,
    dns_events: &[DnsAttackEvent],
    meta: &MetaTables,
) -> (TopAsns, TopIps) {
    let mut per_asn: HashMap<netbase::Asn, u64> = HashMap::new();
    let mut per_ip: HashMap<Ipv4Addr, u64> = HashMap::new();
    for ev in dns_events {
        let victim = feed.episodes[ev.episode_idx].victim;
        *per_ip.entry(victim).or_insert(0) += 1;
        if let Some(asn) = meta.prefix2as.asn_of(victim) {
            *per_asn.entry(asn).or_insert(0) += 1;
        }
    }
    let mut asns: Vec<(netbase::Asn, u64, String)> = per_asn
        .into_iter()
        .map(|(asn, n)| {
            let name = meta
                .as2org
                .org_of(asn)
                .map(|o| meta.orgs.get(o).name.clone())
                .unwrap_or_else(|| format!("{asn}"));
            (asn, n, name)
        })
        .collect();
    asns.sort_by(|a, b| b.1.cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
    asns.truncate(10);
    let mut ips: Vec<(Ipv4Addr, u64, bool)> =
        per_ip.into_iter().map(|(ip, n)| (ip, n, meta.open_resolvers.contains(ip))).collect();
    ips.sort_by(|a, b| b.1.cmp(&a.1).then(u32::from(a.0).cmp(&u32::from(b.0))));
    ips.truncate(10);
    (asns, ips)
}

fn top_affected_orgs(
    infra: &Infra,
    impacts: &[ImpactEvent],
    meta: &MetaTables,
) -> Vec<(String, f64)> {
    let mut per_org: HashMap<String, f64> = HashMap::new();
    for e in impacts {
        let Some(impact) = e.impact_on_rtt else { continue };
        for asn in infra.nsset_asns(e.nsset) {
            let name = meta
                .as2org
                .org_of(asn)
                .map(|o| meta.orgs.get(o).name.clone())
                .unwrap_or_else(|| format!("{asn}"));
            let v = per_org.entry(name).or_insert(0.0);
            *v = v.max(impact);
        }
    }
    let mut out: Vec<(String, f64)> = per_org.into_iter().collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    out.truncate(10);
    out
}

/// Re-export of the case-study helpers at the orchestrator level.
pub use casestudy::{ns_attack_metrics, rtt_timeseries, NsAttackMetrics, TimePoint};

#[cfg(test)]
mod tests {
    use super::*;
    use attack::{AttackScheduler, ScheduleConfig, TargetPool};
    use dnssim::Deployment;
    use netbase::{Asn, Ipv4Net};

    /// A small but complete world: 40 nameservers across 10 providers,
    /// 4000 domains, 3 months of attacks.
    fn world(seed: u64) -> (Infra, Darknet, Vec<Attack>, Vec<Month>, MetaTables) {
        let rngs = RngFactory::new(seed);
        let mut infra = Infra::new();
        let mut prefix2as = Prefix2As::new();
        let mut orgs = OrgRegistry::new();
        let mut as2org = As2Org::new();
        let mut dns_addrs = Vec::new();
        for p in 0..10u32 {
            let asn = Asn(64500 + p);
            let org = orgs.add(&format!("Provider {p}"), "NL");
            as2org.assign(asn, org);
            let net: Ipv4Net = format!("198.{}.0.0/16", 20 + p).parse().unwrap();
            prefix2as.announce(net, asn);
            let mut ns_ids = Vec::new();
            for s in 0..4u32 {
                let addr: Ipv4Addr = format!("198.{}.{s}.53", 20 + p).parse().unwrap();
                dns_addrs.push(addr);
                ns_ids.push(infra.add_nameserver(
                    format!("ns{s}.provider{p}.net").parse().unwrap(),
                    addr,
                    asn,
                    if p < 2 { Deployment::Anycast { sites: 15 } } else { Deployment::Unicast },
                    40_000.0,
                    1_000.0,
                    15.0,
                ));
            }
            let set = infra.intern_nsset(ns_ids);
            for d in 0..400u32 {
                infra.add_domain(format!("d{p}x{d}.example").parse().unwrap(), set);
            }
        }
        let months = Month::new(2020, 11).through(Month::new(2021, 1));
        let cfg = ScheduleConfig {
            months: months.clone(),
            attacks_per_month: vec![800; months.len()],
            dns_share_per_month: vec![0.05; months.len()],
            ..ScheduleConfig::default()
        };
        let pool = TargetPool::uniform(dns_addrs, vec![]);
        let attacks = AttackScheduler::new(cfg).generate(&pool, &rngs);
        let census = AnycastCensus::from_ground_truth(
            &infra,
            AnycastCensus::paper_snapshot_dates(),
            1.0,
            &rngs,
        );
        let meta = MetaTables {
            prefix2as,
            as2org,
            orgs,
            open_resolvers: OpenResolverList::well_known(),
            census,
        };
        (infra, Darknet::ucsd_like(), attacks, months, meta)
    }

    #[test]
    fn full_pipeline_produces_consistent_report() {
        let (infra, darknet, attacks, months, meta) = world(42);
        let report = run(
            &infra,
            &darknet,
            &attacks,
            &months,
            &meta,
            &LongitudinalConfig::default(),
            &RngFactory::new(42),
        );
        // The feed saw most attacks (visible ones above thresholds).
        assert!(report.feed.episodes.len() > 1_000, "{} episodes", report.feed.episodes.len());
        // DNS share lands in a plausible band around the configured 5%.
        let total_dns: u64 = report.monthly.iter().map(|m| m.dns_attacks).sum();
        let total: u64 = report.monthly.iter().map(|m| m.total_attacks()).sum();
        let share = total_dns as f64 / total as f64;
        assert!(
            (0.02..0.08).contains(&share),
            "dns share {share} (dns {total_dns} / total {total})"
        );
        // Every monthly row belongs to the requested months.
        assert_eq!(report.monthly.len(), 3);
        // Figure 5 data covers the same events.
        let fig5_events: usize =
            report.affected_domains_by_month.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(fig5_events, report.dns_events.len());
        // Impact events passed the ≥5 filter.
        for e in &report.impacts {
            assert!(e.domains_measured >= 5);
        }
        // Resilience tables exist for each class axis.
        assert_eq!(report.by_anycast.len(), 3);
        assert!(!report.by_as_diversity.is_empty());
        // Top tables bounded at 10.
        assert!(report.top_asns.len() <= 10);
        assert!(report.top_ips.len() <= 10);
        // Port mix: TCP dominates (calibrated generator).
        assert!(report.port_breakdown.protocol_share(attack::Protocol::Tcp) > 0.8);
    }

    #[test]
    fn deterministic_end_to_end() {
        let (infra, darknet, attacks, months, meta) = world(7);
        let run1 = run(
            &infra,
            &darknet,
            &attacks,
            &months,
            &meta,
            &LongitudinalConfig::default(),
            &RngFactory::new(7),
        );
        let run2 = run(
            &infra,
            &darknet,
            &attacks,
            &months,
            &meta,
            &LongitudinalConfig::default(),
            &RngFactory::new(7),
        );
        assert_eq!(run1.monthly, run2.monthly);
        assert_eq!(run1.impacts.len(), run2.impacts.len());
        assert_eq!(run1.top_ips, run2.top_ips);
    }

    #[test]
    fn monthly_row_arithmetic() {
        let row = MonthlyRow {
            month: Month::new(2020, 11),
            dns_attacks: 25,
            other_attacks: 975,
            dns_ips: 10,
            other_ips: 400,
        };
        assert_eq!(row.total_attacks(), 1_000);
        assert!((row.dns_share() - 0.025).abs() < 1e-12);
    }
}
