//! The two named §6.3.1 anecdotes, rebuilt as fixtures:
//!
//! - **nic.ru**: a Russian registrar offering secondary nameservers as a
//!   service; its NSSet (hosting >10 K domains) was attacked in March 2022
//!   and reached **100%** resolution failure — the largest complete
//!   failure in the dataset.
//! - **Euskaltel**: a Spanish ISP responsible for 1,405 domains that
//!   failed to answer **83%** of queries during its attack.

use dnsimpact::core::front;
use dnsimpact::core::impact::{compute_impacts, ImpactConfig};
use dnsimpact::prelude::*;

fn build(
    name: &str,
    domains: u32,
    ns_count: u32,
    capacity: f64,
) -> (Infra, NsSetId, Vec<std::net::Ipv4Addr>) {
    let mut infra = Infra::new();
    let addrs: Vec<std::net::Ipv4Addr> =
        (0..ns_count).map(|i| format!("185.10.{i}.53").parse().unwrap()).collect();
    let ids: Vec<NsId> = addrs
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            infra.add_nameserver(
                format!("ns{i}.{name}.example").parse().unwrap(),
                a,
                Asn(64500),
                Deployment::Unicast,
                capacity,
                domains as f64 * 0.3,
                35.0,
            )
        })
        .collect();
    let set = infra.intern_nsset(ids);
    for i in 0..domains {
        infra.add_domain(format!("c{i}.{name}.example").parse().unwrap(), set);
    }
    (infra, set, addrs)
}

fn run_attack(
    infra: &Infra,
    addrs: &[std::net::Ipv4Addr],
    pps_per_ns: f64,
    seed: u64,
) -> dnsimpact::core::impact::ImpactEvent {
    let rngs = RngFactory::new(seed);
    let start = SimTime::from_days(6) + SimDuration::from_hours(9);
    let attacks: Vec<Attack> = addrs
        .iter()
        .enumerate()
        .map(|(i, &a)| Attack {
            id: AttackId(i as u64),
            target: a,
            start,
            duration: SimDuration::from_hours(3),
            vectors: vec![VectorSpec {
                kind: VectorKind::RandomSpoofed,
                protocol: Protocol::Tcp,
                ports: vec![53],
                victim_pps: pps_per_ns,
                source_count: 2_000_000,
            }],
        })
        .collect();
    let episodes =
        front::observe(&Darknet::ucsd_like(), RsdosThresholds::default(), &attacks, &rngs).episodes;
    assert_eq!(episodes.len(), addrs.len());
    let loads = front::load_book(&attacks);
    let events = join_episodes(infra, infra, &episodes, &OpenResolverList::new(), false);
    let census =
        AnycastCensus::from_ground_truth(infra, AnycastCensus::paper_snapshot_dates(), 1.0, &rngs);
    let (impacts, _) = compute_impacts(
        infra,
        &SweepSchedule::new(seed),
        &Resolver::default(),
        &loads,
        &episodes,
        &events,
        &census,
        &rngs,
        &ImpactConfig::default(),
    );
    // One impact event per (episode, NSSet) pair — sibling episodes of a
    // campaign each join to the same NSSet, as in the paper's counting of
    // "distinct events of attacks to distinct NSSets".
    assert_eq!(impacts.len(), addrs.len());
    let set = impacts[0].nsset;
    assert!(impacts.iter().all(|e| e.nsset == set));
    impacts.into_iter().next().unwrap()
}

#[test]
fn nic_ru_complete_failure_on_large_nsset() {
    // Secondary-DNS service: 12 K domains on three servers, hit hard
    // enough that nothing answers (hundreds of times capacity).
    let (infra, _set, addrs) = build("nicru", 12_000, 3, 80_000.0);
    let e = run_attack(&infra, &addrs, 60_000_000.0, 1);
    assert!(e.nsset_domains > 10_000, "a >10K-domain infrastructure");
    assert!(
        e.failure_rate > 0.995,
        "100% of measured domains fail, as for nic.ru: {:.3}",
        e.failure_rate
    );
    assert!(e.complete_failure());
    assert_eq!(e.anycast, AnycastClass::Unicast, "the paper's failing NSSets are unicast");
}

#[test]
fn euskaltel_partial_failure_at_83_percent() {
    // A 1,405-domain ISP deployment, saturated to the level where the
    // per-attempt answer probability ≈ 45% → resolution failure ≈ 83%
    // after unbound's retries across both servers (0.55² ≈ 0.3 per pair;
    // tuned via offered load).
    let (infra, _set, addrs) = build("euskaltel", 1_405, 2, 50_000.0);
    // offered ≈ capacity/0.42 → answer ≈ 0.42; with 2 servers retried:
    // failure ≈ (1-0.42)² ≈ 0.34... push harder: answer ≈ 0.17 → ≈ 0.69;
    // answer ≈ 0.085 → ≈ 0.84.
    let e = run_attack(&infra, &addrs, 580_000.0, 2);
    assert_eq!(e.nsset_domains, 1_405);
    assert!(
        (0.70..0.95).contains(&e.failure_rate),
        "≈83% of queries fail, as for Euskaltel: {:.3}",
        e.failure_rate
    );
    assert!(!e.complete_failure(), "some queries still resolve");
    // The impact metric is dominated by timeout accumulation.
    let impact = e.impact_on_rtt.expect("baseline day exists");
    assert!(impact > 20.0, "devastating but not total: {impact:.1}x");
}
