//! §5.2 — attacks on Russian infrastructure in March 2022.
//!
//! **mil.ru** (§5.2.1): three unicast nameservers on the *same /24*,
//! single ASN — the paper's textbook example of poor resilience. The
//! telescope saw only modest spoofed activity for 8 days (March 11–18),
//! but the domain was unresolvable: the bulk of the attack was invisible
//! (and the eventual geofence is, from a Dutch vantage point,
//! observationally identical to saturation — every query dies either
//! way). OpenINTEL failed completely March 12–16; the reactive platform,
//! probing every nameserver, found none responsive for the whole attack.
//!
//! **RDZ railways** (§5.2.2): three nameservers on two /24s, still
//! unicast and single-ASN. RSDoS-visible attack 15:31–20:45 on March 8;
//! the invisible component kept the servers saturated overnight and the
//! domain became intermittently responsive at ≈06:00 the next morning.

use attack::{Attack, AttackId, Protocol, VectorKind, VectorSpec};
use census::{AnycastCensus, OpenResolverList};
use dnsimpact_core::front;
use dnsimpact_core::longitudinal::MetaTables;
use dnssim::{Deployment, DomainId, Infra, LoadBook, NsSetId, Uplink};
use netbase::{As2Org, Asn, Ipv4Net, OrgRegistry, Prefix2As, Slash24};
use simcore::rng::RngFactory;
use simcore::time::{CivilDate, SimTime};
use std::net::Ipv4Addr;
use telescope::RsdosFeed;

/// The mil.ru scenario.
pub struct MilRuScenario {
    pub infra: Infra,
    pub meta: MetaTables,
    pub nsset: NsSetId,
    pub mil_ru: DomainId,
    pub addrs: [Ipv4Addr; 3],
    pub attacks: Vec<Attack>,
    /// Visible (RSDoS) attack interval: March 11–18 inclusive.
    pub attack_span: (SimTime, SimTime),
    /// The total-blackout interval (OpenINTEL failure): March 12–16.
    pub blackout: (SimTime, SimTime),
}

impl MilRuScenario {
    pub fn build(rngs: &RngFactory) -> MilRuScenario {
        let _ = rngs;
        let mut infra = Infra::new();
        let mut orgs = OrgRegistry::new();
        let mut as2org = As2Org::new();
        let mut prefix2as = Prefix2As::new();
        let org = orgs.add("Ministry of Defense of the Russian Federation", "RU");
        let asn = Asn(8342);
        as2org.assign(asn, org);
        // All three nameservers on ONE /24.
        let addrs: [Ipv4Addr; 3] = [
            "188.128.110.1".parse().unwrap(),
            "188.128.110.2".parse().unwrap(),
            "188.128.110.3".parse().unwrap(),
        ];
        prefix2as.announce(Ipv4Net::new(addrs[0], 24), asn);
        let ids: Vec<_> = addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                infra.add_nameserver(
                    format!("ns{}.mil.ru", i + 1).parse().unwrap(),
                    a,
                    asn,
                    Deployment::Unicast,
                    60_000.0,
                    500.0,
                    40.0,
                )
            })
            .collect();
        // The shared /24 uplink also carries the mil.ru web site.
        infra.set_uplink(Uplink::new(Slash24::of(addrs[0]), 800_000.0));
        let nsset = infra.intern_nsset(ids);
        let mil_ru = infra.add_domain("mil.ru".parse().unwrap(), nsset);
        // The Cyrillic IDN and subdomains delegate to the same servers.
        infra.add_domain("xn--90adahrqfmn.xn--p1ai".parse().unwrap(), nsset);
        for s in ["mail", "recrut", "stat", "doc", "sc", "ens", "milru-cdn"] {
            infra.add_domain(format!("{s}.mil.ru").parse().unwrap(), nsset);
        }

        let day = |d: u32, h: u32| SimTime::from_civil(CivilDate::new(2022, 3, d), h, 0, 0);
        let attack_span = (day(11, 0), day(19, 0)); // through March 18
        let blackout = (day(12, 0), day(17, 0)); // March 12–16 inclusive

        let mut attacks = Vec::new();
        // Modest visible spoofed vector on each nameserver, all 8 days
        // (≈3 Kppm at the telescope).
        for (k, &a) in addrs.iter().enumerate() {
            attacks.push(Attack {
                id: AttackId(k as u64),
                target: a,
                start: attack_span.0,
                duration: attack_span.1 - attack_span.0,
                vectors: vec![VectorSpec {
                    kind: VectorKind::RandomSpoofed,
                    protocol: Protocol::Tcp,
                    ports: vec![53, 80],
                    victim_pps: 17_000.0,
                    source_count: 900_000,
                }],
            });
        }
        // The invisible bulk: heavy on day one (≈3× capacity), total
        // blackout March 12–16 (geofence-equivalent), heavy taper 17–18.
        let invis = |id: u64, target: Ipv4Addr, from: SimTime, to: SimTime, pps: f64| Attack {
            id: AttackId(id),
            target,
            start: from,
            duration: to - from,
            vectors: vec![VectorSpec {
                kind: VectorKind::Direct,
                protocol: Protocol::Tcp,
                ports: vec![80, 443, 53],
                victim_pps: pps,
                source_count: 40_000,
            }],
        };
        for (k, &a) in addrs.iter().enumerate() {
            let base = 100 + (k as u64) * 10;
            attacks.push(invis(base, a, day(11, 0), day(12, 0), 100_000.0));
            attacks.push(invis(base + 1, a, day(12, 0), day(17, 0), 20_000_000.0));
            attacks.push(invis(base + 2, a, day(17, 0), day(19, 0), 300_000.0));
        }
        // Collateral: the web site shares the /24 and its uplink.
        attacks.push(invis(
            999,
            "188.128.110.70".parse().unwrap(),
            day(12, 0),
            day(17, 0),
            2_000_000.0,
        ));

        let census = AnycastCensus::from_ground_truth(
            &infra,
            AnycastCensus::paper_snapshot_dates(),
            1.0,
            rngs,
        );
        MilRuScenario {
            infra,
            meta: MetaTables {
                prefix2as,
                as2org,
                orgs,
                open_resolvers: OpenResolverList::well_known(),
                census,
            },
            nsset,
            mil_ru,
            addrs,
            attacks,
            attack_span,
            blackout,
        }
    }

    pub fn load_book(&self) -> LoadBook {
        front::load_book(&self.attacks)
    }

    pub fn feed(&self, rngs: &RngFactory) -> RsdosFeed {
        front::feed(&self.attacks, rngs)
    }
}

/// The RDZ railways scenario.
pub struct RdzScenario {
    pub infra: Infra,
    pub nsset: NsSetId,
    pub domain: DomainId,
    pub addrs: [Ipv4Addr; 3],
    pub attacks: Vec<Attack>,
    /// The RSDoS-visible interval: March 8, 15:31–20:45.
    pub visible_span: (SimTime, SimTime),
    /// When the domain becomes responsive again (≈06:00 March 9).
    pub recovery: SimTime,
}

impl RdzScenario {
    pub fn build(rngs: &RngFactory) -> RdzScenario {
        let _ = rngs;
        let mut infra = Infra::new();
        let asn = Asn(2854);
        // Two /24s for three nameservers.
        let addrs: [Ipv4Addr; 3] = [
            "95.167.4.1".parse().unwrap(),
            "95.167.4.2".parse().unwrap(),
            "95.167.9.1".parse().unwrap(),
        ];
        let ids: Vec<_> = addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                infra.add_nameserver(
                    format!("ns{}.rzd.ru", i + 1).parse().unwrap(),
                    a,
                    asn,
                    Deployment::Unicast,
                    50_000.0,
                    400.0,
                    52.0,
                )
            })
            .collect();
        let nsset = infra.intern_nsset(ids);
        let domain = infra.add_domain("rzd.ru".parse().unwrap(), nsset);
        for s in ["pass", "cargo", "ticket", "eng"] {
            infra.add_domain(format!("{s}.rzd.ru").parse().unwrap(), nsset);
        }

        let t = |d: u32, h: u32, m: u32| SimTime::from_civil(CivilDate::new(2022, 3, d), h, m, 0);
        let visible_span = (t(8, 15, 31), t(8, 20, 45));
        let recovery = t(9, 6, 0);
        let mut attacks = Vec::new();
        for (k, &a) in addrs.iter().enumerate() {
            // Visible crowdsourced UDP/53 flood.
            attacks.push(Attack {
                id: AttackId(k as u64),
                target: a,
                start: visible_span.0,
                duration: visible_span.1 - visible_span.0,
                vectors: vec![VectorSpec {
                    kind: VectorKind::RandomSpoofed,
                    protocol: Protocol::Udp,
                    ports: vec![53],
                    victim_pps: 120_000.0,
                    source_count: 2_000_000,
                }],
            });
            // Invisible continuation saturating the servers until 06:00.
            attacks.push(Attack {
                id: AttackId(100 + k as u64),
                target: a,
                start: visible_span.0,
                duration: recovery - visible_span.0,
                vectors: vec![VectorSpec {
                    kind: VectorKind::Direct,
                    protocol: Protocol::Udp,
                    ports: vec![53],
                    victim_pps: 900_000.0,
                    source_count: 30_000,
                }],
            });
        }
        RdzScenario { infra, nsset, domain, addrs, attacks, visible_span, recovery }
    }

    pub fn load_book(&self) -> LoadBook {
        front::load_book(&self.attacks)
    }

    pub fn feed(&self, rngs: &RngFactory) -> RsdosFeed {
        front::feed(&self.attacks, rngs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnssim::{QueryStatus, Resolver};
    use rand::SeedableRng;

    #[test]
    fn mil_ru_same_slash24_single_asn() {
        let sc = MilRuScenario::build(&RngFactory::new(1));
        assert_eq!(sc.infra.nsset_slash24s(sc.nsset).len(), 1);
        assert_eq!(sc.infra.nsset_asns(sc.nsset).len(), 1);
        assert_eq!(sc.infra.nsset_anycast(sc.nsset), (0, 3));
    }

    #[test]
    fn mil_ru_blackout_march_12_to_16() {
        let sc = MilRuScenario::build(&RngFactory::new(2));
        let loads = sc.load_book();
        let resolver = Resolver::default();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        // During the blackout OpenINTEL-style resolution fails ~always.
        let mid_blackout = SimTime::from_civil(CivilDate::new(2022, 3, 14), 12, 0, 0).window();
        let mut failures = 0;
        for _ in 0..50 {
            let out = resolver.resolve(&sc.infra, sc.mil_ru, mid_blackout, &loads, &mut rng);
            if out.status != QueryStatus::Ok {
                failures += 1;
            }
        }
        assert!(failures >= 48, "blackout: {failures}/50 failed");
        // On March 11 (heavy but not geofenced) some queries still get
        // through.
        let day_one = SimTime::from_civil(CivilDate::new(2022, 3, 11), 12, 0, 0).window();
        let mut ok = 0;
        for _ in 0..100 {
            if resolver.resolve(&sc.infra, sc.mil_ru, day_one, &loads, &mut rng).status
                == QueryStatus::Ok
            {
                ok += 1;
            }
        }
        assert!(ok > 5, "March 11 is degraded but not dead: {ok}/100 ok");
        // After the attack everything resolves.
        let after = SimTime::from_civil(CivilDate::new(2022, 3, 20), 12, 0, 0).window();
        let out = resolver.resolve(&sc.infra, sc.mil_ru, after, &loads, &mut rng);
        assert_eq!(out.status, QueryStatus::Ok);
    }

    #[test]
    fn mil_ru_telescope_sees_modest_attack() {
        let rngs = RngFactory::new(3);
        let sc = MilRuScenario::build(&rngs);
        let feed = sc.feed(&rngs);
        // Episodes exist for all three nameservers...
        let victims: std::collections::HashSet<Ipv4Addr> =
            feed.episodes.iter().map(|e| e.victim).collect();
        for a in sc.addrs {
            assert!(victims.contains(&a), "{a} missing from feed");
        }
        // ...but the observed intensity is modest (≈3 Kppm, nothing like
        // the TransIP March numbers) even though the real load was
        // devastating — the multi-vector blind spot.
        for e in &feed.episodes {
            assert!(e.peak_ppm < 10_000.0, "modest visible intensity: {}", e.peak_ppm);
        }
    }

    #[test]
    fn rdz_prefix_layout_and_recovery() {
        let sc = RdzScenario::build(&RngFactory::new(4));
        assert_eq!(sc.infra.nsset_slash24s(sc.nsset).len(), 2);
        assert_eq!(sc.infra.nsset_asns(sc.nsset).len(), 1);

        let loads = sc.load_book();
        let resolver = Resolver::default();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(6);
        // 22:00 on March 8: visible attack over, invisible continues →
        // still dead.
        let overnight = SimTime::from_civil(CivilDate::new(2022, 3, 8), 22, 0, 0).window();
        let mut failures = 0;
        for _ in 0..50 {
            if resolver.resolve(&sc.infra, sc.domain, overnight, &loads, &mut rng).status
                != QueryStatus::Ok
            {
                failures += 1;
            }
        }
        assert!(failures >= 45, "overnight outage persists: {failures}/50");
        // 06:30 next morning: recovered.
        let morning = SimTime::from_civil(CivilDate::new(2022, 3, 9), 6, 30, 0).window();
        let out = resolver.resolve(&sc.infra, sc.domain, morning, &loads, &mut rng);
        assert_eq!(out.status, QueryStatus::Ok, "recovered at 06:00");
    }

    #[test]
    fn rdz_visible_span_matches_paper_clock() {
        let sc = RdzScenario::build(&RngFactory::new(5));
        assert_eq!(format!("{}", sc.visible_span.0), "2022-03-08 15:31:00");
        assert_eq!(format!("{}", sc.visible_span.1), "2022-03-08 20:45:00");
        assert_eq!(format!("{}", sc.recovery), "2022-03-09 06:00:00");
    }
}
