//! The paper's §4.3 limitations, demonstrated — not idealized away — in
//! the reproduction. Each test shows a blind spot of the methodology
//! existing in our pipeline too.

use dnsimpact::core::front;
use dnsimpact::prelude::*;
use std::sync::Arc;

fn trio_world() -> (Infra, DomainId, Vec<std::net::Ipv4Addr>) {
    let mut infra = Infra::new();
    let addrs: Vec<std::net::Ipv4Addr> =
        (0..3).map(|i| format!("198.51.{i}.53").parse().unwrap()).collect();
    let ids: Vec<NsId> = addrs
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            infra.add_nameserver(
                format!("ns{i}.host.net").parse().unwrap(),
                a,
                Asn(64500),
                Deployment::Unicast,
                50_000.0,
                1_000.0,
                20.0,
            )
        })
        .collect();
    let set = infra.intern_nsset(ids);
    let d = infra.add_domain("victim.example".parse().unwrap(), set);
    (infra, d, addrs)
}

/// Limitation 3: reflection and direct attacks are invisible to the
/// telescope, yet they impair resolution — so telescope intensity cannot
/// predict impact.
#[test]
fn multi_vector_blind_spot() {
    let (infra, domain, addrs) = trio_world();
    let rngs = RngFactory::new(1);
    // A pure-reflection attack saturating all three servers.
    let attack = Attack {
        id: AttackId(0),
        target: addrs[0],
        start: SimTime::from_days(2),
        duration: SimDuration::from_hours(1),
        vectors: vec![VectorSpec {
            kind: VectorKind::Reflection,
            protocol: Protocol::Udp,
            ports: vec![53],
            victim_pps: 5_000_000.0,
            source_count: 3_000,
        }],
    };
    // The telescope sees NOTHING.
    let darknet = Darknet::ucsd_like();
    let obs = BackscatterSampler::new(&darknet).sample(std::slice::from_ref(&attack), &rngs);
    assert!(obs.is_empty(), "reflection produces no darknet backscatter");

    // But resolution through the attacked server fails.
    let loads = front::load_book(&[attack]);
    let w = (SimTime::from_days(2) + SimDuration::from_mins(30)).window();
    let ns = infra.ns_by_addr(addrs[0]).unwrap();
    let state = infra.service_state(ns, w, &loads);
    assert!(state.answer_prob < 0.05, "the invisible attack still kills the server");
    let _ = domain;
}

/// Limitation 4: from a single vantage point, anycast catchment masks
/// attacks — the diluted site the prober reaches looks healthy while the
/// attack is real (and visible in the feed).
#[test]
fn anycast_catchment_masks_impact() {
    let mut infra = Infra::new();
    let addr: std::net::Ipv4Addr = "198.51.7.53".parse().unwrap();
    let ns = infra.add_nameserver(
        "ns.anycast.net".parse().unwrap(),
        addr,
        Asn(64500),
        Deployment::Anycast { sites: 30 },
        100_000.0,
        1_000.0,
        10.0,
    );
    let set = infra.intern_nsset(vec![ns]);
    infra.add_domain("masked.example".parse().unwrap(), set);

    let rngs = RngFactory::new(2);
    let attack = Attack {
        id: AttackId(0),
        target: addr,
        start: SimTime::from_days(1),
        duration: SimDuration::from_hours(1),
        vectors: vec![VectorSpec {
            kind: VectorKind::RandomSpoofed,
            protocol: Protocol::Tcp,
            ports: vec![53],
            victim_pps: 900_000.0, // devastating in aggregate
            source_count: 5_000_000,
        }],
    };
    // Telescope: clearly visible, high intensity.
    let attacks = [attack];
    let view = front::observe(&Darknet::ucsd_like(), RsdosThresholds::default(), &attacks, &rngs);
    assert!(!view.records.is_empty(), "the attack is loud in the feed");

    // Vantage point: the answering site absorbs only 1/30 of the attack →
    // barely any impact.
    let loads = front::load_book(&attacks);
    let w = (SimTime::from_days(1) + SimDuration::from_mins(30)).window();
    let state = infra.service_state(ns, w, &loads);
    assert_eq!(state.answer_prob, 1.0);
    assert!(state.rtt_mult < 2.0, "catchment masks the attack: {state:?}");
}

/// Limitation 1: OpenINTEL's agnostic resolution cannot attribute an
/// answer to a specific nameserver — with one member dead, per-domain
/// outcomes mix all members and no per-server conclusion is possible from
/// status alone.
#[test]
fn agnostic_resolution_cannot_attribute() {
    let (infra, domain, addrs) = trio_world();
    let mut loads = LoadBook::new();
    let w = Window(600);
    loads.add(addrs[0], w, 50_000_000.0); // ns0 is dead
    let resolver = Resolver::default();
    let rngs = RngFactory::new(3);
    let mut rng = rngs.stream("agnostic");
    let mut ok = 0;
    let n = 500;
    for _ in 0..n {
        if resolver.resolve(&infra, domain, w, &loads, &mut rng).status == QueryStatus::Ok {
            ok += 1;
        }
    }
    // The aggregate hides the dead server almost completely: resolutions
    // still succeed via the healthy members.
    assert!(ok > n * 95 / 100, "aggregate looks healthy: {ok}/{n}");

    // The *reactive* NS-exhaustive prober, by contrast, pinpoints it.
    let infra = Arc::new(infra);
    let mut rng = rngs.stream("exhaustive");
    let probe = reactive::probe::probe_all_ns(&infra, domain, w.start(), &loads, &mut rng);
    let dead: Vec<_> = probe.outcomes.iter().filter(|o| o.status != QueryStatus::Ok).collect();
    assert_eq!(dead.len(), 1, "exactly the attacked server is unresponsive");
}

/// Limitation 2: the telescope only sees IPv4. During an IPv4 attack, a
/// dual-stack deployment on *separate* IPv6 infrastructure keeps serving
/// over v6 (limiting real-world impact), while shared-infrastructure
/// dual-stack degrades on both families — and the pipeline, measuring
/// over IPv4, cannot tell these cases apart.
#[test]
fn ipv6_blind_spot() {
    let mut infra = Infra::new();
    let mk = |infra: &mut Infra, i: u32| {
        infra.add_nameserver(
            format!("ns{i}.dual.net").parse().unwrap(),
            format!("198.51.{i}.53").parse().unwrap(),
            Asn(64500),
            Deployment::Unicast,
            50_000.0,
            1_000.0,
            20.0,
        )
    };
    let shared = mk(&mut infra, 0);
    let separate = mk(&mut infra, 1);
    let v4_only = mk(&mut infra, 2);
    infra.set_dual_stack(shared, true);
    infra.set_dual_stack(separate, false);

    let mut loads = LoadBook::new();
    let w = Window(100);
    for i in 0..3u32 {
        loads.add(format!("198.51.{i}.53").parse().unwrap(), w, 5_000_000.0);
    }
    // IPv4: everything is dead.
    for ns in [shared, separate, v4_only] {
        assert!(infra.service_state(ns, w, &loads).answer_prob < 0.05);
    }
    // IPv6: the separate-infrastructure server still answers; the
    // shared-infrastructure one is just as dead; the v4-only one has no
    // v6 path at all.
    let v6_sep = infra.service_state_v6(separate, w, &loads).unwrap();
    assert_eq!(v6_sep.answer_prob, 1.0, "separate v6 infra rides out the v4 attack");
    let v6_shared = infra.service_state_v6(shared, w, &loads).unwrap();
    assert!(v6_shared.answer_prob < 0.05, "shared infra degrades on both families");
    assert!(infra.service_state_v6(v4_only, w, &loads).is_none());
}

/// §9 future work: multiple vantage points pierce the anycast catchment
/// mask that blinds the single-vantage pipeline.
#[test]
fn multi_vantage_unmasks_what_single_vantage_misses() {
    use reactive::{probe_from_fleet, VantagePoint};
    let mut infra = Infra::new();
    let addr: std::net::Ipv4Addr = "198.51.7.53".parse().unwrap();
    let _ = infra.add_nameserver(
        "ns.anycast.net".parse().unwrap(),
        addr,
        Asn(64500),
        Deployment::Anycast { sites: 30 },
        100_000.0,
        1_000.0,
        10.0,
    );
    let set = infra.intern_nsset(vec![NsId(0)]);
    let d = infra.add_domain("masked.example".parse().unwrap(), set);
    let mut loads = LoadBook::new();
    let at = SimTime::from_days(1);
    loads.add(addr, at.window(), 1_200_000.0);

    let rngs = RngFactory::new(8);
    let mut rng = rngs.stream("vantage");
    // Single (paper-current) vantage: the attack is invisible.
    let single = VantagePoint::single_nl();
    let mut missed = 0;
    for _ in 0..30 {
        let mv = probe_from_fleet(&single, &infra, d, at, &loads, &mut rng);
        if mv.resolvable_from().len() == 1 {
            missed += 1;
        }
    }
    assert!(missed >= 28, "single vantage sees a healthy deployment: {missed}/30");
    // A fleet sees the regional damage.
    let fleet = VantagePoint::default_fleet();
    let mut unmasked = 0;
    for _ in 0..30 {
        let mv = probe_from_fleet(&fleet, &infra, d, at, &loads, &mut rng);
        if mv.masked_from_primary() {
            unmasked += 1;
        }
    }
    assert!(unmasked > 8, "the fleet exposes the masked attack: {unmasked}/30");
}

/// §6.1: open resolvers listed as NS by misconfigured domains are joined
/// by the naive pipeline and must be filtered.
#[test]
fn open_resolver_filter_is_load_bearing() {
    let mut infra = Infra::new();
    let quad8 = infra.add_nameserver(
        "dns.google".parse().unwrap(),
        "8.8.8.8".parse().unwrap(),
        Asn(15169),
        Deployment::Anycast { sites: 100 },
        10_000_000.0,
        100_000.0,
        4.0,
    );
    infra.mark_open_resolver(quad8);
    let set = infra.intern_nsset(vec![quad8]);
    infra.add_domain("misconfigured.example".parse().unwrap(), set);

    let episode = telescope::AttackEpisode {
        victim: "8.8.8.8".parse().unwrap(),
        first_window: Window(288),
        last_window: Window(300),
        packets: 1_000_000,
        peak_ppm: 50_000.0,
        protocol: Protocol::Tcp,
        first_port: 53,
        unique_ports: 1,
        slash16s: 190,
    };
    let naive = join_episodes(
        &infra,
        &infra,
        std::slice::from_ref(&episode),
        &OpenResolverList::new(),
        false,
    );
    assert_eq!(naive.len(), 1, "without the filter, Quad8 counts as DNS infra");
    let mut list = OpenResolverList::new();
    list.extend_from_infra(&infra);
    let filtered = join_episodes(&infra, &infra, &[episode], &list, false);
    assert!(filtered.is_empty(), "the scan-derived filter removes it");
}
