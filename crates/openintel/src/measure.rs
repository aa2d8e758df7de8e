//! Executing measurements.

use crate::sweep::SweepSchedule;
use dnssim::{DomainId, Infra, LoadBook, NsId, NsSetId, QueryStatus, Resolver, ServiceState};
use simcore::rng::{IndexedStreams, RngFactory};
use simcore::time::Window;

/// One measurement row, as the platform's storage records it.
#[derive(Clone, Debug, PartialEq)]
pub struct MeasurementRec {
    pub domain: DomainId,
    pub nsset: NsSetId,
    pub window: Window,
    pub rtt_ms: f64,
    pub status: QueryStatus,
}

/// Measure every scheduled domain of `nsset` in `window`, returning the
/// individual rows. Deterministic per (seed, domain, window).
pub fn measure_window(
    infra: &Infra,
    schedule: &SweepSchedule,
    resolver: &Resolver,
    nsset: NsSetId,
    window: Window,
    loads: &LoadBook,
    rngs: &RngFactory,
) -> Vec<MeasurementRec> {
    let domains = schedule.domains_in_window(infra, nsset, window);
    measure_domains(infra, resolver, &domains, nsset, window, loads, rngs)
}

/// Measure an explicit set of domains in `window` (used by the lazy
/// longitudinal runner).
pub fn measure_domains(
    infra: &Infra,
    resolver: &Resolver,
    domains: &[DomainId],
    nsset: NsSetId,
    window: Window,
    loads: &LoadBook,
    rngs: &RngFactory,
) -> Vec<MeasurementRec> {
    let streams = rngs.indexed("openintel-query");
    // `Infra::service_state` is a function of (server, window, loads) alone,
    // so the domains of a cell, which share their few servers, compute each
    // state once.
    let mut states = ServerMemo::new();
    let mut state_of = |ns| states.get(ns, || infra.service_state(ns, window, loads));
    domains
        .iter()
        .map(|&d| measure_one(infra, resolver, &streams, d, nsset, window, &mut state_of))
        .collect()
}

/// Measure a baseline: each of `domains` once, in the window the sweep
/// gives it on `day`, rows in `domains` order. Equal, record for record and
/// RNG draw for RNG draw, to one [`measure_domains`] call per domain, but
/// a server whose /24 carries no load on `day` answers every probe of the
/// day from one state ([`Infra::quiet_day_state`]); a server that is loaded
/// that day is computed per probe, as every server was.
#[allow(clippy::too_many_arguments)]
pub fn measure_baseline(
    infra: &Infra,
    schedule: &SweepSchedule,
    resolver: &Resolver,
    domains: &[DomainId],
    nsset: NsSetId,
    day: u64,
    loads: &LoadBook,
    rngs: &RngFactory,
) -> Vec<MeasurementRec> {
    let streams = rngs.indexed("openintel-query");
    let mut quiet = ServerMemo::new();
    domains
        .iter()
        .map(|&d| {
            let window = schedule.window_on_day(d, day);
            let state_of = |ns| day_state(infra, &mut quiet, ns, day, window, loads);
            measure_one(infra, resolver, &streams, d, nsset, window, state_of)
        })
        .collect()
}

/// One measurement row: `domain` resolved in `window` on its own
/// `(domain, window)` RNG stream.
fn measure_one(
    infra: &Infra,
    resolver: &Resolver,
    streams: &IndexedStreams,
    domain: DomainId,
    nsset: NsSetId,
    window: Window,
    state_of: impl FnMut(NsId) -> ServiceState,
) -> MeasurementRec {
    let mut rng = streams.stream((domain.0 as u64) << 32 | window.0 & 0xFFFF_FFFF);
    let q = resolver.resolve_with(infra, domain, &mut rng, state_of);
    MeasurementRec { domain, nsset, window, rtt_ms: q.rtt_ms, status: q.status }
}

/// `ns`'s state in `window` of `day` through the baseline's memo, which
/// holds per server the day's one state, or that the day is a loaded one.
/// Keyed by server, not by NSSet: a parent/child-inconsistent domain
/// resolves through another set's members.
fn day_state(
    infra: &Infra,
    quiet: &mut ServerMemo<Option<ServiceState>>,
    ns: NsId,
    day: u64,
    window: Window,
    loads: &LoadBook,
) -> ServiceState {
    quiet
        .get(ns, || infra.quiet_day_state(ns, day, loads))
        .unwrap_or_else(|| infra.service_state(ns, window, loads))
}

/// What one measurement call has worked out per nameserver. Holds the
/// first eight distinct servers without allocating; a server beyond them
/// is computed per query.
struct ServerMemo<V>([Option<(NsId, V)>; 8]);

impl<V: Copy> ServerMemo<V> {
    fn new() -> ServerMemo<V> {
        ServerMemo([None; 8])
    }

    fn get(&mut self, ns: NsId, compute: impl FnOnce() -> V) -> V {
        for slot in &mut self.0 {
            match slot {
                Some((held, value)) if *held == ns => return *value,
                Some(_) => {}
                None => {
                    let value = compute();
                    *slot = Some((ns, value));
                    return value;
                }
            }
        }
        compute()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnssim::Deployment;
    use netbase::Asn;
    use std::net::Ipv4Addr;

    fn world() -> (Infra, NsSetId, Vec<Ipv4Addr>) {
        let mut infra = Infra::new();
        let addrs: Vec<Ipv4Addr> =
            vec!["198.51.100.1".parse().unwrap(), "203.0.113.1".parse().unwrap()];
        let ids: Vec<_> = addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                infra.add_nameserver(
                    format!("ns{i}.host.net").parse().unwrap(),
                    a,
                    Asn(64500 + i as u32),
                    Deployment::Unicast,
                    50_000.0,
                    500.0,
                    18.0,
                )
            })
            .collect();
        let set = infra.intern_nsset(ids);
        for i in 0..2_000 {
            infra.add_domain(format!("d{i}.example").parse().unwrap(), set);
        }
        (infra, set, addrs)
    }

    #[test]
    fn healthy_window_all_ok() {
        let (infra, set, _) = world();
        let sched = SweepSchedule::new(1);
        let recs = measure_window(
            &infra,
            &sched,
            &Resolver::default(),
            set,
            Window(100),
            &LoadBook::new(),
            &RngFactory::new(5),
        );
        assert!(!recs.is_empty());
        for r in &recs {
            assert_eq!(r.status, QueryStatus::Ok);
            assert!(r.rtt_ms > 0.0 && r.rtt_ms < 100.0);
            assert_eq!(r.nsset, set);
            assert!(sched.measures_in(r.domain, Window(100)));
        }
    }

    #[test]
    fn attacked_window_shows_impairment() {
        let (infra, set, addrs) = world();
        let sched = SweepSchedule::new(1);
        let mut loads = LoadBook::new();
        for a in &addrs {
            loads.add(*a, Window(100), 48_000.0); // ρ≈0.97 on both servers
        }
        let healthy = measure_window(
            &infra,
            &sched,
            &Resolver::default(),
            set,
            Window(388), // same window-of-day next day, unattacked
            &LoadBook::new(),
            &RngFactory::new(5),
        );
        let attacked = measure_window(
            &infra,
            &sched,
            &Resolver::default(),
            set,
            Window(100),
            &loads,
            &RngFactory::new(5),
        );
        let avg =
            |rs: &[MeasurementRec]| rs.iter().map(|r| r.rtt_ms).sum::<f64>() / rs.len() as f64;
        assert!(
            avg(&attacked) > 5.0 * avg(&healthy),
            "attack inflates RTT: {} vs {}",
            avg(&attacked),
            avg(&healthy)
        );
    }

    #[test]
    fn measurements_deterministic() {
        let (infra, set, _) = world();
        let sched = SweepSchedule::new(1);
        let run = || {
            measure_window(
                &infra,
                &sched,
                &Resolver::default(),
                set,
                Window(50),
                &LoadBook::new(),
                &RngFactory::new(9),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn explicit_domain_list_is_respected() {
        let (infra, set, _) = world();
        let domains = vec![DomainId(1), DomainId(2), DomainId(3)];
        let recs = measure_domains(
            &infra,
            &Resolver::default(),
            &domains,
            set,
            Window(10),
            &LoadBook::new(),
            &RngFactory::new(1),
        );
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].domain, DomainId(1));
    }

    /// Three NSSets of four servers (twelve: more than the memo holds), every
    /// server loaded differently in `window`, `per_set` domains on each.
    fn loaded_world(per_set: u32, window: Window) -> (Infra, LoadBook, Vec<DomainId>) {
        let mut infra = Infra::new();
        let mut loads = LoadBook::new();
        let mut domains = Vec::new();
        for set in 0..3u8 {
            let ids: Vec<_> = (0..4u8)
                .map(|i| {
                    let addr = Ipv4Addr::new(198, 51, 100 + set, 1 + i);
                    // From idle to five times capacity.
                    loads.add(addr, window, 12_000.0 * (set * 4 + i) as f64);
                    infra.add_nameserver(
                        format!("ns{i}.host{set}.net").parse().unwrap(),
                        addr,
                        Asn(64500 + set as u32),
                        Deployment::Unicast,
                        30_000.0,
                        500.0,
                        18.0,
                    )
                })
                .collect();
            let nsset = infra.intern_nsset(ids);
            for d in 0..per_set {
                domains.push(
                    infra.add_domain(format!("d{d}.set{set}.example").parse().unwrap(), nsset),
                );
            }
        }
        (infra, loads, domains)
    }

    #[test]
    fn memoised_measurement_equals_a_per_domain_resolve_loop() {
        use rand::Rng;
        let window = Window(4_321);
        let (infra, loads, mut domains) = loaded_world(150, window);
        // Interleave the three NSSets, so the memo fills with all of them.
        domains.sort_by_key(|d| (d.0 % 150, d.0));
        let resolver = Resolver::default();
        let rngs = RngFactory::new(77);
        let nsset = NsSetId(0);
        let got = measure_domains(&infra, &resolver, &domains, nsset, window, &loads, &rngs);

        let stream_of =
            |d: DomainId| rngs.stream_indexed("openintel-query", (d.0 as u64) << 32 | window.0);
        let mut states = ServerMemo::new();
        let mut statuses = std::collections::HashSet::new();
        for (rec, &d) in got.iter().zip(&domains) {
            let mut plain_rng = stream_of(d);
            let q = resolver.resolve(&infra, d, window, &loads, &mut plain_rng);
            let want =
                MeasurementRec { domain: d, nsset, window, rtt_ms: q.rtt_ms, status: q.status };
            assert_eq!(rec, &want);
            assert_eq!(rec.rtt_ms.to_bits(), want.rtt_ms.to_bits());
            // The memoised resolution draws exactly what the plain one does.
            let mut memo_rng = stream_of(d);
            let state_of = |ns| states.get(ns, || infra.service_state(ns, window, &loads));
            assert_eq!(resolver.resolve_with(&infra, d, &mut memo_rng, state_of), q);
            assert_eq!(memo_rng.random::<u64>(), plain_rng.random::<u64>());
            statuses.insert(q.status);
        }
        assert_eq!(got.len(), 450);
        assert_eq!(statuses.len(), 3, "the loads cover OK, TIMEOUT and SERVFAIL: {statuses:?}");
        assert!(states.0.iter().all(Option::is_some), "twelve servers overflow the eight slots");
    }

    /// The baseline differential's world: NSSet A of twelve servers (more
    /// than the memo holds), each in a /24 of its own; NSSet B of two
    /// servers elsewhere; 300 domains on A, twenty more whose parent-side
    /// delegation points at B (they resolve through B's members and are
    /// recorded under A). The first server's /24 has a tight uplink.
    fn baseline_world() -> (Infra, NsSetId, Vec<Ipv4Addr>, Vec<Ipv4Addr>) {
        let mut infra = Infra::new();
        let add = |infra: &mut Infra, label: &str, addrs: &[Ipv4Addr]| {
            let ids = addrs
                .iter()
                .enumerate()
                .map(|(i, &a)| {
                    infra.add_nameserver(
                        format!("ns{i}.{label}.net").parse().unwrap(),
                        a,
                        Asn(64500),
                        Deployment::Unicast,
                        30_000.0,
                        500.0,
                        18.0,
                    )
                })
                .collect();
            infra.intern_nsset(ids)
        };
        let a_addrs: Vec<Ipv4Addr> = (0..12).map(|i| Ipv4Addr::new(198, 51, 100 + i, 10)).collect();
        let b_addrs: Vec<Ipv4Addr> = (0..2).map(|i| Ipv4Addr::new(203, 0, 113 + i, 10)).collect();
        let a = add(&mut infra, "a", &a_addrs);
        let b = add(&mut infra, "b", &b_addrs);
        for d in 0..300 {
            infra.add_domain(format!("d{d}.example").parse().unwrap(), a);
        }
        for d in 0..20 {
            infra.add_domain_inconsistent(format!("lame{d}.example").parse().unwrap(), a, b);
        }
        infra.set_uplink(dnssim::Uplink::new(netbase::Slash24::of(a_addrs[0]), 100_000.0));
        (infra, a, a_addrs, b_addrs)
    }

    /// What `measure_baseline` replaced: one `measure_domains` call per
    /// probe, each with its own buffer and its own per-window memo.
    fn per_probe_loop(
        infra: &Infra,
        schedule: &SweepSchedule,
        domains: &[DomainId],
        nsset: NsSetId,
        day: u64,
        loads: &LoadBook,
        rngs: &RngFactory,
    ) -> Vec<MeasurementRec> {
        let mut recs = Vec::new();
        for &d in domains {
            let w = schedule.window_on_day(d, day);
            recs.extend(measure_domains(infra, &Resolver::default(), &[d], nsset, w, loads, rngs));
        }
        recs
    }

    #[test]
    fn one_call_baseline_equals_the_per_probe_loop() {
        use rand::Rng;
        const DAY: u64 = 40;
        let (infra, nsset, a_addrs, b_addrs) = baseline_world();
        let schedule = SweepSchedule::new(3);
        let resolver = Resolver::default();
        let rngs = RngFactory::new(19);
        let domains = infra.domains_of_nsset(nsset).to_vec();
        assert_eq!(domains.len(), 320);
        let windows_of = |day: u64| (day * 288..(day + 1) * 288).map(Window);

        // Quiet: the day itself carries nothing; its neighbours are
        // saturated, so a memo that confused days would show.
        let mut quiet = LoadBook::new();
        for w in windows_of(DAY - 1).chain(windows_of(DAY + 1)) {
            for &addr in a_addrs.iter().chain(&b_addrs) {
                quiet.add(addr, w, 90_000.0);
            }
        }
        // Loaded: half of A's servers and one of B's, from idle to three
        // times capacity, on two stretches of the day; the rest stay quiet.
        let mut loaded = LoadBook::new();
        for w in windows_of(DAY).filter(|w| w.0 % 288 < 90 || w.0 % 288 > 200) {
            for (i, &addr) in a_addrs.iter().take(6).chain(&b_addrs[..1]).enumerate() {
                loaded.add(addr, w, 15_000.0 * i as f64);
            }
        }
        // Neighbour: only a non-nameserver address beside A's first server
        // is attacked, over that /24's tight uplink.
        let mut neighbour = LoadBook::new();
        for w in windows_of(DAY) {
            neighbour.add(Ipv4Addr::new(198, 51, 100, 200), w, 400_000.0);
        }

        let baseline = |loads: &LoadBook| {
            measure_baseline(&infra, &schedule, &resolver, &domains, nsset, DAY, loads, &rngs)
        };
        let quiet_recs = baseline(&quiet);
        assert!(quiet_recs.iter().all(|r| r.status == QueryStatus::Ok && r.nsset == nsset));
        for (name, loads) in [("quiet", &quiet), ("loaded", &loaded), ("neighbour", &neighbour)] {
            let got = baseline(loads);
            let want = per_probe_loop(&infra, &schedule, &domains, nsset, DAY, loads, &rngs);
            assert_eq!(got, want, "{name}");
            let bits =
                |rs: &[MeasurementRec]| rs.iter().map(|r| r.rtt_ms.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{name}");
            if name != "quiet" {
                assert_ne!(got, quiet_recs, "{name}: the day's load reaches the records");
            }

            // Each probe's RNG is left where the plain resolution leaves it.
            let mut memo = ServerMemo::new();
            for &d in &domains {
                let w = schedule.window_on_day(d, DAY);
                let stream = || rngs.stream_indexed("openintel-query", (d.0 as u64) << 32 | w.0);
                let (mut memo_rng, mut plain_rng) = (stream(), stream());
                let state_of = |ns| day_state(&infra, &mut memo, ns, DAY, w, loads);
                assert_eq!(
                    resolver.resolve_with(&infra, d, &mut memo_rng, state_of),
                    resolver.resolve(&infra, d, w, loads, &mut plain_rng),
                    "{name}"
                );
                assert_eq!(memo_rng.random::<u64>(), plain_rng.random::<u64>(), "{name}");
            }
            assert!(memo.0.iter().all(Option::is_some), "fourteen servers overflow the memo");
            // The memo holds the day's state for a quiet server, and that
            // the day is a loaded one for any other.
            let held_loaded = memo.0.iter().flatten().filter(|(_, s)| s.is_none()).count();
            assert_eq!(held_loaded == 0, name == "quiet", "{name}: {held_loaded} held as loaded");
        }
    }
}
