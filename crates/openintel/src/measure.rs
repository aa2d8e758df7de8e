//! Executing measurements.

use crate::sweep::SweepSchedule;
use dnssim::{DomainId, Infra, LoadBook, NsId, NsSetId, QueryStatus, Resolver, ServiceState};
use simcore::rng::RngFactory;
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
/// longitudinal runner and by baseline materialization).
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
    let mut states = WindowStates::default();
    let mut state_of = |ns| states.get(infra, ns, window, loads);
    let mut out = Vec::with_capacity(domains.len());
    for &d in domains {
        let mut rng = streams.stream((d.0 as u64) << 32 | window.0 & 0xFFFF_FFFF);
        let q = resolver.resolve_with(infra, d, &mut rng, &mut state_of, |_| {});
        out.push(MeasurementRec { domain: d, nsset, window, rtt_ms: q.rtt_ms, status: q.status });
    }
    out
}

/// `Infra::service_state` of the nameservers met while measuring one
/// window: a function of (server, window, loads) alone, so the domains of a
/// cell, which share their few servers, compute each state once. Holds the
/// first eight distinct servers without allocating (a one-domain baseline
/// probe pays nothing for it); a server beyond them is computed per query,
/// as every server was before.
#[derive(Default)]
struct WindowStates([Option<(NsId, ServiceState)>; 8]);

impl WindowStates {
    fn get(&mut self, infra: &Infra, ns: NsId, window: Window, loads: &LoadBook) -> ServiceState {
        for slot in &mut self.0 {
            match slot {
                Some((held, state)) if *held == ns => return *state,
                Some(_) => {}
                None => {
                    let state = infra.service_state(ns, window, loads);
                    *slot = Some((ns, state));
                    return state;
                }
            }
        }
        infra.service_state(ns, window, loads)
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
        let mut states = WindowStates::default();
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
            let state_of = |ns| states.get(&infra, ns, window, &loads);
            assert_eq!(resolver.resolve_with(&infra, d, &mut memo_rng, state_of, |_| {}), q);
            assert_eq!(memo_rng.random::<u64>(), plain_rng.random::<u64>());
            statuses.insert(q.status);
        }
        assert_eq!(got.len(), 450);
        assert_eq!(statuses.len(), 3, "the loads cover OK, TIMEOUT and SERVFAIL: {statuses:?}");
        assert!(states.0.iter().all(Option::is_some), "twelve servers overflow the eight slots");
    }
}
