//! The aggregate (closed-form) measurement fidelity.
//!
//! The per-query path samples each resolution; this module computes the
//! *expected* per-window statistics analytically from the same
//! [`dnssim::ServiceState`]s, by exact enumeration of the resolver's
//! retry process. The two fidelities agree by construction — a statistical
//! test in this module (and the workspace `tests/fidelity.rs`) verifies
//! the sampled path converges to these numbers.
//!
//! Use this path when only expectations are needed (huge parameter sweeps,
//! analytic baselines): it costs O(members²) per (NSSet, window) instead
//! of O(domains × attempts).

use crate::sweep::SweepSchedule;
use dnssim::{Infra, LoadBook, NsSetId, Resolver};
use simcore::time::Window;

/// Expected outcome distribution of one resolution attempt sequence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExpectedStats {
    pub p_ok: f64,
    pub p_timeout: f64,
    pub p_servfail: f64,
    /// Expected resolver wall-clock per resolution, milliseconds
    /// (including time burned on dead servers, as the store records it).
    pub expected_rtt_ms: f64,
}

impl ExpectedStats {
    /// Expected error fraction.
    pub fn failure_rate(&self) -> f64 {
        self.p_timeout + self.p_servfail
    }
}

/// Exact expectation of the resolver's outcome for `nsset` in `window`.
///
/// Mirrors `Resolver::resolve`: a uniformly random starting member, then
/// sequential attempts over the rotation, up to `max_attempts`; an
/// "answered" reply slower than the per-attempt timeout counts as a
/// timeout; SERVFAIL ends the resolution immediately.
pub fn expected_outcome(
    infra: &Infra,
    resolver: &Resolver,
    nsset: NsSetId,
    window: Window,
    loads: &LoadBook,
) -> ExpectedStats {
    let members = infra.nsset(nsset).members();
    let k = members.len();
    // Per-member terminal probabilities for one attempt.
    struct Attempt {
        p_ok: f64,
        p_servfail: f64,
        rtt_ok: f64,
        rtt_servfail: f64,
    }
    let attempts: Vec<Attempt> = members
        .iter()
        .map(|&ns| {
            let s = infra.service_state(ns, window, loads);
            let n = infra.nameserver(ns);
            let rtt = n.base_rtt_ms * s.rtt_mult;
            let answered_in_time = rtt < resolver.timeout_ms;
            Attempt {
                p_ok: if answered_in_time { s.answer_prob } else { 0.0 },
                p_servfail: s.servfail_prob,
                rtt_ok: rtt,
                rtt_servfail: n.base_rtt_ms * s.rtt_mult.min(10.0),
            }
        })
        .collect();

    let max_attempts = k.min(resolver.max_attempts as usize);
    let mut p_ok = 0.0;
    let mut p_servfail = 0.0;
    let mut e_rtt = 0.0;
    for start in 0..k {
        let p_rotation = 1.0 / k as f64;
        let mut p_alive = 1.0; // probability the resolution is still running
        let mut burned = 0.0; // accumulated timeout time along this path
        for j in 0..max_attempts {
            let a = &attempts[(start + j) % k];
            // Terminal: answered in time.
            p_ok += p_rotation * p_alive * a.p_ok;
            e_rtt += p_rotation * p_alive * a.p_ok * (burned + a.rtt_ok);
            // Terminal: SERVFAIL.
            p_servfail += p_rotation * p_alive * a.p_servfail;
            e_rtt += p_rotation * p_alive * a.p_servfail * (burned + a.rtt_servfail);
            // Continue: this attempt timed out.
            let p_timeout_here = 1.0 - a.p_ok - a.p_servfail;
            p_alive *= p_timeout_here;
            burned += resolver.timeout_ms;
        }
        // Whatever survives every attempt is a timeout with the full
        // burned budget.
        e_rtt += p_rotation * p_alive * burned;
    }
    let p_timeout = (1.0 - p_ok - p_servfail).max(0.0);
    ExpectedStats { p_ok, p_timeout, p_servfail, expected_rtt_ms: e_rtt }
}

/// Expected RTT of `nsset` over the window span `[first, last]`, each
/// window weighted by how many of the NSSet's domains the daily sweep
/// measures in it: Equation 1's aggregation in expectation, with no
/// sampling and no measurement noise. Returns `(avg_rtt_ms,
/// domains_measured)`; `domains_measured == 0` means the sweep never
/// touches the span. Windows are summed in ascending order, so the result
/// is a pure function of its inputs down to the last bit.
pub fn expected_span_rtt(
    infra: &Infra,
    schedule: &SweepSchedule,
    resolver: &Resolver,
    nsset: NsSetId,
    first: Window,
    last: Window,
    loads: &LoadBook,
) -> (f64, u64) {
    let mut counts = vec![0u64; (last.0 - first.0 + 1) as usize];
    schedule.for_each_in_window_range(infra, nsset, first, last, |_, w| {
        counts[(w.0 - first.0) as usize] += 1;
    });
    let mut num = 0.0;
    let mut n = 0u64;
    for (w, &c) in (first.0..).zip(&counts) {
        if c > 0 {
            let e = expected_outcome(infra, resolver, nsset, Window(w), loads);
            num += e.expected_rtt_ms * c as f64;
            n += c;
        }
    }
    if n == 0 {
        (0.0, 0)
    } else {
        (num / n as f64, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnssim::{Deployment, QueryStatus};
    use netbase::Asn;
    use simcore::rng::RngFactory;
    use simcore::time::WINDOWS_PER_DAY;
    use std::net::Ipv4Addr;

    fn world(k: usize, capacity: f64) -> (Infra, dnssim::DomainId, Vec<Ipv4Addr>) {
        let mut infra = Infra::new();
        let addrs: Vec<Ipv4Addr> =
            (0..k).map(|i| format!("198.51.{i}.53").parse().unwrap()).collect();
        let ids: Vec<_> = addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                infra.add_nameserver(
                    format!("ns{i}.agg.net").parse().unwrap(),
                    a,
                    Asn(64500),
                    Deployment::Unicast,
                    capacity,
                    1_000.0,
                    20.0,
                )
            })
            .collect();
        let set = infra.intern_nsset(ids);
        let d = infra.add_domain("agg.example".parse().unwrap(), set);
        (infra, d, addrs)
    }

    fn monte_carlo(
        infra: &Infra,
        resolver: &Resolver,
        domain: dnssim::DomainId,
        window: Window,
        loads: &LoadBook,
        n: usize,
    ) -> ExpectedStats {
        let rngs = RngFactory::new(77);
        let mut rng = rngs.stream("aggregate-mc");
        let mut ok = 0;
        let mut servfail = 0;
        let mut rtt = 0.0;
        for _ in 0..n {
            let out = resolver.resolve(infra, domain, window, loads, &mut rng);
            match out.status {
                QueryStatus::Ok => ok += 1,
                QueryStatus::ServFail => servfail += 1,
                QueryStatus::Timeout => {}
            }
            rtt += out.rtt_ms;
        }
        ExpectedStats {
            p_ok: ok as f64 / n as f64,
            p_servfail: servfail as f64 / n as f64,
            p_timeout: (n - ok - servfail) as f64 / n as f64,
            expected_rtt_ms: rtt / n as f64,
        }
    }

    fn assert_close(analytic: ExpectedStats, sampled: ExpectedStats, tag: &str) {
        assert!(
            (analytic.p_ok - sampled.p_ok).abs() < 0.02,
            "{tag}: p_ok {analytic:?} vs {sampled:?}"
        );
        assert!(
            (analytic.p_servfail - sampled.p_servfail).abs() < 0.01,
            "{tag}: p_servfail {analytic:?} vs {sampled:?}"
        );
        assert!(
            (analytic.expected_rtt_ms - sampled.expected_rtt_ms).abs()
                < (0.03 * analytic.expected_rtt_ms).max(2.0),
            "{tag}: rtt {analytic:?} vs {sampled:?}"
        );
    }

    #[test]
    fn healthy_world_is_certain() {
        let (infra, _, _) = world(3, 50_000.0);
        let set = infra.domain(dnssim::DomainId(0)).nsset;
        let e = expected_outcome(&infra, &Resolver::default(), set, Window(0), &LoadBook::new());
        assert!((e.p_ok - 1.0).abs() < 1e-9);
        assert_eq!(e.p_timeout, 0.0);
        assert!((e.expected_rtt_ms - 20.0).abs() < 1.0);
        assert_eq!(e.failure_rate(), 0.0);
    }

    #[test]
    fn agrees_with_monte_carlo_under_partial_attack() {
        let (infra, d, addrs) = world(3, 50_000.0);
        let set = infra.domain(d).nsset;
        let mut loads = LoadBook::new();
        let w = Window(10);
        loads.add(addrs[0], w, 150_000.0); // ns0 at ρ≈3
        loads.add(addrs[1], w, 40_000.0); // ns1 at ρ≈0.8
        let resolver = Resolver::default();
        let analytic = expected_outcome(&infra, &resolver, set, w, &loads);
        let sampled = monte_carlo(&infra, &resolver, d, w, &loads, 40_000);
        assert_close(analytic, sampled, "partial");
    }

    #[test]
    fn agrees_with_monte_carlo_under_saturation() {
        let (infra, d, addrs) = world(3, 50_000.0);
        let set = infra.domain(d).nsset;
        let mut loads = LoadBook::new();
        let w = Window(11);
        for &a in &addrs {
            loads.add(a, w, 400_000.0);
        }
        let resolver = Resolver::default();
        let analytic = expected_outcome(&infra, &resolver, set, w, &loads);
        let sampled = monte_carlo(&infra, &resolver, d, w, &loads, 40_000);
        assert_close(analytic, sampled, "saturated");
        assert!(analytic.p_timeout > 0.3, "saturation produces timeouts: {analytic:?}");
    }

    #[test]
    fn agrees_for_single_member_single_attempt() {
        let (infra, d, addrs) = world(1, 50_000.0);
        let set = infra.domain(d).nsset;
        let mut loads = LoadBook::new();
        let w = Window(12);
        loads.add(addrs[0], w, 99_000.0); // ρ = 2 → ans 0.5
        let resolver = Resolver { max_attempts: 1, ..Resolver::default() };
        let analytic = expected_outcome(&infra, &resolver, set, w, &loads);
        assert!((analytic.p_ok - 0.5).abs() < 0.02, "{analytic:?}");
        let sampled = monte_carlo(&infra, &resolver, d, w, &loads, 40_000);
        assert_close(analytic, sampled, "single");
    }

    #[test]
    fn slow_answers_count_as_timeouts() {
        // A server whose loaded RTT exceeds the per-attempt timeout never
        // contributes p_ok, even though it technically answers.
        let mut infra = Infra::new();
        let addr: Ipv4Addr = "198.51.0.53".parse().unwrap();
        let _ = infra.add_nameserver(
            "slow.example".parse().unwrap(),
            addr,
            Asn(64500),
            Deployment::Unicast,
            50_000.0,
            1_000.0,
            60.0, // 60 ms base: 30x queue cap → 1800 ms ≥ 1500 ms timeout
        );
        let set = infra.intern_nsset(vec![dnssim::NsId(0)]);
        infra.add_domain("slow.example".parse().unwrap(), set);
        let mut loads = LoadBook::new();
        let w = Window(13);
        loads.add(addr, w, 48_500.0); // ρ=0.99 → mult capped at 30
        let e = expected_outcome(&infra, &Resolver::default(), set, w, &loads);
        assert_eq!(e.p_ok, 0.0, "{e:?}");
        assert!(e.p_timeout > 0.9);
    }

    #[test]
    fn analytic_impact_matches_sampled_pipeline() {
        use crate::measure::measure_domains;
        use crate::store::MeasurementStore;
        // A TransIP-shaped fixture: three unicast servers at ρ≈0.9 for two
        // hours on day 4.
        let (infra, _d, addrs) = world(3, 50_000.0);
        let set = infra.domain(dnssim::DomainId(0)).nsset;
        // Re-register enough domains for per-window coverage.
        let mut infra = infra;
        for i in 0..6_000 {
            infra.add_domain(format!("bulk{i}.example").parse().unwrap(), set);
        }
        let schedule = SweepSchedule::new(7);
        let resolver = Resolver::default();
        let first = Window(4 * WINDOWS_PER_DAY + 100);
        let last = Window(first.0 + 23);
        let mut loads = LoadBook::new();
        for w in first.0..=last.0 {
            for &a in &addrs {
                loads.add(a, Window(w), 44_000.0);
            }
        }
        let (during, _) = expected_span_rtt(&infra, &schedule, &resolver, set, first, last, &loads);
        let day_before = first.day() - 1;
        let (base, n) = expected_span_rtt(
            &infra,
            &schedule,
            &resolver,
            set,
            Window(day_before * WINDOWS_PER_DAY),
            Window((day_before + 1) * WINDOWS_PER_DAY - 1),
            &loads,
        );
        assert!(n > 0 && base > 0.0, "baseline exists");
        let analytic = during / base;
        assert!(analytic > 5.0, "attack inflates expected impact: {analytic:.2}");

        // Sampled pipeline on the same cells.
        let rngs = RngFactory::new(31);
        let mut store = MeasurementStore::new();
        for w in first.0..=last.0 {
            let ds = schedule.domains_in_window(&infra, set, Window(w));
            store.ingest(&measure_domains(&infra, &resolver, &ds, set, Window(w), &loads, &rngs));
        }
        for w in (day_before * WINDOWS_PER_DAY)..((day_before + 1) * WINDOWS_PER_DAY) {
            let ds = schedule.domains_in_window(&infra, set, Window(w));
            store.ingest(&measure_domains(&infra, &resolver, &ds, set, Window(w), &loads, &rngs));
        }
        let sampled = store.impact_on_rtt(set, first, last).expect("sampled impact");
        assert!(
            (analytic - sampled).abs() / sampled < 0.1,
            "analytic {analytic:.2} vs sampled {sampled:.2}"
        );
    }

    #[test]
    fn probabilities_always_normalize() {
        // Sweep a load grid; the three outcome probabilities must sum to 1.
        let (infra, d, addrs) = world(4, 30_000.0);
        let set = infra.domain(d).nsset;
        for (i, load) in [0.0, 10_000.0, 29_000.0, 60_000.0, 500_000.0].iter().enumerate() {
            let mut loads = LoadBook::new();
            let w = Window(20 + i as u64);
            for &a in &addrs {
                loads.add(a, w, *load);
            }
            let e = expected_outcome(&infra, &Resolver::default(), set, w, &loads);
            let total = e.p_ok + e.p_timeout + e.p_servfail;
            assert!((total - 1.0).abs() < 1e-9, "load {load}: {e:?}");
            assert!(e.expected_rtt_ms >= 0.0);
        }
    }
}
