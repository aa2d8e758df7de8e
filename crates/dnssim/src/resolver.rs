//! The unbound-like measurement resolver.
//!
//! OpenINTEL resolves through unbound with an *agnostic* nameserver choice:
//! for each domain's first query it picks an authoritative nameserver at
//! random (§3.2). We reproduce that: a query goes to a uniformly random
//! member of the domain's NSSet; on timeout the resolver retries other
//! members (up to a bound), which is how real resolvers mask single-server
//! failures; SERVFAIL is surfaced immediately.
//!
//! The outcome RTT accumulates the time burned on dead servers — during the
//! TransIP attacks that accumulation is exactly the 10× resolution-time
//! blow-up OpenINTEL measured.

use crate::ids::{DomainId, NsId};
use crate::infra::{Infra, LoadBook};
use crate::load::ServiceState;
use rand::Rng;
use simcore::time::Window;

/// Terminal status of one resolution attempt, matching OpenINTEL's status
/// taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueryStatus {
    /// Authoritative answer received.
    Ok,
    /// All attempts timed out.
    Timeout,
    /// The server answered SERVFAIL.
    ServFail,
}

/// Outcome of resolving one domain once.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryOutcome {
    pub status: QueryStatus,
    /// Total wall-clock resolution time in milliseconds, including time
    /// wasted on servers that never answered.
    pub rtt_ms: f64,
    /// How many servers were contacted.
    pub attempts: u32,
}

/// Resolver configuration.
#[derive(Clone, Copy, Debug)]
pub struct Resolver {
    /// Per-attempt timeout in milliseconds.
    pub timeout_ms: f64,
    /// Maximum servers tried before giving up with TIMEOUT.
    pub max_attempts: u32,
}

impl Default for Resolver {
    fn default() -> Resolver {
        // unbound defaults in the OpenINTEL deployment: ~1.5 s usable
        // per-server budget, and it will move on to other servers.
        Resolver { timeout_ms: 1_500.0, max_attempts: 3 }
    }
}

impl Resolver {
    /// Resolve `domain`'s NS RRset during `window`, drawing outcomes from
    /// each contacted server's [`ServiceState`].
    pub fn resolve<R: Rng + ?Sized>(
        &self,
        infra: &Infra,
        domain: DomainId,
        window: Window,
        loads: &LoadBook,
        rng: &mut R,
    ) -> QueryOutcome {
        self.resolve_with(infra, domain, rng, |ns| infra.service_state(ns, window, loads))
    }

    /// The resolution itself, over the caller's view of the servers:
    /// `state_of` answers for each contacted server (a caller resolving many
    /// domains in one window computes each server's state once). Draws from
    /// `rng` exactly as [`Resolver::resolve`] does.
    pub fn resolve_with<R: Rng + ?Sized>(
        &self,
        infra: &Infra,
        domain: DomainId,
        rng: &mut R,
        mut state_of: impl FnMut(NsId) -> ServiceState,
    ) -> QueryOutcome {
        // Resolution must go through the parent-side delegation when it
        // disagrees with the child zone (§3.2): the parent decides which
        // servers a cold-cache resolver can reach.
        let nsset = infra.domain(domain).query_nsset();
        let members = infra.nsset(nsset).members();
        let mut rtt_total = 0.0;
        let mut attempts = 0;
        // Random starting member, then rotate — unbound tries servers it
        // has not yet failed on.
        let start = rng.random_range(0..members.len());
        for k in 0..members.len().min(self.max_attempts as usize) {
            let ns = members[(start + k) % members.len()];
            attempts += 1;
            let state = state_of(ns);
            let (status, rtt_ms) = match self.one_attempt(infra, ns, &state, rng) {
                AttemptResult::Answered(rtt) => (QueryStatus::Ok, rtt),
                AttemptResult::ServFail(rtt) => (QueryStatus::ServFail, rtt),
                AttemptResult::Timeout => {
                    rtt_total += self.timeout_ms;
                    continue;
                }
            };
            return QueryOutcome { status, rtt_ms: rtt_total + rtt_ms, attempts };
        }
        QueryOutcome { status: QueryStatus::Timeout, rtt_ms: rtt_total, attempts }
    }

    fn one_attempt<R: Rng + ?Sized>(
        &self,
        infra: &Infra,
        ns: NsId,
        state: &ServiceState,
        rng: &mut R,
    ) -> AttemptResult {
        let u: f64 = rng.random();
        let n = infra.nameserver(ns);
        if u < state.answer_prob {
            // Loaded-server response time, capped by what fits in the
            // attempt timeout (a reply slower than the timeout is a
            // timeout).
            let rtt = n.base_rtt_ms * state.rtt_mult;
            if rtt >= self.timeout_ms {
                return AttemptResult::Timeout;
            }
            AttemptResult::Answered(rtt)
        } else if u < state.answer_prob + state.servfail_prob {
            AttemptResult::ServFail(n.base_rtt_ms * state.rtt_mult.min(10.0))
        } else {
            AttemptResult::Timeout
        }
    }
}

enum AttemptResult {
    Answered(f64),
    ServFail(f64),
    Timeout,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::Deployment;
    use netbase::Asn;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::net::Ipv4Addr;

    fn world(capacity: f64) -> (Infra, DomainId, Vec<Ipv4Addr>) {
        let mut infra = Infra::new();
        let addrs: Vec<Ipv4Addr> = vec![
            "195.135.195.195".parse().unwrap(),
            "195.8.195.195".parse().unwrap(),
            "37.97.199.195".parse().unwrap(),
        ];
        let ids: Vec<_> = addrs
            .iter()
            .enumerate()
            .map(|(i, &addr)| {
                infra.add_nameserver(
                    format!("ns{i}.transip.net").parse().unwrap(),
                    addr,
                    Asn(20857),
                    Deployment::Unicast,
                    capacity,
                    1_000.0,
                    15.0,
                )
            })
            .collect();
        let set = infra.intern_nsset(ids);
        let d = infra.add_domain("klant.nl".parse().unwrap(), set);
        (infra, d, addrs)
    }

    #[test]
    fn healthy_world_resolves_fast() {
        let (infra, d, _) = world(50_000.0);
        let book = LoadBook::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let r = Resolver::default();
        for _ in 0..200 {
            let out = r.resolve(&infra, d, Window(0), &book, &mut rng);
            assert_eq!(out.status, QueryStatus::Ok);
            assert!(out.rtt_ms < 20.0, "rtt {}", out.rtt_ms);
            assert_eq!(out.attempts, 1);
        }
    }

    #[test]
    fn saturated_world_times_out() {
        let (infra, d, addrs) = world(50_000.0);
        let mut book = LoadBook::new();
        for a in &addrs {
            book.add(*a, Window(0), 5_000_000.0); // 100x capacity
        }
        let mut rng = SmallRng::seed_from_u64(2);
        let r = Resolver::default();
        let mut timeouts = 0;
        let n = 500;
        for _ in 0..n {
            let out = r.resolve(&infra, d, Window(0), &book, &mut rng);
            if out.status == QueryStatus::Timeout {
                timeouts += 1;
                // Wasted the full budget on all attempts.
                assert!(out.rtt_ms >= r.timeout_ms * out.attempts as f64 - 1e-9);
            }
        }
        assert!(timeouts > n * 8 / 10, "only {timeouts}/{n} timed out");
    }

    #[test]
    fn partial_attack_inflates_rtt_but_resolves() {
        let (infra, d, addrs) = world(50_000.0);
        let mut book = LoadBook::new();
        // ρ ≈ 0.92 on every server → ~12x RTT, no loss.
        for a in &addrs {
            book.add(*a, Window(0), 45_000.0);
        }
        let mut rng = SmallRng::seed_from_u64(3);
        let r = Resolver::default();
        let mut sum = 0.0;
        let n = 300;
        for _ in 0..n {
            let out = r.resolve(&infra, d, Window(0), &book, &mut rng);
            assert_eq!(out.status, QueryStatus::Ok);
            sum += out.rtt_ms;
        }
        let avg = sum / n as f64;
        assert!(avg > 100.0, "expected ~10x of 15ms baseline, got {avg}");
    }

    #[test]
    fn one_dead_server_masked_by_retries() {
        let (infra, d, addrs) = world(50_000.0);
        let mut book = LoadBook::new();
        book.add(addrs[0], Window(0), 50_000_000.0); // only ns0 dead
        let mut rng = SmallRng::seed_from_u64(4);
        let r = Resolver::default();
        let mut ok = 0;
        let mut slow = 0;
        let n = 600;
        for _ in 0..n {
            let out = r.resolve(&infra, d, Window(0), &book, &mut rng);
            if out.status == QueryStatus::Ok {
                ok += 1;
                if out.rtt_ms > 1_000.0 {
                    slow += 1; // burned a timeout on the dead server first
                }
            }
        }
        assert!(ok > n * 95 / 100, "retries should mask one dead server: {ok}/{n}");
        // About a third of queries start at the dead server.
        assert!(slow > n / 5, "some queries should pay the timeout: {slow}");
    }

    #[test]
    fn inconsistent_parent_gates_reachability() {
        // Child zone lists three healthy servers, but the parent (TLD)
        // delegation still points at a single stale server. When that
        // stale server is attacked, resolution fails even though the
        // authoritative NS set looks perfectly healthy — the reason
        // OpenINTEL issues explicit NS queries and why lame delegations
        // hurt resilience.
        let (mut infra, _d, _addrs) = world(50_000.0);
        let stale_addr: Ipv4Addr = "203.0.113.199".parse().unwrap();
        let stale = infra.add_nameserver(
            "old-ns.transip.net".parse().unwrap(),
            stale_addr,
            Asn(20857),
            Deployment::Unicast,
            50_000.0,
            1_000.0,
            15.0,
        );
        let child = infra.domain(DomainId(0)).nsset;
        let parent = infra.intern_nsset(vec![stale]);
        let d2 = infra.add_domain_inconsistent("legacy.nl".parse().unwrap(), child, parent);
        assert!(infra.domain(d2).is_inconsistent());
        assert_eq!(infra.domain(d2).query_nsset(), parent);

        let mut book = LoadBook::new();
        book.add(stale_addr, Window(0), 50_000_000.0); // stale server dead
        let mut rng = SmallRng::seed_from_u64(17);
        let r = Resolver::default();
        let mut failures = 0;
        for _ in 0..100 {
            if r.resolve(&infra, d2, Window(0), &book, &mut rng).status != QueryStatus::Ok {
                failures += 1;
            }
        }
        assert!(failures > 95, "healthy child set cannot save a lame parent: {failures}/100");

        // A consistent sibling domain on the same child set is unaffected.
        let out = r.resolve(&infra, DomainId(0), Window(0), &book, &mut rng);
        assert_eq!(out.status, QueryStatus::Ok);
    }

    #[test]
    fn servfail_surfaces() {
        let (infra, d, addrs) = world(50_000.0);
        let mut book = LoadBook::new();
        for a in &addrs {
            book.add(*a, Window(0), 500_000.0); // ~10x capacity: heavy loss
        }
        let mut rng = SmallRng::seed_from_u64(6);
        let r = Resolver::default();
        let mut saw_servfail = false;
        for _ in 0..2_000 {
            if r.resolve(&infra, d, Window(0), &book, &mut rng).status == QueryStatus::ServFail {
                saw_servfail = true;
                break;
            }
        }
        assert!(saw_servfail, "8% of failures should be SERVFAIL");
    }
}
