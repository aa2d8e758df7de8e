//! Steps 2–3 of the methodology: victim IPs → nameservers under attack →
//! NSSets and domains under attack.
//!
//! The paper joins each attack against the nameserver list *of the day
//! before the attack* so that nameservers rendered unreachable by the
//! attack itself are not missing from the join (§4.2). The
//! [`NsDirectory`] abstraction captures that day-indexed view; with a
//! static simulated infrastructure every day resolves identically, but the
//! previous-day semantics (and the ablation bench that flips it) go
//! through this interface.

use census::OpenResolverList;
use dnssim::{Infra, NsId, NsSetId};
use simcore::time::Month;
use std::collections::HashSet;
use std::net::Ipv4Addr;
use telescope::AttackEpisode;

/// Day-indexed view of "which nameserver answers at this IP?".
pub trait NsDirectory {
    /// The nameserver successfully observed at `addr` on `day`, if any.
    fn ns_at(&self, addr: Ipv4Addr, day: u64) -> Option<NsId>;
}

/// The static simulated infrastructure as a directory: every day's list is
/// the registry itself.
impl NsDirectory for Infra {
    fn ns_at(&self, addr: Ipv4Addr, _day: u64) -> Option<NsId> {
        self.ns_by_addr(addr)
    }
}

/// A day-indexed directory over a base registry, with scheduled changes —
/// the situation §4.2's previous-day join is designed for: a nameserver
/// that an operator renumbers or withdraws *during* an attack is missing
/// from that day's list, but still present in yesterday's.
pub struct ChangingDirectory<'a> {
    base: &'a Infra,
    /// `(effective_day, addr, mapping)`: from `effective_day` onward,
    /// `addr` maps to `mapping` (`None` = withdrawn). Later entries win.
    changes: Vec<(u64, Ipv4Addr, Option<NsId>)>,
}

impl<'a> ChangingDirectory<'a> {
    pub fn new(base: &'a Infra) -> ChangingDirectory<'a> {
        ChangingDirectory { base, changes: Vec::new() }
    }

    /// From `day` onward, `addr` resolves to `mapping`.
    pub fn change(mut self, day: u64, addr: Ipv4Addr, mapping: Option<NsId>) -> Self {
        self.changes.push((day, addr, mapping));
        self.changes.sort_by_key(|&(d, a, _)| (a, d));
        self
    }
}

impl NsDirectory for ChangingDirectory<'_> {
    fn ns_at(&self, addr: Ipv4Addr, day: u64) -> Option<NsId> {
        // The latest change for this address effective at `day` wins.
        let mut current = self.base.ns_by_addr(addr);
        for &(d, a, mapping) in &self.changes {
            if a == addr && d <= day {
                current = mapping;
            }
        }
        current
    }
}

/// One RSDoS episode joined to the DNS: the nameservers whose service
/// addresses were attacked, the NSSets they serve, and the domains behind
/// them.
#[derive(Clone, Debug)]
pub struct DnsAttackEvent {
    /// Index into the feed's episode list.
    pub episode_idx: usize,
    /// Nameservers directly attacked (victim IP == service address).
    pub ns_direct: Vec<NsId>,
    /// Nameservers hit via collateral (victim in the same /24 but not a
    /// nameserver itself).
    pub ns_collateral: Vec<NsId>,
    /// Every NSSet containing an attacked nameserver.
    pub nssets: Vec<NsSetId>,
    /// Count of distinct registered domains delegating to those NSSets —
    /// the "potentially affected domains" of Figure 5.
    pub domains_affected: u64,
    /// Calendar month of the attack start (Table 3 bucketing).
    pub month: Month,
}

impl DnsAttackEvent {
    pub fn is_direct(&self) -> bool {
        !self.ns_direct.is_empty()
    }
}

/// Join RSDoS episodes against the nameserver directory, using the list
/// as it stood `day_offset` days before each attack (§4.2: the paper uses
/// 1 — "the day before the attack" — so an attack that knocks a
/// nameserver out of the measured list is still joined).
pub fn join_episodes_with_offset(
    infra: &Infra,
    directory: &dyn NsDirectory,
    episodes: &[AttackEpisode],
    open_resolvers: &OpenResolverList,
    include_collateral: bool,
    day_offset: u64,
) -> Vec<DnsAttackEvent> {
    join_chunk(infra, directory, 0, episodes, open_resolvers, include_collateral, day_offset, None)
}

/// Join one contiguous shard of the episode list. `base_idx` is the global
/// index of `episodes[0]`, so the emitted `episode_idx` values are
/// identical whether the feed is processed whole or in shards. With a
/// `trace_scope` set, every joined row also emits a `JoinMatched` trace
/// event under that scope — each episode is joined exactly once whatever
/// the sharding, so the event stream is `--jobs`-independent too.
#[allow(clippy::too_many_arguments)]
fn join_chunk(
    infra: &Infra,
    directory: &dyn NsDirectory,
    base_idx: usize,
    episodes: &[AttackEpisode],
    open_resolvers: &OpenResolverList,
    include_collateral: bool,
    day_offset: u64,
    trace_scope: Option<&str>,
) -> Vec<DnsAttackEvent> {
    let mut out = Vec::new();
    for (off, ep) in episodes.iter().enumerate() {
        let idx = base_idx + off;
        if open_resolvers.contains(ep.victim) {
            continue;
        }
        let day = ep.first_window.day().saturating_sub(day_offset);
        let mut ns_direct = Vec::new();
        let mut ns_collateral = Vec::new();
        if let Some(ns) = directory.ns_at(ep.victim, day) {
            ns_direct.push(ns);
        } else if include_collateral {
            let prefix = netbase::Slash24::of(ep.victim);
            for ns in infra.nameservers_in_slash24(prefix) {
                if directory.ns_at(infra.nameserver(ns).addr, day).is_some() {
                    ns_collateral.push(ns);
                }
            }
        }
        if ns_direct.is_empty() && ns_collateral.is_empty() {
            continue;
        }
        let mut nssets: HashSet<NsSetId> = HashSet::new();
        for &ns in ns_direct.iter().chain(&ns_collateral) {
            nssets.extend(infra.nssets_of_ns(ns).iter().copied());
        }
        let mut domains: HashSet<u32> = HashSet::new();
        for &set in &nssets {
            domains.extend(infra.domains_of_nsset(set).iter().map(|d| d.0));
        }
        let mut nssets: Vec<NsSetId> = nssets.into_iter().collect();
        nssets.sort();
        if let Some(scope) = trace_scope {
            obs::trace::emit(
                obs::EventKind::JoinMatched,
                scope,
                Some(idx as u64),
                Some(ep.first_window.start().secs()),
                format!(
                    "victim {} → {} direct + {} collateral ns, {} nsset(s)",
                    ep.victim,
                    ns_direct.len(),
                    ns_collateral.len(),
                    nssets.len()
                ),
                Some(domains.len() as u64),
            );
        }
        out.push(DnsAttackEvent {
            episode_idx: idx,
            ns_direct,
            ns_collateral,
            nssets,
            domains_affected: domains.len() as u64,
            month: ep.first_window.start().month(),
        });
    }
    // Per-shard totals sum to the same whole-feed totals whatever the
    // sharding, so these counters are `--jobs`-independent.
    obs::counter("join.episodes_in").add(episodes.len() as u64);
    obs::counter("join.rows_joined").add(out.len() as u64);
    out
}

/// The paper's join: against the previous day's nameserver list.
pub fn join_episodes(
    infra: &Infra,
    directory: &dyn NsDirectory,
    episodes: &[AttackEpisode],
    open_resolvers: &OpenResolverList,
    include_collateral: bool,
) -> Vec<DnsAttackEvent> {
    join_episodes_with_offset(infra, directory, episodes, open_resolvers, include_collateral, 1)
}

/// [`join_episodes_with_offset`] sharded across up to `jobs` worker
/// threads (`jobs == 0` → available parallelism, `jobs == 1` → the plain
/// sequential path).
///
/// The RSDoS×NSSet join is embarrassingly parallel: each episode is joined
/// independently against the (read-only) directory, with no RNG involved.
/// The feed is cut into contiguous shards, each worker joins its shard
/// carrying the shard's global base index, and the per-shard outputs are
/// concatenated in shard order — so the result is exactly the sequential
/// output, byte for byte, for any `jobs`.
pub fn join_episodes_sharded(
    infra: &Infra,
    directory: &(dyn NsDirectory + Sync),
    episodes: &[AttackEpisode],
    open_resolvers: &OpenResolverList,
    include_collateral: bool,
    day_offset: u64,
    jobs: usize,
) -> Vec<DnsAttackEvent> {
    join_episodes_sharded_traced(
        infra,
        directory,
        episodes,
        open_resolvers,
        include_collateral,
        day_offset,
        jobs,
        None,
    )
}

/// [`join_episodes_sharded`] with `JoinMatched` trace emission under
/// `trace_scope` (see `obs::trace`). Kept separate so only the feed-scoped
/// headline join traces: the orchestrator also runs an unfiltered join of
/// the same episodes for Tables 3–5, which must not double-emit.
#[allow(clippy::too_many_arguments)]
pub fn join_episodes_sharded_traced(
    infra: &Infra,
    directory: &(dyn NsDirectory + Sync),
    episodes: &[AttackEpisode],
    open_resolvers: &OpenResolverList,
    include_collateral: bool,
    day_offset: u64,
    jobs: usize,
    trace_scope: Option<&str>,
) -> Vec<DnsAttackEvent> {
    let jobs = streamproc::effective_jobs(jobs);
    if jobs <= 1 || episodes.len() < 2 {
        return join_chunk(
            infra,
            directory,
            0,
            episodes,
            open_resolvers,
            include_collateral,
            day_offset,
            trace_scope,
        );
    }
    let shard_len = episodes.len().div_ceil(jobs);
    let shards: Vec<&[AttackEpisode]> = episodes.chunks(shard_len).collect();
    // Shard count tracks the requested parallelism, so it lives in the
    // scheduling-dependent namespace.
    obs::counter("sched.join.shards").add(shards.len() as u64);
    let parts = streamproc::parallel_map(jobs, shards, |shard_idx, shard| {
        join_chunk(
            infra,
            directory,
            shard_idx * shard_len,
            shard,
            open_resolvers,
            include_collateral,
            day_offset,
            trace_scope,
        )
    });
    parts.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use attack::Protocol;
    use dnssim::Deployment;
    use netbase::Asn;
    use simcore::time::Window;

    fn episode(victim: &str, w: u64) -> AttackEpisode {
        AttackEpisode {
            victim: victim.parse().unwrap(),
            first_window: Window(w),
            last_window: Window(w + 2),
            packets: 1_000,
            peak_ppm: 100.0,
            protocol: Protocol::Tcp,
            first_port: 53,
            unique_ports: 1,
            slash16s: 10,
        }
    }

    fn world() -> (Infra, NsId, NsId) {
        let mut infra = Infra::new();
        let a = infra.add_nameserver(
            "ns0.transip.net".parse().unwrap(),
            "195.135.195.195".parse().unwrap(),
            Asn(20857),
            Deployment::Unicast,
            10_000.0,
            100.0,
            15.0,
        );
        let b = infra.add_nameserver(
            "ns1.other.net".parse().unwrap(),
            "203.0.113.53".parse().unwrap(),
            Asn(64500),
            Deployment::Unicast,
            10_000.0,
            100.0,
            15.0,
        );
        let set_ab = infra.intern_nsset(vec![a, b]);
        let set_a = infra.intern_nsset(vec![a]);
        for i in 0..100 {
            infra.add_domain(format!("ab{i}.nl").parse().unwrap(), set_ab);
        }
        for i in 0..40 {
            infra.add_domain(format!("a{i}.nl").parse().unwrap(), set_a);
        }
        (infra, a, b)
    }

    #[test]
    fn direct_hit_joins_all_nssets_and_domains() {
        let (infra, a, _) = world();
        let eps = vec![episode("195.135.195.195", 288 * 3)];
        let events = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), false);
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.ns_direct, vec![a]);
        assert!(e.is_direct());
        assert_eq!(e.nssets.len(), 2, "ns A serves two NSSets");
        assert_eq!(e.domains_affected, 140);
    }

    #[test]
    fn non_dns_victim_produces_no_event() {
        let (infra, ..) = world();
        let eps = vec![episode("8.100.2.3", 288)];
        let events = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), false);
        assert!(events.is_empty());
    }

    #[test]
    fn open_resolver_victims_filtered() {
        let (mut infra, ..) = world();
        let g = infra.add_nameserver(
            "dns.google".parse().unwrap(),
            "8.8.8.8".parse().unwrap(),
            Asn(15169),
            Deployment::Anycast { sites: 30 },
            10_000_000.0,
            100_000.0,
            5.0,
        );
        infra.mark_open_resolver(g);
        let set = infra.intern_nsset(vec![g]);
        infra.add_domain("misconfigured.com".parse().unwrap(), set);
        let mut resolvers = OpenResolverList::new();
        resolvers.extend_from_infra(&infra);
        let eps = vec![episode("8.8.8.8", 288)];
        let with_filter = join_episodes(&infra, &infra, &eps, &resolvers, false);
        assert!(with_filter.is_empty(), "8.8.8.8 attacks are not DNS-infra attacks");
        let without = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), false);
        assert_eq!(without.len(), 1, "without the filter the join would count it");
    }

    #[test]
    fn collateral_join_via_slash24() {
        let (infra, a, _) = world();
        // Victim is the web server next to ns0 (same /24, different host).
        let eps = vec![episode("195.135.195.80", 288)];
        let none = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), false);
        assert!(none.is_empty(), "headline join is direct-only");
        let with = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), true);
        assert_eq!(with.len(), 1);
        assert_eq!(with[0].ns_collateral, vec![a]);
        assert!(!with[0].is_direct());
    }

    #[test]
    fn month_bucketing_follows_start_window() {
        let (infra, ..) = world();
        // Window on 2020-12-01: day 30.
        let eps = vec![episode("195.135.195.195", 30 * 288 + 5)];
        let events = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), false);
        assert_eq!(events[0].month, Month::new(2020, 12));
    }

    #[test]
    fn previous_day_join_survives_attack_day_withdrawal() {
        // §4.2's rationale: the operator withdraws the attacked address on
        // the attack day (day 5). A same-day join misses the event; the
        // paper's previous-day join still catches it.
        let (infra, a, _) = world();
        let addr: Ipv4Addr = "195.135.195.195".parse().unwrap();
        let dir = ChangingDirectory::new(&infra).change(5, addr, None);
        let eps = vec![episode("195.135.195.195", 5 * 288 + 10)];
        let same_day =
            join_episodes_with_offset(&infra, &dir, &eps, &OpenResolverList::new(), false, 0);
        assert!(same_day.is_empty(), "same-day list no longer names the victim");
        let prev_day = join_episodes(&infra, &dir, &eps, &OpenResolverList::new(), false);
        assert_eq!(prev_day.len(), 1);
        assert_eq!(prev_day[0].ns_direct, vec![a]);
    }

    #[test]
    fn changing_directory_day_semantics() {
        let (infra, a, b) = world();
        let addr: Ipv4Addr = "195.135.195.195".parse().unwrap();
        // Renumbered to ns B's identity on day 3, withdrawn on day 8.
        let dir = ChangingDirectory::new(&infra).change(3, addr, Some(b)).change(8, addr, None);
        assert_eq!(dir.ns_at(addr, 0), Some(a));
        assert_eq!(dir.ns_at(addr, 2), Some(a));
        assert_eq!(dir.ns_at(addr, 3), Some(b));
        assert_eq!(dir.ns_at(addr, 7), Some(b));
        assert_eq!(dir.ns_at(addr, 8), None);
        assert_eq!(dir.ns_at(addr, 100), None);
    }

    #[test]
    fn domains_not_double_counted_across_nssets() {
        let (infra, ..) = world();
        let eps = vec![episode("195.135.195.195", 288), episode("203.0.113.53", 288)];
        let events = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), false);
        // Each event counts its own reachable domains without dupes.
        assert_eq!(events[0].domains_affected, 140);
        assert_eq!(events[1].domains_affected, 100);
    }
}
