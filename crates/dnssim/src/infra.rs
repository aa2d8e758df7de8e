//! The infrastructure registry: domains, NSSets, nameservers, /24 uplinks,
//! and the per-window attack-load book.

use crate::deploy::{Deployment, Nameserver, Uplink};
use crate::ids::{DomainId, NsId, NsSet, NsSetId};
use crate::load::{LoadModel, ServiceState};
use dnswire::Name;
use netbase::{Asn, Slash24};
use simcore::hash::{PackedMap, PackedSet};
use simcore::time::{Window, WINDOWS_PER_DAY};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::{Mutex, OnceLock, PoisonError};

/// A registered domain: its name and the NSSet it delegates to.
///
/// `nsset` is the *child* (authoritative-zone) NS set — what an explicit
/// NS query answered by the authoritative servers returns, and what
/// OpenINTEL records (it "prefers the authoritative answer", §3.2).
/// `parent_nsset`, when present, is an *inconsistent parent-side
/// delegation* (the TLD zone lists different servers): resolution must
/// reach the parent-listed servers first, so their health — not the child
/// set's — gates reachability.
#[derive(Clone, Debug)]
pub struct DomainRec {
    pub name: Name,
    pub nsset: NsSetId,
    /// Parent-zone delegation when it disagrees with the child (lame or
    /// stale delegations à la Sommese et al. "When Parents and Children
    /// Disagree"). `None` = consistent.
    pub parent_nsset: Option<NsSetId>,
}

impl DomainRec {
    /// The NS set a resolver actually has to query through: the parent
    /// delegation when inconsistent, else the (identical) child set.
    pub fn query_nsset(&self) -> NsSetId {
        self.parent_nsset.unwrap_or(self.nsset)
    }
}

/// Default uplink capacity (pps) given to a /24 that was not configured
/// explicitly: generous enough that only volumetric attacks congest it.
pub const DEFAULT_UPLINK_PPS: f64 = 2_000_000.0;

/// The simulated authoritative-DNS world.
#[derive(Clone, Debug, Default)]
pub struct Infra {
    nameservers: Vec<Nameserver>,
    by_addr: HashMap<Ipv4Addr, NsId>,
    nssets: Vec<NsSet>,
    nsset_ids: HashMap<NsSet, NsSetId>,
    /// For each nameserver, the NSSets it belongs to.
    sets_of_ns: Vec<Vec<NsSetId>>,
    domains: Vec<DomainRec>,
    domains_of_set: Vec<Vec<DomainId>>,
    /// Keyed by prefixes the world builder minted, so it hashes through
    /// `simcore::hash`: `service_state` probes it on every call.
    uplinks: PackedMap<Slash24, Uplink>,
    pub load_model: LoadModel,
}

impl Infra {
    pub fn new() -> Infra {
        Infra::default()
    }

    /// Register a nameserver. The service address must be unique.
    #[allow(clippy::too_many_arguments)]
    pub fn add_nameserver(
        &mut self,
        name: Name,
        addr: Ipv4Addr,
        asn: Asn,
        deployment: Deployment,
        capacity_pps: f64,
        legit_pps: f64,
        base_rtt_ms: f64,
    ) -> NsId {
        assert!(!self.by_addr.contains_key(&addr), "nameserver address {addr} already registered");
        let id = NsId(self.nameservers.len() as u32);
        self.nameservers.push(Nameserver {
            id,
            name,
            addr,
            asn,
            deployment,
            capacity_pps,
            legit_pps,
            base_rtt_ms,
            open_resolver: false,
            dual_stack_shared: None,
        });
        self.sets_of_ns.push(Vec::new());
        self.by_addr.insert(addr, id);
        id
    }

    /// Mark an address as an open resolver (misconfigured domains point NS
    /// records at these; the paper filters them out of the analysis, §6.1).
    pub fn mark_open_resolver(&mut self, ns: NsId) {
        self.nameservers[ns.0 as usize].open_resolver = true;
    }

    /// Declare the nameserver dual-stack: `shared = true` when IPv4 and
    /// IPv6 terminate on the same servers/links, `false` when IPv6 runs on
    /// separate infrastructure.
    pub fn set_dual_stack(&mut self, ns: NsId, shared: bool) {
        self.nameservers[ns.0 as usize].dual_stack_shared = Some(shared);
    }

    /// Intern an NSSet, returning a stable id for the canonical member set.
    pub fn intern_nsset(&mut self, members: Vec<NsId>) -> NsSetId {
        let set = NsSet::new(members);
        if let Some(&id) = self.nsset_ids.get(&set) {
            return id;
        }
        let id = NsSetId(self.nssets.len() as u32);
        for &ns in set.members() {
            self.sets_of_ns[ns.0 as usize].push(id);
        }
        self.nsset_ids.insert(set.clone(), id);
        self.nssets.push(set);
        self.domains_of_set.push(Vec::new());
        id
    }

    /// Register a domain with a consistent delegation to `nsset`.
    pub fn add_domain(&mut self, name: Name, nsset: NsSetId) -> DomainId {
        let id = DomainId(self.domains.len() as u32);
        self.domains.push(DomainRec { name, nsset, parent_nsset: None });
        self.domains_of_set[nsset.0 as usize].push(id);
        id
    }

    /// Register a domain whose parent-zone delegation disagrees with the
    /// authoritative (child) NS set. Measurement attribution follows the
    /// child set (the authoritative answer OpenINTEL prefers);
    /// reachability follows the parent.
    pub fn add_domain_inconsistent(
        &mut self,
        name: Name,
        child: NsSetId,
        parent: NsSetId,
    ) -> DomainId {
        let id = DomainId(self.domains.len() as u32);
        self.domains.push(DomainRec { name, nsset: child, parent_nsset: Some(parent) });
        self.domains_of_set[child.0 as usize].push(id);
        id
    }

    /// Configure the shared uplink of a /24 explicitly.
    pub fn set_uplink(&mut self, uplink: Uplink) {
        self.uplinks.insert(uplink.prefix, uplink);
    }

    // ------------------------------------------------------------------
    // Lookups
    // ------------------------------------------------------------------

    pub fn nameserver(&self, id: NsId) -> &Nameserver {
        &self.nameservers[id.0 as usize]
    }
    pub fn nameservers(&self) -> &[Nameserver] {
        &self.nameservers
    }
    pub fn ns_by_addr(&self, addr: Ipv4Addr) -> Option<NsId> {
        self.by_addr.get(&addr).copied()
    }
    pub fn nsset(&self, id: NsSetId) -> &NsSet {
        &self.nssets[id.0 as usize]
    }
    pub fn nsset_count(&self) -> usize {
        self.nssets.len()
    }
    pub fn nssets_of_ns(&self, ns: NsId) -> &[NsSetId] {
        &self.sets_of_ns[ns.0 as usize]
    }
    pub fn domain(&self, id: DomainId) -> &DomainRec {
        &self.domains[id.0 as usize]
    }
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }
    pub fn domains_of_nsset(&self, id: NsSetId) -> &[DomainId] {
        &self.domains_of_set[id.0 as usize]
    }
    pub fn uplink_capacity(&self, prefix: Slash24) -> f64 {
        self.uplinks.get(&prefix).map(|u| u.capacity_pps).unwrap_or(DEFAULT_UPLINK_PPS)
    }

    /// All nameservers in a /24 (the subnet-level join the longitudinal
    /// analysis performs).
    pub fn nameservers_in_slash24(&self, prefix: Slash24) -> Vec<NsId> {
        self.nameservers.iter().filter(|n| n.slash24() == prefix).map(|n| n.id).collect()
    }

    // ------------------------------------------------------------------
    // NSSet deployment metadata (the resilience dimensions of §6.6)
    // ------------------------------------------------------------------

    /// Distinct origin ASes of the set's nameservers.
    pub fn nsset_asns(&self, id: NsSetId) -> Vec<Asn> {
        let mut v: Vec<Asn> =
            self.nsset(id).members().iter().map(|&n| self.nameserver(n).asn).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Distinct /24 prefixes of the set's nameservers.
    pub fn nsset_slash24s(&self, id: NsSetId) -> Vec<Slash24> {
        let mut v: Vec<Slash24> =
            self.nsset(id).members().iter().map(|&n| self.nameserver(n).slash24()).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Anycast adoption inside the set: `(anycast_members, total_members)`.
    pub fn nsset_anycast(&self, id: NsSetId) -> (usize, usize) {
        let set = self.nsset(id);
        let any =
            set.members().iter().filter(|&&n| self.nameserver(n).deployment.is_anycast()).count();
        (any, set.len())
    }

    // ------------------------------------------------------------------
    // Service quality under load
    // ------------------------------------------------------------------

    /// Service state of `ns` in `window` given the attack-load book, as
    /// seen from the default vantage point (uniform anycast catchment).
    pub fn service_state(&self, ns: NsId, window: Window, loads: &LoadBook) -> ServiceState {
        let n = self.nameserver(ns);
        self.service_state_with_dilution(ns, window, loads, n.deployment.attack_dilution())
    }

    /// Service state with an explicit attack-dilution factor — the share
    /// of the attack absorbed by the anycast site that answers *this*
    /// vantage point. Multi-vantage measurement (the paper's §9 future
    /// work) probes the same deployment with different catchment shares.
    pub fn service_state_with_dilution(
        &self,
        ns: NsId,
        window: Window,
        loads: &LoadBook,
        dilution: f64,
    ) -> ServiceState {
        let n = self.nameserver(ns);
        let direct_attack = loads.attack_on_addr(n.addr, window);
        let offered = n.legit_pps + direct_attack * dilution;
        let prefix = n.slash24();
        let uplink_attack = loads.attack_on_slash24(prefix, window);
        // The uplink carries the prefix's aggregate legitimate traffic too;
        // approximate it with this server's share since co-hosted services
        // are not modeled individually.
        let uplink_offered = n.legit_pps + uplink_attack * dilution;
        self.load_model.evaluate(
            n.capacity_pps,
            offered,
            self.uplink_capacity(prefix),
            uplink_offered,
        )
    }

    /// The one [`ServiceState`] `ns` has in every window of `day`, when its
    /// /24 carries no load that day; `None` when it carries some. On a
    /// quiet day both load lookups of [`Infra::service_state`] return 0.0
    /// whatever the window, and nothing else in it reads the window, so the
    /// state of the day's first window is, bit for bit, the state of each.
    pub fn quiet_day_state(&self, ns: NsId, day: u64, loads: &LoadBook) -> Option<ServiceState> {
        loads
            .slash24_quiet_on_day(self.nameserver(ns).slash24(), day)
            .then(|| self.service_state(ns, Window(day * WINDOWS_PER_DAY), loads))
    }

    /// Service quality of the nameserver's IPv6 path during an IPv4
    /// attack (limitation 2 of §4.3). The RSDoS feed is IPv4-only, so the
    /// attack load book describes IPv4 traffic: a *shared* dual-stack
    /// deployment degrades identically; *separate* IPv6 infrastructure
    /// stays healthy; an IPv4-only server has no IPv6 path (`None`).
    pub fn service_state_v6(
        &self,
        ns: NsId,
        window: Window,
        loads: &LoadBook,
    ) -> Option<ServiceState> {
        let n = self.nameserver(ns);
        match n.dual_stack_shared {
            None => None,
            Some(true) => Some(self.service_state(ns, window, loads)),
            Some(false) => Some(self.load_model.evaluate_server_only(n.capacity_pps, n.legit_pps)),
        }
    }
}

/// Attack traffic offered per window, by exact address and aggregated per
/// /24 (for uplink collateral). Filled in by the attack scheduler; read by
/// both simulation fidelities.
///
/// Keys are packed `(id << 32) | window` u64s: a full-feed 17-month run
/// carries tens of millions of cells, and the packed keys keep it inside
/// laptop memory. (The 17-month interval spans ≈150 K windows, far below
/// the 2³² packing limit.)
///
/// The keys are integers this program packed, so the maps hash through
/// `simcore::hash` (one multiply) in place of SipHash.
///
/// A book is filled before it is read, so `add` only logs its cell; the
/// first load lookup (or `len`/`is_empty`) builds both maps from the log,
/// each sized once, and frees the log. Every key's sum adds the same `pps`
/// values in the same order as upserting each `add` would, so the answers
/// are bit-equal. An `add` after that writes through to the maps. Take the
/// first lookup on the thread that owns the book, not inside a pool
/// worker: the maps then live in that thread's allocator arena (DESIGN.md
/// §19).
#[derive(Debug, Default)]
pub struct LoadBook {
    /// `(address cell, pps)` of every `add` before the index exists, in
    /// `add` order; taken (and dropped) by the build.
    log: Mutex<Vec<(u64, f64)>>,
    index: OnceLock<CellIndex>,
    /// The `(/24, day)` pair of every cell added, in `add` order, a pair
    /// logged again only when the adds leave it and come back: cells
    /// arrive in runs of one address over consecutive windows, so `add`
    /// compares with the last entry and pushes about once per attack.
    day_log: Vec<u64>,
    /// `day_log` as a set, built the first time
    /// [`LoadBook::slash24_quiet_on_day`] is asked and dropped when the log
    /// next grows. A book that is only filled and probed window by window
    /// (`feed::build`) never builds it.
    loaded_days: OnceLock<PackedSet<u64>>,
}

/// The book's two maps: load per `(address, window)` and per
/// `(/24, window)`.
#[derive(Debug, Default)]
struct CellIndex {
    by_addr: PackedMap<u64, f64>,
    by_slash24: PackedMap<u64, f64>,
}

impl CellIndex {
    /// Both maps from a log, each sized once for the whole log and filled
    /// in a pass of its own (half the working set of filling them side by
    /// side: 26–31 ms against 37–40 ms for the 585k cells of the sparse
    /// benchmark batch).
    fn from_log(log: &[(u64, f64)]) -> CellIndex {
        let sized = || PackedMap::with_capacity_and_hasher(log.len(), Default::default());
        let (mut by_addr, mut by_slash24): (PackedMap<u64, f64>, _) = (sized(), sized());
        for &(cell, pps) in log {
            *by_addr.entry(cell).or_insert(0.0) += pps;
        }
        for &(cell, pps) in log {
            *by_slash24.entry(slash24_cell(cell)).or_insert(0.0) += pps;
        }
        CellIndex { by_addr, by_slash24 }
    }

    fn add(&mut self, cell: u64, pps: f64) {
        *self.by_addr.entry(cell).or_insert(0.0) += pps;
        *self.by_slash24.entry(slash24_cell(cell)).or_insert(0.0) += pps;
    }
}

/// The `(/24, window)` cell an `(address, window)` cell aggregates into.
fn slash24_cell(cell: u64) -> u64 {
    pack((cell >> 40) as u32, cell & 0xFFFF_FFFF)
}

/// `(id << 32) | slot`, the slot a window or a day number.
#[inline]
fn pack(id: u32, slot: u64) -> u64 {
    debug_assert!(slot < u32::MAX as u64, "window beyond packing range");
    ((id as u64) << 32) | (slot & 0xFFFF_FFFF)
}

impl LoadBook {
    pub fn new() -> LoadBook {
        LoadBook::default()
    }

    /// Add `pps` of attack traffic toward `addr` during `window`.
    pub fn add(&mut self, addr: Ipv4Addr, window: Window, pps: f64) {
        assert!(pps >= 0.0);
        let cell = pack(u32::from(addr), window.0);
        match self.index.get_mut() {
            Some(index) => index.add(cell, pps),
            None => self.log.get_mut().unwrap_or_else(PoisonError::into_inner).push((cell, pps)),
        }
        let day = pack(Slash24::of(addr).0, window.day());
        if self.day_log.last() != Some(&day) {
            self.day_log.push(day);
            self.loaded_days.take();
        }
    }

    /// The maps, built from the log on first use.
    fn index(&self) -> &CellIndex {
        self.index.get_or_init(|| {
            let log = std::mem::take(&mut *self.log.lock().unwrap_or_else(PoisonError::into_inner));
            CellIndex::from_log(&log)
        })
    }

    pub fn attack_on_addr(&self, addr: Ipv4Addr, window: Window) -> f64 {
        self.index().by_addr.get(&pack(u32::from(addr), window.0)).copied().unwrap_or(0.0)
    }

    pub fn attack_on_slash24(&self, prefix: Slash24, window: Window) -> f64 {
        self.index().by_slash24.get(&pack(prefix.0, window.0)).copied().unwrap_or(0.0)
    }

    /// Whether no window of `day` carries a cell for `prefix`: both
    /// [`attack_on_slash24`] and, for every address inside the prefix,
    /// [`attack_on_addr`] then answer 0.0 on each of the day's windows, so
    /// a server there has one [`ServiceState`] for the whole day.
    ///
    /// [`attack_on_slash24`]: LoadBook::attack_on_slash24
    /// [`attack_on_addr`]: LoadBook::attack_on_addr
    pub fn slash24_quiet_on_day(&self, prefix: Slash24, day: u64) -> bool {
        let loaded_days = self.loaded_days.get_or_init(|| self.day_log.iter().copied().collect());
        !loaded_days.contains(&pack(prefix.0, day))
    }

    pub fn is_empty(&self) -> bool {
        self.index().by_addr.is_empty()
    }

    /// Number of (addr, window) cells carrying load.
    pub fn len(&self) -> usize {
        self.index().by_addr.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }
    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn build_world() -> (Infra, NsId, NsId, NsSetId) {
        let mut infra = Infra::new();
        let a = infra.add_nameserver(
            name("ns0.transip.net"),
            ip("195.135.195.195"),
            Asn(20857),
            Deployment::Unicast,
            50_000.0,
            1_000.0,
            15.0,
        );
        let b = infra.add_nameserver(
            name("ns1.transip.nl"),
            ip("195.8.195.195"),
            Asn(20857),
            Deployment::Unicast,
            50_000.0,
            1_000.0,
            15.0,
        );
        let set = infra.intern_nsset(vec![a, b]);
        for i in 0..10 {
            infra.add_domain(name(&format!("klant{i}.nl")), set);
        }
        (infra, a, b, set)
    }

    #[test]
    fn interning_dedupes_nssets() {
        let (mut infra, a, b, set) = build_world();
        assert_eq!(infra.intern_nsset(vec![b, a]), set);
        assert_eq!(infra.intern_nsset(vec![a, b, b]), set);
        assert_eq!(infra.nsset_count(), 1);
        let solo = infra.intern_nsset(vec![a]);
        assert_ne!(solo, set);
        assert_eq!(infra.nsset_count(), 2);
    }

    #[test]
    fn reverse_indexes() {
        let (infra, a, b, set) = build_world();
        assert_eq!(infra.nssets_of_ns(a), &[set]);
        assert_eq!(infra.nssets_of_ns(b), &[set]);
        assert_eq!(infra.domains_of_nsset(set).len(), 10);
        assert_eq!(infra.ns_by_addr(ip("195.135.195.195")), Some(a));
        assert_eq!(infra.ns_by_addr(ip("1.1.1.1")), None);
        assert_eq!(infra.domain(DomainId(0)).nsset, set);
    }

    #[test]
    #[should_panic]
    fn duplicate_address_panics() {
        let mut infra = Infra::new();
        infra.add_nameserver(
            name("a.x"),
            ip("1.2.3.4"),
            Asn(1),
            Deployment::Unicast,
            1.0,
            0.0,
            1.0,
        );
        infra.add_nameserver(
            name("b.x"),
            ip("1.2.3.4"),
            Asn(2),
            Deployment::Unicast,
            1.0,
            0.0,
            1.0,
        );
    }

    #[test]
    fn metadata_dimensions() {
        let (mut infra, a, b, set) = build_world();
        assert_eq!(infra.nsset_asns(set), vec![Asn(20857)]);
        assert_eq!(infra.nsset_slash24s(set).len(), 2);
        assert_eq!(infra.nsset_anycast(set), (0, 2));
        // Add an anycast member → partial anycast.
        let c = infra.add_nameserver(
            name("ns2.transip.net"),
            ip("37.97.199.195"),
            Asn(20857),
            Deployment::Anycast { sites: 10 },
            500_000.0,
            1_000.0,
            8.0,
        );
        let set3 = infra.intern_nsset(vec![a, b, c]);
        assert_eq!(infra.nsset_anycast(set3), (1, 3));
    }

    #[test]
    fn loadbook_accumulates_and_aggregates() {
        let mut book = LoadBook::new();
        let w = Window(100);
        book.add(ip("10.0.0.1"), w, 1_000.0);
        book.add(ip("10.0.0.1"), w, 500.0);
        book.add(ip("10.0.0.200"), w, 300.0);
        assert_eq!(book.attack_on_addr(ip("10.0.0.1"), w), 1_500.0);
        assert_eq!(book.attack_on_addr(ip("10.0.0.200"), w), 300.0);
        assert_eq!(book.attack_on_addr(ip("10.0.0.1"), Window(101)), 0.0);
        // /24 aggregation sums both victims.
        assert_eq!(book.attack_on_slash24(Slash24::of(ip("10.0.0.9")), w), 1_800.0);
        assert_eq!(book.len(), 2);
    }

    #[test]
    fn service_state_responds_to_attack() {
        let (infra, a, _, _) = build_world();
        let mut book = LoadBook::new();
        let w = Window(50);
        let idle = infra.service_state(a, w, &book);
        assert!(idle.rtt_mult < 1.1);
        assert_eq!(idle.answer_prob, 1.0);
        // 45 kpps of attack on a 50 kpps server with 1 kpps legit → ρ=0.92.
        book.add(ip("195.135.195.195"), w, 45_000.0);
        let loaded = infra.service_state(a, w, &book);
        assert!(loaded.rtt_mult > 8.0, "rtt_mult {}", loaded.rtt_mult);
        // 200 kpps → saturated, most queries lost.
        book.add(ip("195.135.195.195"), w, 155_000.0);
        let sat = infra.service_state(a, w, &book);
        assert!(sat.answer_prob < 0.3, "answer_prob {}", sat.answer_prob);
    }

    #[test]
    fn collateral_hits_same_slash24() {
        let mut infra = Infra::new();
        let ns = infra.add_nameserver(
            name("ns1.mil.ru"),
            ip("188.128.110.5"),
            Asn(8342),
            Deployment::Unicast,
            100_000.0,
            1_000.0,
            40.0,
        );
        infra.set_uplink(Uplink::new(Slash24::of(ip("188.128.110.5")), 200_000.0));
        let mut book = LoadBook::new();
        let w = Window(7);
        // Attack the *web server* on the same /24, not the nameserver.
        book.add(ip("188.128.110.70"), w, 600_000.0);
        let s = infra.service_state(ns, w, &book);
        assert!(
            s.answer_prob < 0.5,
            "shared uplink congestion should degrade the nameserver: {s:?}"
        );
    }

    #[test]
    fn quiet_day_state_is_every_window_state_of_a_quiet_day() {
        let (infra, a, b, _) = build_world();
        let mut book = LoadBook::new();
        // Day 2 is loaded for `a` through a /24 neighbour, in one window;
        // `b`, elsewhere, stays quiet, and so does `a` on day 3.
        book.add(ip("195.135.195.7"), Window(2 * 288 + 40), 9_000.0);
        assert_eq!(infra.quiet_day_state(a, 2, &book), None);
        for (ns, day) in [(b, 2), (a, 3), (a, 1)] {
            let state = infra.quiet_day_state(ns, day, &book).expect("no cell on that day");
            for w in (day * 288..(day + 1) * 288).map(Window) {
                assert_eq!(infra.service_state(ns, w, &book), state);
            }
        }
    }

    #[test]
    fn anycast_dilutes_attack() {
        let mut infra = Infra::new();
        let uni = infra.add_nameserver(
            name("ns1.uni.net"),
            ip("192.0.2.1"),
            Asn(1),
            Deployment::Unicast,
            100_000.0,
            1_000.0,
            20.0,
        );
        let any = infra.add_nameserver(
            name("ns1.any.net"),
            ip("198.51.100.1"),
            Asn(2),
            Deployment::Anycast { sites: 20 },
            100_000.0,
            1_000.0,
            20.0,
        );
        let mut book = LoadBook::new();
        let w = Window(1);
        for addr in ["192.0.2.1", "198.51.100.1"] {
            book.add(ip(addr), w, 95_000.0);
        }
        let s_uni = infra.service_state(uni, w, &book);
        let s_any = infra.service_state(any, w, &book);
        assert!(s_uni.rtt_mult > 10.0);
        assert!(s_any.rtt_mult < 1.2, "anycast absorbs the spoofed attack: {s_any:?}");
    }

    #[test]
    fn open_resolver_flag() {
        let (mut infra, a, _, _) = build_world();
        assert!(!infra.nameserver(a).open_resolver);
        infra.mark_open_resolver(a);
        assert!(infra.nameserver(a).open_resolver);
    }

    #[test]
    fn slash24_member_listing() {
        let (infra, a, _, _) = build_world();
        let p = infra.nameserver(a).slash24();
        assert_eq!(infra.nameservers_in_slash24(p), vec![a]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The /24 aggregate always equals the sum of its member-address
        /// loads, per window.
        #[test]
        fn loadbook_slash24_is_sum_of_members(
            adds in prop::collection::vec(
                (0u8..4, 0u8..8, 0u64..5, 0.0f64..10_000.0),
                1..100,
            ),
        ) {
            let mut book = LoadBook::new();
            let mut manual: HashMap<(u32, u64), f64> = HashMap::new();
            let mut manual24: HashMap<(Slash24, u64), f64> = HashMap::new();
            for (net, host, w, pps) in adds {
                let addr = Ipv4Addr::new(10, 0, net, host);
                book.add(addr, Window(w), pps);
                *manual.entry((u32::from(addr), w)).or_insert(0.0) += pps;
                *manual24.entry((Slash24::of(addr), w)).or_insert(0.0) += pps;
            }
            for ((addr, w), pps) in &manual {
                let got = book.attack_on_addr(Ipv4Addr::from(*addr), Window(*w));
                prop_assert!((got - pps).abs() < 1e-9);
            }
            for ((p24, w), pps) in &manual24 {
                let got = book.attack_on_slash24(*p24, Window(*w));
                prop_assert!((got - pps).abs() < 1e-6);
            }
        }

        /// The day answer equals a scan of the per-window cells, whatever
        /// the order of the adds and wherever among them it was last asked
        /// (an `add` drops the index an earlier answer built): four
        /// addresses in two /24s, so one /24 is loaded on one day from two
        /// addresses, and windows on and beside the day boundaries.
        #[test]
        fn loadbook_day_answer_equals_a_scan_of_its_cells(
            adds in prop::collection::vec((0u8..2, 0u8..2, 0usize..8, 0.0f64..10_000.0), 0..40),
            asked_after in 0usize..40,
        ) {
            const WINDOWS: [u64; 8] = [0, 287, 288, 289, 575, 576, 1_000, 1_151];
            let mut book = LoadBook::new();
            for (i, &(net, host, w, pps)) in adds.iter().enumerate() {
                if i == asked_after {
                    book.slash24_quiet_on_day(Slash24::of(Ipv4Addr::new(10, 0, 0, 0)), 0);
                }
                book.add(Ipv4Addr::new(10, 0, net, host), Window(WINDOWS[w]), pps);
            }
            for net in 0u8..3 {
                let prefix = Slash24::of(Ipv4Addr::new(10, 0, net, 0));
                for day in 0..5 {
                    let scanned = book.index().by_slash24.keys().any(|&cell| {
                        (cell >> 32) as u32 == prefix.0 && Window(cell & 0xFFFF_FFFF).day() == day
                    });
                    prop_assert_eq!(book.slash24_quiet_on_day(prefix, day), !scanned);
                    if !scanned {
                        // Quiet: every lookup `service_state` makes is 0.0.
                        for w in (day * 288..(day + 1) * 288).map(Window) {
                            prop_assert_eq!(book.attack_on_slash24(prefix, w), 0.0);
                            prop_assert_eq!(book.attack_on_addr(Ipv4Addr::new(10, 0, net, 1), w), 0.0);
                        }
                    }
                }
            }
        }

        /// The logged-then-indexed book answers as the two maps did when
        /// every `add` upserted both: adds and lookups interleaved (so the
        /// index is built anywhere in the sequence, or never, and later adds
        /// write through), `to_bits` equality on every answer and on `len`.
        /// An add op is a run of one rate over `len` consecutive windows of
        /// one address, as an attack adds them; runs overlap and repeat.
        #[test]
        fn lazily_indexed_book_equals_eagerly_grown_maps(
            ops in prop::collection::vec(
                (
                    0u8..8,
                    0u8..2,
                    0u8..3,
                    0u64..8,
                    1u64..4,
                    prop_oneof![Just(0.0), Just(1e3), 0.0f64..1e4, 1e6f64..1e9],
                ),
                0..60,
            ),
        ) {
            const WINDOWS: u64 = 11;
            let mut book = LoadBook::new();
            let mut by_addr: PackedMap<u64, f64> = PackedMap::default();
            let mut by_slash24: PackedMap<u64, f64> = PackedMap::default();
            let addr = |net: u8, host: u8| Ipv4Addr::new(10, 0, net, host);
            let ask = |book: &LoadBook, by_addr: &PackedMap<u64, f64>, by_slash24: &PackedMap<u64, f64>, a: Ipv4Addr, w: u64| {
                let want_addr = by_addr.get(&pack(u32::from(a), w)).copied().unwrap_or(0.0);
                let want_24 = by_slash24.get(&pack(Slash24::of(a).0, w)).copied().unwrap_or(0.0);
                (book.attack_on_addr(a, Window(w)).to_bits(), want_addr.to_bits(),
                 book.attack_on_slash24(Slash24::of(a), Window(w)).to_bits(), want_24.to_bits())
            };
            for &(op, net, host, w, len, pps) in &ops {
                let a = addr(net, host);
                match op {
                    0 => {
                        let (got, want, got24, want24) = ask(&book, &by_addr, &by_slash24, a, w);
                        prop_assert_eq!(got, want);
                        prop_assert_eq!(got24, want24);
                    }
                    1 => prop_assert_eq!(book.len(), by_addr.len()),
                    _ => {
                        for w in w..w + len {
                            book.add(a, Window(w), pps);
                            *by_addr.entry(pack(u32::from(a), w)).or_insert(0.0) += pps;
                            *by_slash24.entry(pack(Slash24::of(a).0, w)).or_insert(0.0) += pps;
                        }
                    }
                }
            }
            prop_assert_eq!(book.is_empty(), by_addr.is_empty());
            prop_assert_eq!(book.len(), by_addr.len());
            for net in 0u8..2 {
                for host in 0u8..3 {
                    for w in 0..WINDOWS {
                        let (got, want, got24, want24) = ask(&book, &by_addr, &by_slash24, addr(net, host), w);
                        prop_assert_eq!(got, want);
                        prop_assert_eq!(got24, want24);
                    }
                }
            }
            prop_assert!(book.log.lock().unwrap().is_empty(), "the build frees the log");
        }

        /// Service quality is monotone in direct attack load.
        #[test]
        fn service_state_monotone_in_load(loads in prop::collection::vec(0.0f64..1e6, 2..10)) {
            let mut infra = Infra::new();
            let ns = infra.add_nameserver(
                "ns.mono.net".parse().unwrap(),
                "198.51.100.1".parse().unwrap(),
                Asn(1),
                Deployment::Unicast,
                50_000.0,
                1_000.0,
                20.0,
            );
            let mut sorted = loads.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut last_ans = 1.1f64;
            let mut last_mult = 0.0f64;
            for (i, pps) in sorted.iter().enumerate() {
                let mut book = LoadBook::new();
                book.add("198.51.100.1".parse().unwrap(), Window(i as u64), *pps);
                let s = infra.service_state(ns, Window(i as u64), &book);
                prop_assert!(s.answer_prob <= last_ans + 1e-12);
                prop_assert!(s.rtt_mult >= last_mult - 1e-12);
                last_ans = s.answer_prob;
                last_mult = s.rtt_mult;
            }
        }
    }
}
