//! Columnar (struct-of-arrays) form of the RSDoS×NSSet join — the scale
//! sweep's hot path.
//!
//! [`crate::join`] materializes one [`DnsAttackEvent`] struct per joined
//! episode, each owning three `Vec`s. At paper scale (millions of
//! episodes) that allocation pattern dominates the join, so the sweep path
//! builds a [`JoinTable`] instead: per-column arrays plus shared
//! variable-length pools ([`ColList`]) for the nameserver and NSSet lists.
//! Victims arrive pre-interned in a [`telescope::EpisodeColumns`] arena
//! (see [`Interner`], re-exported here as the workspace's canonical intern
//! type).
//!
//! The row join stays in [`crate::join`] as the *reference
//! implementation*: `tests/columnar_equivalence.rs` drives both paths over
//! proptest-generated feeds and requires identical events, impacts,
//! deterministic metrics and trace streams. [`JoinTable::build`] therefore
//! replicates the reference semantics exactly — same skip rules, same
//! trace events, same `join.*` counters, same contiguous sharding — only
//! the storage layout differs.

use crate::join::{DnsAttackEvent, NsDirectory};
use census::OpenResolverList;
use dnssim::{Infra, NsId, NsSetId};
use simcore::time::Month;
use std::collections::HashMap;
use telescope::EpisodeColumns;

/// The workspace's canonical interner (defined in `simcore` so that
/// `telescope`/`openintel` — which `core` depends on — can use it too).
pub use simcore::Interner;

/// A list-of-lists stored flat: row `i` is `flat[offsets[i]..offsets[i+1]]`.
/// One allocation per column instead of one per row.
#[derive(Clone, Debug)]
pub struct ColList<T> {
    offsets: Vec<u32>,
    flat: Vec<T>,
}

impl<T> Default for ColList<T> {
    fn default() -> ColList<T> {
        ColList::new()
    }
}

impl<T> ColList<T> {
    pub fn new() -> ColList<T> {
        ColList { offsets: vec![0], flat: Vec::new() }
    }

    /// Append one row.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = T>) {
        self.flat.extend(row);
        let end = u32::try_from(self.flat.len()).expect("ColList overflow: > u32::MAX items");
        self.offsets.push(end);
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[T] {
        &self.flat[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Move every row of `other` onto the end of `self` (shard stitching).
    pub fn append(&mut self, other: &mut ColList<T>) {
        let base = self.flat.len() as u32;
        self.offsets.extend(other.offsets.iter().skip(1).map(|&o| base + o));
        self.flat.append(&mut other.flat);
        other.offsets.truncate(1);
    }
}

/// The join result as parallel columns, one entry per joined episode, in
/// episode order — the columnar equivalent of `Vec<DnsAttackEvent>`.
#[derive(Clone, Debug, Default)]
pub struct JoinTable {
    /// Index into the feed's episode list (`u32`: feeds are bounded well
    /// below 4 G episodes).
    pub episode_idx: Vec<u32>,
    /// Calendar month of each attack start (Table 3 bucketing).
    pub months: Vec<Month>,
    /// Distinct registered domains behind each event's NSSets (Figure 5).
    pub domains_affected: Vec<u64>,
    /// Directly attacked nameservers per event.
    pub ns_direct: ColList<NsId>,
    /// Collaterally attacked (/24 neighbour) nameservers per event.
    pub ns_collateral: ColList<NsId>,
    /// Sorted NSSets touched per event.
    pub nssets: ColList<NsSetId>,
}

impl JoinTable {
    fn with_row_capacity(n: usize) -> JoinTable {
        JoinTable {
            episode_idx: Vec::with_capacity(n),
            months: Vec::with_capacity(n),
            domains_affected: Vec::with_capacity(n),
            ..JoinTable::default()
        }
    }

    pub fn len(&self) -> usize {
        self.episode_idx.len()
    }

    pub fn is_empty(&self) -> bool {
        self.episode_idx.is_empty()
    }

    /// Join the columnar feed against the nameserver directory — the
    /// columnar twin of `join::join_episodes_sharded_traced`, with
    /// identical semantics, counters, and trace emission. The feed is cut
    /// into contiguous shards, each worker builds its shard's sub-table,
    /// and the sub-tables are stitched in shard order — so the table is
    /// exactly the sequential result, byte for byte, for any `jobs`.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        infra: &Infra,
        directory: &(dyn NsDirectory + Sync),
        episodes: &EpisodeColumns,
        open_resolvers: &OpenResolverList,
        include_collateral: bool,
        day_offset: u64,
        jobs: usize,
        trace_scope: Option<&str>,
    ) -> JoinTable {
        let jobs = streamproc::effective_jobs(jobs);
        if jobs <= 1 || episodes.len() < 2 {
            return build_chunk(
                infra,
                directory,
                episodes,
                0..episodes.len(),
                open_resolvers,
                include_collateral,
                day_offset,
                trace_scope,
            );
        }
        let shards = streamproc::shard_ranges(episodes.len(), jobs);
        // Shard count tracks the requested parallelism, so it lives in the
        // scheduling-dependent namespace (excluded from determinism diffs).
        obs::counter("sched.join.shards").add(shards.len() as u64);
        let parts = streamproc::parallel_map(jobs, shards, |_, range| {
            build_chunk(
                infra,
                directory,
                episodes,
                range,
                open_resolvers,
                include_collateral,
                day_offset,
                trace_scope,
            )
        });
        let mut table = JoinTable::default();
        for mut part in parts {
            table.append(&mut part);
        }
        table
    }

    /// Move every row of `other` onto the end of `self` (shard stitching;
    /// `other` is drained). Rows keep their original `episode_idx`.
    pub fn append(&mut self, other: &mut JoinTable) {
        self.episode_idx.append(&mut other.episode_idx);
        self.months.append(&mut other.months);
        self.domains_affected.append(&mut other.domains_affected);
        self.ns_direct.append(&mut other.ns_direct);
        self.ns_collateral.append(&mut other.ns_collateral);
        self.nssets.append(&mut other.nssets);
    }

    /// Incrementally join episodes `[from, episodes.len())` and append the
    /// resulting rows. Growing a table by repeated `extend` calls as a
    /// feed streams in yields exactly the table [`JoinTable::build`] would
    /// produce over the full feed — the streaming consumer's way of
    /// keeping a hot join without rebuilding it per batch.
    #[allow(clippy::too_many_arguments)]
    pub fn extend(
        &mut self,
        infra: &Infra,
        directory: &dyn NsDirectory,
        episodes: &EpisodeColumns,
        from: usize,
        open_resolvers: &OpenResolverList,
        include_collateral: bool,
        day_offset: u64,
        trace_scope: Option<&str>,
    ) {
        if from >= episodes.len() {
            return;
        }
        let mut part = build_chunk(
            infra,
            directory,
            episodes,
            from..episodes.len(),
            open_resolvers,
            include_collateral,
            day_offset,
            trace_scope,
        );
        self.append(&mut part);
    }

    /// Materialize the row form (the `LongitudinalReport` API and the
    /// differential suite compare through this).
    pub fn to_events(&self) -> Vec<DnsAttackEvent> {
        (0..self.len())
            .map(|i| DnsAttackEvent {
                episode_idx: self.episode_idx[i] as usize,
                ns_direct: self.ns_direct.row(i).to_vec(),
                ns_collateral: self.ns_collateral.row(i).to_vec(),
                nssets: self.nssets.row(i).to_vec(),
                domains_affected: self.domains_affected[i],
                month: self.months[i],
            })
            .collect()
    }
}

/// Join one contiguous shard of the columnar feed. Mirrors the reference
/// `join::join_chunk` decision-for-decision; the only differences are the
/// storage layout and the union-count strategy (sorted-merge over the
/// already-sorted `domains_of_nsset` slices instead of a per-row
/// `HashSet`).
#[allow(clippy::too_many_arguments)]
fn build_chunk(
    infra: &Infra,
    directory: &dyn NsDirectory,
    episodes: &EpisodeColumns,
    range: std::ops::Range<usize>,
    open_resolvers: &OpenResolverList,
    include_collateral: bool,
    day_offset: u64,
    trace_scope: Option<&str>,
) -> JoinTable {
    let episodes_in = range.len();
    let mut table = JoinTable::with_row_capacity(episodes_in / 8);
    let mut ns_direct: Vec<NsId> = Vec::new();
    let mut ns_collateral: Vec<NsId> = Vec::new();
    let mut nssets: Vec<NsSetId> = Vec::new();
    let mut union: Vec<u32> = Vec::new();
    // `domains_affected` of each multi-NSSet list this call has met: a
    // nameserver attacked many times brings the same list, and the same
    // union of its sets' domains, every time. Empty (and unallocated) until
    // such a list is met. On the standard hasher: a slice key writes its
    // length as bytes, which `simcore::hash` refuses.
    let mut unions: HashMap<Vec<NsSetId>, u64> = HashMap::new();
    for idx in range {
        let victim = episodes.victim(idx);
        if open_resolvers.contains(victim) {
            continue;
        }
        let first_window = episodes.first_windows[idx];
        let day = first_window.day().saturating_sub(day_offset);
        ns_direct.clear();
        ns_collateral.clear();
        if let Some(ns) = directory.ns_at(victim, day) {
            ns_direct.push(ns);
        } else if include_collateral {
            let prefix = netbase::Slash24::of(victim);
            for ns in infra.nameservers_in_slash24(prefix) {
                if directory.ns_at(infra.nameserver(ns).addr, day).is_some() {
                    ns_collateral.push(ns);
                }
            }
        }
        if ns_direct.is_empty() && ns_collateral.is_empty() {
            continue;
        }
        nssets.clear();
        for &ns in ns_direct.iter().chain(&ns_collateral) {
            nssets.extend_from_slice(infra.nssets_of_ns(ns));
        }
        nssets.sort_unstable();
        nssets.dedup();
        // Distinct domains behind the NSSets. `domains_of_nsset` slices
        // ascend, so a single-set event needs no dedup at all.
        let domains_affected = match nssets.as_slice() {
            [] => 0,
            [only] => infra.domains_of_nsset(*only).len() as u64,
            sets => match unions.get(sets) {
                Some(&n) => n,
                None => {
                    let n = union_len(infra, sets, &mut union);
                    unions.insert(sets.to_vec(), n);
                    n
                }
            },
        };
        if let Some(scope) = trace_scope {
            obs::trace::emit(
                obs::EventKind::JoinMatched,
                scope,
                Some(idx as u64),
                Some(first_window.start().secs()),
                format!(
                    "victim {} → {} direct + {} collateral ns, {} nsset(s)",
                    victim,
                    ns_direct.len(),
                    ns_collateral.len(),
                    nssets.len()
                ),
                Some(domains_affected),
            );
        }
        table.episode_idx.push(idx as u32);
        table.months.push(first_window.start().month());
        table.domains_affected.push(domains_affected);
        table.ns_direct.push_row(ns_direct.iter().copied());
        table.ns_collateral.push_row(ns_collateral.iter().copied());
        table.nssets.push_row(nssets.iter().copied());
    }
    // Per-shard totals sum to the same whole-feed totals whatever the
    // sharding, so these counters are `--jobs`-independent (and match the
    // reference path's exactly).
    obs::counter("join.episodes_in").add(episodes_in as u64);
    obs::counter("join.rows_joined").add(table.len() as u64);
    table
}

/// Distinct domains behind `sets`: collect, sort, dedup (`union` is the
/// caller's scratch buffer).
fn union_len(infra: &Infra, sets: &[NsSetId], union: &mut Vec<u32>) -> u64 {
    union.clear();
    for &set in sets {
        union.extend(infra.domains_of_nsset(set).iter().map(|d| d.0));
    }
    union.sort_unstable();
    union.dedup();
    union.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::join_episodes_sharded;
    use attack::Protocol;
    use dnssim::Deployment;
    use netbase::Asn;
    use simcore::time::Window;
    use telescope::AttackEpisode;

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

    fn world() -> Infra {
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
        infra
    }

    fn feed() -> Vec<AttackEpisode> {
        vec![
            episode("195.135.195.195", 288 * 3), // direct, 2 nssets
            episode("8.100.2.3", 288),           // no DNS victim
            episode("203.0.113.53", 288 * 4),    // direct, 1 nsset
            episode("195.135.195.80", 288 * 5),  // /24 collateral only
            episode("195.135.195.195", 288 * 40),
        ]
    }

    #[test]
    fn columnar_matches_reference_rows() {
        let infra = world();
        let eps = feed();
        let cols = EpisodeColumns::from_episodes(&eps);
        for include_collateral in [false, true] {
            for jobs in [1usize, 2, 8] {
                let reference = join_episodes_sharded(
                    &infra,
                    &infra,
                    &eps,
                    &OpenResolverList::new(),
                    include_collateral,
                    1,
                    jobs,
                );
                let table = JoinTable::build(
                    &infra,
                    &infra,
                    &cols,
                    &OpenResolverList::new(),
                    include_collateral,
                    1,
                    jobs,
                    None,
                );
                assert_eq!(table.len(), reference.len());
                assert!(!table.is_empty());
                let events = table.to_events();
                assert_eq!(
                    format!("{events:?}"),
                    format!("{reference:?}"),
                    "collateral={include_collateral} jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn sharded_build_is_jobs_independent() {
        let infra = world();
        // A larger synthetic feed so several shards are non-trivial.
        let mut eps = Vec::new();
        for i in 0..200u64 {
            eps.push(episode(if i % 3 == 0 { "195.135.195.195" } else { "9.9.9.9" }, 288 + i * 7));
        }
        let cols = EpisodeColumns::from_episodes(&eps);
        let build = |jobs| {
            JoinTable::build(&infra, &infra, &cols, &OpenResolverList::new(), false, 1, jobs, None)
        };
        let seq = build(1);
        for jobs in [2usize, 3, 8, 64] {
            let par = build(jobs);
            assert_eq!(format!("{:?}", seq.to_events()), format!("{:?}", par.to_events()));
        }
    }

    #[test]
    fn incremental_extend_matches_bulk_build() {
        let infra = world();
        let eps = feed();
        let cols = EpisodeColumns::from_episodes(&eps);
        for include_collateral in [false, true] {
            let bulk = JoinTable::build(
                &infra,
                &infra,
                &cols,
                &OpenResolverList::new(),
                include_collateral,
                1,
                1,
                None,
            );
            // Grow episode-by-episode, the way a streaming ingester does.
            let mut inc = JoinTable::default();
            let mut streamed = EpisodeColumns::default();
            for e in &eps {
                let from = streamed.len();
                streamed.push_episode(e);
                inc.extend(
                    &infra,
                    &infra,
                    &streamed,
                    from,
                    &OpenResolverList::new(),
                    include_collateral,
                    1,
                    None,
                );
            }
            assert_eq!(
                format!("{inc:?}"),
                format!("{bulk:?}"),
                "collateral={include_collateral}: streamed join equals bulk join"
            );
        }
    }

    #[test]
    fn remembered_domain_unions_equal_fresh_ones() {
        // Three nameservers whose NSSet lists are [s1, s2], [s1, s2, s3]
        // (the first list is its prefix) and [s2, s3].
        let mut infra = Infra::new();
        let ns: Vec<NsId> = ["195.135.195.195", "203.0.113.53", "198.51.100.7"]
            .iter()
            .enumerate()
            .map(|(i, addr)| {
                infra.add_nameserver(
                    format!("ns{i}.host.net").parse().unwrap(),
                    addr.parse().unwrap(),
                    Asn(64500),
                    Deployment::Unicast,
                    10_000.0,
                    100.0,
                    15.0,
                )
            })
            .collect();
        let s1 = infra.intern_nsset(vec![ns[0], ns[1]]);
        let s2 = infra.intern_nsset(vec![ns[1], ns[0], ns[2]]);
        let s3 = infra.intern_nsset(vec![ns[1], ns[2]]);
        for (set, count) in [(s1, 30), (s2, 7), (s3, 11)] {
            for i in 0..count {
                infra.add_domain(format!("d{i}.set{}.nl", set.0).parse().unwrap(), set);
            }
        }
        assert_eq!(infra.nssets_of_ns(ns[0]), &[s1, s2]);
        assert_eq!(infra.nssets_of_ns(ns[1]), &[s1, s2, s3]);
        assert_eq!(infra.nssets_of_ns(ns[2]), &[s2, s3]);
        // One nameserver repeated, two alternating, then the third list.
        let (a, b, c) = ("195.135.195.195", "203.0.113.53", "198.51.100.7");
        let victims = [a, a, a, b, a, b, a, b, b, c, a, c];
        let eps: Vec<AttackEpisode> =
            victims.iter().enumerate().map(|(i, v)| episode(v, 288 * (3 + i as u64))).collect();
        let cols = EpisodeColumns::from_episodes(&eps);
        for jobs in [1usize, 3] {
            let table = JoinTable::build(
                &infra,
                &infra,
                &cols,
                &OpenResolverList::new(),
                false,
                1,
                jobs,
                None,
            );
            assert_eq!(table.len(), victims.len());
            let mut scratch = Vec::new();
            for r in 0..table.len() {
                let fresh = union_len(&infra, table.nssets.row(r), &mut scratch);
                assert_eq!(table.domains_affected[r], fresh, "row {r}, jobs={jobs}");
            }
            assert_eq!(&table.domains_affected[..4], &[37, 37, 37, 48]);
            let reference =
                join_episodes_sharded(&infra, &infra, &eps, &OpenResolverList::new(), false, 1, 1);
            assert_eq!(format!("{:?}", table.to_events()), format!("{reference:?}"));
        }
    }

    #[test]
    fn collist_append_stitches_rows() {
        let mut a: ColList<u32> = ColList::new();
        a.push_row([1, 2, 3]);
        a.push_row([]);
        let mut b = ColList::new();
        b.push_row([9]);
        b.push_row([7, 8]);
        a.append(&mut b);
        assert_eq!(a.rows(), 4);
        assert_eq!(a.row(0), &[1, 2, 3]);
        assert_eq!(a.row(1), &[] as &[u32]);
        assert_eq!(a.row(2), &[9]);
        assert_eq!(a.row(3), &[7, 8]);
        assert_eq!(b.rows(), 0, "append drains the source");
    }
}
