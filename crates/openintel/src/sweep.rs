//! The daily sweep schedule.
//!
//! OpenINTEL measures each domain once per day. We assign every domain a
//! stable window-of-day by hashing its id with the schedule seed, so (a)
//! the same domain is measured at the same time every day (as the real
//! pipeline's batching approximately does), and (b) a NSSet's domains
//! spread uniformly over the 288 daily windows.

use dnssim::{DomainId, Infra, NsSetId};
use simcore::rng::splitmix64;
use simcore::time::{Window, WINDOWS_PER_DAY};

/// The deterministic daily measurement schedule.
#[derive(Clone, Debug)]
pub struct SweepSchedule {
    seed: u64,
}

impl SweepSchedule {
    pub fn new(seed: u64) -> SweepSchedule {
        SweepSchedule { seed }
    }

    /// The window-of-day (0..288) in which `domain` is measured daily.
    pub fn window_of_day(&self, domain: DomainId) -> u64 {
        let mut s = self.seed ^ (domain.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        splitmix64(&mut s) % WINDOWS_PER_DAY
    }

    /// The absolute window in which `domain` is measured on `day`.
    pub fn window_on_day(&self, domain: DomainId, day: u64) -> Window {
        Window(day * WINDOWS_PER_DAY + self.window_of_day(domain))
    }

    /// Whether `domain` is measured in `window`.
    pub fn measures_in(&self, domain: DomainId, window: Window) -> bool {
        window.0 % WINDOWS_PER_DAY == self.window_of_day(domain)
    }

    /// Domains of `nsset` that get measured in `window`.
    pub fn domains_in_window(
        &self,
        infra: &Infra,
        nsset: NsSetId,
        window: Window,
    ) -> Vec<DomainId> {
        let wod = window.0 % WINDOWS_PER_DAY;
        infra
            .domains_of_nsset(nsset)
            .iter()
            .copied()
            .filter(|&d| self.window_of_day(d) == wod)
            .collect()
    }

    /// `nsset`'s domains grouped by window-of-day: bucket `w %
    /// WINDOWS_PER_DAY` holds, in ascending id order, the domains measured
    /// in window `w`. Walking `first..=last` over the buckets visits what
    /// [`for_each_in_window_range`] visits, window-major, each window's
    /// domains in the same ascending order, and touches only the domains
    /// scheduled inside the range instead of every domain of the NSSet once
    /// per day. A caller planning many ranges over one NSSet builds this
    /// once.
    ///
    /// [`for_each_in_window_range`]: SweepSchedule::for_each_in_window_range
    pub fn by_window_of_day(&self, infra: &Infra, nsset: NsSetId) -> Vec<Vec<DomainId>> {
        let mut buckets = vec![Vec::new(); WINDOWS_PER_DAY as usize];
        for &d in infra.domains_of_nsset(nsset) {
            buckets[self.window_of_day(d) as usize].push(d);
        }
        buckets
    }

    /// Domains of `nsset` measured in any window of `[first, last]`
    /// (inclusive), with their absolute windows. This is "the domains
    /// OpenINTEL measured during the attack" (§6.3's ≥5-domain filter).
    pub fn domains_in_window_range(
        &self,
        infra: &Infra,
        nsset: NsSetId,
        first: Window,
        last: Window,
    ) -> Vec<(DomainId, Window)> {
        let mut out = Vec::new();
        self.for_each_in_window_range(infra, nsset, first, last, |d, w| out.push((d, w)));
        out.sort_by_key(|&(d, w)| (w, d.0));
        out
    }

    /// Streaming form of [`domains_in_window_range`]: visit every
    /// `(domain, window)` measurement in `[first, last]` without
    /// materializing the list. Visits are domain-major (domains in
    /// ascending id order, each domain's windows ascending), so any
    /// per-window grouping a caller builds receives each window's domains
    /// in ascending id order — exactly the order the materialized,
    /// `(window, domain)`-sorted form yields per window. The columnar
    /// impact planner leans on that to stay byte-identical to the
    /// reference path while skipping the sort and the allocation.
    ///
    /// [`domains_in_window_range`]: SweepSchedule::domains_in_window_range
    pub fn for_each_in_window_range(
        &self,
        infra: &Infra,
        nsset: NsSetId,
        first: Window,
        last: Window,
        mut visit: impl FnMut(DomainId, Window),
    ) {
        for &d in infra.domains_of_nsset(nsset) {
            let wod = self.window_of_day(d);
            // Scan the days the range touches.
            let mut day = first.day();
            while day <= last.day() {
                let w = Window(day * WINDOWS_PER_DAY + wod);
                if w >= first && w <= last {
                    visit(d, w);
                }
                day += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnssim::Deployment;
    use netbase::Asn;

    fn world(n_domains: u32) -> (Infra, NsSetId) {
        let mut infra = Infra::new();
        let ns = infra.add_nameserver(
            "ns1.host.net".parse().unwrap(),
            "198.51.100.1".parse().unwrap(),
            Asn(64500),
            Deployment::Unicast,
            10_000.0,
            100.0,
            20.0,
        );
        let set = infra.intern_nsset(vec![ns]);
        for i in 0..n_domains {
            infra.add_domain(format!("d{i}.example").parse().unwrap(), set);
        }
        (infra, set)
    }

    #[test]
    fn schedule_is_stable_and_daily() {
        let s = SweepSchedule::new(1);
        let d = DomainId(42);
        let wod = s.window_of_day(d);
        assert!(wod < 288);
        assert_eq!(s.window_of_day(d), wod);
        assert_eq!(s.window_on_day(d, 0).0, wod);
        assert_eq!(s.window_on_day(d, 10).0, 10 * 288 + wod);
        assert!(s.measures_in(d, s.window_on_day(d, 5)));
        assert!(!s.measures_in(d, Window(s.window_on_day(d, 5).0 + 1)));
    }

    #[test]
    fn domains_spread_over_day() {
        let (infra, set) = world(5_000);
        let s = SweepSchedule::new(7);
        let mut counts = vec![0usize; 288];
        for w in 0..288 {
            counts[w as usize] = s.domains_in_window(&infra, set, Window(w)).len();
        }
        let total: usize = counts.iter().sum();
        assert_eq!(total, 5_000, "every domain measured exactly once per day");
        // Roughly uniform: no window empty, none wildly over-loaded.
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(min >= 2, "min {min}");
        assert!(max <= 50, "max {max}");
    }

    #[test]
    fn range_query_counts_attack_measurements() {
        let (infra, set) = world(2_880); // 10 per window on average
        let s = SweepSchedule::new(3);
        // A 1-hour attack spans 12 windows → ≈120 measured domains.
        let first = Window(100 * 288 + 36);
        let last = Window(100 * 288 + 47);
        let measured = s.domains_in_window_range(&infra, set, first, last);
        assert!(
            (90..=150).contains(&measured.len()),
            "expected ≈120 measurements, got {}",
            measured.len()
        );
        for &(d, w) in &measured {
            assert!(w >= first && w <= last);
            assert!(s.measures_in(d, w));
        }
        // Sorted by window.
        assert!(measured.windows(2).all(|p| p[0].1 <= p[1].1));
    }

    #[test]
    fn range_spanning_midnight_hits_both_days() {
        let (infra, set) = world(2_880);
        let s = SweepSchedule::new(3);
        // Last 6 windows of day 4 + first 6 of day 5.
        let first = Window(5 * 288 - 6);
        let last = Window(5 * 288 + 5);
        let measured = s.domains_in_window_range(&infra, set, first, last);
        let day4 = measured.iter().filter(|&&(_, w)| w.day() == 4).count();
        let day5 = measured.iter().filter(|&&(_, w)| w.day() == 5).count();
        assert!(day4 > 0 && day5 > 0, "day4 {day4} day5 {day5}");
    }

    #[test]
    fn multi_day_range_measures_domains_repeatedly() {
        let (infra, set) = world(288);
        let s = SweepSchedule::new(11);
        let measured = s.domains_in_window_range(&infra, set, Window(0), Window(3 * 288 - 1));
        assert_eq!(measured.len(), 288 * 3, "each domain once per day for 3 days");
    }

    #[test]
    fn streaming_visit_matches_materialized_range() {
        let (infra, set) = world(2_880);
        let s = SweepSchedule::new(3);
        let first = Window(100 * 288 + 30);
        let last = Window(101 * 288 + 10);
        let materialized = s.domains_in_window_range(&infra, set, first, last);
        let mut streamed = Vec::new();
        s.for_each_in_window_range(&infra, set, first, last, |d, w| streamed.push((d, w)));
        assert_eq!(streamed.len(), materialized.len());
        streamed.sort_by_key(|&(d, w)| (w, d.0));
        assert_eq!(streamed, materialized);
        // Visit order is domain-major: strictly ascending (domain, window).
        let mut raw = Vec::new();
        s.for_each_in_window_range(&infra, set, first, last, |d, w| raw.push((d.0, w.0)));
        assert!(raw.windows(2).all(|p| p[0] < p[1]), "domain-major visit order");
    }

    proptest::proptest! {
        /// Walking `first..=last` over the window-of-day groups visits what
        /// the per-domain day scan visits: equal to the `(window,
        /// domain)`-sorted materialized list, so the same multiset and,
        /// inside each window, the same ascending-id order. Ranges shorter
        /// than a day (inside one or across midnight), a day exactly
        /// (aligned or not), longer, and empty.
        #[test]
        fn window_of_day_groups_visit_what_the_range_scan_visits(
            seed in 0u64..4,
            first in 1u64..3_000,
            span in 0usize..9,
        ) {
            let (infra, set) = world(1_500);
            let s = SweepSchedule::new(seed);
            let groups = s.by_window_of_day(&infra, set);
            proptest::prop_assert_eq!(groups.len(), 288);
            proptest::prop_assert_eq!(groups.iter().map(Vec::len).sum::<usize>(), 1_500);
            let windows = [0, 1, 12, 287, 288, 289, 700, 2_000, 288 - first % 288][span];
            let last = first + windows - 1;
            let mut grouped = Vec::new();
            for w in first..=last {
                grouped.extend(groups[(w % 288) as usize].iter().map(|&d| (d, Window(w))));
            }
            let scanned = s.domains_in_window_range(&infra, set, Window(first), Window(last));
            proptest::prop_assert_eq!(grouped, scanned);
        }
    }

    #[test]
    fn different_seeds_shuffle_schedule() {
        let a = SweepSchedule::new(1);
        let b = SweepSchedule::new(2);
        let diff = (0..1000)
            .filter(|&i| a.window_of_day(DomainId(i)) != b.window_of_day(DomainId(i)))
            .count();
        assert!(diff > 900);
    }
}
