//! Seeded telescope-feed gap model.
//!
//! The UCSD telescope's RSDoS feed has outage windows: the collector goes
//! down for minutes-to-hours and either loses records outright or delivers
//! the backlog late, once it recovers. This module produces a deterministic
//! gap schedule so downstream consumers (the reactive platform above all)
//! can be exercised against realistic degraded feeds: records inside a gap
//! are delayed until the gap closes, and a configurable fraction of them is
//! lost entirely.
//!
//! All decisions are pure functions of `(seed, window)` — reproducible, and
//! independent of thread count.

use crate::feed::RsdosRecord;
use simcore::rng::{hash_label, splitmix64, RngFactory};
use simcore::time::{SimTime, Window, WINDOWS_PER_DAY};

/// A deterministic schedule of feed gaps: at most one gap per day-block.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FeedGapModel {
    seed: u64,
    /// Probability that a given day contains a feed gap.
    pub gap_prob: f64,
    /// Longest gap, in 5-minute windows.
    pub max_gap_windows: u32,
    /// Fraction of in-gap records lost outright (the rest arrive late,
    /// when the collector recovers).
    pub loss_frac: f64,
}

impl FeedGapModel {
    pub fn new(
        rngs: &RngFactory,
        gap_prob: f64,
        max_gap_windows: u32,
        loss_frac: f64,
    ) -> FeedGapModel {
        FeedGapModel { seed: rngs.fork("feed-gap").seed(), gap_prob, max_gap_windows, loss_frac }
    }

    pub fn from_seed(
        seed: u64,
        gap_prob: f64,
        max_gap_windows: u32,
        loss_frac: f64,
    ) -> FeedGapModel {
        FeedGapModel::new(&RngFactory::new(seed), gap_prob, max_gap_windows, loss_frac)
    }

    fn unit(&self, tag: &str, a: u64) -> f64 {
        let mut s = self.seed ^ hash_label(tag) ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (splitmix64(&mut s) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The gap on `day`, as a window range `[start, end)`, if any.
    fn day_gap(&self, day: u64) -> Option<(u64, u64)> {
        if self.max_gap_windows == 0 || self.unit("gap?", day) >= self.gap_prob {
            return None;
        }
        let len = 1 + (self.unit("gap-len", day) * self.max_gap_windows as f64) as u64;
        let offset = (self.unit("gap-off", day) * WINDOWS_PER_DAY as f64) as u64;
        let start = day * WINDOWS_PER_DAY + offset.min(WINDOWS_PER_DAY - 1);
        Some((start, start + len))
    }

    /// Is window `w` inside a feed gap?
    pub fn in_gap(&self, w: Window) -> bool {
        // A gap can spill past its day's end, so check this day and the
        // previous one.
        let day = w.day();
        for d in day.saturating_sub(1)..=day {
            if let Some((start, end)) = self.day_gap(d) {
                if (start..end).contains(&w.0) {
                    return true;
                }
            }
        }
        false
    }

    /// When a record generated in window `w` actually reaches consumers:
    /// the window's close normally, or the end of the surrounding gap when
    /// the collector was down (backlog delivery).
    pub fn arrival_of(&self, w: Window) -> SimTime {
        let day = w.day();
        for d in day.saturating_sub(1)..=day {
            if let Some((start, end)) = self.day_gap(d) {
                if (start..end).contains(&w.0) {
                    return Window(end).start();
                }
            }
        }
        w.end()
    }

    /// Is this record lost outright (rather than merely delayed)?
    pub fn record_lost(&self, r: &RsdosRecord) -> bool {
        self.in_gap(r.window)
            && self.unit("lost?", r.window.0 ^ u64::from(u32::from(r.victim)).rotate_left(32))
                < self.loss_frac
    }

    /// Apply the model to a feed: returns `(record, arrival time)` pairs for
    /// the surviving records (ordered by arrival, then feed order) and the
    /// count of records lost to gaps.
    pub fn apply(&self, records: &[RsdosRecord]) -> (Vec<(RsdosRecord, SimTime)>, u64) {
        let mut lost = 0u64;
        let mut late = 0u64;
        let mut gap_windows = 0u64;
        let mut out: Vec<(RsdosRecord, SimTime)> = Vec::with_capacity(records.len());
        for r in records {
            if self.record_lost(r) {
                lost += 1;
                continue;
            }
            let arrival = self.arrival_of(r.window);
            if arrival > r.window.end() {
                late += 1;
                // Delay from window close to backlog delivery, in whole
                // 5-minute windows.
                gap_windows += (arrival.secs() - r.window.end().secs()) / 300;
            }
            out.push((*r, arrival));
        }
        // Out-of-band accounting (see `obs`): pure function of (seed, feed),
        // so these are deterministic for a fixed experiment.
        obs::counter("feedgap.records_lost").add(lost);
        obs::counter("feedgap.records_late").add(late);
        obs::counter("feedgap.gap_minutes").add(gap_windows * 5);
        // Stable by arrival: late backlog records slot in after the on-time
        // records that precede the gap's close.
        out.sort_by_key(|(_, at)| *at);
        (out, lost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attack::Protocol;
    use std::net::Ipv4Addr;

    fn rec(window: u64) -> RsdosRecord {
        RsdosRecord {
            window: Window(window),
            victim: Ipv4Addr::new(203, 0, 113, 7),
            slash16s: 10,
            protocol: Protocol::Tcp,
            first_port: 53,
            unique_ports: 1,
            max_ppm: 1000.0,
            packets: 5000,
        }
    }

    fn model(gap_prob: f64) -> FeedGapModel {
        FeedGapModel::from_seed(13, gap_prob, 24, 0.25)
    }

    #[test]
    fn schedule_is_deterministic_and_seed_sensitive() {
        let a = model(0.5);
        let b = model(0.5);
        let windows: Vec<bool> = (0..5000).map(|w| a.in_gap(Window(w))).collect();
        assert_eq!(windows, (0..5000).map(|w| b.in_gap(Window(w))).collect::<Vec<_>>());
        let c = FeedGapModel::from_seed(14, 0.5, 24, 0.25);
        assert_ne!(windows, (0..5000).map(|w| c.in_gap(Window(w))).collect::<Vec<_>>());
        assert!(windows.iter().any(|g| *g), "gaps exist at 50% day probability");
        assert!(windows.iter().any(|g| !*g), "feed is not all gap");
    }

    #[test]
    fn gapless_model_changes_nothing() {
        let m = model(0.0);
        let feed: Vec<RsdosRecord> = (0..100).map(rec).collect();
        let (out, lost) = m.apply(&feed);
        assert_eq!(lost, 0);
        assert_eq!(out.len(), 100);
        for (r, at) in &out {
            assert_eq!(*at, r.window.end(), "on-time arrival at window close");
        }
    }

    #[test]
    fn in_gap_records_arrive_late_or_die() {
        let m = model(1.0);
        let feed: Vec<RsdosRecord> = (0..2000).map(rec).collect();
        let (out, lost) = m.apply(&feed);
        assert!(lost > 0, "some in-gap records lost at loss_frac 0.25");
        assert_eq!(out.len() + lost as usize, feed.len());
        let late = out.iter().filter(|(r, at)| *at > r.window.end()).count();
        assert!(late > 0, "surviving in-gap records are delayed");
        for (r, at) in &out {
            assert!(*at >= r.window.end(), "arrival never precedes the window close");
            if m.in_gap(r.window) {
                assert!(!m.record_lost(r));
            }
        }
        // Arrival order is monotone.
        assert!(out.windows(2).all(|p| p[0].1 <= p[1].1));
    }
}
