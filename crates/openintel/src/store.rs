//! Measurement storage and the per-(NSSet, window) aggregation of §4.1.

use crate::measure::MeasurementRec;
use dnssim::{NsSetId, QueryStatus};
use simcore::hash::PackedMap;
use simcore::stats::Moments;
use simcore::time::Window;
use std::fmt::Write as _;

/// Aggregated statistics for one NSSet in one 5-minute window — the exact
/// tuple the paper's pipeline computes: domains resolved, average/min/max
/// RTT, and error counts.
#[derive(Clone, Debug, Default)]
pub struct NsSetWindowStats {
    pub domains_measured: u64,
    pub ok: u64,
    pub timeout: u64,
    pub servfail: u64,
    rtt: Moments,
}

impl NsSetWindowStats {
    pub fn push(&mut self, rec: &MeasurementRec) {
        self.domains_measured += 1;
        match rec.status {
            QueryStatus::Ok => self.ok += 1,
            QueryStatus::Timeout => self.timeout += 1,
            QueryStatus::ServFail => self.servfail += 1,
        }
        // RTT is recorded for every attempt (a timed-out resolution still
        // consumed resolver wall-clock, which is what an end user feels).
        self.rtt.push(rec.rtt_ms);
    }

    pub fn avg_rtt(&self) -> f64 {
        self.rtt.mean()
    }
    pub fn min_rtt(&self) -> f64 {
        self.rtt.min()
    }
    pub fn max_rtt(&self) -> f64 {
        self.rtt.max()
    }
    pub fn errors(&self) -> u64 {
        self.timeout + self.servfail
    }
    /// Fraction of measured domains that failed to resolve.
    pub fn failure_rate(&self) -> f64 {
        if self.domains_measured == 0 {
            0.0
        } else {
            self.errors() as f64 / self.domains_measured as f64
        }
    }

    pub fn merge(&mut self, other: &NsSetWindowStats) {
        self.domains_measured += other.domains_measured;
        self.ok += other.ok;
        self.timeout += other.timeout;
        self.servfail += other.servfail;
        self.rtt.merge(&other.rtt);
    }
}

/// The measurement store: append rows, read per-window and per-day
/// aggregates.
///
/// Both maps are keyed by ids this program minted, so they hash through
/// `simcore::hash`.
#[derive(Clone, Debug, Default)]
pub struct MeasurementStore {
    cells: PackedMap<(NsSetId, Window), NsSetWindowStats>,
    days: PackedMap<(NsSetId, u64), NsSetWindowStats>,
}

impl MeasurementStore {
    pub fn new() -> MeasurementStore {
        MeasurementStore::default()
    }

    pub fn ingest(&mut self, recs: &[MeasurementRec]) {
        // One probe of each map per run of equal (nsset, window), which for
        // a cell's batch is the batch, not per record.
        for run in recs.chunk_by(|a, b| (a.nsset, a.window) == (b.nsset, b.window)) {
            let (nsset, window) = (run[0].nsset, run[0].window);
            let cell = self.cells.entry((nsset, window)).or_default();
            let day = self.days.entry((nsset, window.day())).or_default();
            for r in run {
                cell.push(r);
                day.push(r);
            }
        }
    }

    /// [`ingest`] for a baseline: the sampled sweep of one NSSet on one day,
    /// which Equation 1 reads back as that day's aggregate (`day_stats`),
    /// not window by window. One probe of the day map per run of equal
    /// `(nsset, day)`, which is the whole batch, and a window cell only
    /// where `read` says some window-level reader will look: a probe that
    /// lands in a window an attack's range covers counts there, as it does
    /// through `ingest`; the others would fill cells nobody reads. Records
    /// are pushed one by one in batch order, so every aggregate that exists
    /// holds, bit for bit, what `ingest` gives it.
    ///
    /// [`ingest`]: MeasurementStore::ingest
    pub fn ingest_baseline(
        &mut self,
        recs: &[MeasurementRec],
        read: impl Fn(NsSetId, Window) -> bool,
    ) {
        for run in recs.chunk_by(|a, b| (a.nsset, a.window.day()) == (b.nsset, b.window.day())) {
            let nsset = run[0].nsset;
            let day = self.days.entry((nsset, run[0].window.day())).or_default();
            for r in run {
                day.push(r);
                if read(nsset, r.window) {
                    self.cells.entry((nsset, r.window)).or_default().push(r);
                }
            }
        }
    }

    pub fn window_stats(&self, nsset: NsSetId, window: Window) -> Option<&NsSetWindowStats> {
        self.cells.get(&(nsset, window))
    }

    /// Whole-day aggregate — the paper's `Average RTT (Day Before)`
    /// baseline denominator (§4.1).
    pub fn day_stats(&self, nsset: NsSetId, day: u64) -> Option<&NsSetWindowStats> {
        self.days.get(&(nsset, day))
    }

    /// Aggregate over a window range `[first, last]`.
    pub fn range_stats(&self, nsset: NsSetId, first: Window, last: Window) -> NsSetWindowStats {
        let mut out = NsSetWindowStats::default();
        for w in first.0..=last.0 {
            if let Some(s) = self.cells.get(&(nsset, Window(w))) {
                out.merge(s);
            }
        }
        out
    }

    /// The paper's Equation 1: `Impact_on_RTT = avgRTT(range) /
    /// avgRTT(day before the range starts)`. `None` when either side lacks
    /// data.
    pub fn impact_on_rtt(&self, nsset: NsSetId, first: Window, last: Window) -> Option<f64> {
        let day_before = first.day().checked_sub(1)?;
        self.impact_on_rtt_from_day(nsset, first, last, day_before)
    }

    /// Equation 1 against an explicit baseline day — the degradation path:
    /// when the day-before sweep was lost to a sensor outage, the pipeline
    /// falls back to the week-before day (§4.1's r = 0.999 ablation shows
    /// the two baselines agree).
    pub fn impact_on_rtt_from_day(
        &self,
        nsset: NsSetId,
        first: Window,
        last: Window,
        baseline_day: u64,
    ) -> Option<f64> {
        let during = self.range_stats(nsset, first, last);
        if during.domains_measured == 0 {
            return None;
        }
        let baseline = self.day_stats(nsset, baseline_day)?;
        if baseline.domains_measured == 0
            || baseline.avg_rtt().is_nan()
            || baseline.avg_rtt() <= 0.0
        {
            return None;
        }
        Some(during.avg_rtt() / baseline.avg_rtt())
    }

    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// CSV of the per-window aggregates.
    pub fn csv(&self) -> String {
        let mut rows: Vec<_> = self.cells.iter().collect();
        rows.sort_by_key(|((set, w), _)| (w.0, set.0));
        let mut s = String::from(
            "nsset,window,domains,ok,timeout,servfail,avg_rtt_ms,min_rtt_ms,max_rtt_ms\n",
        );
        for ((set, w), st) in rows {
            let _ = writeln!(
                s,
                "{},{},{},{},{},{},{:.3},{:.3},{:.3}",
                set.0,
                w.0,
                st.domains_measured,
                st.ok,
                st.timeout,
                st.servfail,
                st.avg_rtt(),
                st.min_rtt(),
                st.max_rtt()
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnssim::DomainId;

    fn rec(set: u32, w: u64, rtt: f64, status: QueryStatus) -> MeasurementRec {
        MeasurementRec {
            domain: DomainId(0),
            nsset: NsSetId(set),
            window: Window(w),
            rtt_ms: rtt,
            status,
        }
    }

    #[test]
    fn window_aggregation() {
        let mut store = MeasurementStore::new();
        store.ingest(&[
            rec(1, 10, 20.0, QueryStatus::Ok),
            rec(1, 10, 40.0, QueryStatus::Ok),
            rec(1, 10, 3_000.0, QueryStatus::Timeout),
            rec(1, 11, 25.0, QueryStatus::Ok),
            rec(2, 10, 99.0, QueryStatus::ServFail),
        ]);
        let s = store.window_stats(NsSetId(1), Window(10)).unwrap();
        assert_eq!(s.domains_measured, 3);
        assert_eq!(s.ok, 2);
        assert_eq!(s.timeout, 1);
        assert_eq!(s.errors(), 1);
        assert!((s.avg_rtt() - 1_020.0).abs() < 1e-9);
        assert_eq!(s.min_rtt(), 20.0);
        assert_eq!(s.max_rtt(), 3_000.0);
        assert!((s.failure_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert!(store.window_stats(NsSetId(1), Window(12)).is_none());
    }

    #[test]
    fn day_aggregation_spans_windows() {
        let mut store = MeasurementStore::new();
        // Day 0 = windows 0..288.
        store.ingest(&[
            rec(1, 5, 10.0, QueryStatus::Ok),
            rec(1, 200, 30.0, QueryStatus::Ok),
            rec(1, 288, 99.0, QueryStatus::Ok), // day 1
        ]);
        let d0 = store.day_stats(NsSetId(1), 0).unwrap();
        assert_eq!(d0.domains_measured, 2);
        assert!((d0.avg_rtt() - 20.0).abs() < 1e-9);
        let d1 = store.day_stats(NsSetId(1), 1).unwrap();
        assert_eq!(d1.domains_measured, 1);
    }

    #[test]
    fn impact_on_rtt_equation() {
        let mut store = MeasurementStore::new();
        // Baseline day 0: avg 20 ms.
        store.ingest(&[rec(1, 10, 15.0, QueryStatus::Ok), rec(1, 150, 25.0, QueryStatus::Ok)]);
        // Attack range on day 1: avg 200 ms → impact 10×.
        store.ingest(&[
            rec(1, 288 + 50, 180.0, QueryStatus::Ok),
            rec(1, 288 + 51, 220.0, QueryStatus::Ok),
        ]);
        let impact = store.impact_on_rtt(NsSetId(1), Window(288 + 50), Window(288 + 51)).unwrap();
        assert!((impact - 10.0).abs() < 1e-9);
    }

    #[test]
    fn impact_requires_both_sides() {
        let mut store = MeasurementStore::new();
        store.ingest(&[rec(1, 288 + 50, 100.0, QueryStatus::Ok)]);
        // No baseline on day 0.
        assert!(store.impact_on_rtt(NsSetId(1), Window(288 + 50), Window(288 + 50)).is_none());
        // Range on day 0 has no previous day at all.
        assert!(store.impact_on_rtt(NsSetId(1), Window(10), Window(11)).is_none());
        // No measurements in range.
        store.ingest(&[rec(1, 5, 10.0, QueryStatus::Ok)]);
        assert!(store.impact_on_rtt(NsSetId(1), Window(600), Window(601)).is_none());
    }

    #[test]
    fn range_stats_merge() {
        let mut store = MeasurementStore::new();
        store.ingest(&[
            rec(1, 10, 10.0, QueryStatus::Ok),
            rec(1, 11, 20.0, QueryStatus::Timeout),
            rec(1, 13, 30.0, QueryStatus::Ok),
        ]);
        let r = store.range_stats(NsSetId(1), Window(10), Window(12));
        assert_eq!(r.domains_measured, 2);
        assert_eq!(r.errors(), 1);
        assert!((r.avg_rtt() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn baseline_fold_keeps_the_day_and_only_the_read_cells() {
        // One NSSet's day 1, two probes sharing window 300, and a stray
        // run on another day and set: the fold is per run of (nsset, day).
        let batch = [
            rec(1, 300, 20.0, QueryStatus::Ok),
            rec(1, 290, 3_000.0, QueryStatus::Timeout),
            rec(1, 300, 0.1 + 0.2, QueryStatus::Ok),
            rec(1, 500, 7.0, QueryStatus::ServFail),
            rec(2, 10, 9.0, QueryStatus::Ok),
        ];
        let mut folded = MeasurementStore::new();
        folded.ingest_baseline(&batch, |set, w| set == NsSetId(1) && (295..=305).contains(&w.0));
        let mut ingested = MeasurementStore::new();
        ingested.ingest(&batch);
        for (set, day) in [(1, 1), (2, 0), (1, 0)] {
            assert_eq!(
                format!("{:?}", folded.day_stats(NsSetId(set), day)),
                format!("{:?}", ingested.day_stats(NsSetId(set), day)),
            );
        }
        assert_eq!(
            format!("{:?}", folded.window_stats(NsSetId(1), Window(300))),
            format!("{:?}", ingested.window_stats(NsSetId(1), Window(300))),
            "both probes, in batch order"
        );
        assert_eq!(folded.cell_count(), 1);
        assert_eq!(ingested.cell_count(), 4);
    }

    #[test]
    fn csv_sorted_and_complete() {
        let mut store = MeasurementStore::new();
        store.ingest(&[rec(2, 10, 9.0, QueryStatus::Ok), rec(1, 9, 5.0, QueryStatus::Ok)]);
        let csv = store.csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("1,9,"));
        assert!(lines[2].starts_with("2,10,"));
        assert_eq!(store.cell_count(), 2);
    }
}
