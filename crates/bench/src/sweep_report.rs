//! The scale-sweep report: schema `dnsimpact-sweep/v1`.
//!
//! One JSON document per `repro bench --scale-sweep` run, committed under
//! `results/SWEEP_<date>[_runN].json`. Each cell is one (scale, jobs)
//! point of the sweep grid; scale is the *target attack count* the pinned
//! catalog is divided down (or up) to, jobs the worker count:
//!
//! ```json
//! {
//!   "schema": "dnsimpact-sweep/v1",
//!   "meta": { "seed": 42, "chaos_seed": 9, "date": "2026-08-08",
//!             "heavy": 0 },
//!   "cells": [
//!     { "scale": 1500, "jobs": 1,
//!       "episodes": 1700, "joined_rows": 950, "records_measured": 80000,
//!       "records": 82650, "wall_ms": 412, "peak_rss_kb": 91234,
//!       "records_per_sec": 200606.8, "speedup_vs_jobs1": 1.0 },
//!     { "scale": 1500, "jobs": 8, "...": "..." }
//!   ]
//! }
//! ```
//!
//! `records` is the cell's total streamed record count (episodes
//! ingested plus join rows emitted plus sweep measurements taken) — the
//! numerator of `records_per_sec`. `speedup_vs_jobs1` divides the jobs=1
//! wall time of the same scale by this cell's wall time (1.0 for the
//! jobs=1 cell itself). Cells are strictly sorted by `(scale, jobs)`;
//! [`validate`] rejects unsorted or duplicate cells and any non-finite
//! float, so a NaN throughput can never reach a committed artifact.

use obs::schema::{self, record, Reader, Report};

/// Schema identifier carried in every sweep report.
pub const SWEEP_SCHEMA_ID: &str = "dnsimpact-sweep/v1";

record! {
    /// Sweep identity: the inputs shared by every cell.
    #[derive(Eq)]
    pub struct SweepMeta {
        pub seed: u64,
        pub chaos_seed: Option<u64>,
        /// UTC date of the run, `YYYY-MM-DD`.
        pub date: String [is schema::date],
        /// `DNSIMPACT_SCALE_HEAVY` level the sweep ran at (0 = smoke cells).
        pub heavy: u64,
    }

    /// One (scale, jobs) point of the sweep grid.
    pub struct SweepCell {
        /// Target attack count (the pinned catalog divided to ≈ this many).
        pub scale: u64,
        pub jobs: u64,
        /// Attack episodes ingested from the telescope feed.
        pub episodes: u64,
        /// Rows emitted by the RSDoS×NSSet join.
        pub joined_rows: u64,
        /// OpenINTEL sweep measurements taken by the impact stage.
        pub records_measured: u64,
        /// Total streamed records: `episodes + joined_rows + records_measured`.
        pub records: u64,
        pub wall_ms: u64,
        pub peak_rss_kb: u64,
        pub records_per_sec: f64,
        /// jobs=1 wall time at this scale / this cell's wall time.
        pub speedup_vs_jobs1: f64,
    }
    rules = SweepCell::rules;

    /// A complete sweep report, convertible to and from schema-`v1` JSON.
    pub struct SweepReport: Report {
        pub meta: SweepMeta,
        pub cells: Vec<SweepCell>,
    }
    rules = SweepReport::rules;
    pub fn validate;
}

impl SweepCell {
    fn rules(&self, r: &mut Reader) {
        let parts =
            schema::checked_sum([&self.episodes, &self.joined_rows, &self.records_measured]);
        let (records, shown) = (self.records, schema::show_sum(parts));
        r.ensure(
            parts == Some(records),
            format_args!(
                ".records ({records}) != episodes + joined_rows + records_measured ({shown})"
            ),
        );
        r.ensure(self.jobs > 0, ".jobs must be >= 1");
    }
}

impl Report for SweepReport {
    const SCHEMA_ID: &'static str = SWEEP_SCHEMA_ID;

    fn headline(&self) -> String {
        format!("{} cell(s), sorted, finite", self.cells.len())
    }
}

impl SweepReport {
    /// The artifact invariants beyond field shape: at least one cell, and
    /// cells strictly sorted by `(scale, jobs)` (which also forbids
    /// duplicates).
    fn rules(&self, r: &mut Reader) {
        r.ensure(!self.cells.is_empty(), ".cells must not be empty");
        for (i, pair) in self.cells.windows(2).enumerate() {
            let [(ps, pj), (cs, cj)] = [&pair[0], &pair[1]].map(|c| (c.scale, c.jobs));
            r.ensure(
                (ps, pj) < (cs, cj),
                format_args!(
                    ".cells[{}] (scale={cs}, jobs={cj}) is not strictly after (scale={ps}, \
                     jobs={pj}) — cells must be sorted, without duplicates",
                    i + 1
                ),
            );
        }
    }

    /// Human-readable table for stderr: one line per cell.
    pub fn summary_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let chaos = self.meta.chaos_seed.map_or("off".to_string(), |s| format!("{s}"));
        let _ = writeln!(
            out,
            "sweep: seed={} chaos={} date={} heavy={}",
            self.meta.seed, chaos, self.meta.date, self.meta.heavy
        );
        let _ = writeln!(out, "{:-<78}", "");
        let _ = writeln!(
            out,
            "{:>9} {:>5} {:>10} {:>10} {:>10} {:>14} {:>8}",
            "scale", "jobs", "records", "wall_ms", "rss_kb", "rec/s", "speedup"
        );
        for c in &self.cells {
            let _ = writeln!(
                out,
                "{:>9} {:>5} {:>10} {:>10} {:>10} {:>14.1} {:>8.2}",
                c.scale,
                c.jobs,
                c.records,
                c.wall_ms,
                c.peak_rss_kb,
                c.records_per_sec,
                c.speedup_vs_jobs1
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Json;

    fn cell(scale: u64, jobs: u64, wall_ms: u64, speedup: f64) -> SweepCell {
        let (episodes, joined_rows, records_measured) = (1_700, 950, 80_000);
        let records = episodes + joined_rows + records_measured;
        SweepCell {
            scale,
            jobs,
            episodes,
            joined_rows,
            records_measured,
            records,
            wall_ms,
            peak_rss_kb: 91_234,
            records_per_sec: records as f64 * 1_000.0 / wall_ms as f64,
            speedup_vs_jobs1: speedup,
        }
    }

    fn sample_report() -> SweepReport {
        SweepReport {
            meta: SweepMeta { seed: 42, chaos_seed: Some(9), date: "2026-08-08".into(), heavy: 0 },
            cells: vec![
                cell(1_500, 1, 400, 1.0),
                cell(1_500, 8, 150, 400.0 / 150.0),
                cell(15_000, 1, 3_600, 1.0),
                cell(15_000, 8, 1_100, 3_600.0 / 1_100.0),
            ],
        }
    }

    #[test]
    fn report_round_trips_through_json_text() {
        let report = sample_report();
        let text = report.to_json().pretty();
        let parsed = Json::parse(&text).unwrap();
        let back = SweepReport::from_json(&parsed).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json().pretty(), text);
    }

    #[test]
    fn sample_report_bytes_are_pinned() {
        assert_eq!(sample_report().to_json().pretty(), include_str!("golden/sweep.json"));
    }

    #[test]
    fn validate_accepts_sample() {
        assert!(validate(&sample_report().to_json()).is_ok());
    }

    #[test]
    fn validate_rejects_wrong_schema_and_missing_fields() {
        let mut doc = sample_report().to_json();
        doc.set("schema", Json::Str("dnsimpact-metrics/v2".into()));
        let errors = validate(&doc).unwrap_err();
        assert!(errors[0].contains("dnsimpact-sweep/v1"), "{errors:?}");

        let empty = Json::obj();
        let errors = validate(&empty).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("$.schema")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("$.meta")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("$.cells")), "{errors:?}");
    }

    #[test]
    fn validate_rejects_unsorted_and_duplicate_cells() {
        let mut unsorted = sample_report();
        unsorted.cells.swap(1, 2);
        let errors = validate(&unsorted.to_json()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("sorted")), "{errors:?}");

        let mut duped = sample_report();
        let c = duped.cells[0].clone();
        duped.cells.insert(1, c);
        let errors = validate(&duped.to_json()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("duplicates")), "{errors:?}");
    }

    #[test]
    fn validate_rejects_nan_and_inconsistent_records() {
        let mut report = sample_report();
        report.cells[0].records_per_sec = f64::NAN;
        report.cells[1].speedup_vs_jobs1 = f64::INFINITY;
        report.cells[2].records += 1;
        // NaN/inf serialize to null; validate flags both cells either way.
        let text = report.to_json().pretty();
        let doc = Json::parse(&text).unwrap();
        let errors = validate(&doc).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("cells[0].records_per_sec")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("cells[1].speedup_vs_jobs1")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("cells[2].records")), "{errors:?}");
    }

    #[test]
    fn validate_rejects_empty_cells_and_zero_jobs() {
        let mut report = sample_report();
        report.cells.clear();
        let errors = validate(&report.to_json()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("must not be empty")), "{errors:?}");

        let mut zero = sample_report();
        zero.cells[0].jobs = 0;
        let errors = validate(&zero.to_json()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("jobs must be >= 1")), "{errors:?}");
    }

    #[test]
    fn summary_table_lists_cells() {
        let table = sample_report().summary_table();
        assert!(table.contains("1500"));
        assert!(table.contains("15000"));
        assert!(table.contains("speedup"));
    }
}
