//! The process-suite report: schema `dnsimpact-suite/v2`.
//!
//! Emitted by `repro bench --suite` (DESIGN §14), the orchestrator that
//! runs release-built binaries as OS processes and checks that they agree.
//! One document per suite run:
//!
//! ```json
//! {
//!   "schema": "dnsimpact-suite/v2",
//!   "meta": { "seed": 42, "date": "2026-08-08", "processes": 6 },
//!   "suite_a": [
//!     { "cell": "A/repro/scale750/jobs1", "kind": "repro",
//!       "scale": 750, "jobs": 1, "wall_ms": 412, "peak_rss_kb": 43000,
//!       "records": 7184, "records_per_sec": 17436.9,
//!       "fingerprint": "0x00c5330b6d65f1a2" }, ...
//!   ],
//!   "verdicts": [
//!     { "cell": "A/repro/scale750", "pass": true,
//!       "detail": "fingerprints agree across jobs {1, 2}" }, ...
//!   ]
//! }
//! ```
//!
//! Suite A cells are single-process measurements whose deterministic
//! fingerprint must agree across processes of the same scale — exact, no
//! envelopes. The `verdicts` table names every enforced check so a CI
//! failure points at a cell, not a blanket diff.

use crate::schema::{self, record, Reader, Report};

/// Schema identifier carried in every suite report.
pub const SUITE_SCHEMA_ID: &str = "dnsimpact-suite/v2";

record! {
    /// Suite-run identity.
    #[derive(Eq)]
    pub struct SuiteMeta {
        pub seed: u64,
        /// UTC date of the run, `YYYY-MM-DD`.
        pub date: String [is schema::date],
        /// OS processes spawned: one per `suite_a` cell.
        pub processes: u64,
    }

    /// One Suite A cell: a single deterministic process measurement.
    pub struct SuiteACell {
        /// Unique label, e.g. `A/repro/scale750/jobs1` or `A/daemon/clean`.
        pub cell: String,
        /// Which binary ran: `"repro"` or `"daemon"`.
        pub kind: String,
        pub scale: u64,
        pub jobs: u64,
        pub wall_ms: u64,
        pub peak_rss_kb: u64,
        pub records: u64,
        pub records_per_sec: f64,
        /// Deterministic-state fingerprint (`{:#018x}`) compared exactly
        /// across processes.
        pub fingerprint: String,
    }
    rules = SuiteACell::rules;

    /// One enforced check and its outcome.
    #[derive(Eq)]
    pub struct Verdict {
        pub cell: String,
        pub pass: bool,
        pub detail: String,
    }

    /// A complete suite report, convertible to and from schema-`v2` JSON.
    pub struct SuiteReport: Report {
        pub meta: SuiteMeta,
        pub suite_a: Vec<SuiteACell>,
        pub verdicts: Vec<Verdict>,
    }
    rules = SuiteReport::rules;
    pub fn validate;
}

impl SuiteACell {
    fn rules(&self, r: &mut Reader) {
        r.ensure(
            matches!(self.kind.as_str(), "repro" | "daemon"),
            format_args!(".kind {:?} must be \"repro\" or \"daemon\"", self.kind),
        );
        r.ensure(self.jobs > 0, ".jobs must be at least 1");
        let rate = self.records_per_sec;
        r.ensure(rate >= 0.0, format_args!(".records_per_sec {rate} must be finite and >= 0"));
    }
}

impl Report for SuiteReport {
    const SCHEMA_ID: &'static str = SUITE_SCHEMA_ID;

    fn headline(&self) -> String {
        format!("{} suite A cell(s), {} verdict(s)", self.suite_a.len(), self.verdicts.len())
    }
}

impl SuiteReport {
    /// Suite A cell labels are unique, and `meta.processes` counts them.
    fn rules(&self, r: &mut Reader) {
        for (i, c) in self.suite_a.iter().enumerate() {
            let repeated = self.suite_a[..i].iter().any(|earlier| earlier.cell == c.cell);
            r.ensure(
                !repeated,
                format_args!(".suite_a[{i}].cell {:?} duplicates an earlier cell", c.cell),
            );
        }
        let (claimed, cells) = (self.meta.processes, self.suite_a.len() as u64);
        r.ensure(cells > 0, ".suite_a is empty");
        r.ensure(
            claimed == cells,
            format_args!(".meta.processes is {claimed} but suite_a has {cells} cell(s)"),
        );
    }

    /// True when every verdict passed.
    pub fn all_pass(&self) -> bool {
        self.verdicts.iter().all(|v| v.pass)
    }

    /// Human-readable summary: the Suite A cell table, then the verdict
    /// table (stderr, like the sweep summary).
    pub fn summary_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "suite: seed={} date={} processes={}",
            self.meta.seed, self.meta.date, self.meta.processes
        );
        let _ = writeln!(out, "{:-<76}", "");
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>10} {:>10} {:>14}",
            "suite A cell", "wall_ms", "rss_kb", "records", "rec/s"
        );
        for c in &self.suite_a {
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>10} {:>10} {:>14.1}",
                c.cell, c.wall_ms, c.peak_rss_kb, c.records, c.records_per_sec
            );
        }
        let _ = writeln!(out, "{:-<76}", "");
        for v in &self.verdicts {
            let _ = writeln!(
                out,
                "{} {:<28} {}",
                if v.pass { "PASS" } else { "FAIL" },
                v.cell,
                v.detail
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn sample_report() -> SuiteReport {
        SuiteReport {
            meta: SuiteMeta { seed: 42, date: "2026-08-08".into(), processes: 2 },
            suite_a: vec![
                SuiteACell {
                    cell: "A/repro/scale750/jobs1".into(),
                    kind: "repro".into(),
                    scale: 750,
                    jobs: 1,
                    wall_ms: 412,
                    peak_rss_kb: 43_000,
                    records: 7184,
                    records_per_sec: 17_436.9,
                    fingerprint: "0x00c5330b6d65f1a2".into(),
                },
                SuiteACell {
                    cell: "A/repro/scale750/jobs2".into(),
                    kind: "repro".into(),
                    scale: 750,
                    jobs: 2,
                    wall_ms: 398,
                    peak_rss_kb: 43_550,
                    records: 7184,
                    records_per_sec: 18_050.3,
                    fingerprint: "0x00c5330b6d65f1a2".into(),
                },
            ],
            verdicts: vec![Verdict {
                cell: "A/repro/scale750".into(),
                pass: true,
                detail: "fingerprints agree across jobs {1, 2}".into(),
            }],
        }
    }

    #[test]
    fn report_round_trips_through_json_text() {
        let report = sample_report();
        let text = report.to_json().pretty();
        let parsed = Json::parse(&text).unwrap();
        let back = SuiteReport::from_json(&parsed).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json().pretty(), text);
    }

    #[test]
    fn sample_report_bytes_are_pinned() {
        assert_eq!(sample_report().to_json().pretty(), include_str!("golden/suite.json"));
    }

    #[test]
    fn validate_rejects_wrong_schema() {
        let mut doc = sample_report().to_json();
        doc.set("schema", Json::Str("dnsimpact-sweep/v1".into()));
        let errors = validate(&doc).unwrap_err();
        assert!(errors[0].contains("expected"), "{errors:?}");
    }

    #[test]
    fn validate_enforces_process_accounting() {
        let mut report = sample_report();
        report.meta.processes = 9;
        let errors = validate(&report.to_json()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("processes is 9")), "{errors:?}");

        let mut empty = sample_report();
        empty.suite_a.clear();
        empty.meta.processes = 0;
        let errors = validate(&empty.to_json()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("suite_a is empty")), "{errors:?}");
    }

    #[test]
    fn validate_rejects_duplicate_cells() {
        let mut dup = sample_report();
        dup.suite_a[1].cell = dup.suite_a[0].cell.clone();
        let errors = validate(&dup.to_json()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("duplicates")), "{errors:?}");
    }

    #[test]
    fn validate_rejects_nonfinite_rate_and_zero_jobs() {
        let mut report = sample_report();
        report.suite_a[0].records_per_sec = f64::NAN;
        report.suite_a[1].jobs = 0;
        // Non-finite f64 serializes to null, so the error is the type check.
        let errors = validate(&report.to_json()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("records_per_sec")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("jobs must be at least 1")), "{errors:?}");
    }

    #[test]
    fn summary_table_names_cells_and_verdicts() {
        let table = sample_report().summary_table();
        assert!(table.contains("A/repro/scale750/jobs1"));
        assert!(table.contains("PASS"));
        assert!(table.contains("fingerprints agree"));
        let mut failing = sample_report();
        failing.verdicts[0].pass = false;
        assert!(failing.summary_table().contains("FAIL"));
        assert!(!failing.all_pass());
        assert!(sample_report().all_pass());
    }
}
