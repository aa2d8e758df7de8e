//! The process-suite report: schema `dnsimpact-suite/v1`.
//!
//! Emitted by `repro bench --suite A|B|all` (DESIGN §14), the orchestrator
//! that measures release-built binaries as OS processes. One document per
//! suite run:
//!
//! ```json
//! {
//!   "schema": "dnsimpact-suite/v1",
//!   "meta": { "seed": 42, "date": "2026-08-08", "suites": "all",
//!             "processes": 12 },
//!   "suite_a": [
//!     { "cell": "A/repro/scale750/jobs1", "kind": "repro",
//!       "scale": 750, "jobs": 1, "wall_ms": 412, "peak_rss_kb": 43000,
//!       "records": 7184, "records_per_sec": 17436.9,
//!       "fingerprint": "0x00c5330b6d65f1a2" }, ...
//!   ],
//!   "suite_b": [
//!     { "scale": 750, "processes": 3,
//!       "wall_ms":         { "count": 3, "min": 390, "p50": 511,
//!                            "p95": 511, "p99": 511, "max": 402 },
//!       "peak_rss_kb":     { ... },
//!       "records_per_sec": { ... },
//!       "merged": { "time.pool.task_ms": { "count": 24, "sum": 90,
//!                   "min": 0, "max": 11, "p50": 3, "p95": 15, "p99": 15,
//!                   "buckets": [2, 3, 4, 6, 9] } } }, ...
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
//! envelopes. Suite B rows aggregate several chaos-seeded processes per
//! scale: `wall_ms`/`peak_rss_kb`/`records_per_sec` are percentile blocks
//! over one sample per process, and `merged` holds the per-process log2
//! histograms fused bucket-wise by [`crate::hist::merge`] — exact, as if
//! one process had observed every sample. Percentiles are log2-bucket
//! upper bounds, so `p99` may exceed the exact `max`; `min`/`max` are
//! exact. The `verdicts` table names every enforced check so a CI failure
//! points at a cell, not a blanket diff.

use crate::hist::Hist;
use crate::schema::{self, record, Reader, Report};
use std::collections::BTreeMap;

/// Schema identifier carried in every suite report.
pub const SUITE_SCHEMA_ID: &str = "dnsimpact-suite/v1";

record! {
    /// Suite-run identity.
    #[derive(Eq)]
    pub struct SuiteMeta {
        pub seed: u64,
        /// UTC date of the run, `YYYY-MM-DD`.
        pub date: String [is schema::date],
        /// Which suites ran: `"A"`, `"B"`, or `"all"`.
        pub suites: String,
        /// Total OS processes spawned (must equal `suite_a` cells plus the sum
        /// of `suite_b` per-scale process counts).
        pub processes: u64,
    }
    rules = SuiteMeta::rules;

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

    /// Percentile block over one sample per process (Suite B). `p50`/`p95`/
    /// `p99` are log2-bucket upper bounds; `min`/`max` are exact.
    #[derive(Eq)]
    pub struct Percentiles {
        pub count: u64,
        pub min: u64,
        pub p50: u64,
        pub p95: u64,
        pub p99: u64,
        pub max: u64,
    }
    rules = Percentiles::rules;

    /// One Suite B row: several chaos-seeded processes at one scale.
    pub struct SuiteBScale {
        pub scale: u64,
        pub processes: u64,
        pub wall_ms: Percentiles,
        pub peak_rss_kb: Percentiles,
        pub records_per_sec: Percentiles,
        /// Per-process report histograms merged bucket-wise, by name.
        pub merged: BTreeMap<String, Hist>,
    }
    rules = SuiteBScale::rules;

    /// One enforced check and its outcome.
    #[derive(Eq)]
    pub struct Verdict {
        pub cell: String,
        pub pass: bool,
        pub detail: String,
    }

    /// A complete suite report, convertible to and from schema-`v1` JSON.
    pub struct SuiteReport: Report {
        pub meta: SuiteMeta,
        pub suite_a: Vec<SuiteACell>,
        pub suite_b: Vec<SuiteBScale>,
        pub verdicts: Vec<Verdict>,
    }
    rules = SuiteReport::rules;
    pub fn validate;
}

impl SuiteMeta {
    fn rules(&self, r: &mut Reader) {
        r.ensure(
            matches!(self.suites.as_str(), "A" | "B" | "all"),
            format_args!(".suites {:?} must be \"A\", \"B\", or \"all\"", self.suites),
        );
        r.ensure(self.processes > 0, ".processes must be at least 1");
    }
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

impl Percentiles {
    /// Summarize a histogram holding one sample per process.
    pub fn of(h: &Hist) -> Percentiles {
        Percentiles {
            count: h.count(),
            min: h.min(),
            p50: h.percentile(0.50),
            p95: h.percentile(0.95),
            p99: h.percentile(0.99),
            max: h.max(),
        }
    }

    fn rules(&self, r: &mut Reader) {
        let Percentiles { min, p50, p95, p99, max, .. } = *self;
        r.ensure(min <= max, format_args!(": min {min} > max {max}"));
        // p50/p95/p99 are bucket upper bounds — ordered among themselves and
        // never below min, but p99 may legitimately exceed the exact max.
        r.ensure(
            min <= p50 && p50 <= p95 && p95 <= p99,
            format_args!(": percentiles out of order ({min}/{p50}/{p95}/{p99})"),
        );
    }
}

impl SuiteBScale {
    fn rules(&self, r: &mut Reader) {
        r.ensure(self.processes > 0, ".processes must be at least 1");
        for (key, block) in [
            ("wall_ms", &self.wall_ms),
            ("peak_rss_kb", &self.peak_rss_kb),
            ("records_per_sec", &self.records_per_sec),
        ] {
            let (count, processes) = (block.count, self.processes);
            r.ensure(
                count == processes,
                format_args!(
                    ".{key}.count is {count}, expected one sample per process ({processes})"
                ),
            );
        }
    }
}

impl Report for SuiteReport {
    const SCHEMA_ID: &'static str = SUITE_SCHEMA_ID;

    fn headline(&self) -> String {
        let (a, b, v) = (self.suite_a.len(), self.suite_b.len(), self.verdicts.len());
        format!("{a} suite A cell(s), {b} suite B scale(s), {v} verdict(s)")
    }
}

impl SuiteReport {
    /// The cross-section accounting:
    ///
    /// - `meta.suites` matches the populated sections (`A` → no `suite_b`
    ///   rows, `B` → no `suite_a` cells, `all` → both);
    /// - `meta.processes` = suite A cells + Σ suite B per-scale processes;
    /// - suite A cell labels unique; suite B rows strictly sorted by scale.
    fn rules(&self, r: &mut Reader) {
        for (i, c) in self.suite_a.iter().enumerate() {
            let repeated = self.suite_a[..i].iter().any(|earlier| earlier.cell == c.cell);
            r.ensure(
                !repeated,
                format_args!(".suite_a[{i}].cell {:?} duplicates an earlier cell", c.cell),
            );
        }
        for (i, pair) in self.suite_b.windows(2).enumerate() {
            let (prev, scale) = (pair[0].scale, pair[1].scale);
            r.ensure(
                prev < scale,
                format_args!(
                    ".suite_b[{}].scale {scale} must exceed the previous row's {prev} \
                     (rows strictly sorted by scale)",
                    i + 1
                ),
            );
        }
        let a_cells = self.suite_a.len() as u64;
        let b_processes = schema::checked_sum(self.suite_b.iter().map(|s| &s.processes));
        let kind = self.meta.suites.as_str();
        if matches!(kind, "A" | "all") && a_cells == 0 {
            r.fail(format_args!(".meta.suites is {kind:?} but $.suite_a is empty"));
        }
        if kind == "A" && b_processes != Some(0) {
            r.fail(".meta.suites is \"A\" but $.suite_b has rows");
        }
        if matches!(kind, "B" | "all") && b_processes == Some(0) {
            r.fail(format_args!(".meta.suites is {kind:?} but $.suite_b is empty"));
        }
        if kind == "B" && a_cells > 0 {
            r.fail(".meta.suites is \"B\" but $.suite_a has cells");
        }
        let (claimed, shown) = (self.meta.processes, schema::show_sum(b_processes));
        r.ensure(
            b_processes.and_then(|b| b.checked_add(a_cells)) == Some(claimed),
            format_args!(
                ".meta.processes is {claimed} but suite_a has {a_cells} cell(s) and suite_b \
                 accounts for {shown} process(es)"
            ),
        );
    }

    /// True when every verdict passed.
    pub fn all_pass(&self) -> bool {
        self.verdicts.iter().all(|v| v.pass)
    }

    /// Human-readable summary: the Suite A cell table, the Suite B
    /// percentile table, then the verdict table (stderr, like the sweep
    /// summary).
    pub fn summary_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "suite: seed={} date={} suites={} processes={}",
            self.meta.seed, self.meta.date, self.meta.suites, self.meta.processes
        );
        if !self.suite_a.is_empty() {
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
        }
        if !self.suite_b.is_empty() {
            let _ = writeln!(out, "{:-<76}", "");
            let _ = writeln!(
                out,
                "{:<20} {:>6} {:>10} {:>10} {:>10} {:>14}",
                "suite B scale", "procs", "wall p50", "wall p99", "rss p99", "rec/s p50"
            );
            for s in &self.suite_b {
                let _ = writeln!(
                    out,
                    "{:<20} {:>6} {:>10} {:>10} {:>10} {:>14}",
                    s.scale,
                    s.processes,
                    s.wall_ms.p50,
                    s.wall_ms.p99,
                    s.peak_rss_kb.p99,
                    s.records_per_sec.p50
                );
            }
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

    fn hist_of(values: &[u64]) -> Hist {
        let mut h = Hist::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    fn sample_report() -> SuiteReport {
        let walls = hist_of(&[390, 402, 511]);
        let rss = hist_of(&[41_000, 41_200, 43_000]);
        let rates = hist_of(&[17_000, 17_400, 18_100]);
        let mut merged = BTreeMap::new();
        merged.insert("time.pool.task_ms".to_string(), hist_of(&[1, 2, 2, 3, 9, 15]));
        SuiteReport {
            meta: SuiteMeta {
                seed: 42,
                date: "2026-08-08".into(),
                suites: "all".into(),
                processes: 5,
            },
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
            suite_b: vec![SuiteBScale {
                scale: 750,
                processes: 3,
                wall_ms: Percentiles::of(&walls),
                peak_rss_kb: Percentiles::of(&rss),
                records_per_sec: Percentiles::of(&rates),
                merged,
            }],
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
    }

    #[test]
    fn validate_enforces_suites_section_match() {
        let mut only_a = sample_report();
        only_a.meta.suites = "A".into();
        let errors = validate(&only_a.to_json()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("suite_b has rows")), "{errors:?}");

        let mut only_b = sample_report();
        only_b.meta.suites = "B".into();
        let errors = validate(&only_b.to_json()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("suite_a has cells")), "{errors:?}");

        let mut empty_b = sample_report();
        empty_b.suite_b.clear();
        empty_b.meta.processes = 2;
        let errors = validate(&empty_b.to_json()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("suite_b is empty")), "{errors:?}");
    }

    #[test]
    fn validate_rejects_duplicate_cells_and_unsorted_scales() {
        let mut dup = sample_report();
        dup.suite_a[1].cell = dup.suite_a[0].cell.clone();
        let errors = validate(&dup.to_json()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("duplicates")), "{errors:?}");

        let mut unsorted = sample_report();
        let mut row = unsorted.suite_b[0].clone();
        row.scale = 750; // equal, not strictly greater
        unsorted.suite_b.push(row);
        unsorted.meta.processes += 3;
        let errors = validate(&unsorted.to_json()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("strictly sorted")), "{errors:?}");
    }

    #[test]
    fn validate_rejects_inconsistent_merged_histogram() {
        let mut doc = sample_report().to_json();
        let mut suite_b = doc.get("suite_b").unwrap().clone();
        let Json::Array(rows) = &mut suite_b else { unreachable!() };
        let mut merged = rows[0].get("merged").unwrap().clone();
        let mut h = merged.get("time.pool.task_ms").unwrap().clone();
        h.set("p99", Json::U64(1));
        merged.set("time.pool.task_ms", h);
        rows[0].set("merged", merged);
        doc.set("suite_b", suite_b);
        let errors = validate(&doc).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("p99 claims 1")), "{errors:?}");
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
    fn validate_rejects_percentile_count_mismatch() {
        let mut report = sample_report();
        report.suite_b[0].wall_ms.count = 7;
        let errors = validate(&report.to_json()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("one sample per process")), "{errors:?}");
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
