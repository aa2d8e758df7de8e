//! The machine-readable run report: schema `dnsimpact-metrics/v2`.
//!
//! One JSON document per run, emitted by `repro --metrics-json PATH` and
//! by `repro bench` (as `BENCH_<date>[_runN].json`). The schema is stable
//! and validated in CI:
//!
//! ```json
//! {
//!   "schema": "dnsimpact-metrics/v2",
//!   "meta": {
//!     "seed": 42, "scale": 1500, "jobs": 2,
//!     "run": 1,                    // same-day bench run counter
//!     "chaos_seed": null,          // or a u64
//!     "bench": false,
//!     "date": "2026-08-05",        // UTC
//!     "experiments": ["table1", "..."]
//!   },
//!   "total_wall_ms": 1234,
//!   "peak_rss_kb": 56789,
//!   "stages": [ { "name": "longitudinal", "wall_ms": 400 }, ... ],
//!   "counters":   { "join.rows_joined": 100, ... },
//!   "gauges":     { "reactive.trigger_latency_max_secs": 480, ... },
//!   "histograms": { "time.pool.task_ms": { "count": 8, "sum": 19,
//!                   "min": 0, "max": 4, "p50": 3, "p90": 7,
//!                   "p95": 7, "p99": 7, "buckets": [1, 2, 2, 3] } },
//!   "trace": { "events": 512, "dropped": 0,
//!              "by_kind": { "AttackOnset": 100, ... } }
//! }
//! ```
//!
//! `counters`/`gauges`/`histograms` are name-sorted; `stages` is in
//! execution order; `trace` summarizes the causal event ring ([`crate::trace`]),
//! its `by_kind` keys drawn from the event taxonomy. Wall times, RSS, and
//! `time.`/`sched.`-prefixed metrics vary run to run by design — consumers
//! comparing runs must restrict themselves to the deterministic namespace,
//! as the CI metrics gate, [`compare_reports`], and the determinism tests
//! do.
//!
//! v1 → v2: added `meta.run`, histogram `p95`, and the `trace` block;
//! v1 is retired and no longer validates. Histogram `buckets` (raw log2
//! bucket counts, trailing zeros trimmed) were added within v2 as an
//! *optional-absent* field — older committed reports without it stay
//! valid and re-serialize without it; where it is carried, the count and
//! the quantiles must be the ones it implies
//! ([`crate::metrics::HistogramSnapshot::defects`]).

use crate::json::Json;
use crate::metrics::Snapshot;
use crate::schema::{self, record, Report};
use crate::trace::TraceSummary;

/// Schema identifier carried in every report.
pub const SCHEMA_ID: &str = "dnsimpact-metrics/v2";

record! {
    /// Run identity: the inputs that determine the deterministic metrics.
    #[derive(Eq)]
    pub struct RunMeta {
        pub seed: u64,
        pub scale: u64,
        pub jobs: u64,
        /// Same-day run counter (bench artifacts: `BENCH_<date>_run<N>.json`
        /// from the second run of a date on; plain runs report 1).
        pub run: u64,
        pub chaos_seed: Option<u64>,
        pub bench: bool,
        /// UTC date of the run, `YYYY-MM-DD`.
        pub date: String [is schema::date],
        pub experiments: Vec<String>,
    }

    /// One named stage and its wall time, in execution order.
    #[derive(Eq)]
    pub struct StageWall {
        pub name: String,
        pub wall_ms: u64,
    }

    /// A complete run report, convertible to and from schema-`v2` JSON.
    pub struct RunReport: Report {
        pub meta: RunMeta,
        pub total_wall_ms: u64,
        pub peak_rss_kb: u64,
        pub stages: Vec<StageWall>,
        /// Written in place as `counters` / `gauges` / `histograms`.
        pub metrics: Snapshot [flatten],
        /// Summary of the causal event trace ([`crate::trace::summary`]).
        pub trace: TraceSummary,
    }
    pub fn validate;
}

impl RunReport {
    /// Human-readable summary for `--metrics-summary` (stderr). Shows the
    /// run identity, per-stage wall times, the deterministic counters and
    /// gauges, latency histograms collapsed to count/p50/p95/p99, and the
    /// trace-event accounting.
    pub fn summary_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let chaos = self.meta.chaos_seed.map_or("off".to_string(), |s| format!("{s}"));
        let _ = writeln!(
            out,
            "run: seed={} scale={} jobs={} chaos={} date={} run#{}  wall={}ms rss={}kB",
            self.meta.seed,
            self.meta.scale,
            self.meta.jobs,
            chaos,
            self.meta.date,
            self.meta.run,
            self.total_wall_ms,
            self.peak_rss_kb
        );
        let _ = writeln!(out, "{:-<72}", "");
        let _ = writeln!(out, "{:<40} {:>12}", "stage", "wall_ms");
        for s in &self.stages {
            let _ = writeln!(out, "{:<40} {:>12}", s.name, s.wall_ms);
        }
        let _ = writeln!(out, "{:-<72}", "");
        let _ = writeln!(out, "{:<40} {:>12}", "counter", "value");
        for (k, v) in &self.metrics.counters {
            let _ = writeln!(out, "{k:<40} {v:>12}");
        }
        for (k, v) in &self.metrics.gauges {
            let _ = writeln!(out, "{:<40} {:>12}", format!("{k} (gauge)"), v);
        }
        if !self.metrics.histograms.is_empty() {
            let _ = writeln!(out, "{:-<72}", "");
            let _ = writeln!(
                out,
                "{:<36} {:>8} {:>8} {:>8} {:>8}",
                "histogram", "count", "p50", "p95", "p99"
            );
            for (k, h) in &self.metrics.histograms {
                let _ = writeln!(
                    out,
                    "{:<36} {:>8} {:>8} {:>8} {:>8}",
                    k, h.count, h.p50, h.p95, h.p99
                );
            }
        }
        let _ = writeln!(out, "{:-<72}", "");
        let _ = writeln!(
            out,
            "trace: {} event(s) retained, {} dropped",
            self.trace.events, self.trace.dropped
        );
        for (kind, n) in &self.trace.by_kind {
            let _ = writeln!(out, "  {kind:<38} {n:>12}");
        }
        out
    }
}

impl Report for RunReport {
    const SCHEMA_ID: &'static str = SCHEMA_ID;

    fn headline(&self) -> String {
        let m = &self.metrics;
        let (counters, gauges, histograms) = (m.counters.len(), m.gauges.len(), m.histograms.len());
        format!("{counters} counters, {gauges} gauges, {histograms} histograms; invariants hold")
    }

    fn invariants(doc: &Json) -> Vec<String> {
        check_invariants(doc).err().unwrap_or_default()
    }
}

/// Reactive trigger bound from the paper: ≤ 10 minutes.
pub const MAX_TRIGGER_LATENCY_SECS: u64 = 600;
/// Reactive probe budget from the paper: ≤ 50 domains per 5-minute round.
pub const MAX_PROBES_PER_ROUND: u64 = 50;

/// Check the cross-counter invariants CI gates on. Assumes a *completed*
/// run (every injected fault has had its repair window):
///
/// - `chaos.faults_injected > 0` ⇒ `chaos.faults_repaired` equals it;
/// - `reactive.trigger_latency_max_secs` ≤ 10 minutes;
/// - `reactive.probe_round_max_probes` ≤ 50.
pub fn check_invariants(doc: &Json) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    let counter = |name: &str| -> u64 {
        doc.get("counters").and_then(|c| c.get(name)).and_then(|v| v.as_u64()).unwrap_or(0)
    };
    let gauge = |name: &str| -> u64 {
        doc.get("gauges").and_then(|g| g.get(name)).and_then(|v| v.as_u64()).unwrap_or(0)
    };

    let injected = counter("chaos.faults_injected");
    let repaired = counter("chaos.faults_repaired");
    if injected > 0 && repaired != injected {
        errors.push(format!(
            "chaos.faults_repaired ({repaired}) != chaos.faults_injected ({injected})"
        ));
    }
    let latency = gauge("reactive.trigger_latency_max_secs");
    if latency > MAX_TRIGGER_LATENCY_SECS {
        errors.push(format!(
            "reactive.trigger_latency_max_secs ({latency}) exceeds the \
             {MAX_TRIGGER_LATENCY_SECS}s bound"
        ));
    }
    let probes = gauge("reactive.probe_round_max_probes");
    if probes > MAX_PROBES_PER_ROUND {
        errors.push(format!(
            "reactive.probe_round_max_probes ({probes}) exceeds the \
             {MAX_PROBES_PER_ROUND}-domain budget"
        ));
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Diff a fresh bench report against a baseline report (`repro bench
/// --compare`). Returns `(failures, warnings)`:
///
/// - a baseline taken under a different seed/scale/chaos/experiment
///   configuration **fails**: its counters are incomparable, and a gate
///   that compared nothing must not read as green — re-take the baseline;
/// - deterministic counters, gauges, and histogram shapes (names not
///   prefixed `time.`/`sched.`) present in *both* reports must match
///   **exactly** — any drift fails, because for a pinned bench
///   seed/scale/chaos configuration they are pure functions of the code;
/// - names present in only one report (new or retired metrics) **warn**.
///
/// Wall clock and peak RSS are not compared: a ~150 ms run on a shared
/// machine cannot carry a regression bound (`benchmark/` holds the perf
/// contract). Reads both documents leniently through raw JSON.
pub fn compare_reports(current: &Json, baseline: &Json) -> (Vec<String>, Vec<String>) {
    let mut failures = Vec::new();
    let mut warnings = Vec::new();

    // Drift is only meaningful for an identical run configuration.
    let meta = |doc: &Json, key: &str| doc.get("meta").and_then(|m| m.get(key)).cloned();
    for key in ["seed", "scale", "chaos_seed", "experiments"] {
        if meta(current, key) != meta(baseline, key) {
            failures.push(format!(
                "baseline is not comparable — re-take it: meta.{key} differs from this run"
            ));
        }
    }
    if !failures.is_empty() {
        return (failures, warnings);
    }

    let deterministic = |name: &str| !name.starts_with("time.") && !name.starts_with("sched.");
    for section in ["counters", "gauges"] {
        let (Some(cur), Some(base)) = (
            current.get(section).and_then(|s| s.as_object()),
            baseline.get(section).and_then(|s| s.as_object()),
        ) else {
            failures.push(format!("baseline is not comparable — re-take it: {section} missing"));
            continue;
        };
        for (name, value) in cur {
            if !deterministic(name) {
                continue;
            }
            match base.iter().find(|(k, _)| k == name) {
                Some((_, b)) if b == value => {}
                Some((_, b)) => failures.push(format!(
                    "deterministic drift: {section}.{name} = {value:?} vs baseline {b:?}"
                )),
                None => warnings.push(format!("{section}.{name} absent from baseline")),
            }
        }
        for (name, _) in base {
            if deterministic(name) && !cur.iter().any(|(k, _)| k == name) {
                warnings.push(format!("{section}.{name} present in baseline only"));
            }
        }
    }
    // Deterministic histograms compare field-by-field over the fields both
    // documents carry.
    if let (Some(cur), Some(base)) = (
        current.get("histograms").and_then(|s| s.as_object()),
        baseline.get("histograms").and_then(|s| s.as_object()),
    ) {
        for (name, h) in cur {
            if !deterministic(name) {
                continue;
            }
            let Some((_, bh)) = base.iter().find(|(k, _)| k == name) else {
                warnings.push(format!("histograms.{name} absent from baseline"));
                continue;
            };
            for field in ["count", "sum", "min", "max", "p50", "p90", "p95", "p99"] {
                if let (Some(a), Some(b)) =
                    (h.get(field).and_then(|v| v.as_u64()), bh.get(field).and_then(|v| v.as_u64()))
                {
                    if a != b {
                        failures.push(format!(
                            "deterministic drift: histograms.{name}.{field} = {a} vs baseline {b}"
                        ));
                    }
                }
            }
        }
    }
    (failures, warnings)
}

/// Today's date in UTC as `YYYY-MM-DD`, from the system clock. Uses the
/// days-to-civil algorithm (Howard Hinnant's `civil_from_days`), so no
/// date dependency is needed.
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sample_report() -> RunReport {
        let mut counters = BTreeMap::new();
        counters.insert("chaos.faults_injected".to_string(), 12);
        counters.insert("chaos.faults_repaired".to_string(), 12);
        counters.insert("join.rows_joined".to_string(), 345);
        let mut gauges = BTreeMap::new();
        gauges.insert("reactive.trigger_latency_max_secs".to_string(), 480);
        gauges.insert("reactive.probe_round_max_probes".to_string(), 50);
        let mut histograms = BTreeMap::new();
        histograms.insert(
            "time.pool.task_ms".to_string(),
            crate::metrics::HistogramSnapshot {
                count: 8,
                sum: 40,
                min: 1,
                max: 15,
                p50: 3,
                p90: 15,
                p95: 15,
                p99: 15,
                // Values {1, 2, 2, 3, 4, 4, 9, 15} — consistent with the
                // count/sum/percentiles above.
                buckets: vec![0, 1, 3, 2, 2],
            },
        );
        RunReport {
            meta: RunMeta {
                seed: 42,
                scale: 1500,
                jobs: 2,
                run: 1,
                chaos_seed: Some(9),
                bench: true,
                date: "2026-08-05".into(),
                experiments: vec!["table1".into(), "fig5".into()],
            },
            total_wall_ms: 1234,
            peak_rss_kb: 56_789,
            stages: vec![
                StageWall { name: "longitudinal".into(), wall_ms: 800 },
                StageWall { name: "catalog".into(), wall_ms: 400 },
            ],
            metrics: Snapshot { counters, gauges, histograms },
            trace: TraceSummary {
                events: 400,
                dropped: 0,
                by_kind: vec![("AttackOnset".into(), 300), ("JoinMatched".into(), 100)],
            },
        }
    }

    #[test]
    fn report_round_trips_through_json_text() {
        let report = sample_report();
        let text = report.to_json().pretty();
        let parsed = Json::parse(&text).unwrap();
        let back = RunReport::from_json(&parsed).unwrap();
        assert_eq!(back, report);
        // Re-serialization is byte-identical.
        assert_eq!(back.to_json().pretty(), text);
    }

    #[test]
    fn sample_report_bytes_are_pinned() {
        assert_eq!(sample_report().to_json().pretty(), include_str!("golden/report.json"));
    }

    #[test]
    fn validate_accepts_sample_and_reports_all_errors() {
        let mut doc = sample_report().to_json();
        assert!(validate(&doc).is_ok());
        doc.set("schema", Json::Str("bogus/v9".into()));
        doc.set("total_wall_ms", Json::Str("fast".into()));
        let errors = validate(&doc).unwrap_err();
        assert!(errors.len() >= 2, "{errors:?}");
    }

    #[test]
    fn validate_rejects_bad_date_and_meta() {
        let mut doc = sample_report().to_json();
        let mut meta = doc.get("meta").unwrap().clone();
        meta.set("date", Json::Str("08/05/2026".into()));
        meta.set("chaos_seed", Json::Str("nine".into()));
        doc.set("meta", meta);
        let errors = validate(&doc).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("date")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("chaos_seed")), "{errors:?}");
    }

    #[test]
    fn validate_checks_bucket_accounting_but_tolerates_absence() {
        let mut doc = sample_report().to_json();
        let mut histograms = doc.get("histograms").unwrap().clone();
        let mut h = histograms.get("time.pool.task_ms").unwrap().clone();

        // Pre-buckets reports (no `buckets` field at all) stay valid.
        let Json::Object(pairs) = h.clone() else { unreachable!() };
        let legacy_h = Json::Object(pairs.into_iter().filter(|(k, _)| k != "buckets").collect());
        let mut legacy_hists = histograms.clone();
        legacy_hists.set("time.pool.task_ms", legacy_h);
        let mut legacy = doc.clone();
        legacy.set("histograms", legacy_hists);
        assert!(validate(&legacy).is_ok());
        let parsed = RunReport::from_json(&legacy).unwrap();
        assert!(parsed.metrics.histograms["time.pool.task_ms"].buckets.is_empty());

        // Buckets that disagree with count are rejected.
        h.set("buckets", Json::Array(vec![Json::U64(1)]));
        histograms.set("time.pool.task_ms", h);
        doc.set("histograms", histograms);
        let errors = validate(&doc).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("buckets sum to 1 but count is 8")), "{errors:?}");
    }

    #[test]
    fn invariants_catch_unrepaired_faults_and_latency() {
        let doc = sample_report().to_json();
        assert!(check_invariants(&doc).is_ok());

        let mut bad = doc.clone();
        let mut counters = bad.get("counters").unwrap().clone();
        counters.set("chaos.faults_repaired", Json::U64(7));
        bad.set("counters", counters);
        let errors = check_invariants(&bad).unwrap_err();
        assert!(errors[0].contains("faults_repaired"), "{errors:?}");

        let mut slow = doc.clone();
        let mut gauges = slow.get("gauges").unwrap().clone();
        gauges.set("reactive.trigger_latency_max_secs", Json::U64(601));
        gauges.set("reactive.probe_round_max_probes", Json::U64(51));
        slow.set("gauges", gauges);
        let errors = check_invariants(&slow).unwrap_err();
        assert_eq!(errors.len(), 2, "{errors:?}");
    }

    #[test]
    fn validate_rejects_bad_trace_block() {
        let mut doc = sample_report().to_json();
        let mut trace = doc.get("trace").unwrap().clone();
        let mut by_kind = Json::obj();
        by_kind.set("NotAKind", Json::U64(1));
        by_kind.set("AttackOnset", Json::Str("three".into()));
        trace.set("by_kind", by_kind);
        doc.set("trace", trace);
        let errors = validate(&doc).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("NotAKind")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("by_kind.AttackOnset")), "{errors:?}");
    }

    #[test]
    fn compare_flags_deterministic_drift_only() {
        let base = sample_report().to_json();
        // Identical reports: clean.
        let (failures, warnings) = compare_reports(&base, &base);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(warnings.is_empty(), "{warnings:?}");

        // A new counter only warns; drift on a shared counter fails exactly.
        let mut cur = sample_report();
        cur.metrics.counters.insert("trace.events".into(), 400);
        *cur.metrics.counters.get_mut("join.rows_joined").unwrap() = 346;
        let (failures, warnings) = compare_reports(&cur.to_json(), &base);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("counters.join.rows_joined"), "{failures:?}");
        assert!(warnings.iter().any(|w| w.contains("trace.events absent from baseline")));

        // Wall clock, RSS and the nondeterministic namespaces are ignored.
        let mut other_machine = sample_report();
        other_machine.total_wall_ms *= 100;
        other_machine.peak_rss_kb *= 100;
        other_machine.metrics.histograms.get_mut("time.pool.task_ms").unwrap().sum = 999;
        let (failures, _) = compare_reports(&other_machine.to_json(), &base);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn compare_fails_on_a_baseline_from_another_configuration() {
        // Equal counters, so only the configuration can fail the gate: an
        // edited bench scale or experiment list must not compare nothing
        // and pass.
        let cur = sample_report().to_json();
        let mut other = sample_report();
        other.meta.scale = 40;
        other.meta.experiments.push("fig8".into());
        let (failures, _) = compare_reports(&cur, &other.to_json());
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures.iter().all(|f| f.contains("not comparable — re-take it")), "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("meta.scale")), "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("meta.experiments")), "{failures:?}");
    }

    #[test]
    fn civil_from_days_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1));
        // 2026-08-05 is 20_670 days after the epoch.
        assert_eq!(civil_from_days(20_670), (2026, 8, 5));
        let today = today_utc();
        assert_eq!(today.len(), 10);
    }

    #[test]
    fn summary_table_mentions_stages_and_counters() {
        let table = sample_report().summary_table();
        assert!(table.contains("longitudinal"));
        assert!(table.contains("join.rows_joined"));
        assert!(table.contains("time.pool.task_ms"));
    }
}
