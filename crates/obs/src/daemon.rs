//! The daemon serving-benchmark report: schema `dnsimpactd-report/v1`.
//!
//! One JSON document per `repro daemon-bench` run, committed under
//! `results/DAEMON_<date>[_runN].json`. It captures both sides of the
//! daemon's contract in one artifact: the ingest side (batches, records,
//! the replay-determinism fingerprint) and the serving side (offered
//! query load, what was answered vs shed, and tail latency):
//!
//! ```json
//! {
//!   "schema": "dnsimpactd-report/v1",
//!   "meta": { "seed": 42, "scale": 1500, "months": 2, "jobs": 2,
//!             "date": "2026-08-08", "clients": 4, "zipf_s": 1.1,
//!             "staleness_bound_s": 1800 },
//!   "ingest": { "batches": 210, "records": 5120, "episodes": 430,
//!               "wall_ms": 1830, "fingerprint": "0x9f2a..." },
//!   "serving": { "queries_sent": 2000, "ok": 1890, "not_found": 0,
//!                "shed": 90, "errors": 20, "qps": 5120.4,
//!                "p50_us": 180.0, "p95_us": 420.0, "p99_us": 900.0,
//!                "staleness_s": 0 }
//! }
//! ```
//!
//! [`validate`] enforces the shed-accounting identity the overload
//! contract promises — `queries_sent == ok + not_found + shed + errors`,
//! every offered query accounted for exactly once — plus finite floats,
//! a `0x`-prefixed fingerprint, and a well-formed date.

use crate::schema::{self, record, Reader, Report};

/// Schema identifier carried in every daemon report.
pub const DAEMON_SCHEMA_ID: &str = "dnsimpactd-report/v1";

record! {
    /// Run identity: the knobs that shaped the feed and the query load.
    pub struct DaemonMeta {
        pub seed: u64,
        /// Target attack count the pinned catalog was divided to.
        pub scale: u64,
        /// Months of the paper interval ingested (0 = all 17).
        pub months: u64,
        pub jobs: u64,
        /// UTC date of the run, `YYYY-MM-DD`.
        pub date: String [is schema::date],
        /// Concurrent query clients.
        pub clients: u64,
        /// Zipf exponent of the domain popularity draw.
        pub zipf_s: f64,
        pub staleness_bound_s: u64,
    }

    /// The ingest side of the run.
    #[derive(Eq)]
    pub struct DaemonIngest {
        pub batches: u64,
        pub records: u64,
        pub episodes: u64,
        pub wall_ms: u64,
        /// Full index fingerprint after ingest, `0x`-prefixed hex — the
        /// value the replay-determinism gate diffs.
        pub fingerprint: String [is schema::fingerprint],
    }

    /// The serving side of the run: offered load, outcomes, tail latency.
    pub struct DaemonServing {
        pub queries_sent: u64,
        pub ok: u64,
        pub not_found: u64,
        pub shed: u64,
        pub errors: u64,
        pub qps: f64,
        pub p50_us: f64,
        pub p95_us: f64,
        pub p99_us: f64,
        /// Served staleness at measurement time (post-ingest: 0 unless
        /// the feed ended inside a gap).
        pub staleness_s: u64,
    }
    rules = DaemonServing::rules;

    /// A complete daemon report, convertible to and from schema-`v1` JSON.
    pub struct DaemonReport: Report {
        pub meta: DaemonMeta,
        pub ingest: DaemonIngest,
        pub serving: DaemonServing,
    }
    pub fn validate;
}

impl DaemonServing {
    /// The shed-accounting identity the overload contract promises.
    fn rules(&self, r: &mut Reader) {
        let outcomes = schema::checked_sum([&self.ok, &self.not_found, &self.shed, &self.errors]);
        let (sent, shown) = (self.queries_sent, schema::show_sum(outcomes));
        r.ensure(
            outcomes == Some(sent),
            format_args!(
                ".queries_sent ({sent}) != ok + not_found + shed + errors ({shown}) — \
                 every offered query must be accounted for exactly once"
            ),
        );
    }
}

impl Report for DaemonReport {
    const SCHEMA_ID: &'static str = DAEMON_SCHEMA_ID;

    fn headline(&self) -> String {
        "shed accounting balances, floats finite".to_string()
    }
}

impl DaemonReport {
    /// Human-readable summary for stderr.
    pub fn summary_table(&self) -> String {
        use std::fmt::Write as _;
        let (ingest, serving) = (&self.ingest, &self.serving);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "daemon: seed={} scale={} months={} jobs={} clients={} date={}",
            self.meta.seed,
            self.meta.scale,
            self.meta.months,
            self.meta.jobs,
            self.meta.clients,
            self.meta.date
        );
        let _ = writeln!(out, "{:-<78}", "");
        let _ = writeln!(
            out,
            "ingest : {} batches / {} records / {} episodes in {} ms  fp {}",
            ingest.batches, ingest.records, ingest.episodes, ingest.wall_ms, ingest.fingerprint
        );
        let _ = writeln!(
            out,
            "serving: {} sent = {} ok + {} not_found + {} shed + {} errors  ({:.1} qps)",
            serving.queries_sent,
            serving.ok,
            serving.not_found,
            serving.shed,
            serving.errors,
            serving.qps
        );
        let _ = writeln!(
            out,
            "latency: p50 {:.0} us  p95 {:.0} us  p99 {:.0} us  staleness {} s",
            serving.p50_us, serving.p95_us, serving.p99_us, serving.staleness_s
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn sample_report() -> DaemonReport {
        DaemonReport {
            meta: DaemonMeta {
                seed: 42,
                scale: 1_500,
                months: 2,
                jobs: 2,
                date: "2026-08-08".into(),
                clients: 4,
                zipf_s: 1.1,
                staleness_bound_s: 1_800,
            },
            ingest: DaemonIngest {
                batches: 210,
                records: 5_120,
                episodes: 430,
                wall_ms: 1_830,
                fingerprint: "0x9f2a6c41d0e8b753".into(),
            },
            serving: DaemonServing {
                queries_sent: 2_000,
                ok: 1_890,
                not_found: 0,
                shed: 90,
                errors: 20,
                qps: 5_120.4,
                p50_us: 180.0,
                p95_us: 420.0,
                p99_us: 900.0,
                staleness_s: 0,
            },
        }
    }

    #[test]
    fn sample_report_bytes_are_pinned() {
        assert_eq!(sample_report().to_json().pretty(), include_str!("golden/daemon.json"));
    }

    #[test]
    fn report_round_trips_through_json_text() {
        let report = sample_report();
        let text = report.to_json().pretty();
        let parsed = Json::parse(&text).unwrap();
        let back = DaemonReport::from_json(&parsed).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json().pretty(), text);
    }

    #[test]
    fn validate_rejects_wrong_schema_and_missing_sections() {
        let mut doc = sample_report().to_json();
        doc.set("schema", Json::Str("dnsimpact-sweep/v1".into()));
        let errors = validate(&doc).unwrap_err();
        assert!(errors[0].contains(DAEMON_SCHEMA_ID), "{errors:?}");

        let empty = Json::obj();
        let errors = validate(&empty).unwrap_err();
        for field in ["$.schema", "$.meta", "$.ingest", "$.serving"] {
            assert!(errors.iter().any(|e| e.contains(field)), "{field}: {errors:?}");
        }
    }

    #[test]
    fn validate_enforces_shed_accounting_identity() {
        let mut report = sample_report();
        report.serving.shed += 1;
        let errors = validate(&report.to_json()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("accounted for exactly once")), "{errors:?}");
    }

    #[test]
    fn validate_rejects_bad_fingerprint_and_nan() {
        let mut report = sample_report();
        report.ingest.fingerprint = "9f2a".into();
        report.serving.qps = f64::NAN;
        let text = report.to_json().pretty();
        let doc = Json::parse(&text).unwrap();
        let errors = validate(&doc).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("0x-prefixed")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("$.serving.qps")), "{errors:?}");
    }

    #[test]
    fn summary_table_shows_both_sides() {
        let table = sample_report().summary_table();
        assert!(table.contains("ingest"));
        assert!(table.contains("serving"));
        assert!(table.contains("p99"));
    }
}
