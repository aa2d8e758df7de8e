//! The live-telemetry report: schema `dnsimpactd-live/v2`.
//!
//! One JSON document per daemon run (`dnsimpactd serve --live-report`),
//! committed under `results/LIVE_<date>[_runN].json` and accepted by
//! `repro validate-metrics`. Unlike the end-of-run reports, this one
//! carries *trajectories*: the retained tick window of every series the
//! live plane sampled, plus the SLO verdict sequence.
//!
//! The document is split at the top level by determinism, so a replay
//! harness can byte-diff exactly the right half:
//!
//! - `deterministic` — tick-indexed series derived from the index state
//!   (pure functions of the feed prefix), the deterministic SLO specs and
//!   their transition log, and the final state scalars with the full
//!   fingerprint. Two runs over the same feed prefix must produce this
//!   object byte-for-byte, whatever the chaos seed or `--jobs`.
//! - `annotation` — wall timestamps, scheduling-dependent series
//!   (queries served/shed, per-route latency), serving-side SLO state,
//!   and the diagnosis. Present for humans, never diffed.
//!
//! [`validate`] re-checks the structural invariants from the outside:
//! strictly increasing ticks, aligned array lengths, legal kinds and
//! statuses — and the delta-conservation law
//! `evicted_sum + Σ values == cumulative` for every delta series, which
//! is how a committed report proves no sample was dropped or
//! double-counted across ring wrap.

use crate::slo::{SloSpecRow, SloStatusView, Transition};
use crate::telemetry::{is_live_deterministic, Telemetry};
use crate::timeseries::TsStore;
use obs::metrics::{HistogramSnapshot, Snapshot};
use obs::schema::{self, record, Reader, Report};
use obs::Json;
use std::collections::BTreeMap;

/// Schema identifier carried in every live report.
pub const LIVE_SCHEMA_ID: &str = "dnsimpactd-live/v2";

record! {
    /// Run identity for the live report.
    pub struct LiveMeta {
        pub seed: u64,
        pub scale: u64,
        pub months: u64,
        pub jobs: u64,
        /// UTC date of the run, `YYYY-MM-DD`.
        pub date: String [is schema::date],
        pub chaos_seed: Option<u64>,
        pub tick_cap: u64,
    }

    /// `$.meta`: the run identity plus how much of the tick clock the
    /// ring still holds.
    pub struct LiveWindowMeta {
        pub run: LiveMeta [flatten],
        pub ticks_total: u64,
        pub ticks_retained: u64,
    }
    rules = LiveWindowMeta::rules;

    /// Final deterministic state scalars.
    pub struct LiveFinal {
        pub applied_seq: u64,
        pub total_batches: u64,
        pub records_applied: u64,
        pub episodes: u64,
        pub joined_rows: u64,
        pub staleness_s: u64,
        /// `0x`-prefixed full index fingerprint.
        pub full_fp: String [is schema::fingerprint],
    }

    /// The retained tick window of one series.
    pub struct LiveSeries {
        pub name: String,
        /// `"delta"` or `"level"`.
        pub kind: String,
        pub ticks: Vec<u64>,
        pub values: Vec<u64>,
        /// Delta series: sum of increments before this window. Level: 0.
        pub evicted_sum: u64,
        /// Delta series: the cumulative value at the last tick.
        pub cumulative: u64,
    }
    rules = LiveSeries::rules;

    /// The half two runs over the same feed prefix must agree on
    /// byte-for-byte.
    pub struct LiveDeterministic {
        pub r#final: LiveFinal,
        pub series: Vec<LiveSeries> [is unique_names],
        pub slo_specs: Vec<SloSpecRow> [is unique_names],
        pub slo_transitions: Vec<Transition>,
    }
    rules = LiveDeterministic::rules;

    /// The wall clock per retained tick.
    pub struct LiveWall {
        pub ticks: Vec<u64>,
        pub ms: Vec<u64>,
    }
    rules = LiveWall::rules;

    /// The half that is present for humans and never diffed.
    pub struct LiveAnnotation {
        pub wall: LiveWall,
        pub series: Vec<LiveSeries> [is unique_names],
        pub slo_statuses: Vec<SloStatusView>,
        pub diagnosis: String,
        pub sched_counters: BTreeMap<String, u64>,
        /// The registry's per-route latency histograms, as sampled.
        pub route_latency_us: BTreeMap<String, HistogramSnapshot>,
    }

    /// A complete live report, convertible to and from schema-`v2` JSON.
    pub struct LiveReport: Report {
        pub meta: LiveWindowMeta,
        pub deterministic: LiveDeterministic,
        pub annotation: LiveAnnotation,
    }
    pub fn validate;
}

impl LiveWindowMeta {
    fn rules(&self, r: &mut Reader) {
        if self.ticks_retained > self.ticks_total {
            r.fail(format_args!(
                ".ticks_retained {} > ticks_total {}",
                self.ticks_retained, self.ticks_total
            ));
        }
    }
}

impl LiveSeries {
    fn rules(&self, r: &mut Reader) {
        r.ensure(!self.name.is_empty(), ".name must be a non-empty string");
        r.ensure(
            matches!(self.kind.as_str(), "delta" | "level"),
            format_args!(".kind {:?} must be \"delta\" or \"level\"", self.kind),
        );
        let (ticks, values) = (self.ticks.len(), self.values.len());
        r.ensure(ticks == values, format_args!(": {ticks} ticks but {values} values"));
        let increasing = self.ticks.windows(2).all(|w| w[0] < w[1]);
        r.ensure(increasing, ".ticks must be strictly increasing");
        let window_sum = schema::checked_sum(&self.values);
        let conserved = window_sum.and_then(|w| w.checked_add(self.evicted_sum));
        let (evicted, cumulative, window) =
            (self.evicted_sum, self.cumulative, schema::show_sum(window_sum));
        r.ensure(
            self.kind != "delta" || conserved == Some(cumulative),
            format_args!(
                " ({:?}): evicted_sum {evicted} + window sum {window} != cumulative \
                 {cumulative} — a sample was dropped or double-counted",
                self.name
            ),
        );
    }
}

/// Field check: the `name`s of a list's rows (series, SLO specs) must be
/// unique.
fn unique_names(list: &Json, r: &mut Reader) {
    let rows = list.as_array().unwrap_or_default();
    let names: Vec<Option<&str>> = rows.iter().map(|row| row.get("name")?.as_str()).collect();
    for (i, name) in names.iter().enumerate() {
        if let Some(name) = name.filter(|_| names[..i].contains(name)) {
            r.fail(format_args!("[{i}]: duplicate name {name:?}"));
        }
    }
}

impl LiveDeterministic {
    fn rules(&self, r: &mut Reader) {
        let mut last_tick = 0u64;
        for (i, t) in self.slo_transitions.iter().enumerate() {
            if t.tick < last_tick {
                r.fail(format_args!(".slo_transitions[{i}].tick {} goes backwards", t.tick));
            }
            last_tick = t.tick;
            if !self.slo_specs.iter().any(|s| s.name == t.slo) {
                r.fail(format_args!(".slo_transitions[{i}].slo {:?} not in slo_specs", t.slo));
            }
        }
    }
}

impl LiveWall {
    fn rules(&self, r: &mut Reader) {
        let (ticks, ms) = (self.ticks.len(), self.ms.len());
        r.ensure(ticks == ms, format_args!(": {ticks} ticks but {ms} ms entries"));
    }
}

impl Report for LiveReport {
    const SCHEMA_ID: &'static str = LIVE_SCHEMA_ID;

    fn headline(&self) -> String {
        let (series, moves) =
            (self.deterministic.series.len(), self.deterministic.slo_transitions.len());
        format!(
            "{series} deterministic series, {moves} SLO transition(s); delta conservation holds"
        )
    }
}

/// The retained windows of the stored series `keep` selects.
fn series_where(store: &TsStore, keep: impl Fn(&str) -> bool) -> Vec<LiveSeries> {
    store
        .names()
        .filter(|(name, _)| keep(name))
        .filter_map(|(name, _)| store.series(name, usize::MAX))
        .map(|w| LiveSeries {
            name: w.name,
            kind: w.kind.as_str().into(),
            ticks: w.ticks,
            values: w.values,
            evicted_sum: w.evicted_sum,
            cumulative: w.cumulative,
        })
        .collect()
}

/// Assemble the live report from the daemon's live plane: the stored
/// series [`is_live_deterministic`] names form the deterministic half, the
/// rest land in annotation. `snap` supplies the scheduling-dependent
/// extras (sched counters, per-route latency histograms).
pub fn build(meta: &LiveMeta, fin: &LiveFinal, tel: &Telemetry, snap: &Snapshot) -> LiveReport {
    let inner = tel.inner.lock().expect("a tick panicked while holding the live plane");
    let (store, slos) = (&inner.store, &inner.slos);
    let deterministic = LiveDeterministic {
        r#final: fin.clone(),
        series: series_where(store, is_live_deterministic),
        slo_specs: slos.deterministic_specs(),
        slo_transitions: slos.deterministic_transitions().into_iter().cloned().collect(),
    };
    // Annotation: the wall clock per retained tick, the nondeterministic
    // series, serving-side SLO state, and the sched extras.
    let annotation = LiveAnnotation {
        wall: LiveWall {
            ticks: store.ticks().map(|t| t.tick).collect(),
            ms: store.ticks().map(|t| t.wall_ms).collect(),
        },
        series: series_where(store, |n| !is_live_deterministic(n)),
        slo_statuses: slos.statuses(),
        diagnosis: slos.diagnose().into(),
        sched_counters: snap
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("sched."))
            .map(|(name, &v)| (name.clone(), v))
            .collect(),
        route_latency_us: snap
            .histograms
            .iter()
            .filter_map(|(name, hs)| {
                let route = name.strip_prefix("sched.daemon.http.latency_us.")?;
                // The server is still answering while this is sampled: a
                // snapshot torn by a concurrent `record` is left out rather
                // than written as a distribution that contradicts itself.
                hs.defects().is_empty().then(|| (route.to_string(), hs.clone()))
            })
            .collect(),
    };
    LiveReport {
        meta: LiveWindowMeta {
            run: meta.clone(),
            ticks_total: store.ticks_total(),
            ticks_retained: store.len() as u64,
        },
        deterministic,
        annotation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::{SloKind, SloSet, SloSpec};
    use crate::telemetry::{Inner, TelemetryConfig};
    use std::collections::BTreeMap;

    fn sample_report() -> Json {
        let mut store = TsStore::new(4);
        let mut slos = SloSet::new(vec![
            SloSpec {
                name: "ingest_lag".into(),
                series: "live.ingest_lag".into(),
                max: 2,
                window: 3,
                kind: SloKind::Ingest,
                deterministic: true,
            },
            SloSpec {
                name: "shed".into(),
                series: "sched.shed_permille".into(),
                max: 100,
                window: 3,
                kind: SloKind::Serving,
                deterministic: false,
            },
        ]);
        for tick in 1..=6u64 {
            let counters = BTreeMap::from([
                ("live.records".to_string(), tick * 10),
                ("sched.served".to_string(), tick * 3),
            ]);
            let levels = BTreeMap::from([
                ("live.ingest_lag".to_string(), 6 - tick),
                ("sched.shed_permille".to_string(), 0),
            ]);
            store.observe(tick, tick * 100, &counters, &levels);
            let t = store.ticks().last().unwrap().clone();
            slos.observe_tick(tick, |name| {
                t.levels.get(name).copied().or_else(|| t.deltas.get(name).copied())
            });
        }
        let meta = LiveMeta {
            seed: 7,
            scale: 15_000,
            months: 2,
            jobs: 2,
            date: "2026-08-08".into(),
            chaos_seed: Some(11),
            tick_cap: 4,
        };
        let fin = LiveFinal {
            applied_seq: 6,
            total_batches: 6,
            records_applied: 60,
            episodes: 9,
            joined_rows: 12,
            staleness_s: 0,
            full_fp: "0x9f2a6c41d0e8b753".into(),
        };
        let snap = Snapshot {
            counters: BTreeMap::from([("sched.daemon.queries_shed".into(), 4)]),
            gauges: BTreeMap::new(),
            // Values {1, 2, 2, 3, 4, 4, 9, 15}.
            histograms: BTreeMap::from([(
                "sched.daemon.http.latency_us.query".to_string(),
                HistogramSnapshot {
                    count: 8,
                    sum: 40,
                    min: 1,
                    max: 15,
                    p50: 3,
                    p90: 15,
                    p95: 15,
                    p99: 15,
                    buckets: vec![0, 1, 3, 2, 2],
                },
            )]),
        };
        let tel = Telemetry::new(TelemetryConfig::default());
        *tel.inner.lock().unwrap() = Inner { store, slos };
        build(&meta, &fin, &tel, &snap).to_json()
    }

    #[test]
    fn sample_report_bytes_are_pinned() {
        assert_eq!(sample_report().pretty(), include_str!("golden/live.json"));
    }

    #[test]
    fn built_report_validates_and_round_trips() {
        let doc = sample_report();
        validate(&doc).unwrap();
        let text = doc.pretty();
        let parsed = Json::parse(&text).unwrap();
        validate(&parsed).unwrap();
        assert_eq!(parsed.pretty(), text);
    }

    #[test]
    fn deterministic_half_excludes_wall_and_sched() {
        let doc = sample_report();
        let det = doc.get("deterministic").unwrap().pretty();
        assert!(!det.contains("wall_ms"), "wall clock leaked into deterministic half");
        assert!(!det.contains("sched."), "sched series leaked into deterministic half");
        // The lag SLO starts breached (lag 5 > 2) and recovers — verdicts
        // present and deterministic.
        let trans = doc
            .get("deterministic")
            .and_then(|d| d.get("slo_transitions"))
            .and_then(|t| t.as_array())
            .unwrap();
        assert!(!trans.is_empty());
    }

    #[test]
    fn route_latency_carries_the_registry_snapshot() {
        let doc = sample_report();
        let report = LiveReport::from_json(&doc).unwrap();
        let routes = &report.annotation.route_latency_us;
        assert_eq!(routes.keys().collect::<Vec<_>>(), ["query"]);
        assert_eq!((routes["query"].count, routes["query"].p90), (8, 15));

        // The reader holds it to its buckets like any other histogram.
        let text = doc.pretty().replace("\"p99\": 15", "\"p99\": 1");
        let errors = validate(&Json::parse(&text).unwrap()).unwrap_err();
        let want = "$.annotation.route_latency_us.query.p99 claims 1";
        assert!(errors.iter().any(|e| e.starts_with(want)), "{errors:?}");
    }

    #[test]
    fn validate_catches_conservation_violation() {
        let mut doc = sample_report();
        // Corrupt one delta value: the conservation law must notice.
        let det = doc.get("deterministic").unwrap().clone();
        let mut series = det.get("series").unwrap().as_array().unwrap().to_vec();
        let idx = series
            .iter()
            .position(|s| s.get("kind").and_then(|k| k.as_str()) == Some("delta"))
            .expect("a delta series");
        let mut s0 = series[idx].clone();
        let mut values = s0.get("values").unwrap().as_array().unwrap().to_vec();
        let Some(Json::U64(v)) = values.first().cloned() else { panic!("no values") };
        values[0] = Json::U64(v + 1);
        s0.set("values", Json::Array(values));
        series[idx] = s0;
        let mut det2 = det;
        det2.set("series", Json::Array(series));
        doc.set("deterministic", det2);
        let errors = validate(&doc).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("double-counted")), "{errors:?}");
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        let mut doc = sample_report();
        doc.set("schema", Json::Str("nope/v9".into()));
        assert!(validate(&doc).is_err());

        let empty = Json::obj();
        let errors = validate(&empty).unwrap_err();
        for field in ["$.schema", "$.meta", "$.deterministic", "$.annotation"] {
            assert!(errors.iter().any(|e| e.contains(field)), "{field}: {errors:?}");
        }
    }
}
