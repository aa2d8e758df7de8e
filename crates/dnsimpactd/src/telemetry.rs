//! The daemon's live telemetry plane: tick sampling, SLO evaluation, and
//! the query surfaces behind `/metricsz`, `/seriesz`, and `/sloz`.
//!
//! ## The tick clock
//!
//! A tick fires once per applied feed batch, numbered by `applied_seq` —
//! never by wall clock. Recovery replays tick exactly like live ingest,
//! so a crash-recovered daemon regrows the same series a clean one has.
//! Wall time is captured per tick but only as annotation.
//!
//! ## What is deterministic here
//!
//! The live plane's deterministic series are **derived from the index
//! state alone** (`live.*` names): applied batches, records, episodes,
//! joined rows as cumulative deltas; staleness, ingest lag, and the feed
//! clock as levels. This is deliberately *stricter* than the metric
//! namespace rule: plain-named registry counters like `chaos.*` or
//! `daemon.ckpt_write_errors` are deterministic across `--jobs` but not
//! across chaos seeds or checkpoint contents, and the live plane's
//! replay contract is "byte-identical for *any* chaos seed". Everything
//! sampled from the registry therefore lands in annotation, alongside
//! the `sched.*` serving counters and per-route latency.
//!
//! Reading registry counters here does not violate the out-of-band rule:
//! this module *is* the reporting layer — nothing in the pipeline
//! branches on what it samples.

use crate::index::IndexState;
use obs::schema::Field as _;
use obs::slo::{SloKind, SloSet, SloSpec, SloStatus};
use obs::timeseries::TsStore;
use obs::{Json, LiveFinal, LiveMeta};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Live-plane policy: ring capacity and the SLO thresholds.
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Retained ticks in the ring.
    pub tick_cap: usize,
    /// `ingest_staleness` SLO: breach when `live.staleness_s` exceeds
    /// this. Defaults to the serving staleness bound.
    pub staleness_slo_s: u64,
    /// `ingest_lag` SLO: breach while more batches than this remain.
    pub lag_slo_batches: u64,
    /// `query_p99_us` SLO (annotation): breach when the query route's
    /// p99 exceeds this.
    pub p99_slo_us: u64,
    /// `shed_ratio` SLO (annotation): breach when more than this
    /// permille of offered queries were shed.
    pub shed_slo_permille: u64,
    /// Burn-rate window, in ticks.
    pub slo_window: usize,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            tick_cap: 1024,
            staleness_slo_s: 1_800,
            lag_slo_batches: 64,
            p99_slo_us: 50_000,
            shed_slo_permille: 100,
            slo_window: 16,
        }
    }
}

/// Whether a series name belongs to the live plane's deterministic half
/// (see module docs).
pub fn is_live_deterministic(name: &str) -> bool {
    name.starts_with("live.")
}

struct Inner {
    store: TsStore,
    slos: SloSet,
}

/// The shared live plane. The ingest thread ticks it; HTTP workers read
/// it. One mutex around the store + SLO set — ticks are per-batch and
/// reads are per-request, so contention is negligible next to either.
pub struct Telemetry {
    cfg: TelemetryConfig,
    inner: Mutex<Inner>,
    checkpoint_seq: AtomicU64,
}

impl Telemetry {
    pub fn new(cfg: TelemetryConfig) -> Arc<Telemetry> {
        let specs = vec![
            SloSpec {
                name: "ingest_staleness".into(),
                series: "live.staleness_s".into(),
                max: cfg.staleness_slo_s,
                window: cfg.slo_window,
                kind: SloKind::Ingest,
                deterministic: true,
            },
            SloSpec {
                name: "ingest_lag".into(),
                series: "live.ingest_lag".into(),
                max: cfg.lag_slo_batches,
                window: cfg.slo_window,
                kind: SloKind::Ingest,
                deterministic: true,
            },
            SloSpec {
                name: "query_p99_us".into(),
                series: "sched.daemon.http.p99_us.query".into(),
                max: cfg.p99_slo_us,
                window: cfg.slo_window,
                kind: SloKind::Serving,
                deterministic: false,
            },
            SloSpec {
                name: "shed_ratio".into(),
                series: "sched.daemon.shed_permille".into(),
                max: cfg.shed_slo_permille,
                window: cfg.slo_window,
                kind: SloKind::Serving,
                deterministic: false,
            },
        ];
        Arc::new(Telemetry {
            inner: Mutex::new(Inner {
                store: TsStore::new(cfg.tick_cap),
                slos: SloSet::new(specs),
            }),
            cfg,
            checkpoint_seq: AtomicU64::new(0),
        })
    }

    pub fn config(&self) -> &TelemetryConfig {
        &self.cfg
    }

    /// Record one tick after a batch apply. `state` is the index *after*
    /// the apply, so the tick id is `applied_seq` (1-based, strictly
    /// increasing across live ingest and recovery replay alike).
    pub fn tick(&self, state: &IndexState, total_batches: u64) {
        let tick = state.applied_seq;
        let wall_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);

        let mut counters = BTreeMap::new();
        counters.insert("live.batches".to_string(), state.applied_seq);
        counters.insert("live.records".to_string(), state.records_applied);
        counters.insert("live.episodes".to_string(), state.columns.len() as u64);
        counters.insert("live.joined_rows".to_string(), state.join.len() as u64);

        let mut levels = BTreeMap::new();
        levels.insert("live.staleness_s".to_string(), state.staleness_s());
        levels
            .insert("live.ingest_lag".to_string(), total_batches.saturating_sub(state.applied_seq));
        levels.insert("live.clock_s".to_string(), state.clock.secs());

        // Annotation: the serving side, sampled from the registry.
        let received = obs::counter("sched.daemon.queries_received").get();
        let shed = obs::counter("sched.daemon.queries_shed").get();
        counters.insert("sched.daemon.queries_received".to_string(), received);
        counters.insert("sched.daemon.queries_shed".to_string(), shed);
        counters.insert(
            "sched.daemon.queries_served".to_string(),
            obs::counter("sched.daemon.queries_served").get(),
        );
        levels.insert(
            "sched.daemon.shed_permille".to_string(),
            (shed * 1000).checked_div(received).unwrap_or(0),
        );
        levels.insert(
            "sched.daemon.http.p99_us.query".to_string(),
            obs::histogram("sched.daemon.http.latency_us.query").snapshot().p99,
        );

        let mut inner = self.inner.lock().unwrap();
        inner.store.observe(tick, wall_ms, &counters, &levels);
        inner.slos.observe_tick(tick, |name| {
            levels.get(name).copied().or_else(|| counters.get(name).copied())
        });
    }

    /// Discard every tick — only for the recovery path that throws away a
    /// lying checkpoint's replayed state and starts clean.
    pub fn reset(&self) {
        let mut inner = self.inner.lock().unwrap();
        let specs: Vec<SloSpec> = inner.slos.specs().cloned().collect();
        inner.store = TsStore::new(self.cfg.tick_cap);
        inner.slos = SloSet::new(specs);
        self.checkpoint_seq.store(0, Ordering::Relaxed);
    }

    /// Record a durably written checkpoint (for `/statz`).
    pub fn note_checkpoint(&self, applied_seq: u64) {
        self.checkpoint_seq.store(applied_seq, Ordering::Relaxed);
    }

    pub fn checkpoint_seq(&self) -> u64 {
        self.checkpoint_seq.load(Ordering::Relaxed)
    }

    /// The `/seriesz` answer for one series: the deterministic window
    /// fields under `"deterministic"` (only for `live.*` series — an
    /// annotation series' points live under `"annotation"`), wall
    /// timestamps always under `"annotation"`.
    pub fn seriesz(&self, name: &str, last: usize) -> Option<Json> {
        let inner = self.inner.lock().unwrap();
        let w = inner.store.series(name, last)?;
        let mut points = Json::obj();
        points.set("name", Json::Str(w.name.clone()));
        points.set("kind", Json::Str(w.kind.as_str().into()));
        points.set("ticks", Json::Array(w.ticks.iter().map(|&t| Json::U64(t)).collect()));
        points.set("values", Json::Array(w.values.iter().map(|&v| Json::U64(v)).collect()));
        points.set("evicted_sum", Json::U64(w.evicted_sum));
        points.set("cumulative", Json::U64(w.cumulative));

        let mut ann = Json::obj();
        ann.set("wall_ms", Json::Array(w.wall_ms.iter().map(|&m| Json::U64(m)).collect()));

        let mut body = Json::obj();
        if is_live_deterministic(name) {
            body.set("deterministic", points);
        } else {
            let mut det = Json::obj();
            det.set("name", Json::Str(w.name));
            det.set("deterministic_series", Json::Bool(false));
            body.set("deterministic", det);
            ann.set("points", points);
        }
        body.set("annotation", ann);
        Some(body)
    }

    /// Known series names and kinds (for `/seriesz` without a match).
    pub fn series_names(&self) -> Vec<(String, &'static str)> {
        let inner = self.inner.lock().unwrap();
        inner.store.names().map(|(n, k)| (n.to_string(), k.as_str())).collect()
    }

    /// The `/sloz` answer: deterministic specs + verdict transitions
    /// under `"deterministic"`, live statuses and the diagnosis under
    /// `"annotation"`.
    pub fn sloz(&self) -> Json {
        let inner = self.inner.lock().unwrap();
        let transitions: Vec<_> =
            inner.slos.deterministic_transitions().into_iter().cloned().collect();
        let mut det = Json::obj();
        det.set("specs", inner.slos.deterministic_specs().write());
        det.set("transitions", transitions.write());

        let mut ann = Json::obj();
        ann.set("statuses", inner.slos.statuses().write());
        ann.set("diagnosis", Json::Str(inner.slos.diagnose().into()));

        let mut body = Json::obj();
        body.set("deterministic", det);
        body.set("annotation", ann);
        body
    }

    /// Compact SLO verdicts for `/statz`: worst status, per-SLO states,
    /// and the diagnosis.
    pub fn statz_slo(&self) -> Json {
        let inner = self.inner.lock().unwrap();
        let statuses = inner.slos.statuses();
        let worst = statuses
            .iter()
            .map(|v| v.status)
            .max_by_key(|s| match s {
                SloStatus::Ok => 0,
                SloStatus::Warn => 1,
                SloStatus::Breach => 2,
            })
            .unwrap_or(SloStatus::Ok);
        let mut o = Json::obj();
        o.set("worst", Json::Str(worst.as_str().into()));
        o.set("diagnosis", Json::Str(inner.slos.diagnose().into()));
        let mut per = Json::obj();
        for v in &statuses {
            per.set(&v.name, Json::Str(v.status.as_str().into()));
        }
        o.set("status", per);
        o
    }

    /// Build the `dnsimpactd-live/v2` report (validated by the caller).
    pub fn live_report(&self, meta: &LiveMeta, fin: &LiveFinal) -> Json {
        let inner = self.inner.lock().unwrap();
        obs::live::build(
            meta,
            fin,
            &inner.store,
            &inner.slos,
            &is_live_deterministic,
            &obs::registry().snapshot(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feed::{self, FeedConfig};
    use crate::index::IndexState;

    fn tiny_feed() -> crate::feed::FeedSource {
        let mut cfg = FeedConfig::pinned(1_500);
        cfg.months = 1;
        cfg.world.domains = 500;
        feed::build(&cfg, 1)
    }

    #[test]
    fn ticks_are_a_pure_function_of_the_feed_prefix() {
        let source = tiny_feed();
        let total = source.batches.len() as u64;
        let report = |tel: &Telemetry| {
            let mut out = Vec::new();
            for name in ["live.batches", "live.records", "live.staleness_s", "live.ingest_lag"] {
                let body = tel.seriesz(name, usize::MAX).unwrap();
                out.push(body.get("deterministic").unwrap().pretty());
            }
            out.push(tel.sloz().get("deterministic").unwrap().pretty());
            out
        };
        // Two independent applies of the same feed (the second in two
        // chunks, simulating a crash + replay) must agree byte-for-byte.
        let a = Telemetry::new(TelemetryConfig::default());
        let mut state = IndexState::default();
        for batch in &source.batches {
            state.apply(&source.world, batch);
            a.tick(&state, total);
        }
        let b = Telemetry::new(TelemetryConfig::default());
        let mut state2 = IndexState::default();
        let half = source.batches.len() / 2;
        for batch in &source.batches[..half] {
            state2.apply(&source.world, batch);
            b.tick(&state2, total);
        }
        for batch in &source.batches[half..] {
            state2.apply(&source.world, batch);
            b.tick(&state2, total);
        }
        let (ra, rb) = (report(&a), report(&b));
        assert_eq!(ra, rb, "deterministic live views diverged");
    }

    #[test]
    fn lag_slo_breaches_then_recovers() {
        let source = tiny_feed();
        let total = source.batches.len() as u64;
        let cfg = TelemetryConfig {
            lag_slo_batches: total / 2,
            slo_window: 4,
            ..TelemetryConfig::default()
        };
        let tel = Telemetry::new(cfg);
        let mut state = IndexState::default();
        for batch in &source.batches {
            state.apply(&source.world, batch);
            tel.tick(&state, total);
        }
        let sloz = tel.sloz();
        let det = sloz.get("deterministic").unwrap();
        let transitions = det.get("transitions").unwrap().as_array().unwrap();
        let lag: Vec<&str> = transitions
            .iter()
            .filter(|t| t.get("slo").and_then(|s| s.as_str()) == Some("ingest_lag"))
            .map(|t| t.get("status").and_then(|s| s.as_str()).unwrap())
            .collect();
        assert!(lag.first() == Some(&"breach"), "starts breached: {lag:?}");
        assert!(lag.last() == Some(&"ok"), "ends recovered: {lag:?}");
    }
}
