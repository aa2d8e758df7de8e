//! Declarative SLOs evaluated on the tick clock, with burn rates and a
//! degradation diagnosis.
//!
//! An [`SloSpec`] binds an objective ("p99 query latency stays under
//! 5 ms", "ingest lag under 50 batches") to one time-series name in the
//! live store. Every tick, [`SloSet::observe_tick`] reads the series'
//! current value and records breach-or-not; the **burn rate** is the
//! breaching fraction of the last `window` ticks, in permille. Status
//! follows burn: [`SloStatus::Breach`] at ≥ 500‰, [`SloStatus::Warn`]
//! above zero, [`SloStatus::Ok`] otherwise. Only status *transitions*
//! are recorded (a `(tick, slo, status)` triple), so the verdict
//! sequence stays tiny and — for deterministic SLOs — is itself a pure
//! function of the feed prefix, byte-comparable across replays.
//!
//! ## Deterministic vs annotation objectives
//!
//! Ingest-side objectives (staleness, lag) read deterministic series:
//! their verdicts replay identically for any chaos seed or `--jobs` and
//! belong to the deterministic half of `/sloz` and the live report.
//! Serving-side objectives (query p99, shed ratio) depend on thread
//! timing — real observability, annotation only. The split is declared
//! per spec (`deterministic`), mirroring the metric namespace rule.
//!
//! ## Diagnosis
//!
//! The paper's operator question is not just "are we degraded" but
//! *why*. [`SloSet::diagnose`] separates the two failure shapes the
//! daemon can exhibit: **attack-induced overload** (serving SLOs burn
//! while ingest is healthy — the index is fresh but the query plane is
//! drowning) and **ingest starvation** (staleness/lag SLOs burn — the
//! served answers are honest but old, whatever the query plane does).

use crate::json::Json;
use crate::schema::{record, Field, Reader};
use std::collections::VecDeque;

/// Which failure shape a breached objective indicates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloKind {
    /// Ingest health: staleness, lag. Deterministic series.
    Ingest,
    /// Query-plane health: latency, shedding. Scheduling-dependent.
    Serving,
}

/// One declarative objective.
#[derive(Clone, Debug)]
pub struct SloSpec {
    /// Short verdict name (`ingest_staleness`, `query_p99_us`, …).
    pub name: String,
    /// The time-series the objective reads.
    pub series: String,
    /// Breach when the series value exceeds this.
    pub max: u64,
    /// Burn-rate window, in ticks.
    pub window: usize,
    pub kind: SloKind,
    /// Whether verdicts join determinism comparisons (see module docs).
    pub deterministic: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloStatus {
    Ok,
    Warn,
    Breach,
}

impl SloStatus {
    pub fn as_str(self) -> &'static str {
        match self {
            SloStatus::Ok => "ok",
            SloStatus::Warn => "warn",
            SloStatus::Breach => "breach",
        }
    }
}

/// Written as `"ok"` / `"warn"` / `"breach"`.
impl Field for SloStatus {
    fn read(v: &Json, r: &mut Reader) -> Option<SloStatus> {
        let name = String::read(v, r)?;
        let status = [SloStatus::Ok, SloStatus::Warn, SloStatus::Breach]
            .into_iter()
            .find(|s| s.as_str() == name);
        r.ensure(status.is_some(), format_args!(" {name:?} is not ok|warn|breach"))?;
        status
    }

    fn write(&self) -> Json {
        Json::Str(self.as_str().into())
    }
}

// Rows of `/sloz` and of the live report (`crate::live`), as written.
record! {
    /// A recorded status change.
    #[derive(Eq)]
    pub struct Transition {
        pub tick: u64,
        pub slo: String,
        pub status: SloStatus,
    }

    /// A deterministic objective, as declared — [`SloSpec`] as written.
    pub struct SloSpecRow {
        pub name: String,
        pub series: String,
        pub max: u64,
        pub window: u64,
    }
    rules = SloSpecRow::rules;

    /// Live view of one objective.
    pub struct SloStatusView {
        pub name: String,
        pub series: String,
        pub status: SloStatus,
        pub burn_permille: u64,
        pub max: u64,
        pub last_value: Option<u64>,
        pub deterministic: bool,
    }
}

impl SloSpecRow {
    fn rules(&self, r: &mut Reader) {
        r.ensure(!self.name.is_empty(), ".name must be a non-empty string");
        r.ensure(self.window > 0, ".window must be at least 1");
    }
}

struct SloState {
    spec: SloSpec,
    recent: VecDeque<bool>,
    status: SloStatus,
    last_value: Option<u64>,
    ever_observed: bool,
}

impl SloState {
    fn burn_permille(&self) -> u64 {
        if self.recent.is_empty() {
            return 0;
        }
        let breaching = self.recent.iter().filter(|&&b| b).count() as u64;
        breaching * 1000 / self.recent.len() as u64
    }
}

/// All objectives plus the transition log.
pub struct SloSet {
    slos: Vec<SloState>,
    transitions: Vec<Transition>,
}

impl SloSet {
    pub fn new(specs: Vec<SloSpec>) -> SloSet {
        SloSet {
            slos: specs
                .into_iter()
                .map(|spec| SloState {
                    spec,
                    recent: VecDeque::new(),
                    status: SloStatus::Ok,
                    last_value: None,
                    ever_observed: false,
                })
                .collect(),
            transitions: Vec::new(),
        }
    }

    pub fn specs(&self) -> impl Iterator<Item = &SloSpec> {
        self.slos.iter().map(|s| &s.spec)
    }

    /// Evaluate every objective at `tick`. `value_of` resolves a series
    /// name to its current value; an unresolvable series contributes no
    /// observation (the objective keeps its last status rather than
    /// inventing an Ok).
    pub fn observe_tick(&mut self, tick: u64, mut value_of: impl FnMut(&str) -> Option<u64>) {
        for s in &mut self.slos {
            let Some(v) = value_of(&s.spec.series) else { continue };
            s.last_value = Some(v);
            s.recent.push_back(v > s.spec.max);
            while s.recent.len() > s.spec.window.max(1) {
                s.recent.pop_front();
            }
            let burn = s.burn_permille();
            let status = if burn >= 500 {
                SloStatus::Breach
            } else if burn > 0 {
                SloStatus::Warn
            } else {
                SloStatus::Ok
            };
            // The first observation is always recorded, so a replayed
            // verdict sequence states its starting point explicitly.
            if status != s.status || !s.ever_observed {
                s.status = status;
                s.ever_observed = true;
                self.transitions.push(Transition { tick, slo: s.spec.name.clone(), status });
            }
        }
    }

    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// The deterministic objectives, as `/sloz` and the live report list
    /// them.
    pub fn deterministic_specs(&self) -> Vec<SloSpecRow> {
        let row = |s: &SloSpec| SloSpecRow {
            name: s.name.clone(),
            series: s.series.clone(),
            max: s.max,
            window: s.window as u64,
        };
        self.specs().filter(|s| s.deterministic).map(row).collect()
    }

    /// Transitions of deterministic objectives only — the byte-comparable
    /// verdict sequence.
    pub fn deterministic_transitions(&self) -> Vec<&Transition> {
        let det: Vec<&str> = self
            .slos
            .iter()
            .filter(|s| s.spec.deterministic)
            .map(|s| s.spec.name.as_str())
            .collect();
        self.transitions.iter().filter(|t| det.contains(&t.slo.as_str())).collect()
    }

    pub fn statuses(&self) -> Vec<SloStatusView> {
        self.slos
            .iter()
            .map(|s| SloStatusView {
                name: s.spec.name.clone(),
                series: s.spec.series.clone(),
                status: s.status,
                burn_permille: s.burn_permille(),
                max: s.spec.max,
                last_value: s.last_value,
                deterministic: s.spec.deterministic,
            })
            .collect()
    }

    /// The failure-shape verdict (see module docs). Warn-level burn does
    /// not flip the diagnosis; only Breach does.
    pub fn diagnose(&self) -> &'static str {
        let breaching = |kind: SloKind| {
            self.slos
                .iter()
                .any(|s| s.spec.kind == kind && s.ever_observed && s.status == SloStatus::Breach)
        };
        match (breaching(SloKind::Serving), breaching(SloKind::Ingest)) {
            (true, true) => "overload_and_starvation",
            (true, false) => "attack_overload",
            (false, true) => "ingest_starvation",
            (false, false) => {
                if self.slos.iter().any(|s| s.ever_observed && s.status == SloStatus::Warn) {
                    "warn"
                } else {
                    "healthy"
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, series: &str, max: u64, window: usize, kind: SloKind) -> SloSpec {
        SloSpec {
            name: name.into(),
            series: series.into(),
            max,
            window,
            kind,
            deterministic: kind == SloKind::Ingest,
        }
    }

    #[test]
    fn burn_rate_drives_status_transitions() {
        let mut set = SloSet::new(vec![spec("lag", "live.lag", 10, 4, SloKind::Ingest)]);
        // 3 breaching ticks, then recovery.
        for (tick, v) in [(1, 50), (2, 40), (3, 30), (4, 5), (5, 5), (6, 5), (7, 5), (8, 5)] {
            set.observe_tick(tick, |_| Some(v));
        }
        let names: Vec<(u64, SloStatus)> =
            set.transitions().iter().map(|t| (t.tick, t.status)).collect();
        // tick1: first observation (breach 1000‰) → Breach; stays Breach
        // through tick5 (2/4 = 500‰); tick6 1/4 → Warn; tick7 0/4 → Ok.
        assert_eq!(names, vec![(1, SloStatus::Breach), (6, SloStatus::Warn), (7, SloStatus::Ok)]);
        assert_eq!(set.diagnose(), "healthy");
    }

    #[test]
    fn diagnosis_separates_overload_from_starvation() {
        let mut set = SloSet::new(vec![
            spec("staleness", "live.staleness_s", 100, 2, SloKind::Ingest),
            spec("shed", "sched.shed_permille", 50, 2, SloKind::Serving),
        ]);
        // Ingest healthy, serving drowning → attack overload.
        set.observe_tick(1, |s| Some(if s.starts_with("sched.") { 900 } else { 0 }));
        set.observe_tick(2, |s| Some(if s.starts_with("sched.") { 900 } else { 0 }));
        assert_eq!(set.diagnose(), "attack_overload");
        // Now the feed stalls too.
        set.observe_tick(3, |_| Some(900));
        set.observe_tick(4, |_| Some(900));
        assert_eq!(set.diagnose(), "overload_and_starvation");
        // Serving recovers, ingest still stalled → starvation.
        set.observe_tick(5, |s| Some(if s.starts_with("sched.") { 0 } else { 900 }));
        set.observe_tick(6, |s| Some(if s.starts_with("sched.") { 0 } else { 900 }));
        assert_eq!(set.diagnose(), "ingest_starvation");
    }

    #[test]
    fn deterministic_transitions_exclude_serving_objectives() {
        let mut set = SloSet::new(vec![
            spec("lag", "live.lag", 10, 2, SloKind::Ingest),
            spec("p99", "sched.p99", 10, 2, SloKind::Serving),
        ]);
        set.observe_tick(1, |_| Some(100));
        assert_eq!(set.transitions().len(), 2);
        let det = set.deterministic_transitions();
        assert_eq!(det.len(), 1);
        assert_eq!(det[0].slo, "lag");
    }

    #[test]
    fn unresolvable_series_keeps_last_status() {
        let mut set = SloSet::new(vec![spec("lag", "live.lag", 10, 2, SloKind::Ingest)]);
        set.observe_tick(1, |_| Some(100));
        assert_eq!(set.statuses()[0].status, SloStatus::Breach);
        set.observe_tick(2, |_| None);
        assert_eq!(set.statuses()[0].status, SloStatus::Breach);
        assert_eq!(set.transitions().len(), 1);
    }
}
