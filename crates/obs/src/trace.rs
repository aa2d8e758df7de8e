//! Causal event tracing (DESIGN §10): a bounded, lock-sharded ring of
//! typed pipeline events, each attributed to an attack episode, plus the
//! Chrome-trace export, the causality checker, and the `repro explain`
//! timeline renderer.
//!
//! Events obey the same out-of-band contract as metrics (§9): the
//! pipeline only writes; nothing reads the ring until reporting time, so
//! tracing can never influence artifact bytes or stdout. The determinism
//! domain splits per *field* rather than per name: `scope`, `episode`,
//! `sim_secs`, `detail`, and `value` are identical across `--jobs` counts
//! (and, for non-fault events, across chaos seeds), while `wall_micros`
//! is wall-clock forensics excluded from determinism comparisons —
//! [`TraceEvent::deterministic_line`] is the canonical comparable form,
//! and [`snapshot`] orders events by their deterministic sort key so the
//! stream itself compares across worker counts.
//!
//! The causal key is the **episode id**: `scope/idx`, where `scope` names
//! the feed that emitted the episode (`rsdos` for the longitudinal feed,
//! `milru`/`rdz`/`transip` for the scenario feeds) and `idx` is the
//! episode's index in that feed. It is threaded from telescope feed
//! emission through the join, the reactive trigger/probe path, and impact
//! computation; chaos fault events carry the injection-site label as
//! their scope instead (they are attributed to runs, not episodes).

use crate::json::Json;
use crate::metrics::{Counter, Held};
use crate::report::{MAX_PROBES_PER_ROUND, MAX_TRIGGER_LATENCY_SECS};
use crate::schema::{record, Reader};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Shard count of the global ring; emission locks one shard only.
const TRACE_SHARDS: usize = 16;
/// Bounded per-shard capacity; overflow evicts the shard's oldest event
/// (counted under `sched.trace.dropped`).
const SHARD_CAPACITY: usize = 8192;

/// The event taxonomy, in causal-rank order: at equal sim time, an
/// episode's onset sorts before its feed record, the record before the
/// trigger it fired, and so on down the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    AttackOnset,
    FeedRecordArrived,
    FeedGap,
    JoinMatched,
    TriggerFired,
    ProbeScheduled,
    ProbeCompleted,
    BaselineFallback,
    ImpactComputed,
    FaultInjected,
    FaultRepaired,
    StageStart,
    StageEnd,
    CheckpointWritten,
}

/// Every kind, in causal-rank order.
pub const EVENT_KINDS: [EventKind; 14] = [
    EventKind::AttackOnset,
    EventKind::FeedRecordArrived,
    EventKind::FeedGap,
    EventKind::JoinMatched,
    EventKind::TriggerFired,
    EventKind::ProbeScheduled,
    EventKind::ProbeCompleted,
    EventKind::BaselineFallback,
    EventKind::ImpactComputed,
    EventKind::FaultInjected,
    EventKind::FaultRepaired,
    EventKind::StageStart,
    EventKind::StageEnd,
    EventKind::CheckpointWritten,
];

impl EventKind {
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::AttackOnset => "AttackOnset",
            EventKind::FeedRecordArrived => "FeedRecordArrived",
            EventKind::FeedGap => "FeedGap",
            EventKind::JoinMatched => "JoinMatched",
            EventKind::TriggerFired => "TriggerFired",
            EventKind::ProbeScheduled => "ProbeScheduled",
            EventKind::ProbeCompleted => "ProbeCompleted",
            EventKind::BaselineFallback => "BaselineFallback",
            EventKind::ImpactComputed => "ImpactComputed",
            EventKind::FaultInjected => "FaultInjected",
            EventKind::FaultRepaired => "FaultRepaired",
            EventKind::StageStart => "StageStart",
            EventKind::StageEnd => "StageEnd",
            EventKind::CheckpointWritten => "CheckpointWritten",
        }
    }

    pub fn parse(name: &str) -> Option<EventKind> {
        EVENT_KINDS.iter().copied().find(|k| k.as_str() == name)
    }

    /// Position in the causal order (the sim-time tie-break).
    pub fn rank(self) -> u8 {
        self as u8
    }

    /// Fault events vary with the chaos seed; every other kind belongs to
    /// the cross-chaos-seed deterministic stream.
    pub fn is_fault(self) -> bool {
        matches!(self, EventKind::FaultInjected | EventKind::FaultRepaired)
    }
}

/// One traced event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub kind: EventKind,
    /// The feed scope for episode events (`rsdos`, `milru`, ...), the
    /// injection-site label for fault events, the harness name for stage
    /// and checkpoint events.
    pub scope: String,
    /// Episode index within `scope`; `None` for run-level events.
    pub episode: Option<u64>,
    /// Simulation time (seconds); `None` for events outside sim time
    /// (stages, checkpoints, fault injection sites).
    pub sim_secs: Option<u64>,
    /// Free-form deterministic description (also the fault match key).
    pub detail: String,
    /// Kind-specific magnitude: trigger delay (s), probes in a round,
    /// affected domains, delay windows, onset duration (min).
    pub value: Option<u64>,
    /// Microseconds since the process trace anchor. Wall clock: excluded
    /// from the deterministic domain, kept for forensics.
    pub wall_micros: u64,
}

impl TraceEvent {
    /// The `scope/idx` causal id, when the event is episode-attributed.
    pub fn episode_id(&self) -> Option<String> {
        self.episode.map(|e| format!("{}/{e}", self.scope))
    }

    /// The canonical deterministic rendering: every field except
    /// `wall_micros`. Two runs agree on their trace iff the sorted
    /// deterministic lines agree.
    pub fn deterministic_line(&self) -> String {
        format!(
            "{} ep={} sim={} {} value={} {}",
            self.scope,
            opt(self.episode),
            opt(self.sim_secs),
            self.kind.as_str(),
            opt(self.value),
            self.detail,
        )
    }
}

fn opt(v: Option<u64>) -> String {
    v.map(|n| n.to_string()).unwrap_or_else(|| "-".into())
}

/// The deterministic sort key: scope, then episode (run-level events
/// last), then sim time (wall-only events last), then causal rank, then
/// detail and value. `wall_micros` is deliberately absent.
fn sort_key(e: &TraceEvent) -> (&str, u64, u64, u8, &str, u64) {
    (
        e.scope.as_str(),
        e.episode.unwrap_or(u64::MAX),
        e.sim_secs.unwrap_or(u64::MAX),
        e.kind.rank(),
        e.detail.as_str(),
        e.value.unwrap_or(u64::MAX),
    )
}

/// The typed payload of an [`EventKind::AttackOnset`] event. The ring
/// keeps these fields and renders the detail text only when it is read
/// ([`snapshot`]), so a run that emits tens of thousands of onsets and
/// never reads them formats none.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Onset {
    pub victim: Ipv4Addr,
    /// The protocol's name as the feed prints it (`Tcp`, `Udp`, `Icmp`).
    pub protocol: &'static str,
    pub port: u16,
    pub peak_ppm: f64,
}

impl Onset {
    /// The event's `detail`: `victim <ip> <protocol> port <n> peak <ppm> ppm`,
    /// the peak rounded to a whole number.
    pub fn render(&self) -> String {
        let Onset { victim, protocol, port, peak_ppm } = self;
        format!("victim {victim} {protocol} port {port} peak {peak_ppm:.0} ppm")
    }
}

/// An event as the ring holds it: the scope borrowed when it is a
/// `'static` string, the detail as its caller gave it.
struct Stored {
    kind: EventKind,
    scope: Cow<'static, str>,
    episode: Option<u64>,
    sim_secs: Option<u64>,
    detail: Detail,
    value: Option<u64>,
    wall_micros: u64,
}

enum Detail {
    Text(String),
    Onset(Onset),
}

impl Stored {
    fn to_event(&self) -> TraceEvent {
        TraceEvent {
            kind: self.kind,
            scope: self.scope.to_string(),
            episode: self.episode,
            sim_secs: self.sim_secs,
            detail: match &self.detail {
                Detail::Text(text) => text.clone(),
                Detail::Onset(onset) => onset.render(),
            },
            value: self.value,
            wall_micros: self.wall_micros,
        }
    }
}

struct Shard {
    events: Mutex<VecDeque<Stored>>,
}

struct Ring {
    shards: Vec<Shard>,
    dropped: AtomicU64,
}

static RING: OnceLock<Ring> = OnceLock::new();
static ANCHOR: OnceLock<Instant> = OnceLock::new();

fn ring() -> &'static Ring {
    RING.get_or_init(|| Ring {
        shards: (0..TRACE_SHARDS).map(|_| Shard { events: Mutex::new(VecDeque::new()) }).collect(),
        dropped: AtomicU64::new(0),
    })
}

fn wall_micros() -> u64 {
    ANCHOR.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Shard by event content, not by thread: the load spreads over every
/// shard whatever the worker count, so the ring's full capacity is usable
/// even from a single-threaded run, and — as long as the run fits the
/// ring — the retained set is independent of `--jobs`. The hash covers
/// what the caller hands over: a text event's detail, an onset's episode
/// (no rendered text exists at emit time; the episode alone tells one
/// onset of a scope from the next).
fn shard_index(event: &Stored) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    event.scope.hash(&mut h);
    event.episode.hash(&mut h);
    if let Detail::Text(text) = &event.detail {
        text.hash(&mut h);
    }
    event.kind.rank().hash(&mut h);
    (h.finish() as usize) % TRACE_SHARDS
}

/// Record one event. Write-only from the pipeline's point of view:
/// nothing reads the ring until reporting. Lock scope is one shard.
pub fn emit(
    kind: EventKind,
    scope: &str,
    episode: Option<u64>,
    sim_secs: Option<u64>,
    detail: impl Into<String>,
    value: Option<u64>,
) {
    push(Stored {
        kind,
        scope: Cow::Owned(scope.to_string()),
        episode,
        sim_secs,
        detail: Detail::Text(detail.into()),
        value,
        wall_micros: wall_micros(),
    });
}

/// Record one [`EventKind::AttackOnset`] of episode `scope/episode`,
/// starting at `sim_secs` and lasting `duration_min`: the event
/// [`emit`] would record with `onset.render()` as its detail, nothing
/// formatted or allocated until the ring is read.
pub fn emit_onset(
    scope: &'static str,
    episode: u64,
    sim_secs: u64,
    onset: Onset,
    duration_min: u64,
) {
    push(Stored {
        kind: EventKind::AttackOnset,
        scope: Cow::Borrowed(scope),
        episode: Some(episode),
        sim_secs: Some(sim_secs),
        detail: Detail::Onset(onset),
        value: Some(duration_min),
        wall_micros: wall_micros(),
    });
}

fn push(event: Stored) {
    static DROPPED: Held<Counter> = Held::counter("sched.trace.dropped");
    static FAULT_EVENTS: Held<Counter> = Held::counter("chaos.trace.events");
    static EVENTS: Held<Counter> = Held::counter("trace.events");
    let kind = event.kind;
    let r = ring();
    let mut q = r.shards[shard_index(&event)].events.lock().unwrap();
    let evicted = if q.len() == SHARD_CAPACITY {
        r.dropped.fetch_add(1, Ordering::Relaxed);
        DROPPED.incr();
        q.pop_front()
    } else {
        None
    };
    q.push_back(event);
    drop(q);
    // Freed outside the shard's lock.
    drop(evicted);
    // Fault events are chaos-seed-dependent, so their count lives in the
    // chaos namespace (excluded from chaos-vs-clean comparisons); every
    // other kind is part of the deterministic pipeline accounting.
    if kind.is_fault() {
        FAULT_EVENTS.incr();
    } else {
        EVENTS.incr();
    }
}

/// Copy out every retained event, ordered by the deterministic sort key.
/// Onset details are rendered here.
pub fn snapshot() -> Vec<TraceEvent> {
    let mut out = Vec::new();
    for shard in &ring().shards {
        out.extend(shard.events.lock().unwrap().iter().map(Stored::to_event));
    }
    out.sort_by(|a, b| sort_key(a).cmp(&sort_key(b)));
    out
}

/// Clear the ring (tests; the ring is process-global).
pub fn reset() {
    let r = ring();
    for shard in &r.shards {
        shard.events.lock().unwrap().clear();
    }
    r.dropped.store(0, Ordering::Relaxed);
}

record! {
    /// The run report's embedded trace summary.
    #[derive(Default, Eq)]
    pub struct TraceSummary {
        /// Events retained in the ring.
        pub events: u64,
        /// Events evicted by ring overflow.
        pub dropped: u64,
        /// Retained events per kind, taxonomy order, zero counts omitted.
        pub by_kind: Vec<(String, u64)> [is kind_names],
    }
}

/// Field check: every key of a per-kind map is drawn from the taxonomy.
fn kind_names(v: &Json, r: &mut Reader) {
    for (kind, _) in v.as_object().unwrap_or_default() {
        if EventKind::parse(kind).is_none() {
            r.fail(format_args!(" key {kind:?} is not an event kind"));
        }
    }
}

/// Summarize the current ring contents for the run report.
pub fn summary() -> TraceSummary {
    let events = snapshot();
    let mut counts: BTreeMap<u8, u64> = BTreeMap::new();
    for e in &events {
        *counts.entry(e.kind.rank()).or_insert(0) += 1;
    }
    TraceSummary {
        events: events.len() as u64,
        dropped: ring().dropped.load(Ordering::Relaxed),
        by_kind: counts
            .into_iter()
            .map(|(rank, n)| (EVENT_KINDS[rank as usize].as_str().to_string(), n))
            .collect(),
    }
}

// --- Chrome trace-event export -----------------------------------------

/// Export events as a Chrome trace-event / Perfetto-compatible document:
/// instant events (`ph: "i"`), one tid per kind so kinds render as rows,
/// `cat` = scope, `ts` in microseconds of sim time (wall time for events
/// outside sim time), full event fields under `args`.
pub fn to_chrome_json(events: &[TraceEvent]) -> Json {
    let mut list = Vec::with_capacity(events.len());
    for e in events {
        let mut ev = Json::obj();
        ev.set("name", Json::Str(e.kind.as_str().into()));
        ev.set("ph", Json::Str("i".into()));
        ev.set("ts", Json::U64(e.sim_secs.map(|s| s * 1_000_000).unwrap_or(e.wall_micros)));
        ev.set("pid", Json::U64(1));
        ev.set("tid", Json::U64(1 + u64::from(e.kind.rank())));
        ev.set("s", Json::Str("g".into()));
        ev.set("cat", Json::Str(e.scope.clone()));
        let mut args = Json::obj();
        if let Some(ep) = e.episode {
            args.set("episode", Json::U64(ep));
            args.set("episode_id", Json::Str(format!("{}/{ep}", e.scope)));
        }
        if let Some(s) = e.sim_secs {
            args.set("sim_secs", Json::U64(s));
        }
        if !e.detail.is_empty() {
            args.set("detail", Json::Str(e.detail.clone()));
        }
        if let Some(v) = e.value {
            args.set("value", Json::U64(v));
        }
        args.set("wall_micros", Json::U64(e.wall_micros));
        ev.set("args", args);
        list.push(ev);
    }
    let mut doc = Json::obj();
    doc.set("traceEvents", Json::Array(list));
    doc.set("displayTimeUnit", Json::Str("ms".into()));
    doc
}

/// Parse and schema-validate a Chrome trace document back into events.
/// Returns every violation found (empty errors ⇒ valid).
pub fn from_chrome_json(doc: &Json) -> Result<Vec<TraceEvent>, Vec<String>> {
    let mut errors = Vec::new();
    let Some(entries) = doc.get("traceEvents").and_then(|t| t.as_array()) else {
        return Err(vec!["document has no traceEvents array".into()]);
    };
    let mut out = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        let mut fail = |msg: String| errors.push(format!("traceEvents[{i}]: {msg}"));
        let Some(kind) = entry.get("name").and_then(|n| n.as_str()).and_then(EventKind::parse)
        else {
            fail("missing or unknown event name".into());
            continue;
        };
        if entry.get("ph").and_then(|p| p.as_str()) != Some("i") {
            fail("ph is not \"i\" (instant)".into());
        }
        if entry.get("ts").and_then(|t| t.as_u64()).is_none() {
            fail("ts missing or not an unsigned integer".into());
        }
        for key in ["pid", "tid"] {
            if entry.get(key).and_then(|v| v.as_u64()).is_none() {
                fail(format!("{key} missing or not an unsigned integer"));
            }
        }
        let Some(scope) = entry.get("cat").and_then(|c| c.as_str()) else {
            fail("cat (scope) missing".into());
            continue;
        };
        let Some(args) = entry.get("args").filter(|a| a.as_object().is_some()) else {
            fail("args object missing".into());
            continue;
        };
        let u = |key: &str| args.get(key).and_then(|v| v.as_u64());
        let Some(wall_micros) = u("wall_micros") else {
            fail("args.wall_micros missing".into());
            continue;
        };
        out.push(TraceEvent {
            kind,
            scope: scope.to_string(),
            episode: u("episode"),
            sim_secs: u("sim_secs"),
            detail: args.get("detail").and_then(|d| d.as_str()).unwrap_or_default().to_string(),
            value: u("value"),
            wall_micros,
        });
    }
    if errors.is_empty() {
        Ok(out)
    } else {
        Err(errors)
    }
}

// --- Causality invariants ----------------------------------------------

/// Check the trace's causal invariants; returns every violation.
///
/// 1. every `TriggerFired` references a prior (sim-time ≤) same-episode
///    `FeedRecordArrived`;
/// 2. every `FaultRepaired` matches a `FaultInjected` with the same
///    scope and detail key (multiset containment);
/// 3. every trigger delay obeys the paper's ≤ 10-minute bound;
/// 4. every probe round obeys the 50-domain budget.
pub fn check_causality(events: &[TraceEvent]) -> Vec<String> {
    let mut errors = Vec::new();
    let mut first_arrival: HashMap<(&str, u64), u64> = HashMap::new();
    for e in events {
        if e.kind == EventKind::FeedRecordArrived {
            if let (Some(ep), Some(sim)) = (e.episode, e.sim_secs) {
                let slot = first_arrival.entry((e.scope.as_str(), ep)).or_insert(sim);
                *slot = (*slot).min(sim);
            }
        }
    }
    let mut injected: HashMap<(&str, &str), i64> = HashMap::new();
    for e in events {
        if e.kind == EventKind::FaultInjected {
            *injected.entry((e.scope.as_str(), e.detail.as_str())).or_insert(0) += 1;
        }
    }
    for e in events {
        match e.kind {
            EventKind::TriggerFired => {
                let id = e.episode_id().unwrap_or_else(|| format!("{}/?", e.scope));
                match (e.episode, e.sim_secs) {
                    (Some(ep), Some(sim)) => match first_arrival.get(&(e.scope.as_str(), ep)) {
                        Some(&first) if first <= sim => {}
                        Some(&first) => errors.push(format!(
                            "TriggerFired {id} at sim {sim} precedes its first \
                                 FeedRecordArrived at sim {first}"
                        )),
                        None => errors.push(format!(
                            "TriggerFired {id} has no FeedRecordArrived for its episode"
                        )),
                    },
                    _ => errors
                        .push(format!("TriggerFired {id} lacks episode or sim-time attribution")),
                }
                match e.value {
                    Some(delay) if delay <= MAX_TRIGGER_LATENCY_SECS => {}
                    Some(delay) => errors.push(format!(
                        "TriggerFired {id}: delay {delay} s exceeds the \
                         {MAX_TRIGGER_LATENCY_SECS} s bound"
                    )),
                    None => errors.push(format!("TriggerFired {id} carries no delay value")),
                }
            }
            EventKind::FaultRepaired => {
                let n = injected.entry((e.scope.as_str(), e.detail.as_str())).or_insert(0);
                *n -= 1;
                if *n < 0 {
                    errors.push(format!(
                        "FaultRepaired without matching FaultInjected: {} {}",
                        e.scope, e.detail
                    ));
                }
            }
            EventKind::ProbeCompleted => {
                if let Some(probes) = e.value {
                    if probes > MAX_PROBES_PER_ROUND {
                        errors.push(format!(
                            "ProbeCompleted {}: {probes} probes exceed the \
                             {MAX_PROBES_PER_ROUND}-domain budget",
                            e.episode_id().unwrap_or_else(|| e.scope.clone()),
                        ));
                    }
                }
            }
            _ => {}
        }
    }
    errors
}

// --- `repro explain` ---------------------------------------------------

/// Parse an episode id: `scope/idx`, or a bare index (scope `rsdos`).
pub fn parse_episode_id(s: &str) -> Option<(String, u64)> {
    if let Some((scope, idx)) = s.split_once('/') {
        if scope.is_empty() {
            return None;
        }
        idx.parse().ok().map(|i| (scope.to_string(), i))
    } else {
        s.parse().ok().map(|i| ("rsdos".to_string(), i))
    }
}

/// Render sim seconds as `d<day> HH:MM:SS` (days since sim epoch).
pub fn format_sim(secs: u64) -> String {
    let (day, rest) = (secs / 86_400, secs % 86_400);
    format!("d{day} {:02}:{:02}:{:02}", rest / 3_600, (rest % 3_600) / 60, rest % 60)
}

/// Per-scope episode inventory: (scope, episode-attributed event count,
/// max episode index). Printed when an unknown id is requested.
pub fn available_episodes(events: &[TraceEvent]) -> Vec<(String, u64, u64)> {
    let mut by_scope: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for e in events {
        if let Some(ep) = e.episode {
            let slot = by_scope.entry(e.scope.as_str()).or_insert((0, 0));
            slot.0 += 1;
            slot.1 = slot.1.max(ep);
        }
    }
    by_scope.into_iter().map(|(s, (n, max))| (s.to_string(), n, max)).collect()
}

fn annotate(e: &TraceEvent) -> String {
    let Some(v) = e.value else { return String::new() };
    match e.kind {
        EventKind::AttackOnset => format!(" [duration {v} min]"),
        EventKind::FeedGap => format!(" [delayed {v} window(s)]"),
        EventKind::JoinMatched => format!(" [{v} domain(s) affected]"),
        EventKind::TriggerFired => {
            let verdict =
                if v <= MAX_TRIGGER_LATENCY_SECS { "within bound" } else { "BOUND VIOLATED" };
            format!(" [delay {v} s vs {MAX_TRIGGER_LATENCY_SECS} s bound: {verdict}]")
        }
        EventKind::ProbeScheduled => format!(" [{v} domain(s) planned]"),
        EventKind::ProbeCompleted => {
            let verdict = if v <= MAX_PROBES_PER_ROUND { "within budget" } else { "OVER BUDGET" };
            format!(" [{v} probe(s) vs {MAX_PROBES_PER_ROUND}-domain budget: {verdict}]")
        }
        EventKind::ImpactComputed => format!(" [{v} domain(s) measured]"),
        _ => format!(" [value {v}]"),
    }
}

/// Reconstruct the human-readable timeline of one attack episode from a
/// trace: onset → feed arrival → join → trigger (vs the 10-minute bound)
/// → probes (vs the 50-domain budget) → impact rows, with a trailing
/// run-level fault summary. Deterministic: built from deterministic
/// fields only, rendered in deterministic-key order. Returns `None` when
/// the episode has no events.
pub fn explain(events: &[TraceEvent], scope: &str, episode: u64) -> Option<String> {
    let mut selected: Vec<&TraceEvent> =
        events.iter().filter(|e| e.scope == scope && e.episode == Some(episode)).collect();
    if selected.is_empty() {
        return None;
    }
    selected.sort_by(|a, b| sort_key(a).cmp(&sort_key(b)));
    let mut out = format!("== episode {scope}/{episode} ==\n");
    for e in &selected {
        let t = e.sim_secs.map(format_sim).unwrap_or_else(|| "(wall)".into());
        let sep = if e.detail.is_empty() { "" } else { " " };
        out.push_str(&format!("{t:<14} {:<18}{sep}{}{}\n", e.kind.as_str(), e.detail, annotate(e)));
    }
    // Run-level fault accounting: faults carry injection-site scopes, not
    // episode ids, so they are summarized rather than interleaved.
    let mut faults: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for e in events {
        match e.kind {
            EventKind::FaultInjected => faults.entry(e.scope.as_str()).or_insert((0, 0)).0 += 1,
            EventKind::FaultRepaired => faults.entry(e.scope.as_str()).or_insert((0, 0)).1 += 1,
            _ => {}
        }
    }
    if faults.is_empty() {
        out.push_str("faults this run: none injected\n");
    } else {
        for (site, (inj, rep)) in faults {
            out.push_str(&format!("faults this run: {site}: {inj} injected, {rep} repaired\n"));
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        kind: EventKind,
        scope: &str,
        episode: Option<u64>,
        sim_secs: Option<u64>,
        detail: &str,
        value: Option<u64>,
    ) -> TraceEvent {
        TraceEvent {
            kind,
            scope: scope.into(),
            episode,
            sim_secs,
            detail: detail.into(),
            value,
            wall_micros: 7,
        }
    }

    /// The ring is process-global, so all ring behavior lives in one test.
    #[test]
    fn ring_emit_snapshot_reset() {
        reset();
        emit(EventKind::AttackOnset, "rsdos", Some(3), Some(600), "victim=x", Some(25));
        emit(EventKind::JoinMatched, "rsdos", Some(3), Some(600), "ns=y", Some(4));
        emit(EventKind::StageStart, "repro", None, None, "catalog", None);
        let snap = snapshot();
        assert_eq!(snap.len(), 3);
        // Deterministic ordering: scope-major ("repro" < "rsdos"), then
        // causal rank within an episode at equal sim time.
        assert_eq!(snap[0].kind, EventKind::StageStart);
        assert_eq!(snap[1].kind, EventKind::AttackOnset);
        assert_eq!(snap[2].kind, EventKind::JoinMatched);
        assert_eq!(snap[1].episode_id().as_deref(), Some("rsdos/3"));
        let s = summary();
        assert_eq!(s.events, 3);
        assert_eq!(s.dropped, 0);
        assert_eq!(
            s.by_kind,
            vec![
                ("AttackOnset".to_string(), 1),
                ("JoinMatched".to_string(), 1),
                ("StageStart".to_string(), 1)
            ]
        );
        // Round-trip through the Chrome export.
        let doc = to_chrome_json(&snap);
        let text = doc.pretty();
        let parsed = Json::parse(&text).unwrap();
        let back = from_chrome_json(&parsed).expect("valid chrome trace");
        assert_eq!(back, snap);
        reset();
        assert!(snapshot().is_empty());
        assert_eq!(summary().events, 0);
    }

    #[test]
    fn deterministic_line_excludes_wall_time() {
        let mut a = ev(EventKind::TriggerFired, "milru", Some(0), Some(900), "victim=v", Some(300));
        let mut b = a.clone();
        b.wall_micros = 999_999;
        assert_ne!(a, b);
        assert_eq!(a.deterministic_line(), b.deterministic_line());
        a.detail = "victim=w".into();
        assert_ne!(a.deterministic_line(), b.deterministic_line());
    }

    #[test]
    fn kind_names_round_trip() {
        for k in EVENT_KINDS {
            assert_eq!(EventKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(EventKind::parse("NotAKind"), None);
        assert!(EventKind::FaultInjected.is_fault());
        assert!(!EventKind::AttackOnset.is_fault());
    }

    #[test]
    fn causality_clean_trace_passes() {
        let events = vec![
            ev(EventKind::AttackOnset, "milru", Some(0), Some(0), "", Some(30)),
            ev(EventKind::FeedRecordArrived, "milru", Some(0), Some(300), "", None),
            ev(EventKind::TriggerFired, "milru", Some(0), Some(300), "", Some(300)),
            ev(EventKind::ProbeCompleted, "milru", Some(0), Some(600), "round=0", Some(50)),
            ev(EventKind::FaultInjected, "catalog", None, None, "crash task=1 attempt=0", None),
            ev(EventKind::FaultRepaired, "catalog", None, None, "crash task=1 attempt=0", None),
        ];
        assert_eq!(check_causality(&events), Vec::<String>::new());
    }

    #[test]
    fn causality_violations_detected() {
        // Trigger with no arrival, delay over bound, unmatched repair,
        // probe budget blown: four distinct violations.
        let events = vec![
            ev(EventKind::TriggerFired, "milru", Some(1), Some(300), "", Some(601)),
            ev(EventKind::FaultRepaired, "catalog", None, None, "drop seq=9", None),
            ev(EventKind::ProbeCompleted, "milru", Some(1), Some(600), "round=0", Some(51)),
        ];
        let errors = check_causality(&events);
        assert_eq!(errors.len(), 4, "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("no FeedRecordArrived")));
        assert!(errors.iter().any(|e| e.contains("exceeds the 600 s bound")));
        assert!(errors.iter().any(|e| e.contains("without matching FaultInjected")));
        assert!(errors.iter().any(|e| e.contains("exceed the 50-domain budget")));
        // An arrival *after* the trigger is still a violation.
        let out_of_order = vec![
            ev(EventKind::FeedRecordArrived, "milru", Some(1), Some(900), "", None),
            ev(EventKind::TriggerFired, "milru", Some(1), Some(300), "", Some(300)),
        ];
        let errors = check_causality(&out_of_order);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("precedes"));
    }

    #[test]
    fn chrome_schema_violations_reported() {
        assert!(from_chrome_json(&Json::obj()).is_err());
        let mut entry = Json::obj();
        entry.set("name", Json::Str("NotAKind".into()));
        let mut doc = Json::obj();
        doc.set("traceEvents", Json::Array(vec![entry]));
        let errors = from_chrome_json(&doc).unwrap_err();
        assert!(errors[0].contains("traceEvents[0]"), "{errors:?}");
    }

    #[test]
    fn explain_renders_timeline_and_bounds() {
        let events = vec![
            ev(EventKind::AttackOnset, "rsdos", Some(5), Some(0), "victim=198.0.0.1", Some(25)),
            ev(EventKind::FeedRecordArrived, "rsdos", Some(5), Some(300), "w=1", None),
            ev(EventKind::TriggerFired, "rsdos", Some(5), Some(300), "victim=198.0.0.1", Some(300)),
            ev(EventKind::ProbeCompleted, "rsdos", Some(5), Some(600), "round=0", Some(50)),
            ev(EventKind::AttackOnset, "rsdos", Some(6), Some(0), "victim=198.0.0.2", Some(5)),
            ev(EventKind::FaultInjected, "catalog", None, None, "crash task=0 attempt=0", None),
            ev(EventKind::FaultRepaired, "catalog", None, None, "crash task=0 attempt=0", None),
        ];
        let text = explain(&events, "rsdos", 5).unwrap();
        assert!(text.starts_with("== episode rsdos/5 ==\n"), "{text}");
        assert!(text.contains("delay 300 s vs 600 s bound: within bound"), "{text}");
        assert!(text.contains("50 probe(s) vs 50-domain budget: within budget"), "{text}");
        assert!(text.contains("catalog: 1 injected, 1 repaired"), "{text}");
        assert!(!text.contains("198.0.0.2"), "other episodes leaked in: {text}");
        assert!(explain(&events, "rsdos", 99).is_none());
        assert_eq!(available_episodes(&events), vec![("rsdos".to_string(), 5, 6)]);
    }

    #[test]
    fn episode_id_parsing() {
        assert_eq!(parse_episode_id("milru/3"), Some(("milru".into(), 3)));
        assert_eq!(parse_episode_id("17"), Some(("rsdos".into(), 17)));
        assert_eq!(parse_episode_id("/3"), None);
        assert_eq!(parse_episode_id("milru/x"), None);
        assert_eq!(parse_episode_id("nope"), None);
        assert_eq!(format_sim(90_061), "d1 01:01:01");
    }
}
