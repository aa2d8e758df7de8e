//! Out-of-band observability for the `dnsimpact` workspace.
//!
//! The measurement pipeline has quantitative budgets the paper cares about
//! — per-5-minute joins, the ≤50-domains/5-min reactive probe budget, the
//! ≤10-minute trigger bound, outage accounting — and this crate makes them
//! observable from a run without perturbing it.
//!
//! ## The out-of-band rule
//!
//! Instrumentation is **write-only** from the pipeline's point of view:
//! metrics are recorded by the instrumented crates and read *only* by the
//! reporting layer (`repro --metrics-json` / `--metrics-summary`). Nothing
//! in the workspace ever branches on a metric value, seeds an RNG from one,
//! or lets one reach an artifact byte or stdout. That is what keeps the
//! PR-1/PR-2 determinism invariants (byte-identical artifacts for any
//! `--jobs` and any `--chaos-seed`) intact with instrumentation compiled
//! in and always on.
//!
//! ## Determinism domains
//!
//! Metric names are namespaced by determinism:
//!
//! - plain names (`join.rows_joined`, `chaos.faults_injected`, …) are
//!   **deterministic**: for a fixed seed/scale/experiment set their final
//!   values are identical across `--jobs` counts, and the pipeline counters
//!   are identical across chaos seeds too (recovery is exact);
//! - names prefixed `time.` or `sched.` depend on wall clock or scheduling
//!   (span durations, per-task latency, queue depths, shard counts) and are
//!   excluded from determinism comparisons — present for humans, never for
//!   diffing.
//!
//! [`Snapshot::deterministic`] applies that filter; the metrics-determinism
//! tests and the CI counter-invariant gate are built on it.
//!
//! ## Pieces
//!
//! - [`metrics`]: atomic [`Counter`]s, max-[`Gauge`]s, log-bucketed
//!   [`Histogram`]s behind a process-global registry with stable,
//!   sorted snapshots ([`metrics::HistogramSnapshot`] is the one histogram
//!   value form: what reports carry and what the reader re-checks);
//! - [`span`]: hierarchical RAII span timers (`obs::span("join")`)
//!   recording wall time under `time.span.<path>`;
//! - [`trace`]: the causal event trace (DESIGN §10) — a bounded,
//!   lock-sharded ring of typed, episode-attributed pipeline events, with
//!   Chrome-trace export, causality checking, and the `repro explain`
//!   timeline renderer;
//! - [`schema`]: one description per report schema — the [`schema::Reader`]
//!   (the crate's only error-accumulating, path-tracking document
//!   reader), the [`schema::Field`] codecs, the `record!` declaration
//!   every report struct below is written with (struct, JSON writer,
//!   parser and shape validator from one token list; decode *is*
//!   validate; per-record cross-field `rules`), and the
//!   [`schema::REPORT_SCHEMAS`] table of [`schema::Report`] roots that
//!   `validate-metrics` and the report writer dispatch on (DESIGN §17);
//! - [`report`]: the machine-readable run report (`dnsimpact-metrics/v2`,
//!   and the frozen `v1` as `LegacyRunReport`), the counter-invariant
//!   checks, and the bench-regression comparator;
//! - [`sweep`]: the scale-sweep report (`dnsimpact-sweep/v1`) emitted by
//!   `repro bench --scale-sweep` — per-(scale, jobs) throughput, wall, and
//!   peak-RSS cells, strictly sorted, floats finite;
//! - [`suite`]: the process-suite report (`dnsimpact-suite/v2`) emitted by
//!   `repro bench --suite` — Suite A's deterministic per-process cells and
//!   the per-cell verdict table;
//! - [`timeseries`]: the live plane's bounded tick ring ([`TsStore`]) —
//!   per-tick counter deltas and gauge levels on a feed-sequence tick
//!   clock, with eviction accounting that makes "no sample lost or
//!   double-counted across ring wrap" machine-checkable;
//! - [`slo`]: declarative burn-rate objectives over stored series, with
//!   a transition log and the overload-vs-starvation diagnosis;
//! - [`expo`]: dependency-free Prometheus text exposition (renderer +
//!   strict parser) over a metrics snapshot — the `/metricsz` body;
//! - [`live`]: the live-telemetry report (`dnsimpactd-live/v2`) — tick
//!   series, SLO verdicts, and final state split into `deterministic` /
//!   `annotation` halves, built from the tick store and read back down
//!   to the delta-conservation law;
//! - [`json`]: the dependency-free JSON value/writer/parser the report
//!   rides on;
//! - [`progress`]: stderr-only progress/timing lines, so nothing
//!   nondeterministic can ever reach the stdout that the CI determinism
//!   diff compares.

pub mod expo;
pub mod json;
pub mod live;
pub mod metrics;
pub mod progress;
pub mod report;
pub mod rss;
pub mod schema;
pub mod slo;
pub mod span;
pub mod suite;
pub mod sweep;
pub mod timeseries;
pub mod trace;

pub use json::Json;
pub use live::{LiveFinal, LiveMeta, LIVE_SCHEMA_ID};
pub use metrics::{counter, gauge, histogram, registry, Counter, Gauge, Histogram, Snapshot};
pub use progress::progress;
pub use report::{RunMeta, RunReport, StageWall, SCHEMA_ID};
pub use slo::{SloKind, SloSet, SloSpec, SloStatus, Transition};
pub use span::span;
pub use suite::{SuiteMeta, SuiteReport, SUITE_SCHEMA_ID};
pub use sweep::{SweepCell, SweepMeta, SweepReport, SWEEP_SCHEMA_ID};
pub use timeseries::{SeriesKind, SeriesWindow, TsStore};
pub use trace::{EventKind, TraceEvent, TraceSummary};
