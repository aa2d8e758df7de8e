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
//! `obs` holds the recording primitives and the schema machinery; each
//! report schema lives with the binary that writes it. The run report
//! stays here because [`trace`] shares its constants; the sweep report is
//! `bench_support::sweep_report`, and the daemon's live plane (tick ring,
//! SLOs, exposition, live report) is `dnsimpactd`'s.
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
//! - [`schema`]: the schema machinery — the [`schema::Reader`] (the
//!   workspace's only error-accumulating, path-tracking document reader),
//!   the [`schema::Field`] codecs, the exported [`record!`] declaration
//!   every report struct is written with (struct, JSON writer, parser and
//!   shape validator from one token list; decode *is* validate;
//!   per-record cross-field `rules`), the [`schema::Report`] root trait,
//!   and [`schema::validate_as`], which a writer runs on its own type;
//! - [`report`]: the machine-readable run report (`dnsimpact-metrics/v2`),
//!   and the counter-invariant checks;
//! - [`json`]: the dependency-free JSON value/writer/parser the report
//!   rides on;
//! - [`progress`]: stderr-only progress/timing lines, so nothing
//!   nondeterministic can ever reach the stdout that the CI determinism
//!   diff compares.

pub mod json;
pub mod metrics;
pub mod progress;
pub mod report;
pub mod rss;
pub mod schema;
pub mod span;
pub mod trace;

pub use json::Json;
pub use metrics::{counter, gauge, histogram, registry, Counter, Gauge, Histogram, Snapshot};
pub use progress::progress;
pub use report::{RunMeta, RunReport, StageWall};
pub use span::span;
pub use trace::EventKind;
