//! `dnsimpactd`: a crash-survivable, degradation-honest impact-query
//! daemon (DESIGN §12, ROADMAP item 2).
//!
//! The batch pipeline answers "was this domain's DNS impacted?" once per
//! run; this crate keeps the answer warm. A deterministic feed source
//! ([`feed`]) replays the RSDoS episode stream and OpenINTEL-style daily
//! aggregates as sequence-numbered batches; the ingester ([`ingest`])
//! pulls them through `streamproc`'s repaired at-least-once transport,
//! grows a columnar NSSet→impact index ([`index`]) incrementally, and
//! publishes each applied batch as an immutable hot-swapped snapshot. A
//! minimal HTTP/JSON server ([`http`]) answers domain queries from the
//! current snapshot behind a bounded admission queue that sheds — and
//! counts — overload instead of buffering it.
//!
//! The robustness contract, locked by `tests/daemon.rs` and the ci.sh
//! daemon gate:
//!
//! - **Replay determinism**: the served index is a pure function of the
//!   ingested batch prefix. kill -9 anywhere, restart, and checkpoint +
//!   feed replay reconverge to a byte-identical index (fingerprinted down
//!   to the f64 bits), for any `--jobs` and any chaos seed.
//! - **Honest degradation**: telescope feed gaps stall the data horizon
//!   while the clock advances; every answer carries `staleness_s` and a
//!   `degraded` flag, and `/readyz` flips not-ready once staleness
//!   exceeds the configured bound. Sensor outages surface as week-before
//!   or missing baselines, never as silently-fresh numbers.
//! - **Bounded overload**: admission is a fixed-capacity queue; overflow
//!   is an immediate 503 and a counted shed, so memory stays bounded and
//!   `accepted == served + shed + errors` holds exactly.
//! - **Deterministic telemetry**: the live plane ([`telemetry`]) ticks on
//!   applied feed sequence numbers, never wall clock, so the stored
//!   `live.*` series and the ingest SLO verdict sequence are a pure
//!   function of the feed prefix — byte-identical across chaos seeds,
//!   `--jobs` counts, and crash/recovery replays. Wall-clock timestamps
//!   and scheduling-dependent serving metrics ride along as annotation.
//!
//! The live plane is this crate's own: the tick ring ([`timeseries`]), the
//! burn-rate objectives ([`slo`]), the `/metricsz` exposition ([`expo`])
//! and the `dnsimpactd-live/v2` report ([`live`]) serve the daemon and
//! nothing else, so they live beside [`telemetry`] rather than in `obs`.

pub mod checkpoint;
pub mod expo;
pub mod feed;
pub mod http;
pub mod index;
pub mod ingest;
pub mod live;
pub mod slo;
pub mod telemetry;
pub mod timeseries;

pub use feed::{FeedBatch, FeedConfig, FeedRecord, FeedSource};
pub use http::{http_get, Server, ServerConfig};
pub use index::{BaselineSource, DomainDir, IndexSnapshot, IndexState, NsSetImpact};
pub use ingest::{IngestConfig, Ingestor};
pub use telemetry::{Telemetry, TelemetryConfig};
