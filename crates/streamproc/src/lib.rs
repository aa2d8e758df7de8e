//! The streaming layer's primitives, in-process.
//!
//! The paper's reactive pipeline runs on Kafka + Spark Structured
//! Streaming + Flume (§4.3.1). What the reproduction owes that stack is its
//! semantics — at-least-once transport repaired to exactly-once, supervised
//! tasks, order-preserving fan-out — not its threads, so the only threads
//! here are the fan-out's own:
//!
//! - [`pool`]: work-stealing worker pools over `std::thread::scope` —
//!   order-preserving batch fan-out ([`pool::parallel_map`]), optionally
//!   under supervision ([`pool::parallel_map_supervised`]);
//! - [`fault`]: deterministic seeded fault injection (drops, duplicates,
//!   reordering, late delivery, task crashes) for chaos runs;
//! - [`supervise`]: sequence-numbered at-least-once delivery with
//!   idempotent dedup ([`supervise::reliable_stream`]) and the restart
//!   policy, so chaos runs produce byte-identical output to fault-free
//!   runs;
//! - [`swap`]: an atomically hot-swappable snapshot cell for serving
//!   paths (readers never see a half-applied update);
//! - [`bounded`]: a fixed-capacity admission queue whose overflow is an
//!   explicit, countable shed rather than unbounded growth.

pub mod bounded;
pub mod fault;
pub mod pool;
pub mod supervise;
pub mod swap;

pub use bounded::{BoundedQueue, PushError};
pub use fault::{ChaosConfig, FaultPlan};
pub use pool::{effective_jobs, parallel_map, parallel_map_supervised, shard_ranges};
pub use supervise::{reliable_stream, SuperviseStats, SupervisorConfig};
pub use swap::SwapCell;
