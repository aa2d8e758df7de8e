//! A minimal stream-processing framework.
//!
//! The paper's reactive pipeline runs on Kafka + Spark Structured
//! Streaming + Flume (§4.3.1). This crate substitutes the primitives that
//! pipeline actually needs, in-process:
//!
//! - [`topic`]: multi-subscriber topics over crossbeam channels (the
//!   Kafka role);
//! - [`exec`]: threaded pipeline stages wiring topics together (the job
//!   graph);
//! - [`pool`]: work-stealing worker pools over `std::thread::scope` —
//!   order-preserving batch fan-out ([`pool::parallel_map`]) and bounded
//!   multi-worker stages ([`pool::spawn_pool`]);
//! - [`fault`]: deterministic seeded fault injection (drops, duplicates,
//!   reordering, late delivery, stage crashes) for chaos runs;
//! - [`supervise`]: bounded-restart supervision and sequence-numbered
//!   at-least-once delivery with idempotent dedup, so chaos runs produce
//!   byte-identical output to fault-free runs;
//! - [`swap`]: an atomically hot-swappable snapshot cell for serving
//!   paths (readers never see a half-applied update);
//! - [`bounded`]: a fixed-capacity admission queue whose overflow is an
//!   explicit, countable shed rather than unbounded growth.
//!
//! Everything is synchronous-thread based — the workload is CPU-light and
//! bursty, which is the regime where plain threads beat an async runtime in
//! simplicity with no throughput loss.

pub mod bounded;
pub mod exec;
pub mod fault;
pub mod pool;
pub mod supervise;
pub mod swap;
pub mod topic;

pub use bounded::{BoundedQueue, PushError};
pub use exec::{sink_to_vec, spawn_stage, StageHandle};
pub use fault::{seq_stamp, spawn_chaos_stage, ChaosConfig, FaultAction, FaultPlan, Seq};
pub use pool::{
    effective_jobs, parallel_map, parallel_map_supervised, shard_ranges, spawn_pool, PoolHandle,
};
pub use supervise::{reliable_stream, supervised_flat_map, SuperviseStats, SupervisorConfig};
pub use swap::SwapCell;
pub use topic::{Consumer, Topic};
