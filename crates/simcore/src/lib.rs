//! Deterministic discrete-event simulation substrate for the `dnsimpact`
//! workspace.
//!
//! Everything downstream of this crate — the darknet telescope, the DNS
//! infrastructure model, the OpenINTEL-style measurement platform — runs on
//! virtual time with seeded randomness so that a whole 17-month experiment is
//! reproducible from a single `u64` seed.
//!
//! Modules:
//! - [`time`]: virtual clock, 5-minute tumbling windows, civil-calendar dates
//!   anchored at the paper's measurement epoch (2020-11-01 00:00 UTC).
//! - [`rng`]: labelled RNG fan-out so subsystems draw from independent,
//!   reproducible streams.
//! - [`dist`]: the statistical distributions the workload models need
//!   (exponential, log-normal, Pareto, Zipf, Poisson, binomial, categorical
//!   alias tables) implemented from scratch on top of `rand`'s uniform source.
//! - [`hash`]: a multiply-fold hasher for maps keyed by internal integer ids
//!   (never for keys from a trust boundary), and the FNV-1a `Debug`
//!   fingerprint writer.
//! - [`stats`]: streaming moments, Pearson correlation and quantiles used
//!   by the analysis pipeline.
//! - [`intern`]: deterministic `u32` arena interner backing the columnar
//!   (struct-of-arrays) hot path downstream.

pub mod dist;
pub mod hash;
pub mod intern;
pub mod rng;
pub mod stats;
pub mod time;

pub use intern::Interner;
pub use rng::RngFactory;
pub use time::{CivilDate, Month, SimDuration, SimTime, Window, DAY, WINDOW_SECS};
