//! OpenINTEL-style active DNS measurement platform.
//!
//! The real platform queries every registered domain once per day with an
//! explicit, non-recursive NS query through unbound, which picks a random
//! authoritative nameserver; it records the RTT and the response status
//! (§3.2). We reproduce exactly that measurement contract:
//!
//! - [`sweep`]: the daily schedule — each domain gets a stable 5-minute
//!   window of the day (hashed), so per-window per-NSSet domain counts are
//!   well defined.
//! - [`measure`]: running measurements for a set of domains in a window
//!   (through `dnssim`'s resolver) and the per-(NSSet, window) statistics
//!   the paper aggregates (§4.1).
//! - [`store`]: the measurement store, per-window aggregation, daily
//!   baselines, and the `Impact_on_RTT` inputs.
//! - [`aggregate`]: the closed-form expected-outcome fidelity (exact
//!   enumeration of the resolver's retry process).
//!
//! Full-interval sweeps over every domain are intentionally *lazy*: the
//! longitudinal pipeline only materializes measurements for NSSets and
//! windows adjacent to attacks (plus their previous-day baselines), which
//! keeps a 17-month run tractable while remaining faithful — the sampled
//! cells are computed exactly as a full sweep would.

pub mod aggregate;
pub mod measure;
pub mod outage;
pub mod store;
pub mod sweep;

pub use aggregate::expected_span_rtt;
pub use measure::{measure_window, MeasurementRec};
pub use outage::OutageModel;
pub use store::MeasurementStore;
pub use sweep::SweepSchedule;
