//! The reactive measurement platform (§4.3.1 of the paper).
//!
//! Where OpenINTEL is a fixed daily sweep, the reactive platform watches
//! the RSDoS feed and, within ten minutes of an attack's first record,
//! starts probing up to 50 domains related to the attacked nameserver —
//! every 5-minute window, with the 50 probes spread evenly across the
//! window (one every ~6 s; the ethical rate cap of §8) — for the duration
//! of the attack plus 24 hours of post-attack baseline.
//!
//! Unlike OpenINTEL's agnostic single-server resolution, the reactive
//! prober queries **every** authoritative nameserver of each domain
//! (NS-exhaustive), which is what lets it say "none of the three mil.ru
//! nameservers was responsive" (§5.2.1).
//!
//! - [`probe`]: the NS-exhaustive prober.
//! - [`plan`]: trigger logic and probe scheduling.
//! - [`platform`]: the pipeline (a trigger fold over the feed in arrival
//!   order → probe executor), with both sequential and discrete-event
//!   (chronologically interleaved) executors.
//! - [`vantage`]: multi-vantage probing (the paper's §9 future work) that
//!   pierces anycast catchment masking.

pub mod plan;
pub mod platform;
pub mod probe;
pub mod vantage;

pub use plan::{ProbePlan, TriggerConfig};
pub use platform::{ReactivePlatform, ReactiveReport};
pub use probe::{probe_all_ns, DomainProbe, NsProbeOutcome};
pub use vantage::{probe_from_fleet, MultiVantageProbe, VantagePoint};
