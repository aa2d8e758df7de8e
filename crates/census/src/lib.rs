//! Ancillary datasets: the quarterly anycast census and open-resolver scan
//! lists (§3.3 of the paper).
//!
//! The real study uses MAnycast2 census snapshots (a *lower bound* on
//! anycast deployment, matched against nameserver /24s) and the open
//! resolver scans of Yazdani et al. (to filter out misconfigured domains
//! whose NS records point at 8.8.8.8-style resolvers). Both are derived
//! here from simulation ground truth with the same imperfections:
//! the census detects each anycast /24 with recall < 1, and detection only
//! refreshes at quarterly snapshot boundaries.

pub mod anycast;
pub mod resolvers;

pub use anycast::{AnycastCensus, AnycastClass};
pub use resolvers::OpenResolverList;
