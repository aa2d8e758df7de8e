//! DNS infrastructure simulator.
//!
//! Models the population of authoritative nameservers the paper studies:
//! domains delegate to *NSSets* (sets of nameserver IPv4 addresses), each
//! nameserver is a unicast host or an anycast deployment with finite
//! capacity, and query performance degrades under offered load (legitimate
//! traffic + attack traffic + collateral from attacks on the same /24).
//!
//! - [`ids`]: interned identifiers for domains, nameservers and NSSets.
//! - [`deploy`]: nameserver deployments (unicast/anycast, capacity, ASN,
//!   prefix) and shared /24 uplinks.
//! - [`load`]: the offered-load → (answer probability, RTT multiplier)
//!   queueing model, shared by the per-query and aggregate simulation paths.
//! - [`infra`]: the registry tying domains, NSSets and nameservers together,
//!   with the per-window attack-load book.
//! - [`resolver`]: the unbound-like resolver (random nameserver selection,
//!   timeout, bounded retries) and query outcomes.

pub mod deploy;
pub mod ids;
pub mod infra;
pub mod load;
pub mod resolver;

pub use deploy::{Deployment, Nameserver, Uplink};
pub use ids::{DomainId, NsId, NsSetId};
pub use infra::{Infra, LoadBook};
pub use load::ServiceState;
pub use resolver::{QueryOutcome, QueryStatus, Resolver};
