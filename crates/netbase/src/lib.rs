//! Internet numbering substrate.
//!
//! The paper joins everything by IPv4 address, /24 and /16 prefix, origin
//! AS, and owning organization (CAIDA prefix2as + as2org). This crate
//! provides those primitives:
//!
//! - [`net`]: [`net::Ipv4Net`] CIDR prefixes and helpers for the /16 and /24
//!   granularities the RSDoS feed and anycast census use.
//! - [`trie`]: a binary prefix trie with longest-prefix-match lookup, the
//!   structure behind the prefix2as table.
//! - [`registry`]: ASN and organization registries and the
//!   [`registry::Prefix2As`] / [`registry::As2Org`] tables.

pub mod net;
pub mod registry;
pub mod trie;

pub use net::{Ipv4Net, Slash16, Slash24};
pub use registry::{As2Org, Asn, OrgRegistry, Prefix2As};
pub use trie::PrefixTrie;
