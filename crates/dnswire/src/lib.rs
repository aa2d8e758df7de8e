//! Domain names for the simulated DNS world.
//!
//! The measurement pipeline never builds a DNS message: it records
//! (domain, day, window, RTT, status) outcomes, so all it needs of the DNS
//! is a validated, case-normalised domain name.
//!
//! - [`name`]: domain names with label and length validation and their
//!   textual form.

pub mod name;

pub use name::Name;

/// Why a string or label list is not a valid domain name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A domain-name label was empty or exceeded 63 octets.
    BadLabel,
    /// A whole name exceeded 255 octets in its wire encoding.
    NameTooLong,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadLabel => write!(f, "invalid label"),
            WireError::NameTooLong => write!(f, "name exceeds 255 octets"),
        }
    }
}
impl std::error::Error for WireError {}
