//! Scenario builders: the synthetic Internet the experiments run against,
//! plus the paper's case studies.
//!
//! - [`world`]: the general world generator — providers with Zipf-sized
//!   domain portfolios, mixed unicast/anycast deployments, prefix2as and
//!   as2org tables, well-known open resolvers with misconfigured domains.
//! - [`transip`]: §5.1 — the December 2020 and March 2021 attacks on a
//!   large Dutch hosting provider with three unicast nameservers.
//! - [`russia`]: §5.2 — the March 2022 attacks on mil.ru (three
//!   nameservers in one /24) and RDZ railways (recovery the next morning).
//! - [`osint`]: the coordination-channel timeline substituted for the
//!   paper's Telegram evidence (Figure 4), with the attack-start
//!   correlation.
//! - [`longitudinal`]: the 17-month population calibrated to Table 3's
//!   monthly volumes and DNS shares.

pub mod longitudinal;
pub mod osint;
pub mod russia;
pub mod transip;
pub mod world;

pub use longitudinal::{
    divisor_for_target, paper_longitudinal_config, PaperScale, PAPER_TOTAL_ATTACKS,
};
pub use osint::correlate_messages;
pub use russia::{MilRuScenario, RdzScenario};
pub use transip::TransIpScenario;
pub use world::{BuiltWorld, WorldConfig};
