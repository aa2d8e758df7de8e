//! The paper's primary contribution: the RSDoS × OpenINTEL data-join
//! pipeline and the longitudinal impact analysis (§4, §6).
//!
//! Pipeline (Figure 1 of the paper):
//!
//! 1. RSDoS feed (victim IPs under attack, per 5-minute window) — from
//!    the `telescope` crate.
//! 2. Join victim IPs against the previous day's nameserver list →
//!    *nameservers under attack* ([`join`]).
//! 3. Expand through NSSets to the *domains under attack* ([`join`]).
//! 4. Join with per-NSSet 5-minute RTT aggregates → `Impact_on_RTT`,
//!    failure rates ([`impact`]).
//!
//! The [`longitudinal`] module orchestrates all of it over a 17-month
//! attack population and produces every table/figure series of the paper's
//! evaluation; [`ports`], [`failures`], [`correlate`] and [`resilience`]
//! hold the per-figure analyses; [`casestudy`] computes the TransIP-style
//! per-nameserver attack metrics (Table 2) and time series (Figures 2–3);
//! [`report`] renders aligned text tables and CSV.

pub mod casestudy;
pub mod columnar;
pub mod correlate;
pub mod failures;
pub mod impact;
pub mod join;
pub mod longitudinal;
pub mod ports;
pub mod report;
pub mod resilience;

pub use columnar::{ColList, Interner, JoinTable};
pub use impact::{compute_impacts_columnar, BaselineSource, ImpactConfig, ImpactEvent};
pub use join::{ChangingDirectory, DnsAttackEvent, NsDirectory};
pub use longitudinal::{LongitudinalConfig, LongitudinalReport, MonthlyRow};
