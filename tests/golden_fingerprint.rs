//! Golden fingerprint across commits: the other determinism tests compare
//! a run with a second run of the same build, so a change that moves every
//! run the same way passes them. This one pins `longitudinal::run`'s
//! artifacts for one small fixed input to a recorded constant.
//!
//! The constant was recorded on the commit before the batch hot path moved
//! to sorted runs and packed-key maps (DESIGN.md §16). A change that is
//! meant to alter the artifacts re-records it and says so in CHANGES.md.

use dnsimpact::prelude::*;
use dnsimpactd::index::FnvWriter;
use scenarios::{divisor_for_target, paper_longitudinal_config, world, PaperScale, WorldConfig};
use std::fmt::Write as _;

const GOLDEN: u64 = 0x6381_80af_18cb_9ca3;

/// FNV-1a over the `Debug` form of the artifacts (the benchmark's
/// construction): `Debug` prints the shortest round-tripping `f64`, so
/// equal fingerprints mean bit-equal floats.
fn fingerprint(jobs: usize) -> u64 {
    let rngs = RngFactory::new(42);
    let built = world::build(
        &WorldConfig { providers: 20, domains: 6_000, ..WorldConfig::default() },
        &rngs,
    );
    let mut cfg = paper_longitudinal_config(PaperScale { divisor: divisor_for_target(6_000) });
    // A fifth of the attacks on DNS infrastructure, so the join, impact and
    // measurement layers carry real weight next to the telescope's.
    cfg.dns_share_per_month.fill(0.2);
    let months = cfg.months.clone();
    let attacks = AttackScheduler::new(cfg).generate(&built.target_pool(), &rngs);
    let config = LongitudinalConfig { jobs, ..LongitudinalConfig::default() };
    let r = run_longitudinal(
        &built.infra,
        &Darknet::ucsd_like(),
        &attacks,
        &months,
        &built.meta,
        &config,
        &rngs,
    );
    assert!(r.feed.episodes.len() > 1_000, "{} episodes", r.feed.episodes.len());
    assert!(r.impacts.len() > 100, "{} impact events", r.impacts.len());
    let mut w = FnvWriter::new();
    let _ = write!(
        w,
        "{:?}{:?}{:?}{:?}{:?}{:?}{:?}",
        r.feed.episodes,
        r.dns_events,
        r.impacts,
        r.monthly,
        r.top_ips,
        r.top_asns,
        r.top_affected_orgs
    );
    w.finish()
}

#[test]
fn sequential_run_matches_the_recorded_fingerprint() {
    let got = fingerprint(1);
    assert_eq!(got, GOLDEN, "got {got:#018x}");
}

#[test]
fn two_worker_run_matches_the_recorded_fingerprint() {
    let got = fingerprint(2);
    assert_eq!(got, GOLDEN, "got {got:#018x}");
}

/// The telescope feeds of the three case studies at seed 42. Recorded on
/// the commit before `core::front` took over the scenarios' feed chain
/// (which moved them from the row classifier to the block one).
const SCENARIO_FEEDS: u64 = 0xdeaa_bb03_7ceb_ba58;

#[test]
fn scenario_feeds_match_the_recorded_fingerprint() {
    use scenarios::{MilRuScenario, RdzScenario, TransIpScenario};
    let rngs = RngFactory::new(42);
    let mil_ru = MilRuScenario::build(&rngs).feed(&rngs);
    let rdz = RdzScenario::build(&rngs).feed(&rngs);
    let transip = TransIpScenario::build(&rngs).feed(&rngs);
    for feed in [&mil_ru, &rdz, &transip] {
        assert!(!feed.episodes.is_empty(), "every case study is visible to the telescope");
    }
    let mut w = FnvWriter::new();
    let _ = write!(w, "{mil_ru:?}{rdz:?}{transip:?}");
    let got = w.finish();
    assert_eq!(got, SCENARIO_FEEDS, "got {got:#018x}");
}
