//! Golden fingerprint across commits: the other matrix tests compare a
//! cell with another cell of the same build, so a change that moves every
//! run the same way passes them. This one pins `longitudinal::run`'s
//! artifacts for one small fixed input to a recorded constant.
//!
//! The constant was recorded on the commit before the batch hot path moved
//! to sorted runs and packed-key maps (DESIGN.md §16). A change that is
//! meant to alter the artifacts re-records it and says so in CHANGES.md.

mod common;
use common::{cell, digest, uncounted, GOLDEN};
use dnsimpact::prelude::*;

const GOLDEN_REPORT: u64 = 0x6381_80af_18cb_9ca3;

fn assert_golden(jobs: usize) {
    let c = cell((&GOLDEN, jobs, None, None));
    assert!(c.episodes > 1_000, "{} episodes", c.episodes);
    assert!(c.impacts > 100, "{} impact events", c.impacts);
    let got = c.report.unwrap();
    assert_eq!(got, GOLDEN_REPORT, "got {got:#018x}");
}

#[test]
fn sequential_run_matches_the_recorded_fingerprint() {
    assert_golden(1);
}

#[test]
fn two_worker_run_matches_the_recorded_fingerprint() {
    assert_golden(2);
}

/// The telescope feeds of the three case studies at seed 42. Recorded on
/// the commit before `core::front` took over the scenarios' feed chain
/// (which moved them from the row classifier to the block one).
const SCENARIO_FEEDS: u64 = 0xdeaa_bb03_7ceb_ba58;

#[test]
fn scenario_feeds_match_the_recorded_fingerprint() {
    use scenarios::{MilRuScenario, RdzScenario, TransIpScenario};
    let rngs = RngFactory::new(42);
    let (mil_ru, rdz, transip) = uncounted(|| {
        (
            MilRuScenario::build(&rngs).feed(&rngs),
            RdzScenario::build(&rngs).feed(&rngs),
            TransIpScenario::build(&rngs).feed(&rngs),
        )
    });
    for feed in [&mil_ru, &rdz, &transip] {
        assert!(!feed.episodes.is_empty(), "every case study is visible to the telescope");
    }
    let got = digest(&[&mil_ru, &rdz, &transip]);
    assert_eq!(got, SCENARIO_FEEDS, "got {got:#018x}");
}
