//! The `repro bench --scale-sweep` runner: the pinned longitudinal
//! pipeline at scale ∈ {1.5k, 15k, 150k, 1.5M} × jobs ∈ {1, N}, emitting
//! one [`SweepCell`] of throughput/wall/peak-RSS per grid point.
//!
//! A sweep "scale" is the *target attack count*: the paper's pinned
//! catalog totals [`PAPER_TOTAL_ATTACKS`] attacks, and
//! [`divisor_for_target`] picks the `PaperScale` divisor that lands
//! nearest the target (the scheduler's per-month floor of 100 keeps tiny
//! targets slightly above nominal). The world is built once and shared by
//! every cell; per scale the attack catalog is generated once and shared
//! by the jobs=1 and jobs=N cells, so each cell times *only* the
//! longitudinal pipeline — the parallel hot path the sweep exists to
//! measure — not the single-threaded world construction.
//!
//! Every cell's artifacts are fingerprinted (episode feed, joined events,
//! impact rows, down to the f64 bits) and the jobs=N fingerprint must
//! equal the jobs=1 fingerprint at the same scale: a sweep that produces
//! a report has *proven* cross-jobs determinism at every scale it swept,
//! not sampled it.

use crate::sweep_report::{SweepCell, SweepMeta, SweepReport};
use dnsimpact_core::longitudinal::{self, LongitudinalConfig, LongitudinalReport};
use scenarios::{paper_longitudinal_config, world, PaperScale, WorldConfig};
use simcore::rng::RngFactory;
use telescope::Darknet;

/// Total attacks in the paper's RSDoS catalog and the divisor that lands
/// nearest a target count — defined next to the Table 3 calibration in
/// `scenarios`, re-exported here because the sweep named them first.
pub use scenarios::{divisor_for_target, PAPER_TOTAL_ATTACKS};

/// The `DNSIMPACT_SCALE_HEAVY` level: 0 (unset) = smoke cells only,
/// 1 adds the 150k-attack scale, 2 (or `full`) adds 1.5M too. The sweep
/// and the matrix's scale tests read it.
pub fn heavy_level() -> u64 {
    match std::env::var("DNSIMPACT_SCALE_HEAVY").ok().as_deref() {
        None | Some("") | Some("0") => 0,
        Some("1") => 1,
        Some(_) => 2,
    }
}

/// One sweep request: the grid plus the run identity.
pub struct SweepConfig {
    pub seed: u64,
    pub chaos_seed: Option<u64>,
    /// Target attack counts, ascending.
    pub scales: Vec<u64>,
    /// Worker counts, ascending, starting with 1 (the speedup baseline).
    pub jobs: Vec<usize>,
    pub world_cfg: WorldConfig,
    /// `DNSIMPACT_SCALE_HEAVY` level recorded in the report meta.
    pub heavy: u64,
}

/// Fingerprint the deterministic artifacts of one longitudinal run: the
/// episode feed, the joined DNS attack events, and the impact rows.
/// `Debug` on `f64` prints the shortest round-tripping form, so equal
/// fingerprints mean bit-equal floats.
fn fingerprint(report: &LongitudinalReport) -> u64 {
    use std::fmt::Write as _;
    let mut w = simcore::hash::FnvWriter::new();
    let _ = write!(w, "{:?}", report.feed.episodes);
    let _ = write!(w, "{:?}", report.dns_events);
    let _ = write!(w, "{:?}", report.impacts);
    let _ = write!(w, "{:?}", report.monthly);
    w.finish()
}

fn counter_delta(before: &obs::Snapshot, after: &obs::Snapshot, name: &str) -> u64 {
    after.counters.get(name).copied().unwrap_or(0) - before.counters.get(name).copied().unwrap_or(0)
}

/// Run the sweep grid and assemble the `dnsimpact-sweep/v1` report.
///
/// Fails (rather than emitting a report) if any jobs>1 cell's artifact
/// fingerprint differs from its scale's jobs=1 cell — a determinism
/// violation must never produce a committable artifact.
pub fn run_scale_sweep(cfg: &SweepConfig) -> Result<SweepReport, String> {
    if cfg.jobs.first() != Some(&1) {
        return Err("sweep jobs list must start with 1 (the speedup baseline)".into());
    }
    let rngs = RngFactory::new(cfg.seed);
    let built = {
        let _span = obs::span("sweep-world");
        world::build(&cfg.world_cfg, &rngs)
    };
    let darknet = Darknet::ucsd_like();
    let mut cells = Vec::new();

    for &scale in &cfg.scales {
        let schedule_cfg =
            paper_longitudinal_config(PaperScale { divisor: divisor_for_target(scale) });
        let months = schedule_cfg.months.clone();
        let attacks = {
            let _span = obs::span("sweep-attacks");
            attack::AttackScheduler::new(schedule_cfg).generate(&built.target_pool(), &rngs)
        };

        let mut jobs1: Option<(u64, u64)> = None; // (wall_ms, fingerprint)
        for &jobs in &cfg.jobs {
            let mut config = LongitudinalConfig { jobs, ..LongitudinalConfig::default() };
            config.impact.chaos_seed = cfg.chaos_seed;

            obs::rss::reset_peak();
            let before = obs::registry().snapshot();
            let start = std::time::Instant::now();
            let report = longitudinal::run(
                &built.infra,
                &darknet,
                &attacks,
                &months,
                &built.meta,
                &config,
                &rngs,
            );
            let wall_ms = start.elapsed().as_millis() as u64;
            let after = obs::registry().snapshot();
            let peak_rss_kb = obs::rss::peak_rss_kb();

            let fp = fingerprint(&report);
            let episodes = report.feed.episodes.len() as u64;
            // Counter deltas cover *all* work the cell did — the join
            // counters include both the open-resolver-filtered pass and
            // the unfiltered comparison pass.
            let joined_rows = counter_delta(&before, &after, "join.rows_joined");
            let records_measured = counter_delta(&before, &after, "openintel.records_measured");
            let records = episodes + joined_rows + records_measured;

            let (speedup, wall_for_rate) = match jobs1 {
                None => {
                    jobs1 = Some((wall_ms, fp));
                    (1.0, wall_ms)
                }
                Some((base_wall, base_fp)) => {
                    if fp != base_fp {
                        return Err(format!(
                            "determinism violation at scale {scale}: jobs={jobs} fingerprint \
                             {fp:#018x} != jobs=1 fingerprint {base_fp:#018x}"
                        ));
                    }
                    (base_wall.max(1) as f64 / wall_ms.max(1) as f64, wall_ms)
                }
            };
            obs::progress(
                "sweep",
                &format!(
                    "cell scale={scale} jobs={jobs}: {episodes} episodes, \
                     {records} records in {wall_ms} ms (speedup {speedup:.2}x)"
                ),
            );
            cells.push(SweepCell {
                scale,
                jobs: jobs as u64,
                episodes,
                joined_rows,
                records_measured,
                records,
                wall_ms,
                peak_rss_kb,
                records_per_sec: records as f64 * 1_000.0 / wall_for_rate.max(1) as f64,
                speedup_vs_jobs1: speedup,
            });
        }
    }

    Ok(SweepReport {
        meta: SweepMeta {
            seed: cfg.seed,
            chaos_seed: cfg.chaos_seed,
            date: obs::report::today_utc(),
            heavy: cfg.heavy,
        },
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divisor_hits_known_targets() {
        assert_eq!(divisor_for_target(1_500), 2_693);
        assert_eq!(divisor_for_target(15_000), 269);
        assert_eq!(divisor_for_target(150_000), 27);
        assert_eq!(divisor_for_target(1_500_000), 3);
        // Degenerate targets stay sane.
        assert_eq!(divisor_for_target(0), divisor_for_target(1));
        assert_eq!(divisor_for_target(u64::MAX), 1);
    }

    #[test]
    fn jobs_list_must_lead_with_one() {
        let cfg = SweepConfig {
            seed: 1,
            chaos_seed: None,
            scales: vec![1_500],
            jobs: vec![2, 4],
            world_cfg: WorldConfig::default(),
            heavy: 0,
        };
        assert!(run_scale_sweep(&cfg).unwrap_err().contains("must start with 1"));
    }

    #[test]
    fn tiny_sweep_produces_valid_sorted_report() {
        let _registry = crate::registry_test_guard();
        let cfg = SweepConfig {
            seed: 1,
            chaos_seed: Some(9),
            scales: vec![1_500],
            jobs: vec![1, 2],
            world_cfg: WorldConfig { providers: 20, domains: 6_000, ..WorldConfig::default() },
            heavy: 0,
        };
        let report = run_scale_sweep(&cfg).unwrap();
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.cells[0].jobs, 1);
        assert_eq!(report.cells[0].speedup_vs_jobs1, 1.0);
        assert!(report.cells[1].records > 0);
        // Same scale, same catalog: both cells processed identical work.
        assert_eq!(report.cells[0].records, report.cells[1].records);
        crate::sweep_report::validate(&report.to_json()).unwrap();
    }
}
