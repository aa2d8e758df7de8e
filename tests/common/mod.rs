//! The batch contract matrix: one input, one set of bytes, whatever the
//! worker count, the chaos seed, or a kill and resume in between.
//!
//! A cell is `(fixture, jobs, chaos seed, kill offset)`. It runs the
//! fixture's longitudinal pipeline (when it has one), renders the
//! fixture's catalog subset under supervision, and returns digests of what
//! came out. Tests compare cells with each other; the golden and counter
//! pins compare one cell with a recorded constant, and are the only
//! constants the matrix pins.
//!
//! A test binary builds each fixture's world and attacks once and runs
//! each cell once. Cells run side by side, but the metrics registry is one
//! per process: a counted cell, whose snapshot is read, runs alone on a
//! freshly reset registry.

#![allow(dead_code)] // each test binary uses its own part of the matrix

use bench_support::{run_catalog_checkpointed, run_on, CheckpointDir, ExperimentRun, Inputs};
use scenarios::{divisor_for_target, paper_longitudinal_config, PaperScale, WorldConfig};
use std::collections::BTreeMap;
use std::fmt::{Debug, Write as _};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use streamproc::{ChaosConfig, FaultPlan};

/// The one digest: FNV-1a over the `Debug` form of each part in turn.
/// `Debug` prints the shortest round-tripping `f64`, so equal digests mean
/// bit-equal floats.
pub fn digest(parts: &[&dyn Debug]) -> u64 {
    let mut w = simcore::hash::FnvWriter::new();
    for part in parts {
        let _ = write!(w, "{part:?}");
    }
    w.finish()
}

/// How a fixture sizes its attack schedule.
#[derive(Clone, Copy)]
pub enum Scale {
    Divisor(u32),
    /// The divisor that lands nearest this many attacks (the sweep's way).
    Target(u64),
}

/// One world, attack schedule and catalog subset.
#[derive(Clone, Copy)]
pub struct Fixture {
    /// Unique per fixture: the cache key.
    pub name: &'static str,
    seed: u64,
    /// `(providers, domains)`; `None` is `WorldConfig::default()`.
    world: Option<(u32, u32)>,
    /// `None`: no longitudinal stage (scenario experiments only).
    scale: Option<Scale>,
    /// Replaces every month's calibrated DNS share.
    dns_share: Option<f64>,
    pub ids: &'static [&'static str],
}

/// The seed-42, 20-provider, 6 000-domain world at divisor 400, rendering
/// the whole longitudinal catalog.
pub const CATALOG: Fixture = Fixture {
    name: "catalog",
    seed: 42,
    world: Some((20, 6_000)),
    scale: Some(Scale::Divisor(400)),
    dns_share: None,
    ids: &[
        "table1", "table3", "table4", "table5", "table6", "fig5", "fig6", "fig7", "fig8", "fig9",
        "fig10", "fig11", "fig12", "fig13", "ablate",
    ],
};
pub const RESEEDED: Fixture = Fixture { name: "reseeded", seed: 43, ids: &[], ..CATALOG };
/// The golden pin's input: ~6 000 attacks, a fifth of them on DNS
/// infrastructure, so the join, impact and measurement layers carry weight.
pub const GOLDEN: Fixture = Fixture {
    name: "golden",
    scale: Some(Scale::Target(6_000)),
    dns_share: Some(0.2),
    ids: &[],
    ..CATALOG
};
pub const SWEEP_15K: Fixture =
    Fixture { name: "sweep-15k", scale: Some(Scale::Target(15_000)), ids: &[], ..CATALOG };
pub const SWEEP_150K: Fixture =
    Fixture { name: "sweep-150k", scale: Some(Scale::Target(150_000)), ..SWEEP_15K };
pub const SWEEP_1M5: Fixture =
    Fixture { name: "sweep-1m5", scale: Some(Scale::Target(1_500_000)), ..SWEEP_15K };
/// `repro bench`'s configuration (its chaos seed is the cell's).
pub const BENCH: Fixture = Fixture {
    name: "bench",
    world: None,
    scale: Some(Scale::Divisor(bench_support::BENCH_SCALE)),
    ids: bench_support::BENCH_EXPERIMENTS,
    ..CATALOG
};
/// TransIP, the Russia case studies and the future-work probe.
pub const SCENARIOS: Fixture = Fixture {
    name: "scenarios",
    scale: None,
    ids: &["table2", "fig2", "fig3", "russia", "futurework"],
    ..BENCH
};

/// What one cell produced.
pub struct Cell {
    /// Feed episodes and impact events (0 without a longitudinal stage).
    pub episodes: usize,
    pub impacts: usize,
    /// The golden digest: episodes, joined events, impacts, the monthly
    /// table and the Table 4–6 rankings.
    pub report: Option<u64>,
    /// Each CSV by file name (read back from disk after a kill and resume).
    pub csv: BTreeMap<String, u64>,
    /// Each rendered table by id (a job skipped on resume renders none).
    pub tables: BTreeMap<String, u64>,
    /// Catalog jobs skipped on resume: their checkpoint marker existed.
    pub resumed: Vec<String>,
    /// Catalog jobs restarted after an injected crash.
    pub restarts: u64,
    /// The registry as a [`counted_cell`] left it.
    pub snapshot: Option<obs::Snapshot>,
}

impl Cell {
    /// The deterministic namespace without zero entries: a name an
    /// earlier cell registered reads 0 here, and is not this cell's count.
    pub fn counted(&self) -> obs::Snapshot {
        let mut s = self.snapshot.as_ref().expect("a counted cell").deterministic();
        s.counters.retain(|_, v| *v != 0);
        s.gauges.retain(|_, v| *v != 0);
        s.histograms.retain(|_, h| h.count != 0);
        s
    }

    /// The counters outside `chaos.`: what recovery must leave untouched.
    pub fn pipeline_counters(&self) -> BTreeMap<String, u64> {
        let mut c = self.counted().counters;
        c.retain(|k, _| !k.starts_with("chaos."));
        c
    }
}

/// `(fixture, jobs, chaos seed, kill offset)`. The chaos seed drives both
/// the measurement faults and the catalog's job crashes; kill offset `k`
/// checkpoints the first `k` requested ids, then resumes the whole list.
pub type Spec<'a> = (&'a Fixture, usize, Option<u64>, Option<usize>);

/// Uncounted cells share the read half; a counted cell takes the write half.
static REGISTRY: RwLock<()> = RwLock::new(());

/// Run `f` beside uncounted cells only: pipeline code outside a cell in a
/// matrix test binary must, or it counts into a counted cell's snapshot.
pub fn uncounted<T>(f: impl FnOnce() -> T) -> T {
    let _shared = REGISTRY.read().unwrap_or_else(PoisonError::into_inner);
    f()
}

/// The cell, run on first use beside other cells; `snapshot` is `None`.
pub fn cell(spec: Spec) -> Arc<Cell> {
    memo(&CELLS, (spec.0.name, spec.1, spec.2, spec.3, false), || {
        uncounted(|| run_cell(spec, false))
    })
}

/// Several [`cell`]s, run side by side.
pub fn cells<const N: usize>(specs: [Spec; N]) -> [Arc<Cell>; N] {
    std::thread::scope(|s| {
        specs
            .map(|spec| s.spawn(move || cell(spec)))
            .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
    })
}

/// The cell, run alone on a freshly reset registry: `snapshot` is what it
/// counted.
pub fn counted_cell(spec: Spec) -> Arc<Cell> {
    memo(&CELLS, (spec.0.name, spec.1, spec.2, spec.3, true), || {
        let _alone = REGISTRY.write().unwrap_or_else(PoisonError::into_inner);
        obs::registry().reset();
        run_cell(spec, true)
    })
}

type Memo<K, V> = Mutex<BTreeMap<K, Arc<OnceLock<Arc<V>>>>>;
/// A [`Spec`] by fixture name, and whether the cell is counted.
type Key = (&'static str, usize, Option<u64>, Option<usize>, bool);
static CELLS: Memo<Key, Cell> = Mutex::new(BTreeMap::new());
static INPUTS: Memo<&str, Inputs> = Mutex::new(BTreeMap::new());

/// One value per key and test binary: a second caller waits for the
/// first. A run that panicked stores nothing, and the next caller reruns it.
fn memo<K: Ord, V>(map: &Memo<K, V>, key: K, run: impl FnOnce() -> V) -> Arc<V> {
    let slot =
        Arc::clone(map.lock().unwrap_or_else(PoisonError::into_inner).entry(key).or_default());
    Arc::clone(slot.get_or_init(|| Arc::new(run())))
}

fn inputs(f: &Fixture, scale: Scale) -> Arc<Inputs> {
    memo(&INPUTS, f.name, || {
        let divisor = match scale {
            Scale::Divisor(d) => d,
            Scale::Target(t) => divisor_for_target(t),
        };
        let mut schedule = paper_longitudinal_config(PaperScale { divisor });
        if let Some(share) = f.dns_share {
            schedule.dns_share_per_month.fill(share);
        }
        let world = f.world.map_or_else(WorldConfig::default, |(providers, domains)| WorldConfig {
            providers,
            domains,
            ..WorldConfig::default()
        });
        Inputs::build(f.seed, schedule, &world)
    })
}

fn run_cell((f, jobs, chaos, kill): Spec, counted: bool) -> Cell {
    let ex = f.scale.map(|scale| run_on(inputs(f, scale), jobs, chaos));
    let fault =
        chaos.map(|s| FaultPlan::from_seed(s, "experiment-catalog", ChaosConfig::CALIBRATED));
    let ids: Vec<String> = f.ids.iter().map(|s| s.to_string()).collect();
    let catalog = |ids: &[String], ckpt, on_done: &(dyn Fn(&ExperimentRun) + Sync)| {
        run_catalog_checkpointed(ex.as_ref(), f.seed, ids, jobs, fault.as_ref(), ckpt, on_done)
    };
    let (runs, stats, csv) = match kill {
        None => {
            let (runs, stats) = catalog(&ids, None, &|_| {});
            let artifacts = runs.iter().flat_map(|r| &r.artifacts);
            let csv = artifacts.map(|a| (format!("{}.csv", a.id), digest(&[&a.csv]))).collect();
            (runs, stats, csv)
        }
        Some(k) => {
            let base = std::env::temp_dir().join(format!(
                "dnsimpact-chaos-resume-{}-{}",
                f.name,
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&base);
            let (out, ckpt) = (base.join("out"), CheckpointDir::new(&base.join("ckpt")).unwrap());
            let persist = |run: &ExperimentRun| {
                let mut lines = Vec::new();
                for a in &run.artifacts {
                    dnsimpact_core::report::write_output(&out, &format!("{}.csv", a.id), &a.csv)
                        .unwrap();
                    lines.push(format!("- `{}.csv` — {}\n", a.id, a.title));
                }
                ckpt.mark_done(&run.id, &lines).unwrap();
            };
            let (first, _) = catalog(&ids[..k], Some(&ckpt), &persist);
            assert!(first.iter().all(|r| !r.resumed), "nothing was checkpointed before the kill");
            let (runs, stats) = catalog(&ids, Some(&ckpt), &persist);
            assert!(runs.iter().all(|r| ckpt.is_done(&r.id)), "every job checkpointed");
            let mut csv = BTreeMap::new();
            for entry in std::fs::read_dir(&out).unwrap() {
                let path = entry.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                assert!(!name.ends_with(".tmp"), "atomic write left a temp file: {name}");
                csv.insert(name, digest(&[&std::fs::read_to_string(path).unwrap()]));
            }
            std::fs::remove_dir_all(&base).unwrap();
            (runs, stats, csv)
        }
    };
    let r = ex.as_ref().map(|ex| &ex.report);
    Cell {
        episodes: r.map_or(0, |r| r.feed.episodes.len()),
        impacts: r.map_or(0, |r| r.impacts.len()),
        report: r.map(|r| {
            let (events, monthly, orgs) = (&r.dns_events, &r.monthly, &r.top_affected_orgs);
            digest(&[&r.feed.episodes, events, &r.impacts, monthly, &r.top_ips, &r.top_asns, orgs])
        }),
        csv,
        tables: runs
            .iter()
            .flat_map(|r| &r.artifacts)
            .map(|a| (a.id.into(), digest(&[&a.text])))
            .collect(),
        resumed: runs.iter().filter(|r| r.resumed).map(|r| r.id.clone()).collect(),
        restarts: stats.restarts,
        snapshot: counted.then(|| obs::registry().snapshot()),
    }
}

/// Two cells of one fixture wrote the same bytes: the longitudinal
/// layers, every CSV and every rendered table.
pub fn assert_same_artifacts(a: &Cell, b: &Cell, what: &str) {
    assert!(!a.csv.is_empty() || a.report.is_some(), "{what}: the cell produced nothing");
    assert_eq!(a.report, b.report, "{what}: longitudinal report layers differ");
    assert_eq!(a.csv, b.csv, "{what}: CSV bytes differ");
    assert_eq!(a.tables, b.tables, "{what}: rendered tables differ");
}
