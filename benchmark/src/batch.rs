//! The batch half: `core::longitudinal::run` timed as a whole with the
//! benchmark's spans off, and a traced replica that makes `run`'s stage
//! calls one at a time, a span around each, and must land on `run`'s
//! fingerprint exactly — so the replica cannot drift from the program
//! silently.

use crate::spans::Recorder;
use crate::stats;
use crate::Run;
use attack::{Attack, AttackScheduler};
use census::OpenResolverList;
use dnsimpact_core::columnar::JoinTable;
use dnsimpact_core::impact::{compute_impacts_columnar, ImpactConfig};
use dnsimpact_core::longitudinal::{self, LongitudinalConfig, MonthlyRow};
use dnsimpact_core::{correlate, failures, ports, resilience, DnsAttackEvent, ImpactEvent};
use dnsimpactd::index::FnvWriter;
use dnssim::LoadBook;
use openintel::SweepSchedule;
use scenarios::WorldConfig;
use scenarios::{divisor_for_target, paper_longitudinal_config, world, BuiltWorld, PaperScale};
use simcore::rng::RngFactory;
use simcore::time::Month;
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::net::Ipv4Addr;
use std::time::Instant;
use telescope::{AttackEpisode, BackscatterSampler, Darknet, EpisodeColumns};
use telescope::{RsdosClassifier, RsdosFeed};

/// `longitudinal::run`'s trace scope (a private constant there).
const TRACE_SCOPE: &str = "rsdos";
const TRACED_PASSES: usize = 3;
/// Further (untraced, traced) pairs a traced run may time while the
/// replica's wall and `run`'s are more than 15 % apart.
const EXTRA_PAIRS: usize = 6;

/// What one batch phase runs on.
#[derive(Clone, Copy, Debug)]
pub struct BatchPlan {
    /// Target attack count of the paper catalog (`divisor_for_target`).
    pub target_attacks: u64,
    /// `Some(s)`: every month's DNS share is `s`; `None`: Table 3's shares.
    pub dns_share: Option<f64>,
    pub jobs: usize,
}

pub struct BatchInputs {
    pub world: BuiltWorld,
    pub attacks: Vec<Attack>,
    pub months: Vec<Month>,
    pub rngs: RngFactory,
}

fn catalog(world: &BuiltWorld, plan: &BatchPlan, target: u64) -> (Vec<Attack>, Vec<Month>) {
    let mut cfg = paper_longitudinal_config(PaperScale { divisor: divisor_for_target(target) });
    if let Some(share) = plan.dns_share {
        cfg.dns_share_per_month.fill(share);
    }
    let months = cfg.months.clone();
    let rngs = RngFactory::new(crate::DATASET_SEED);
    (AttackScheduler::new(cfg).generate(&world.target_pool(), &rngs), months)
}

/// World build + attack catalog generation: the batch half's set-up. The
/// dataset is pinned (see [`crate::DATASET_SEED`]); `seed` drives every
/// draw `longitudinal::run` makes over it: backscatter sampling, the sweep
/// schedule, the measurements.
pub fn build_inputs(plan: &BatchPlan, seed: u64) -> BatchInputs {
    let world = world::build(&WorldConfig::default(), &RngFactory::new(crate::DATASET_SEED));
    let (attacks, months) = catalog(&world, plan, plan.target_attacks);
    BatchInputs { world, attacks, months, rngs: RngFactory::new(seed) }
}

/// FNV-1a over the `Debug` form of a run's artifacts (the scale sweep's
/// construction, through the daemon's writer): `Debug` prints the shortest
/// round-tripping `f64`, so equal fingerprints mean bit-equal floats.
fn fingerprint(
    episodes: &[AttackEpisode],
    dns_events: &[DnsAttackEvent],
    impacts: &[ImpactEvent],
    monthly: &[MonthlyRow],
) -> u64 {
    let mut w = FnvWriter::new();
    let _ = write!(w, "{episodes:?}{dns_events:?}{impacts:?}{monthly:?}");
    w.finish()
}

fn counter_deltas(before: &obs::Snapshot, after: &obs::Snapshot) -> BTreeMap<String, u64> {
    after
        .counters
        .iter()
        .map(|(k, v)| (k.clone(), v - before.counters.get(k).copied().unwrap_or(0)))
        .collect()
}

struct Outcome {
    wall_s: f64,
    fingerprint: u64,
    /// The scale sweep's record count: episodes + joined rows (both join
    /// passes) + OpenINTEL records measured.
    records: u64,
}

/// One untimed-by-spans call of the program's own entry point.
fn run_once(inputs: &BatchInputs, jobs: usize) -> Outcome {
    let config = LongitudinalConfig { jobs, ..LongitudinalConfig::default() };
    let darknet = Darknet::ucsd_like();
    let before = obs::registry().snapshot();
    let start = Instant::now();
    let report = longitudinal::run(
        &inputs.world.infra,
        &darknet,
        &inputs.attacks,
        &inputs.months,
        &inputs.world.meta,
        &config,
        &inputs.rngs,
    );
    let wall_s = start.elapsed().as_secs_f64();
    let delta = counter_deltas(&before, &obs::registry().snapshot());
    Outcome {
        wall_s,
        fingerprint: fingerprint(
            &report.feed.episodes,
            &report.dns_events,
            &report.impacts,
            &report.monthly,
        ),
        records: report.feed.episodes.len() as u64
            + delta["join.rows_joined"]
            + delta["openintel.records_measured"],
    }
}

/// The spans-off measurement: a warm-up, then one timed
/// `longitudinal::run` per cycle. A repeat whose fingerprint differs from
/// the warm-up's is a failed run; at `jobs > 1` the warm-up is checked
/// against one `jobs = 1` run of the same input.
pub struct Measured {
    warm: Outcome,
    walls: Vec<f64>,
    drifted: u64,
}

impl Measured {
    pub fn warm_up(run: &mut Run, inputs: &BatchInputs, plan: &BatchPlan) -> Measured {
        let warm = run_once(inputs, plan.jobs);
        if plan.jobs > 1 {
            let sequential = run_once(inputs, 1);
            run.check(
                "batch: jobs=N fingerprint equals jobs=1",
                sequential.fingerprint == warm.fingerprint,
                format!("{:#018x} vs {:#018x}", warm.fingerprint, sequential.fingerprint),
            );
        }
        Measured { warm, walls: Vec::new(), drifted: 0 }
    }

    pub fn cycle(&mut self, inputs: &BatchInputs, plan: &BatchPlan) {
        let out = run_once(inputs, plan.jobs);
        if out.fingerprint != self.warm.fingerprint || out.records != self.warm.records {
            self.drifted += 1;
        }
        self.walls.push(out.wall_s);
    }

    pub fn report(&self, run: &mut Run) {
        run.attempted += self.walls.len() as u64;
        run.failed += self.drifted;
        run.check(
            "batch: every repeat reproduces the fingerprint",
            self.drifted == 0,
            format!("{} of {} differ", self.drifted, self.walls.len()),
        );
        let wall = stats::fastest(&self.walls);
        run.metric("pipeline_wall_s", wall);
        run.metric("pipeline_records_per_s", self.warm.records as f64 / wall);
        run.note("pipeline_fingerprint", format!("{:#018x}", self.warm.fingerprint));
        run.note(
            "pipeline_repeats",
            format!("{} records, walls {:.3?}", self.warm.records, self.walls),
        );
    }
}

/// The layers whose scaling exponent is reported, and the spans each sums.
const LAYERS: [(&str, &[&str]); 6] = [
    ("attack.accumulate", &["attack.accumulate"]),
    ("telescope.backscatter", &["telescope.backscatter"]),
    ("telescope.rsdos", &["telescope.rsdos.classify", "telescope.rsdos.episodes"]),
    ("telescope.feed", &["telescope.feed"]),
    (
        "core.columnar",
        &[
            "core.columnar.columns",
            "core.columnar.join",
            "core.columnar.join_unfiltered",
            "core.columnar.to_events",
        ],
    ),
    ("core.impact", &["core.impact"]),
];

/// Work counts of one replay pass (identical on every pass).
#[derive(Clone, Copy, Default)]
struct Counts {
    windows: u64,
    observations: u64,
    records: u64,
    episodes: u64,
    joined_rows: u64,
    events: u64,
}

/// `longitudinal::run`'s Table 3 accounting (a private function there);
/// part of the fingerprint, so the replica has to carry it.
fn monthly_rows(
    episodes: &[AttackEpisode],
    dns_idxs: &HashSet<usize>,
    months: &[Month],
) -> Vec<MonthlyRow> {
    months
        .iter()
        .map(|&month| {
            let (mut dns_attacks, mut other_attacks) = (0, 0);
            let mut dns_ips: HashSet<Ipv4Addr> = HashSet::new();
            let mut other_ips: HashSet<Ipv4Addr> = HashSet::new();
            for (i, ep) in episodes.iter().enumerate() {
                if ep.first_window.start().month() != month {
                    continue;
                }
                if dns_idxs.contains(&i) {
                    dns_attacks += 1;
                    dns_ips.insert(ep.victim);
                } else {
                    other_attacks += 1;
                    other_ips.insert(ep.victim);
                }
            }
            MonthlyRow {
                month,
                dns_attacks,
                other_attacks,
                dns_ips: dns_ips.len() as u64,
                other_ips: other_ips.len() as u64,
            }
        })
        .collect()
}

/// One traced pass: `longitudinal::run`'s body, stage by stage, a span
/// around each call into a layer. What is not inside a layer span (Table 3,
/// the index sets, Figure 6, dropping the intermediates) is the root
/// span's self time and is reported as `pipeline.unattributed_ms`.
fn replay(
    rec: &mut Recorder,
    inputs: &BatchInputs,
    attacks: &[Attack],
    jobs: usize,
) -> (u32, u64, Counts) {
    let BatchInputs { world, months, rngs, .. } = inputs;
    let (infra, meta) = (&world.infra, &world.meta);
    let config = LongitudinalConfig { jobs, ..LongitudinalConfig::default() };
    let darknet = Darknet::ucsd_like();
    let root = rec.enter("pipeline");

    let (loads, windows) = rec.time("attack.accumulate", || {
        let mut loads = LoadBook::new();
        let cells = attack::accumulate_windows(attacks);
        let n = cells.len() as u64;
        for (addr, w, pps) in cells {
            loads.add(addr, w, pps);
        }
        (loads, n)
    });

    let sampler = BackscatterSampler::new(&darknet);
    let obs = rec.time("telescope.backscatter", || sampler.sample(attacks, rngs));
    let classifier = RsdosClassifier::new(config.thresholds);
    let record_block =
        rec.time("telescope.rsdos.classify", || classifier.classify_into_block(&obs));
    let episodes =
        rec.time("telescope.rsdos.episodes", || classifier.episodes_from_block(&record_block));
    let feed = rec.time("telescope.feed", || {
        let feed = RsdosFeed::new(record_block.iter().collect(), episodes);
        feed.trace_onsets(TRACE_SCOPE);
        feed
    });

    let columns =
        rec.time("core.columnar.columns", || EpisodeColumns::from_episodes(&feed.episodes));
    let join_table = rec.time("core.columnar.join", || {
        JoinTable::build(
            infra,
            infra,
            &columns,
            &meta.open_resolvers,
            config.include_collateral,
            1,
            jobs,
            Some(TRACE_SCOPE),
        )
    });
    let dns_events = rec.time("core.columnar.to_events", || join_table.to_events());
    let unfiltered_table = rec.time("core.columnar.join_unfiltered", || {
        JoinTable::build(
            infra,
            infra,
            &columns,
            &OpenResolverList::new(),
            config.include_collateral,
            1,
            jobs,
            None,
        )
    });
    let unfiltered_events = rec.time("core.columnar.to_events", || unfiltered_table.to_events());
    let unfiltered_idxs: HashSet<usize> = unfiltered_events.iter().map(|e| e.episode_idx).collect();
    let monthly = monthly_rows(&feed.episodes, &unfiltered_idxs, months);
    let dns_episode_idxs: HashSet<usize> = dns_events.iter().map(|e| e.episode_idx).collect();
    std::hint::black_box(ports::breakdown_episodes(
        dns_episode_idxs.iter().map(|&i| &feed.episodes[i]),
    ));

    let (impacts, store) = rec.time("core.impact", || {
        compute_impacts_columnar(
            infra,
            &SweepSchedule::new(rngs.seed()),
            &config.resolver,
            &loads,
            &columns,
            &join_table,
            &meta.census,
            rngs,
            &ImpactConfig { trace_scope: Some(TRACE_SCOPE), ..config.impact },
            jobs,
        )
    });

    rec.time("core.analyses", || {
        std::hint::black_box((
            ports::breakdown_successful(&impacts),
            failures::summarize(&impacts),
            correlate::intensity_vs_impact(&impacts),
            correlate::duration_vs_impact(&impacts),
            resilience::by_anycast(&impacts),
            resilience::by_as_diversity(&impacts),
            resilience::by_prefix_diversity(&impacts),
        ));
    });

    let counts = Counts {
        windows,
        observations: obs.len() as u64,
        records: record_block.len() as u64,
        episodes: feed.episodes.len() as u64,
        joined_rows: join_table.len() as u64,
        events: impacts.len() as u64,
    };
    // `run` drops its intermediates before it returns; so does the replica.
    drop((obs, record_block, loads, columns, join_table, unfiltered_table, unfiltered_events));
    rec.exit(root);
    let fp = fingerprint(&feed.episodes, &dns_events, &impacts, &monthly);
    drop(store);
    (root, fp, counts)
}

/// Per-pass layer times (ms) of the replay passes rooted at `roots`.
fn layer_ms(rec: &Recorder, roots: &[u32]) -> Vec<BTreeMap<&'static str, f64>> {
    roots.iter().map(|&r| rec.self_ms_by_name(r)).collect()
}

fn median_of(passes: &[BTreeMap<&'static str, f64>], spans: &[&str]) -> f64 {
    let per_pass: Vec<f64> = passes
        .iter()
        .map(|p| spans.iter().map(|s| p.get(s).copied().unwrap_or(0.0)).sum())
        .collect();
    stats::median(&per_pass)
}

/// The traced run of the batch half: every `per_layer` metric of the
/// pipeline's layers, as medians of [`TRACED_PASSES`] replay passes.
pub fn trace(run: &mut Run, rec: &mut Recorder, inputs: &BatchInputs, plan: &BatchPlan) {
    let warm = run_once(inputs, plan.jobs);
    let reference = run_once(inputs, plan.jobs);
    run.attempted += 1;

    let before = obs::registry().snapshot();
    let mut roots = Vec::new();
    let mut counts = Counts::default();
    let mut drifted = 0;
    for _ in 0..TRACED_PASSES {
        let (root, fp, c) = replay(rec, inputs, &inputs.attacks, plan.jobs);
        if fp != reference.fingerprint {
            drifted += 1;
        }
        roots.push(root);
        counts = c;
    }
    let after = obs::registry().snapshot();
    run.attempted += TRACED_PASSES as u64;
    run.failed += drifted;
    run.check(
        "batch: traced replay reproduces longitudinal::run's fingerprint",
        drifted == 0,
        format!("{drifted} of {TRACED_PASSES} passes differ from {:#018x}", reference.fingerprint),
    );
    run.note("pipeline_fingerprint", format!("{:#018x}", reference.fingerprint));

    let passes = layer_ms(rec, &roots);
    let ms = |spans: &[&str]| median_of(&passes, spans);
    let delta = counter_deltas(&before, &after);
    let per_pass = |name: &str| delta.get(name).copied().unwrap_or(0) as f64 / TRACED_PASSES as f64;

    run.metric("attack.accumulate.ms", ms(&["attack.accumulate"]));
    run.metric("attack.accumulate.windows", counts.windows as f64);
    run.metric("telescope.backscatter.ms", ms(&["telescope.backscatter"]));
    run.metric("telescope.backscatter.observations", counts.observations as f64);
    run.metric("telescope.rsdos.classify_ms", ms(&["telescope.rsdos.classify"]));
    run.metric("telescope.rsdos.episodes_ms", ms(&["telescope.rsdos.episodes"]));
    run.metric("telescope.rsdos.records", counts.records as f64);
    run.metric("telescope.rsdos.episodes", counts.episodes as f64);
    run.metric(
        "telescope.rsdos.episode_yield",
        counts.episodes as f64 / counts.observations.max(1) as f64,
    );
    run.metric("telescope.feed.rehydrate_ms", ms(&["telescope.feed"]));
    run.metric("core.columnar.columns_ms", ms(&["core.columnar.columns"]));
    run.metric("core.columnar.join_ms", ms(&["core.columnar.join"]));
    run.metric("core.columnar.join_unfiltered_ms", ms(&["core.columnar.join_unfiltered"]));
    run.metric("core.columnar.to_events_ms", ms(&["core.columnar.to_events"]));
    run.metric("core.columnar.joined_rows", counts.joined_rows as f64);
    run.metric(
        "core.columnar.match_ratio",
        counts.joined_rows as f64 / counts.episodes.max(1) as f64,
    );
    run.metric("core.impact.ms", ms(&["core.impact"]));
    run.metric("core.impact.events", counts.events as f64);
    run.metric("core.impact.windows_computed", per_pass("impact.windows_computed"));
    run.metric("openintel.records_measured", per_pass("openintel.records_measured"));
    run.metric("core.impact.baseline_fallbacks", per_pass("impact.baseline_fallbacks"));
    run.metric("core.analyses.ms", ms(&["core.analyses"]));

    let walls_ms: Vec<f64> = roots.iter().map(|&r| rec.duration_ms(r)).collect();
    let wall_ms = stats::median(&walls_ms);
    let unattributed_ms = ms(&["pipeline"]);
    let layer_sum_ms = wall_ms - unattributed_ms;
    let ratio = layer_sum_ms / wall_ms;
    run.metric("pipeline.layer_sum_ms", layer_sum_ms);
    run.metric("pipeline.layer_sum_ratio", ratio);
    run.metric("pipeline.unattributed_ms", unattributed_ms);
    run.check(
        "batch: layer self-times sum to the traced pipeline wall (0.85-1.15)",
        (0.85..=1.15).contains(&ratio),
        format!("{ratio:.4}"),
    );
    // The layer sum above is a share of the replica's wall, so it speaks for
    // `run` only if the replica takes as long as `run` does (it leaves out
    // `run`'s private top-N tables, and adds the spans). Fastest traced pass
    // against the fastest of three untraced runs, two before the passes and
    // one after; a slow stretch of the sandbox can part the two, so while
    // they are apart a further pair of each is timed (spans discarded).
    let mut untraced_s = vec![warm.wall_s, reference.wall_s, run_once(inputs, plan.jobs).wall_s];
    let mut traced_s: Vec<f64> = walls_ms.iter().map(|ms| ms / 1e3).collect();
    let replica_vs_run = |t: &[f64], u: &[f64]| stats::fastest(t) / stats::fastest(u);
    for _ in 0..EXTRA_PAIRS {
        if (0.85..=1.15).contains(&replica_vs_run(&traced_s, &untraced_s)) {
            break;
        }
        untraced_s.push(run_once(inputs, plan.jobs).wall_s);
        let mut scratch = Recorder::new();
        let root = replay(&mut scratch, inputs, &inputs.attacks, plan.jobs).0;
        traced_s.push(scratch.duration_ms(root) / 1e3);
    }
    let vs_run = replica_vs_run(&traced_s, &untraced_s);
    run.check(
        "batch: the traced replica takes as long as longitudinal::run (0.85-1.15)",
        (0.85..=1.15).contains(&vs_run),
        format!("{vs_run:.4} over {} traced and {} untraced", traced_s.len(), untraced_s.len()),
    );
    run.metric("trace.pipeline_overhead_pct", (vs_run - 1.0) * 100.0);

    // Scaling: the same replay on a catalog a tenth the size, same world.
    let (small_attacks, _) = catalog(&inputs.world, plan, plan.target_attacks / 10);
    let small_roots: Vec<u32> =
        (0..TRACED_PASSES).map(|_| replay(rec, inputs, &small_attacks, plan.jobs).0).collect();
    let small = layer_ms(rec, &small_roots);
    let exponent = |spans: &[&str]| (ms(spans) / median_of(&small, spans).max(1e-6)).log10();
    for (layer, spans) in LAYERS {
        run.metric(&format!("{layer}.scaling_exp"), exponent(spans));
    }
    let small_wall =
        stats::median(&small_roots.iter().map(|&r| rec.duration_ms(r)).collect::<Vec<_>>());
    run.metric("pipeline.scaling_exp", (wall_ms / small_wall).log10());

    let busy =
        |s: &obs::Snapshot| s.histograms.get("time.pool.worker_busy_ms").map_or(0, |h| h.sum);
    run.metric("streamproc.pool.tasks", per_pass("sched.pool.tasks"));
    run.metric("streamproc.pool.steals", per_pass("sched.pool.steals"));
    run.metric(
        "streamproc.pool.worker_busy_ms",
        (busy(&after) - busy(&before)) as f64 / TRACED_PASSES as f64,
    );
    // One worker is the baseline itself; only a parallel plan is compared.
    let speedup = if plan.jobs > 1 { run_once(inputs, 1).wall_s / reference.wall_s } else { 1.0 };
    run.metric("streamproc.pool.speedup_vs_jobs1", speedup);
}
