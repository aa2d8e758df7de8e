//! One layered benchmark for the batch pipeline and `dnsimpactd`.
//!
//! `dnsimpact-benchmark --workload NAME --seed N --seconds S --trace 0|1`
//! runs one workload in this one process and prints every metric as
//! `workload name value unit`, then one JSON object as the last line.
//! `--trace 0` measures the end-to-end metrics with the benchmark's spans
//! off; `--trace 1` is the traced run that yields the per-layer metrics.
//! See `README.md` for what each workload and metric is for.

mod aa;
mod affinity;
mod batch;
mod daemon;
mod loadgen;
mod spans;
mod spec;
mod stats;

use batch::BatchPlan;
use daemon::{DaemonPlan, Mode};
use obs::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// What one invocation accumulates: metrics, output checks, the
/// operations attempted and failed.
#[derive(Default)]
pub struct Run {
    pub smoke: bool,
    metrics: BTreeMap<String, f64>,
    notes: Vec<(String, String)>,
    /// (what, passed, detail); a repeated check keeps one row per outcome.
    checks: Vec<(String, bool, String)>,
    pub attempted: u64,
    pub failed: u64,
    pub connections: u64,
    pub answers_compared: u64,
}

impl Run {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, key: &str, value: String) {
        self.notes.push((key.to_string(), value));
    }

    pub fn check(&mut self, what: &str, ok: bool, detail: String) {
        self.checks.push((what.to_string(), ok, detail));
    }

    /// A check made once per load phase: passes fold into one row, each
    /// failure keeps its own with its detail.
    pub fn check_quiet(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            self.check(what, false, detail());
        } else if !self.checks.iter().any(|(w, passed, _)| *passed && w == what) {
            self.check(what, true, String::new());
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok, _)| *ok)
    }
}

/// The half of the system a workload is about. The other half runs too,
/// at a small reference size, because every workload has to report every
/// end-to-end metric; it is kept small enough that it cannot set
/// `peak_rss_mb` (the notes of every run show the peak phase by phase).
#[derive(Clone, Copy, PartialEq)]
enum Half {
    Batch,
    Daemon,
}

struct Workload {
    name: &'static str,
    about: Half,
    batch: BatchPlan,
    daemon: DaemonPlan,
    /// What one cycle (both halves once) took on the commit that added the
    /// benchmark. `--seconds` over this is the number of cycles a run makes:
    /// fixed by the command line, not by how fast the build under test is,
    /// so a fastest-of-N is always taken over the same N.
    cycle_s: f64,
}

const REFERENCE_BATCH: BatchPlan = BatchPlan { target_attacks: 5_000, dns_share: None, jobs: 1 };
const DNS_HEAVY: BatchPlan = BatchPlan { target_attacks: 10_000, dns_share: Some(0.30), jobs: 1 };
const REFERENCE_DAEMON: DaemonPlan = daemon_plan(10_000, Mode::Seq, 2_000);

const fn daemon_plan(feed_target: u64, mode: Mode, round_queries: usize) -> DaemonPlan {
    DaemonPlan { feed_target, mode, round_queries, route_queries: 1_000, rung_seconds: 1.5 }
}

const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "batch_sparse",
        about: Half::Batch,
        batch: BatchPlan { target_attacks: 50_000, dns_share: None, jobs: 1 },
        daemon: REFERENCE_DAEMON,
        cycle_s: 0.85,
    },
    Workload {
        name: "batch_dnsheavy",
        about: Half::Batch,
        batch: DNS_HEAVY,
        daemon: REFERENCE_DAEMON,
        cycle_s: 0.80,
    },
    Workload {
        name: "batch_parallel",
        about: Half::Batch,
        batch: BatchPlan { jobs: 2, ..DNS_HEAVY },
        daemon: REFERENCE_DAEMON,
        cycle_s: 0.85,
    },
    Workload {
        name: "daemon_seq",
        about: Half::Daemon,
        batch: REFERENCE_BATCH,
        daemon: daemon_plan(20_000, Mode::Seq, 4_000),
        cycle_s: 0.85,
    },
    Workload {
        name: "daemon_mixed",
        about: Half::Daemon,
        batch: REFERENCE_BATCH,
        daemon: daemon_plan(20_000, Mode::Mixed, 4_000),
        cycle_s: 1.3,
    },
];

/// The dataset — the synthetic world and the attack catalog drawn over it
/// — is the same for every `--seed`; the seed drives what the program
/// draws while processing it, the feed's gap and outage schedules, and the
/// query streams. Seeding the dataset too makes the seed a size knob: a
/// world's draw of provider sizes moves `batch_dnsheavy` between 1.6M and
/// 2.0M records (1.4 s to 2.5 s) across six seeds, and on the ~1 %-DNS
/// catalogs a few hundred heavy-tailed DNS attacks decide the record
/// count, which moved `pipeline_records_per_s` by a third across ten.
/// With the dataset pinned the record count moves by 1-5 % across seeds, and
/// ten seeds spread no more than ten runs on one seed do.
pub const DATASET_SEED: u64 = 42;

/// Beside the build whose inputs the run keeps, set-up is timed this many
/// times before the measured window and as many times after it (once the
/// peak RSS is read), and the fastest reported:
/// that samples two stretches of the sandbox's speed a window apart, where
/// repeats in a row would all inherit one.
const SETUP_REPEATS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    benchmark_json: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: None,
        benchmark_json: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out" => args.out = Some(value.into()),
            "--benchmark-json" => args.benchmark_json = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err(format!("--seconds {} is outside (0, 60]", args.seconds));
    }
    Ok(args)
}

/// A smoke run keeps every code path and shrinks every size; its numbers
/// are discarded.
fn smoke_sized(w: &Workload) -> (BatchPlan, DaemonPlan) {
    (
        BatchPlan { target_attacks: 1_500, ..w.batch },
        DaemonPlan {
            feed_target: 1_500,
            round_queries: 1_000,
            route_queries: 50,
            rung_seconds: 0.05,
            ..w.daemon
        },
    )
}

fn run_workload(w: &Workload, args: &Args) -> (Run, spans::Recorder) {
    let mut run = Run { smoke: args.smoke, ..Run::default() };
    let mut rec = spans::Recorder::new();
    let (batch_plan, daemon_plan) = if args.smoke { smoke_sized(w) } else { (w.batch, w.daemon) };
    let build = || {
        let start = Instant::now();
        let inputs = (
            batch::build_inputs(&batch_plan, args.seed),
            daemon::build_inputs(&daemon_plan, args.seed),
        );
        (inputs, start.elapsed().as_secs_f64())
    };
    let extra_setups = if args.trace || args.smoke { 0 } else { SETUP_REPEATS };
    let mut setup_s: Vec<f64> = (0..extra_setups).map(|_| build().1).collect();
    let ((batch_inputs, daemon_inputs), last) = build();
    setup_s.push(last);

    if args.trace {
        batch::trace(&mut run, &mut rec, &batch_inputs, &batch_plan);
        daemon::trace(&mut run, &mut rec, &daemon_inputs, &daemon_plan, args.seed);
        return (run, rec);
    }

    // Both halves are warmed up, the reference half first, and the peak RSS
    // is read after each step: the notes then show which half set it.
    let peak_mb = || obs::rss::peak_rss_kb() as f64 / 1024.0;
    let mut peaks = vec![("set-up", peak_mb())];
    let warm_daemon = |run: &mut Run| {
        daemon::Measured::default().cycle(run, &daemon_inputs, &daemon_plan, args.seed);
    };
    let mut batch = if w.about == Half::Batch {
        warm_daemon(&mut run);
        peaks.push(("reference half", peak_mb()));
        batch::Measured::warm_up(&mut run, &batch_inputs, &batch_plan)
    } else {
        let batch = batch::Measured::warm_up(&mut run, &batch_inputs, &batch_plan);
        peaks.push(("reference half", peak_mb()));
        warm_daemon(&mut run);
        batch
    };
    peaks.push(("both halves", peak_mb()));

    // Each cycle runs both halves once, so every metric samples the whole
    // measured window: the sandbox's speed drifts over seconds, and a
    // phase measured in one short stretch would inherit that stretch's.
    let mut daemon = daemon::Measured::default();
    let cycles = if args.smoke { 2 } else { (args.seconds / w.cycle_s).round().max(3.0) as usize };
    let window = Instant::now();
    for _ in 0..cycles {
        batch.cycle(&batch_inputs, &batch_plan);
        daemon.cycle(&mut run, &daemon_inputs, &daemon_plan, args.seed);
    }
    run.note("cycles", format!("{cycles} in {:.1} s", window.elapsed().as_secs_f64()));
    batch.report(&mut run);
    daemon.report(&mut run, &daemon_inputs);
    let peak = peak_mb();
    peaks.push(("the cycles", peak));
    run.metric("peak_rss_mb", peak);
    run.note("peak_rss_mb_after", format!("{peaks:.1?}"));
    setup_s.extend((0..extra_setups).map(|_| build().1));
    run.metric("setup_s", stats::fastest(&setup_s));
    (run, rec)
}

/// The declared metrics of this mode, in declared order — or what is
/// missing, undeclared or not a finite number.
fn declared_metrics(run: &Run, trace: bool) -> Result<Vec<(&'static spec::Metric, f64)>, String> {
    let declared = if trace { spec::PER_LAYER } else { spec::END_TO_END };
    let mut out = Vec::new();
    for m in declared {
        match run.metrics.get(m.name) {
            Some(v) if v.is_finite() => out.push((m, *v)),
            Some(v) => return Err(format!("metric {} is {v}", m.name)),
            None => return Err(format!("metric {} was not measured", m.name)),
        }
    }
    match run.metrics.keys().find(|k| !declared.iter().any(|m| m.name == *k)) {
        Some(extra) => Err(format!("metric {extra} is not declared in spec.rs")),
        None => Ok(out),
    }
}

fn metrics_json(metrics: &[(&spec::Metric, f64)]) -> Json {
    let mut obj = Json::obj();
    for (m, v) in metrics {
        let mut entry = Json::obj();
        entry.set("value", Json::F64(*v));
        entry.set("unit", Json::Str(m.unit.into()));
        obj.set(m.name, entry);
    }
    obj
}

fn result_json(run: &Run, metrics: &[(&spec::Metric, f64)]) -> Json {
    let mut doc = Json::obj();
    doc.set("correct", Json::Bool(run.correct()));
    doc.set("attempted", Json::U64(run.attempted.max(1)));
    doc.set("failed", Json::U64(run.failed));
    doc.set("metrics", metrics_json(metrics));
    doc
}

fn write_report(
    dir: &Path,
    args: &Args,
    run: &Run,
    rec: &spans::Recorder,
    result: &Json,
) -> std::io::Result<PathBuf> {
    let mut doc = Json::obj();
    doc.set("workload", Json::Str(args.workload.clone()));
    doc.set("seed", Json::U64(args.seed));
    doc.set("seconds", Json::F64(args.seconds));
    doc.set("trace", Json::Bool(args.trace));
    doc.set("result", result.clone());
    let mut notes = Json::obj();
    for (k, v) in &run.notes {
        notes.set(k, Json::Str(v.clone()));
    }
    doc.set("notes", notes);
    doc.set(
        "checks",
        Json::Array(
            run.checks
                .iter()
                .map(|(what, ok, detail)| {
                    let mut c = Json::obj();
                    c.set("check", Json::Str(what.clone()));
                    c.set("ok", Json::Bool(*ok));
                    c.set("detail", Json::Str(detail.clone()));
                    c
                })
                .collect(),
        ),
    );
    if args.trace {
        doc.set("trace_spans", rec.to_json());
    }
    std::fs::create_dir_all(dir)?;
    let kind = if args.trace { "trace" } else { "report" };
    let path = dir.join(format!("{kind}-{}.json", args.workload));
    std::fs::write(&path, doc.compact())?;
    Ok(path)
}

/// The smoke pass's declaration check: `BENCHMARK.json` and `spec.rs`
/// name the same metrics with the same units and directions, and the
/// same workloads; names are `[A-Za-z0-9_.-]+`; the lists fit the limits.
fn check_declarations(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text)?;
    let field = |entry: &Json, key: &str| -> Result<String, String> {
        entry.get(key).and_then(Json::as_str).map(str::to_string).ok_or(format!("missing {key}"))
    };
    let list = |key: &str| doc.get(key).and_then(Json::as_array).ok_or(format!("missing {key}"));
    for (key, declared, limit) in
        [("end_to_end", spec::END_TO_END, 16), ("per_layer", spec::PER_LAYER, 128)]
    {
        let mut listed = Vec::new();
        for entry in list(key)? {
            listed.push((field(entry, "name")?, field(entry, "unit")?, field(entry, "better")?));
        }
        let printed: Vec<(String, String, String)> =
            declared.iter().map(|m| (m.name.into(), m.unit.into(), m.better.into())).collect();
        if listed != printed {
            let odd = listed
                .iter()
                .find(|l| !printed.contains(l))
                .or(printed.iter().find(|p| !listed.contains(p)));
            return Err(format!("{key}: BENCHMARK.json and spec.rs disagree, first at {odd:?}"));
        }
        if listed.len() > limit {
            return Err(format!("{key}: {} metrics, limit {limit}", listed.len()));
        }
        let legal = |n: &str| {
            !n.is_empty() && n.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        if let Some((name, ..)) = listed.iter().find(|(n, ..)| !legal(n)) {
            return Err(format!("{key}: name {name:?} is not [A-Za-z0-9_.-]+"));
        }
    }
    let mut names = Vec::new();
    for entry in list("workloads")? {
        names.push(field(entry, "name")?);
    }
    if names != WORKLOADS.map(|w| w.name) {
        return Err(format!("workloads: BENCHMARK.json lists {names:?}"));
    }
    Ok(())
}

fn main() -> ExitCode {
    affinity::all();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "aa-compare") {
        return aa::main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dnsimpact-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let known = WORKLOADS.map(|w| w.name).join(", ");
        eprintln!("dnsimpact-benchmark: unknown workload {:?}; known: {known}", args.workload);
        return ExitCode::from(2);
    };
    if args.smoke {
        if let Some(Err(e)) = args.benchmark_json.as_deref().map(check_declarations) {
            eprintln!("dnsimpact-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    }

    let (run, rec) = run_workload(workload, &args);
    let metrics = match declared_metrics(&run, args.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("dnsimpact-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (m, v) in &metrics {
        println!("{} {} {v} {}", workload.name, m.name, m.unit);
    }
    for (key, value) in &run.notes {
        println!("# {key}: {value}");
    }
    for (what, ok, detail) in &run.checks {
        println!("# {} {what} {detail}", if *ok { "ok  " } else { "FAIL" });
    }
    println!(
        "# {} operations attempted, {} failed, {} connections, {} answers compared",
        run.attempted, run.failed, run.connections, run.answers_compared
    );
    let result = result_json(&run, &metrics);
    if let Some(dir) = &args.out {
        match write_report(dir, &args, &run, &rec, &result) {
            Ok(path) => println!("# wrote {}", path.display()),
            Err(e) => {
                eprintln!("dnsimpact-benchmark: writing the report: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", result.compact());
    if run.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
