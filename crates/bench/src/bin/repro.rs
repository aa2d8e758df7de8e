//! The reproduction harness: regenerates every table and figure of the
//! paper's evaluation from the simulation, printing paper-style tables and
//! writing CSV series to `results/`.
//!
//! ```text
//! repro [--seed N] [--scale D] [--jobs N] [--out DIR]
//!       [--chaos-seed N] [--checkpoint-dir DIR]
//!       [--metrics-json PATH] [--metrics-summary]
//!       [--trace-json PATH] [EXPERIMENT...]
//! repro bench [same flags]
//! repro bench --scale-sweep [--out DIR] [same flags]
//! repro bench --trajectory [--out DIR]
//! repro explain EPISODE-ID [same flags]
//! repro validate-metrics FILE
//! repro validate-trace FILE
//!
//! EXPERIMENT ∈ { table1 table2 table3 table4 table5 table6
//!                fig2 fig3 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13
//!                russia futurework ablate all }      (default: all)
//! ```
//!
//! `--scale D` divides the paper's monthly attack volumes by `D`
//! (default 40; `--scale 1` reproduces the full 4M-attack feed).
//!
//! `--jobs N` sets the worker-thread count for the experiment scheduler
//! and the pipeline's parallel stages (default: available parallelism;
//! `--jobs 1` runs fully sequentially). The outputs are byte-identical
//! for any `--jobs` value — threads only change the wall clock, never
//! the CSVs.
//!
//! `--chaos-seed N` turns on deterministic fault injection: measurement
//! tasks and experiment jobs are crashed on a schedule derived from `N`
//! and recovered by the supervisor. The artifacts are byte-identical to a
//! run without the flag — chaos only exercises the recovery machinery.
//!
//! `--checkpoint-dir DIR` makes the run resumable: each experiment job
//! writes its artifacts atomically and then records a completion marker in
//! `DIR`. A killed run (even `kill -9` mid-write) re-invoked with the same
//! flags and checkpoint dir skips the completed jobs and finishes the
//! rest, leaving `--out` byte-identical to an uninterrupted run.
//!
//! `--metrics-json PATH` writes the machine-readable run report (schema
//! `dnsimpact-metrics/v2`: per-stage wall times, throughput counters,
//! gauges, latency histograms, peak RSS) after the run; the document is
//! schema-validated before it is written. `--metrics-summary` prints the
//! human version of the same report to stderr. Both are out-of-band:
//! metrics never influence artifact bytes or stdout.
//!
//! `--trace-json PATH` writes the run's causal event trace (attack onsets,
//! feed arrivals, joins, reactive triggers/probes, chaos faults/repairs,
//! stage brackets) as Chrome trace-event JSON, loadable in Perfetto or
//! `chrome://tracing`. Like the metrics report it is out-of-band: tracing
//! never influences artifact bytes or stdout.
//!
//! `repro bench` replays a fixed catalog subset at a pinned
//! seed/scale/chaos configuration and writes `results/BENCH_<date>.json`
//! in the same schema (CSVs go to a scratch directory). A second bench run
//! on the same date goes to `BENCH_<date>_run2.json` (and so on) instead
//! of clobbering the first; the report's `meta.run` carries the counter.
//! CI runs it and validates the report; `tests/metrics.rs` pins what this
//! configuration counts.
//!
//! `repro bench --scale-sweep` runs the pinned longitudinal pipeline over
//! the scale grid — target attack counts {1.5k, 15k}, plus 150k with
//! `DNSIMPACT_SCALE_HEAVY=1` and 1.5M with `DNSIMPACT_SCALE_HEAVY=2` —
//! each at jobs ∈ {1, N}, and writes a `dnsimpact-sweep/v1` report
//! (records/sec, wall, peak RSS, speedup-vs-jobs=1 per cell) to
//! `SWEEP_<date>[_runN].json` under `--out` (default `results/`). Every
//! jobs=N cell's artifacts are fingerprint-checked against its scale's
//! jobs=1 cell (on a single-CPU host an 8-thread cell still runs for this
//! check), and on a multi-CPU host the largest scale must show
//! speedup > 1 at jobs=N; either violation exits 1 without writing a
//! report.
//!
//! `repro explain EPISODE-ID` (e.g. `rsdos/3`, `milru/0`, or a bare index
//! meaning `rsdos/<idx>`) replays the experiments that cover the episode's
//! scope and prints the episode's causal timeline: onset → feed arrival →
//! join → trigger delay vs the 10-minute bound → probe rounds vs the
//! 50-domain budget → impact rows, plus the run's fault/repair tally. The
//! timeline is built from the trace's deterministic fields only, so it is
//! byte-identical for any `--jobs` value.
//!
//! `repro validate-metrics FILE` schema-validates a previously written
//! report, dispatching on the document's `schema` field: a
//! `dnsimpact-metrics/v2` run report additionally gets the cross-counter
//! invariant checks (fault accounting balances; reactive latency and
//! probe budgets hold), a `dnsimpact-sweep/v1` sweep report gets the
//! cell-grid checks (sorted, duplicate-free cells; finite floats), and a
//! `dnsimpactd-live/v2` telemetry report gets the delta conservation
//! check across its tick ring.
//! An unknown or missing schema id is rejected outright, naming the id
//! and the known schemas. Exit 1 on any violation — this is the CI
//! metrics gate.
//!
//! `repro validate-trace FILE` loads a `--trace-json` file back and checks
//! the causality invariants (triggers follow feed arrivals within bound,
//! fault repairs match injections, probe budgets hold). Exit 1 on any
//! violation — this is the CI trace gate.

use bench_support::sweep_report::SweepReport;
use bench_support::{
    needs_longitudinal, run_catalog_checkpointed, run_experiments, schemas, Artifact,
    CheckpointDir, ExperimentRun, Experiments, BENCH_CHAOS_SEED, BENCH_EXPERIMENTS, BENCH_SCALE,
    CATALOG,
};
use dnsimpact_core::report::{write_atomic, write_output, write_report};
use scenarios::{paper_longitudinal_config, PaperScale, WorldConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

struct Options {
    seed: u64,
    scale: u32,
    jobs: usize,
    out: PathBuf,
    chaos_seed: Option<u64>,
    checkpoint_dir: Option<PathBuf>,
    metrics_json: Option<PathBuf>,
    metrics_summary: bool,
    trace_json: Option<PathBuf>,
    bench: bool,
    /// `bench --scale-sweep`: run the scale×jobs grid instead of the
    /// experiment catalog and emit a `dnsimpact-sweep/v1` report.
    scale_sweep: bool,
    /// `bench --trajectory`: print the committed `BENCH_`/`SWEEP_`
    /// report series as a wall/RSS/throughput time series instead of
    /// running.
    trajectory: bool,
    /// Same-day bench run counter (1 for the first run of a date).
    run: u64,
    /// `explain EPISODE-ID`: print the episode's causal timeline.
    explain: Option<String>,
    experiments: Vec<String>,
}

/// Fatal usage/environment error: say what was wrong, in context, and
/// exit 2. The CLI surface never panics on bad input or failed I/O.
fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

/// The operand of `flag`, or a contextful usage error.
fn operand(args: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> String {
    args.next().unwrap_or_else(|| die(&format!("{flag} needs {what} (usage: {flag} {what})")))
}

/// Parse `value` as the numeric operand of `flag`.
fn num_operand<T: std::str::FromStr>(flag: &str, value: &str) -> T
where
    T::Err: std::fmt::Display,
{
    value.parse().unwrap_or_else(|e| die(&format!("{flag}: bad value {value:?}: {e}")))
}

fn parse_args() -> Options {
    let mut opts = Options {
        seed: 42,
        scale: 40,
        jobs: 0, // 0 = available parallelism
        out: PathBuf::from("results"),
        chaos_seed: None,
        checkpoint_dir: None,
        metrics_json: None,
        metrics_summary: false,
        trace_json: None,
        bench: false,
        scale_sweep: false,
        trajectory: false,
        run: 1,
        explain: None,
        experiments: Vec::new(),
    };
    let (mut scale_set, mut out_set) = (false, false);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => opts.seed = num_operand("--seed", &operand(&mut args, "--seed", "N")),
            "--scale" => {
                opts.scale = num_operand("--scale", &operand(&mut args, "--scale", "D"));
                scale_set = true;
            }
            "--jobs" => opts.jobs = num_operand("--jobs", &operand(&mut args, "--jobs", "N")),
            "--out" => {
                opts.out = PathBuf::from(operand(&mut args, "--out", "DIR"));
                out_set = true;
            }
            "--chaos-seed" => {
                opts.chaos_seed =
                    Some(num_operand("--chaos-seed", &operand(&mut args, "--chaos-seed", "N")))
            }
            "--checkpoint-dir" => {
                opts.checkpoint_dir =
                    Some(PathBuf::from(operand(&mut args, "--checkpoint-dir", "DIR")))
            }
            "--metrics-json" => {
                opts.metrics_json =
                    Some(PathBuf::from(operand(&mut args, "--metrics-json", "PATH")))
            }
            "--metrics-summary" => opts.metrics_summary = true,
            "--trace-json" => {
                opts.trace_json = Some(PathBuf::from(operand(&mut args, "--trace-json", "PATH")))
            }
            "bench" => opts.bench = true,
            "--scale-sweep" => opts.scale_sweep = true,
            "--trajectory" => opts.trajectory = true,
            "explain" => opts.explain = Some(operand(&mut args, "explain", "EPISODE-ID")),
            "validate-metrics" => {
                let file = PathBuf::from(operand(&mut args, "validate-metrics", "FILE"));
                std::process::exit(validate_metrics(&file));
            }
            "validate-trace" => {
                let file = PathBuf::from(operand(&mut args, "validate-trace", "FILE"));
                std::process::exit(validate_trace(&file));
            }
            "--help" | "-h" => {
                println!(
                    "repro [--seed N] [--scale D] [--jobs N] [--out DIR] \
                     [--chaos-seed N] [--checkpoint-dir DIR] \
                     [--metrics-json PATH] [--metrics-summary] \
                     [--trace-json PATH] [EXPERIMENT...]"
                );
                println!("repro bench                   replay the fixed bench subset,");
                println!("                              write results/BENCH_<date>[_runN].json");
                println!("repro bench --scale-sweep     scale x jobs throughput grid,");
                println!(
                    "                              write SWEEP_<date>[_runN].json under --out"
                );
                println!(
                    "                              (DNSIMPACT_SCALE_HEAVY=1|2 adds 150k/1.5M)"
                );
                println!("repro bench --trajectory      print the committed BENCH_/SWEEP_");
                println!(
                    "                              report series under --out (default results/)"
                );
                println!(
                    "                              as a wall / peak-RSS / records-per-sec time"
                );
                println!("                              series");
                println!("repro explain EPISODE-ID      print an episode's causal timeline");
                println!("                              (e.g. rsdos/3, milru/0, transip/1)");
                println!("repro validate-metrics FILE   schema + invariant check a report");
                println!("repro validate-trace FILE     causality-check a --trace-json file");
                println!("run `repro --list` for the experiment catalog");
                std::process::exit(0);
            }
            "--list" => {
                for (id, what) in CATALOG {
                    println!("{id:<12} {what}");
                }
                std::process::exit(0);
            }
            // A retired or misspelled flag must not read as an experiment
            // id: `bench` would run nothing and still write a report.
            other if other.starts_with('-') => {
                die(&format!("unknown flag {other:?} (run `repro --help`)"))
            }
            other => opts.experiments.push(other.to_string()),
        }
    }
    if opts.bench {
        // Pin the bench configuration; explicit flags still win.
        if !scale_set {
            opts.scale = BENCH_SCALE;
        }
        if opts.chaos_seed.is_none() {
            opts.chaos_seed = Some(BENCH_CHAOS_SEED);
        }
        if !out_set && !opts.scale_sweep && !opts.trajectory {
            // Bench CSVs are throwaway — keep them out of the committed
            // `results/` series. (Sweep mode instead writes its report
            // under `--out`, default `results/`; trajectory mode reads
            // the committed series from there.)
            opts.out = PathBuf::from("target/bench-out");
        }
        if opts.metrics_json.is_none() && !opts.scale_sweep && !opts.trajectory {
            // Same-day runs never clobber: the first run of a date owns
            // BENCH_<date>.json, later runs get a _runN suffix, and the
            // report's meta.run records which slot this was.
            let (run, path) = next_bench_slot(Path::new("results"), &obs::report::today_utc());
            opts.run = run;
            opts.metrics_json = Some(path);
        }
        opts.metrics_summary = true;
        if opts.experiments.is_empty() {
            opts.experiments = BENCH_EXPERIMENTS.iter().map(|e| e.to_string()).collect();
        }
    }
    if let Some(id) = &opts.explain {
        // Replay only the experiments that populate the episode's scope.
        let scope = obs::trace::parse_episode_id(id).map(|(s, _)| s).unwrap_or_default();
        opts.experiments = vec![match scope.as_str() {
            "milru" | "rdz" => "russia".to_string(),
            "transip" => "table2".to_string(),
            _ => "table1".to_string(), // any longitudinal id traces "rsdos"
        }];
    }
    if opts.experiments.is_empty() || opts.experiments.iter().any(|e| e == "all") {
        opts.experiments = CATALOG.iter().map(|(id, _)| id.to_string()).collect();
    }
    // A retired or misspelled id must not run an empty catalog that still
    // writes a report.
    if let Some(e) = opts.experiments.iter().find(|e| !CATALOG.iter().any(|(id, _)| id == e)) {
        die(&format!("unknown experiment {e:?} (run `repro --list`)"));
    }
    opts
}

/// Pick this bench run's report slot for `date`: run 1 owns
/// `BENCH_<date>.json`; if that (or a `_runN`) already exists, the next
/// free `BENCH_<date>_run<N>.json` is used instead.
fn next_bench_slot(dir: &Path, date: &str) -> (u64, PathBuf) {
    next_slot(dir, "BENCH", date)
}

/// Same-day slot logic shared by `BENCH_` and `SWEEP_` report series.
fn next_slot(dir: &Path, prefix: &str, date: &str) -> (u64, PathBuf) {
    let mut run = 1u64;
    loop {
        let path = slot_path(dir, prefix, date, run);
        if !path.exists() {
            return (run, path);
        }
        run += 1;
    }
}

fn slot_path(dir: &Path, prefix: &str, date: &str, run: u64) -> PathBuf {
    if run <= 1 {
        dir.join(format!("{prefix}_{date}.json"))
    } else {
        dir.join(format!("{prefix}_{date}_run{run}.json"))
    }
}

/// The `validate-metrics` subcommand: validate a previously written
/// report under the schema its `schema` field names — one row of
/// [`bench_support::schemas::REPORT_SCHEMAS`], which holds each schema's decoder
/// (shape, cross-field rules and, for run reports, the counter
/// invariants) and its one-line summary. A document whose schema is
/// missing or matches no row is rejected (exit 2) with the unknown id
/// and the known schema list — a typo'd or future schema must never
/// silently fall through to the wrong validator. Returns the process
/// exit code.
fn validate_metrics(path: &Path) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            obs::progress("repro", &format!("cannot read {}: {e}", path.display()));
            return 2;
        }
    };
    let doc = match obs::Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            obs::progress("repro", &format!("{} is not valid JSON: {e}", path.display()));
            return 2;
        }
    };
    let Some(schema) = schemas::lookup(&doc) else {
        // `validate` on an unknown id says which id and lists the known ones.
        let unknown = schemas::validate(&doc).err().unwrap_or_default().join("; ");
        obs::progress("repro", &format!("{}: unknown schema: {unknown}", path.display()));
        return 2;
    };
    match (schema.validate)(&doc) {
        Ok(()) => {
            obs::progress(
                "repro",
                &format!(
                    "{} is a valid {} report ({})",
                    path.display(),
                    schema.id,
                    (schema.summary)(&doc)
                ),
            );
            0
        }
        Err(errors) => {
            for e in &errors {
                obs::progress("repro", &format!("{} violation: {e}", schema.id));
            }
            obs::progress("repro", &format!("{}: {} violation(s)", path.display(), errors.len()));
            1
        }
    }
}

/// The `validate-trace` subcommand: load a `--trace-json` file back from
/// its Chrome trace-event form and check the causality invariants. Returns
/// the process exit code.
fn validate_trace(path: &Path) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            obs::progress("repro", &format!("cannot read {}: {e}", path.display()));
            return 2;
        }
    };
    let doc = match obs::Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            obs::progress("repro", &format!("{} is not valid JSON: {e}", path.display()));
            return 2;
        }
    };
    let events = match obs::trace::from_chrome_json(&doc) {
        Ok(ev) => ev,
        Err(errors) => {
            for e in &errors {
                obs::progress("repro", &format!("trace schema violation: {e}"));
            }
            return 2;
        }
    };
    let errors = obs::trace::check_causality(&events);
    if errors.is_empty() {
        let episodes = obs::trace::available_episodes(&events);
        obs::progress(
            "repro",
            &format!(
                "{} is a valid trace ({} events, {} episode scope(s)); causality holds",
                path.display(),
                events.len(),
                episodes.len(),
            ),
        );
        0
    } else {
        for e in &errors {
            obs::progress("repro", &format!("causality violation: {e}"));
        }
        obs::progress("repro", &format!("{}: {} violation(s)", path.display(), errors.len()));
        1
    }
}

/// Every report `repro` writes goes through here: `write_report`
/// validates the report as its own type and refuses an invalid one, so a
/// broken report never reaches disk silently. False (after saying why on
/// stderr) when nothing was written.
fn emit_report<R: obs::schema::Report>(kind: &str, report: &R, path: &Path) -> bool {
    match write_report(path, report) {
        Ok(()) => {
            obs::progress("repro", &format!("{kind} report written to {}", path.display()));
            true
        }
        Err(e) => {
            obs::progress("repro", &format!("cannot write {kind} report {}: {e}", path.display()));
            false
        }
    }
}

fn index_line(a: &Artifact) -> String {
    format!("- `{}.csv` — {}\n", a.id, a.title)
}

const INDEX_HEADER: &str = "# results index\n\nCSV series produced by the `repro` harness.\n\n";

/// Rebuild `INDEX.md` deterministically: header, then any pre-existing
/// lines this run did not produce (earlier runs with other experiment
/// subsets), then this run's lines in canonical order. Atomic, so a kill
/// never leaves a truncated index.
fn rebuild_index(out: &std::path::Path, ours: &[String]) {
    let index = out.join("INDEX.md");
    let foreign: Vec<String> = std::fs::read_to_string(&index)
        .map(|s| {
            s.lines()
                .map(|l| format!("{l}\n"))
                .filter(|l| l.starts_with("- ") && !ours.contains(l))
                .collect()
        })
        .unwrap_or_default();
    let mut content = String::from(INDEX_HEADER);
    for l in foreign.iter().chain(ours) {
        content.push_str(l);
    }
    if std::fs::create_dir_all(out).is_ok() {
        let _ = write_atomic(&index, &content);
    }
}

/// Build the schema-`v2` run report from this run's identity, stage
/// timings, the global metrics registry, and the trace summary.
fn build_report(
    opts: &Options,
    jobs: usize,
    timings: &[(String, Duration)],
    total_wall: Duration,
) -> obs::RunReport {
    obs::RunReport {
        meta: obs::RunMeta {
            seed: opts.seed,
            scale: u64::from(opts.scale),
            jobs: jobs as u64,
            run: opts.run,
            chaos_seed: opts.chaos_seed,
            bench: opts.bench,
            date: obs::report::today_utc(),
            experiments: opts.experiments.clone(),
        },
        total_wall_ms: total_wall.as_millis() as u64,
        peak_rss_kb: obs::rss::peak_rss_kb(),
        stages: timings
            .iter()
            .map(|(name, wall)| obs::StageWall {
                name: name.clone(),
                wall_ms: wall.as_millis() as u64,
            })
            .collect(),
        metrics: obs::registry().snapshot(),
        trace: obs::trace::summary(),
    }
}

fn main() {
    let opts = parse_args();
    if opts.trajectory {
        std::process::exit(run_trajectory_cmd(&opts));
    }
    if opts.scale_sweep {
        std::process::exit(run_scale_sweep_cmd(&opts));
    }
    let experiments = &opts.experiments;
    let jobs = streamproc::effective_jobs(opts.jobs);
    let total = Instant::now();
    let ckpt = opts.checkpoint_dir.as_ref().map(|d| {
        CheckpointDir::new(d)
            .unwrap_or_else(|e| die(&format!("cannot create checkpoint dir {}: {e}", d.display())))
    });

    // Stage 1: the shared longitudinal pipeline, if any requested
    // experiment renders from it.
    let mut timings: Vec<(String, Duration)> = Vec::new();
    let ex: Option<Experiments> = experiments.iter().any(|e| needs_longitudinal(e)).then(|| {
        obs::progress(
            "repro",
            &format!(
                "running longitudinal pipeline (seed {}, scale 1/{}, jobs {jobs}{}) ...",
                opts.seed,
                opts.scale,
                opts.chaos_seed.map(|c| format!(", chaos {c}")).unwrap_or_default(),
            ),
        );
        let _span = obs::span("longitudinal");
        let start = Instant::now();
        let ex = run_experiments(
            opts.seed,
            paper_longitudinal_config(PaperScale { divisor: opts.scale }),
            &WorldConfig::default(),
            opts.jobs,
            opts.chaos_seed,
        );
        timings.push(("longitudinal pipeline".into(), start.elapsed()));
        ex
    });

    // Stage 2: schedule the experiments across the worker pool, each job
    // supervised (and crashed on schedule under --chaos-seed). Artifacts
    // are persisted from the worker as each job completes — atomically,
    // then checkpoint-marked — so a killed run keeps its finished jobs.
    let fault = opts.chaos_seed.map(|cs| {
        streamproc::FaultPlan::from_seed(
            cs,
            "experiment-catalog",
            streamproc::ChaosConfig::CALIBRATED,
        )
    });
    let out_dir = opts.out.clone();
    let ckpt_ref = ckpt.as_ref();
    let persist = |run: &ExperimentRun| {
        let mut lines = Vec::new();
        for a in &run.artifacts {
            write_output(&out_dir, &format!("{}.csv", a.id), &a.csv).unwrap_or_else(|e| {
                die(&format!("cannot write {}.csv under {}: {e}", a.id, out_dir.display()))
            });
            lines.push(index_line(a));
        }
        if let Some(c) = ckpt_ref {
            c.mark_done(&run.id, &lines).unwrap_or_else(|e| {
                die(&format!("cannot write checkpoint marker for {}: {e}", run.id))
            });
            obs::trace::emit(
                obs::EventKind::CheckpointWritten,
                &run.id,
                None,
                None,
                "completion marker",
                Some(run.artifacts.len() as u64),
            );
        }
    };
    let catalog_start = Instant::now();
    let (runs, chaos_stats) = {
        let _span = obs::span("catalog");
        run_catalog_checkpointed(
            ex.as_ref(),
            opts.seed,
            experiments,
            opts.jobs,
            fault.as_ref(),
            ckpt_ref,
            &persist,
        )
    };
    timings.push(("experiment catalog".into(), catalog_start.elapsed()));

    // Stage 3: stdout in canonical order, then the results index. Under
    // `bench` and `explain` the artifact text is suppressed — the report
    // (or the episode timeline) is the product.
    let quiet = opts.bench || opts.explain.is_some();
    let _span_emit = obs::span("emit");
    let mut index_lines: Vec<String> = Vec::new();
    for run in &runs {
        if run.resumed {
            obs::progress("repro", &format!("{} already complete (checkpoint); skipped", run.id));
            if let Some(c) = ckpt_ref {
                index_lines.extend(c.done_index_lines(&run.id));
            }
        } else {
            for a in &run.artifacts {
                if !quiet {
                    println!("=== {} ===\n{}\n", a.title, a.text);
                }
                index_lines.push(index_line(a));
            }
        }
        timings.push((run.id.clone(), run.wall));
    }
    rebuild_index(&opts.out, &index_lines);
    drop(_span_emit);

    // Stage timing summary (stderr only, via obs — stdout stays reserved
    // for artifact text so the CI determinism diff is never polluted).
    obs::progress("repro", &format!("stage timings (jobs={jobs}):"));
    for (stage, wall) in &timings {
        obs::progress("repro", &format!("  {stage:<24} {wall:>8.2?}"));
    }
    obs::progress("repro", &format!("  {:<24} {:>8.2?} wall", "total", total.elapsed()));
    if let Some(cs) = opts.chaos_seed {
        obs::progress(
            "repro",
            &format!(
                "chaos (seed {cs}): {} injected crash(es) recovered, {} ms backoff",
                chaos_stats.restarts, chaos_stats.backoff_ms
            ),
        );
    }
    obs::progress("repro", &format!("CSV series written to {}", opts.out.display()));

    // The causal event trace: exported as Chrome trace-event JSON for
    // Perfetto / chrome://tracing. Read-only like the metrics report.
    if let Some(path) = &opts.trace_json {
        let events = obs::trace::snapshot();
        let mut text = obs::trace::to_chrome_json(&events).pretty();
        text.push('\n');
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).unwrap_or_else(|e| {
                    die(&format!("cannot create trace dir {}: {e}", parent.display()))
                });
            }
        }
        write_atomic(path, &text)
            .unwrap_or_else(|e| die(&format!("cannot write trace {}: {e}", path.display())));
        obs::progress(
            "repro",
            &format!("trace ({} events) written to {}", events.len(), path.display()),
        );
    }

    // The run report: built from the registry snapshot after all stages,
    // validated, then written/printed. Strictly read-only with respect to
    // the pipeline — artifacts and stdout above are already final.
    if opts.metrics_json.is_some() || opts.metrics_summary {
        let report = build_report(&opts, jobs, &timings, total.elapsed());
        if let Some(path) = &opts.metrics_json {
            if !emit_report("metrics", &report, path) {
                std::process::exit(1);
            }
        }
        if opts.metrics_summary {
            eprint!("{}", report.summary_table());
        }
    }

    // `explain`: print the requested episode's causal timeline to stdout
    // (the only stdout this mode produces).
    if let Some(id) = &opts.explain {
        let events = obs::trace::snapshot();
        let timeline = obs::trace::parse_episode_id(id)
            .and_then(|(scope, idx)| obs::trace::explain(&events, &scope, idx));
        match timeline {
            Some(text) => print!("{text}"),
            None => {
                obs::progress("repro", &format!("episode '{id}' not found in this run's trace"));
                obs::progress("repro", "episodes available (scope: events, max index):");
                for (scope, n, max) in obs::trace::available_episodes(&events) {
                    obs::progress("repro", &format!("  {scope}: {n} event(s), ids 0..={max}"));
                }
                std::process::exit(1);
            }
        }
    }
}

/// One report in a committed `BENCH_`/`SWEEP_` series: the slot filename
/// plus the parsed document.
struct SeriesReport {
    name: String,
    doc: obs::Json,
}

impl SeriesReport {
    /// The typed report, or a trajectory row saying why this file is
    /// skipped — one invalid historical report must not hide the rest.
    fn decoded<T>(&self, report: Result<T, Vec<String>>) -> Option<T> {
        if let Err(errors) = &report {
            println!("  {:<28} ({}; skipped)", self.name, errors.join("; "));
        }
        report.ok()
    }
}

/// Parse `PREFIX_<date>[_run<N>].json` back into its `(date, run)` slot
/// key — the inverse of `slot_path` (run 1 owns the suffix-less name).
/// `None` when the filename is not part of this report series.
fn parse_slot_name(name: &str, prefix: &str) -> Option<(String, u64)> {
    let stem = name.strip_prefix(prefix)?.strip_prefix('_')?.strip_suffix(".json")?;
    Some(match stem.split_once("_run") {
        Some((date, n)) => (date.to_string(), n.parse().unwrap_or(0)),
        None => (stem.to_string(), 1),
    })
}

/// Every `<prefix>_<date>[_run<N>].json` under `dir`, parsed and ordered
/// by `(date, same-day run)`. Unreadable or non-JSON files are reported
/// and skipped, not fatal — one corrupt historical report must not hide
/// the rest of the series.
fn collect_report_series(dir: &Path, prefix: &str) -> Vec<SeriesReport> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    let mut found: Vec<((String, u64), SeriesReport)> = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(key) = parse_slot_name(&name, prefix) else { continue };
        let path = entry.path();
        let doc = match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|t| obs::Json::parse(&t).map_err(|e| e.to_string()))
        {
            Ok(d) => d,
            Err(e) => {
                obs::progress("repro", &format!("trajectory: skipping {}: {e}", path.display()));
                continue;
            }
        };
        found.push((key, SeriesReport { name, doc }));
    }
    found.sort_by(|a, b| a.0.cmp(&b.0));
    found.into_iter().map(|(_, r)| r).collect()
}

/// Percent change of `cur` against a previous value, or `-` when there is
/// no meaningful baseline.
fn pct_change(cur: f64, prev: f64) -> String {
    if prev > 0.0 {
        format!("{:+.1}%", (cur - prev) / prev * 100.0)
    } else {
        "-".to_string()
    }
}

/// `bench --trajectory`: the committed report series as a time series.
/// Reads every `BENCH_*.json` and `SWEEP_*.json` under
/// `--out` (default `results/`), orders them by `(date, same-day run)`
/// parsed from the slot filename, and prints wall-clock, peak RSS, and
/// records-per-second across runs — how the harness's performance moved
/// over the repo's history. Returns the process exit code.
fn run_trajectory_cmd(opts: &Options) -> i32 {
    if !opts.bench {
        obs::progress("repro", "--trajectory is a bench mode: run `repro bench --trajectory`");
        return 2;
    }
    let dir = &opts.out;
    let benches = collect_report_series(dir, "BENCH");
    let sweeps = collect_report_series(dir, "SWEEP");
    if benches.is_empty() && sweeps.is_empty() {
        obs::progress(
            "repro",
            &format!("no BENCH_*.json or SWEEP_*.json reports under {}", dir.display()),
        );
        return 2;
    }
    if !benches.is_empty() {
        println!("bench trajectory ({} report(s) under {}):", benches.len(), dir.display());
        println!(
            "  {:<28} {:>7} {:>5} {:>10} {:>8} {:>12} {:>8}",
            "report", "scale", "jobs", "wall_ms", "dwall", "peak_rss_kb", "drss"
        );
        let mut prev: Option<(f64, f64)> = None;
        for r in &benches {
            let Some(b) = r.decoded(obs::RunReport::from_json(&r.doc)) else { continue };
            let (wall, rss) = (b.total_wall_ms as f64, b.peak_rss_kb as f64);
            let (dwall, drss) = match prev {
                Some((pw, pr)) => (pct_change(wall, pw), pct_change(rss, pr)),
                None => ("-".to_string(), "-".to_string()),
            };
            println!(
                "  {:<28} {:>7} {:>5} {:>10.1} {:>8} {:>12.0} {:>8}",
                r.name, b.meta.scale, b.meta.jobs, wall, dwall, rss, drss,
            );
            prev = Some((wall, rss));
        }
    }
    if !sweeps.is_empty() {
        if !benches.is_empty() {
            println!();
        }
        println!(
            "sweep trajectory ({} report(s) under {}; one row per scale x jobs cell):",
            sweeps.len(),
            dir.display()
        );
        println!(
            "  {:<28} {:>9} {:>5} {:>10} {:>12} {:>13} {:>8}",
            "report", "scale", "jobs", "wall_ms", "peak_rss_kb", "records/s", "dthru"
        );
        // Throughput deltas compare each cell against the same
        // (scale, jobs) cell of the previous report that had one.
        let mut prev: std::collections::HashMap<(u64, u64), f64> = std::collections::HashMap::new();
        for r in &sweeps {
            let Some(report) = r.decoded(SweepReport::from_json(&r.doc)) else { continue };
            for c in &report.cells {
                let key = (c.scale, c.jobs);
                let dthru =
                    prev.get(&key).map_or("-".to_string(), |p| pct_change(c.records_per_sec, *p));
                println!(
                    "  {:<28} {:>9} {:>5} {:>10.1} {:>12.0} {:>13.0} {:>8}",
                    r.name,
                    c.scale,
                    c.jobs,
                    c.wall_ms as f64,
                    c.peak_rss_kb as f64,
                    c.records_per_sec,
                    dthru
                );
                prev.insert(key, c.records_per_sec);
            }
        }
    }
    0
}

/// `bench --scale-sweep`: run the scale×jobs grid, check the cross-jobs
/// fingerprints and the largest-scale speedup, and emit the validated
/// `dnsimpact-sweep/v1` report. Returns the process exit code.
fn run_scale_sweep_cmd(opts: &Options) -> i32 {
    if !opts.bench {
        obs::progress("repro", "--scale-sweep is a bench mode: run `repro bench --scale-sweep`");
        return 2;
    }
    let heavy = bench_support::sweep::heavy_level();
    let mut scales: Vec<u64> = vec![1_500, 15_000];
    if heavy >= 1 {
        scales.push(150_000);
    }
    if heavy >= 2 {
        scales.push(1_500_000);
    }
    // jobs=N: the machine's parallelism when it has any; on a single-CPU
    // host fall back to an 8-thread cell — no speedup to measure there,
    // but the sharded path and its cross-jobs fingerprint check still run
    // with real thread interleaving.
    let parallelism = streamproc::effective_jobs(opts.jobs);
    let jobs_n = if parallelism > 1 { parallelism } else { 8 };
    let jobs = vec![1, jobs_n];
    obs::progress(
        "repro",
        &format!(
            "scale sweep: scales {scales:?} x jobs {jobs:?} (seed {}, chaos {}, heavy {heavy})",
            opts.seed,
            opts.chaos_seed.map_or("off".to_string(), |c| c.to_string()),
        ),
    );
    let cfg = bench_support::SweepConfig {
        seed: opts.seed,
        chaos_seed: opts.chaos_seed,
        scales,
        jobs,
        world_cfg: WorldConfig::default(),
        heavy,
    };
    let report = match bench_support::run_scale_sweep(&cfg) {
        Ok(r) => r,
        Err(e) => {
            obs::progress("repro", &format!("scale sweep failed: {e}"));
            return 1;
        }
    };
    // Speedup sanity: the largest scale is where parallelism must pay —
    // a jobs=N cell no faster than jobs=1 there means the hot path
    // regressed to sequential. Only meaningful where the machine has
    // real parallelism; a 1-CPU host can't speed anything up.
    if let Some(last) = report.cells.last() {
        if parallelism > 1 && last.jobs > 1 && last.speedup_vs_jobs1 <= 1.0 {
            obs::progress(
                "repro",
                &format!(
                    "scale sweep: no speedup at scale {} jobs {} ({:.2}x <= 1.00x)",
                    last.scale, last.jobs, last.speedup_vs_jobs1
                ),
            );
            return 1;
        }
    }
    let (_, path) = next_slot(&opts.out, "SWEEP", &obs::report::today_utc());
    if !emit_report("sweep", &report, &path) {
        return 1;
    }
    eprint!("{}", report.summary_table());
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_names_parse_back_to_their_keys() {
        assert_eq!(
            parse_slot_name("BENCH_2026-08-05.json", "BENCH"),
            Some(("2026-08-05".to_string(), 1))
        );
        assert_eq!(
            parse_slot_name("BENCH_2026-08-05_run3.json", "BENCH"),
            Some(("2026-08-05".to_string(), 3))
        );
        assert_eq!(parse_slot_name("SWEEP_2026-08-08.json", "BENCH"), None);
        assert_eq!(parse_slot_name("BENCH_2026-08-05.json.bak", "BENCH"), None);
        assert_eq!(parse_slot_name("BENCHMARK_2026-08-05.json", "BENCH"), None);
        assert_eq!(
            parse_slot_name("SWEEP_2026-08-08.json", "SWEEP"),
            Some(("2026-08-08".to_string(), 1))
        );
        assert_eq!(
            parse_slot_name("SWEEP_2026-08-08_run2.json", "SWEEP"),
            Some(("2026-08-08".to_string(), 2))
        );
    }

    #[test]
    fn slot_name_parser_survives_hostile_names() {
        // No underscore after the prefix, no .json suffix, empty stem,
        // prefix alone — all rejected rather than panicking.
        assert_eq!(parse_slot_name("SWEEP", "SWEEP"), None);
        assert_eq!(parse_slot_name("SWEEP_", "SWEEP"), None);
        assert_eq!(parse_slot_name("SWEEP.json", "SWEEP"), None);
        assert_eq!(parse_slot_name("SWEEP2026-08-08.json", "SWEEP"), None);
        assert_eq!(parse_slot_name("", "SWEEP"), None);
        // An empty date stem parses (the series collector just orders
        // it first); a malformed run counter falls back to 0 so the file
        // still sorts ahead of the real run-1 slot instead of vanishing.
        assert_eq!(parse_slot_name("SWEEP_.json", "SWEEP"), Some((String::new(), 1)));
        assert_eq!(
            parse_slot_name("SWEEP_2026-08-08_runX.json", "SWEEP"),
            Some(("2026-08-08".to_string(), 0))
        );
    }

    #[test]
    fn slot_names_round_trip_with_the_writer() {
        for run in [1u64, 2, 7, 12] {
            let path = slot_path(Path::new("results"), "SWEEP", "2026-08-08", run);
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            assert_eq!(parse_slot_name(&name, "SWEEP"), Some(("2026-08-08".to_string(), run)));
        }
    }

    #[test]
    fn report_series_orders_by_date_then_same_day_run() {
        let dir =
            std::env::temp_dir().join(format!("repro-trajectory-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, wall: u32| {
            std::fs::write(
                dir.join(name),
                format!("{{\"total_wall_ms\": {wall}, \"peak_rss_kb\": 1}}"),
            )
            .unwrap();
        };
        write("BENCH_2026-08-08.json", 3);
        write("BENCH_2026-08-05_run2.json", 2);
        write("BENCH_2026-08-05.json", 1);
        std::fs::write(dir.join("BENCH_2026-08-06.json"), "not json").unwrap();
        std::fs::write(dir.join("SWEEP_2026-08-05.json"), "{}").unwrap();
        let series = collect_report_series(&dir, "BENCH");
        let names: Vec<&str> = series.iter().map(|r| r.name.as_str()).collect();
        // The corrupt 2026-08-06 report is skipped; the rest sort by
        // (date, run), with same-day runs after the suffix-less run 1.
        assert_eq!(
            names,
            ["BENCH_2026-08-05.json", "BENCH_2026-08-05_run2.json", "BENCH_2026-08-08.json"]
        );
        let walls: Vec<u64> = series
            .iter()
            .map(|r| r.doc.get("total_wall_ms").and_then(|v| v.as_u64()).unwrap())
            .collect();
        assert_eq!(walls, [1, 2, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
