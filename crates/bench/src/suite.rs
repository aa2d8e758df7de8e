//! The `repro bench --suite` runner: the release-built binaries run as
//! OS processes and held to exact agreement (DESIGN §14).
//!
//! Unlike `bench --compare` (one pinned in-process run) this orchestrator
//! spawns `repro` — and `dnsimpactd` for the serving cell — as OS
//! processes, so what gets checked is what ships: binary startup, the
//! metrics-report write path, checkpoint I/O, real process RSS.
//!
//! Suite A is the pinned bench catalog across a {scale × jobs} grid, one
//! process per cell, plus a clean and a chaos-seeded
//! `dnsimpactd --bench-oneshot` ingest. Every cell's deterministic state
//! is fingerprinted and cells that must agree (same scale across jobs;
//! daemon clean vs chaos-recovered) are compared *exactly* — no envelopes.
//!
//! Each child's report is read back through the schema types
//! ([`obs::RunReport::from_json`], the daemon's one-line JSON), so a
//! malformed child report fails the suite rather than skewing it. The
//! result is a `dnsimpact-suite/v2` report ([`obs::SuiteReport`]) whose
//! verdict table names every enforced check.

use obs::suite::{SuiteACell, Verdict};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// One suite run: identity plus the scratch directory child processes
/// write their reports and throwaway CSVs into.
pub struct SuiteRunConfig {
    pub seed: u64,
    pub scratch: PathBuf,
}

/// Suite A scale grid: `--scale` divisors of the paper catalog. 1500 is
/// the pinned bench configuration; 750 doubles the data volume.
const SUITE_A_SCALES: [u32; 2] = [750, 1_500];
/// Suite A worker grid per scale — fingerprints must agree across it.
const SUITE_A_JOBS: [u32; 2] = [1, 2];
/// The daemon serving cell's pinned feed (mirrors the CI daemon gate).
const DAEMON_FEED: [&str; 10] = [
    "--seed",
    "7",
    "--scale-target",
    "1500",
    "--months",
    "2",
    "--providers",
    "20",
    "--domains",
    "6000",
];
/// Chaos seed for the daemon's faulted Suite A cell.
const DAEMON_CHAOS_SEED: u64 = 3;

/// Fingerprint a child run's deterministic metric state: counters,
/// gauges, and histogram shapes outside the `time.`/`sched.` namespaces.
/// For a fixed seed/scale/experiment set this is a pure function of the
/// pipeline, so equal fingerprints across processes mean the processes
/// computed identical results.
fn fingerprint_deterministic(report: &obs::RunReport) -> String {
    use std::fmt::Write as _;
    let mut w = simcore::hash::FnvWriter::new();
    let _ = write!(w, "{:?}", report.metrics.deterministic());
    format!("{:#018x}", w.finish())
}

/// Locate a sibling release binary of the running `repro` (the suite is
/// spawned *by* `repro`, so its own path anchors the lookup). Named
/// errors up front — a missing binary must read as "build it", never as
/// a mid-suite mystery failure.
fn sibling_binary(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let dir = exe
        .parent()
        .ok_or_else(|| format!("own binary {} has no parent directory", exe.display()))?;
    let path = dir.join(name);
    if path.exists() {
        Ok(path)
    } else {
        Err(format!(
            "missing binary {} (expected next to {}); run `cargo build --release` first",
            path.display(),
            exe.display()
        ))
    }
}

/// Last `n` lines of a child's stderr, for failure detail.
fn stderr_tail(stderr: &[u8], n: usize) -> String {
    let text = String::from_utf8_lossy(stderr);
    let lines: Vec<&str> = text.lines().collect();
    let start = lines.len().saturating_sub(n);
    lines[start..].join("\n")
}

/// Spawn one child process and wait, returning (parent-measured wall ms,
/// stdout). A non-zero exit fails the suite with the cell name and the
/// stderr tail — a crashed cell must never be summarized around.
fn run_child(cell: &str, bin: &Path, args: &[String]) -> Result<(u64, Vec<u8>), String> {
    let start = Instant::now();
    let out = Command::new(bin)
        .args(args)
        .output()
        .map_err(|e| format!("cell {cell}: cannot spawn {}: {e}", bin.display()))?;
    let wall_ms = start.elapsed().as_millis() as u64;
    if !out.status.success() {
        return Err(format!(
            "cell {cell}: {} exited with {}; stderr tail:\n{}",
            bin.display(),
            out.status,
            stderr_tail(&out.stderr, 15)
        ));
    }
    Ok((wall_ms, out.stdout))
}

/// One measured child `repro bench` run.
struct ReproCell {
    wall_ms: u64,
    report: obs::RunReport,
}

/// Spawn `repro bench` at (scale, jobs) and read its metrics report back.
/// The report and CSVs go to `scratch` — explicit `--metrics-json`/`--out`
/// keep the child away from the committed `results/` series.
fn run_repro_cell(
    cell: &str,
    repro: &Path,
    cfg: &SuiteRunConfig,
    scale: u32,
    jobs: u32,
) -> Result<ReproCell, String> {
    let slug = cell.replace('/', "_");
    let report_path = cfg.scratch.join(format!("{slug}.json"));
    let out_dir = cfg.scratch.join(format!("{slug}.out"));
    let args: Vec<String> = vec![
        "bench".into(),
        "--seed".into(),
        cfg.seed.to_string(),
        "--scale".into(),
        scale.to_string(),
        "--jobs".into(),
        jobs.to_string(),
        "--metrics-json".into(),
        report_path.display().to_string(),
        "--out".into(),
        out_dir.display().to_string(),
    ];
    let (wall_ms, _stdout) = run_child(cell, repro, &args)?;
    let text = std::fs::read_to_string(&report_path).map_err(|e| {
        format!("cell {cell}: child wrote no report at {}: {e}", report_path.display())
    })?;
    let doc = obs::Json::parse(&text)
        .map_err(|e| format!("cell {cell}: child report is not JSON: {e}"))?;
    let report = obs::RunReport::from_json(&doc)
        .map_err(|errors| format!("cell {cell}: invalid child report: {}", errors.join("; ")))?;
    Ok(ReproCell { wall_ms, report })
}

/// Total records a child run processed, from its deterministic counters —
/// the same accounting the scale sweep uses (episodes into the join,
/// joined rows, OpenINTEL measurements).
fn records_of(report: &obs::RunReport) -> u64 {
    let c = |name: &str| report.metrics.counters.get(name).copied().unwrap_or(0);
    c("join.episodes_in") + c("join.rows_joined") + c("openintel.records_measured")
}

fn records_per_sec(records: u64, wall_ms: u64) -> f64 {
    records as f64 * 1_000.0 / wall_ms.max(1) as f64
}

/// One measured `dnsimpactd serve --bench-oneshot` run, parsed from the
/// single JSON line the child prints.
struct DaemonCell {
    wall_ms: u64,
    records: u64,
    peak_rss_kb: u64,
    full_fp: String,
}

fn run_daemon_cell(
    cell: &str,
    daemon: &Path,
    chaos_seed: Option<u64>,
) -> Result<DaemonCell, String> {
    let mut args: Vec<String> = vec!["serve".into()];
    args.extend(DAEMON_FEED.iter().map(|s| s.to_string()));
    args.push("--bench-oneshot".into());
    if let Some(cs) = chaos_seed {
        args.push("--chaos-seed".into());
        args.push(cs.to_string());
    }
    let (wall_ms, stdout) = run_child(cell, daemon, &args)?;
    let text = String::from_utf8_lossy(&stdout);
    let line = text
        .lines()
        .last()
        .ok_or_else(|| format!("cell {cell}: daemon printed no oneshot line"))?;
    let doc = obs::Json::parse(line)
        .map_err(|e| format!("cell {cell}: daemon oneshot line is not JSON: {e}"))?;
    if doc.get("schema").and_then(|s| s.as_str()) != Some("dnsimpactd-oneshot/v1") {
        return Err(format!("cell {cell}: oneshot line has wrong schema: {line}"));
    }
    let u = |key: &str| {
        doc.get(key)
            .and_then(obs::Json::as_u64)
            .ok_or_else(|| format!("cell {cell}: oneshot line missing u64 field {key:?}"))
    };
    Ok(DaemonCell {
        wall_ms,
        records: u("records")?,
        peak_rss_kb: u("peak_rss_kb")?,
        full_fp: doc
            .get("full_fp")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("cell {cell}: oneshot line missing full_fp"))?
            .to_string(),
    })
}

/// The exact-agreement verdict over one group of cells: passes iff every
/// `(label, fingerprint)` carries the first one's fingerprint.
fn agreement(cell: String, what: &str, fps: &[(String, String)]) -> Verdict {
    let (first_label, first_fp) = &fps[0];
    let disagree: Vec<String> = fps
        .iter()
        .filter(|(_, fp)| fp != first_fp)
        .map(|(label, fp)| format!("{label}={fp}"))
        .collect();
    let labels: Vec<&str> = fps.iter().map(|(label, _)| label.as_str()).collect();
    Verdict {
        cell,
        pass: disagree.is_empty(),
        detail: if disagree.is_empty() {
            format!("{what} {first_fp} identical across {}", labels.join(", "))
        } else {
            format!("{what} diverges from {first_label}={first_fp}: {}", disagree.join(", "))
        },
    }
}

/// Run Suite A and assemble the `dnsimpact-suite/v2` report. I/O and child
/// failures are errors (no report); semantic check results land in the
/// report's verdict table, so a regression names its cell.
pub fn run_suite(cfg: &SuiteRunConfig) -> Result<obs::SuiteReport, String> {
    let repro = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    // Preflight every binary the suite needs before spawning anything.
    let daemon = sibling_binary("dnsimpactd")?;
    std::fs::create_dir_all(&cfg.scratch)
        .map_err(|e| format!("cannot create scratch dir {}: {e}", cfg.scratch.display()))?;

    let mut suite_a = Vec::new();
    let mut verdicts = Vec::new();

    for &scale in &SUITE_A_SCALES {
        let mut fps: Vec<(String, String)> = Vec::new();
        for &jobs in &SUITE_A_JOBS {
            let cell = format!("A/repro/scale{scale}/jobs{jobs}");
            obs::progress("suite", &format!("spawning {cell}"));
            let run = run_repro_cell(&cell, &repro, cfg, scale, jobs)?;
            let records = records_of(&run.report);
            let fp = fingerprint_deterministic(&run.report);
            fps.push((format!("jobs{jobs}"), fp.clone()));
            suite_a.push(SuiteACell {
                cell,
                kind: "repro".into(),
                scale: u64::from(scale),
                jobs: u64::from(jobs),
                wall_ms: run.wall_ms,
                peak_rss_kb: run.report.peak_rss_kb,
                records,
                records_per_sec: records_per_sec(records, run.wall_ms),
                fingerprint: fp,
            });
        }
        verdicts.push(agreement(
            format!("A/repro/scale{scale}"),
            "deterministic fingerprint",
            &fps,
        ));
    }

    let mut daemon_fps: Vec<(String, String)> = Vec::new();
    for (label, chaos) in [
        ("clean".to_string(), None),
        (format!("chaos{DAEMON_CHAOS_SEED}"), Some(DAEMON_CHAOS_SEED)),
    ] {
        let cell = format!("A/daemon/{label}");
        obs::progress("suite", &format!("spawning {cell}"));
        let run = run_daemon_cell(&cell, &daemon, chaos)?;
        daemon_fps.push((label, run.full_fp.clone()));
        suite_a.push(SuiteACell {
            cell,
            kind: "daemon".into(),
            scale: 1_500,
            jobs: 2, // the daemon's default ingest worker count
            wall_ms: run.wall_ms,
            peak_rss_kb: run.peak_rss_kb,
            records: run.records,
            records_per_sec: records_per_sec(run.records, run.wall_ms),
            fingerprint: run.full_fp,
        });
    }
    verdicts.push(agreement("A/daemon".into(), "index fingerprint", &daemon_fps));

    Ok(obs::SuiteReport {
        meta: obs::SuiteMeta {
            seed: cfg.seed,
            date: obs::report::today_utc(),
            processes: suite_a.len() as u64,
        },
        suite_a,
        verdicts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_is_exact_and_names_the_cell_that_diverged() {
        let same = [("jobs1".to_string(), "0xaa".to_string()), ("jobs2".into(), "0xaa".into())];
        let v = agreement("A/repro/scale750".into(), "deterministic fingerprint", &same);
        assert!(v.pass);
        assert_eq!(v.cell, "A/repro/scale750");
        assert_eq!(v.detail, "deterministic fingerprint 0xaa identical across jobs1, jobs2");

        let split = [("clean".to_string(), "0xaa".to_string()), ("chaos3".into(), "0xab".into())];
        let v = agreement("A/daemon".into(), "index fingerprint", &split);
        assert!(!v.pass);
        assert_eq!(v.detail, "index fingerprint diverges from clean=0xaa: chaos3=0xab");
    }

    #[test]
    fn suite_a_grid_compares_at_least_two_cells_per_verdict() {
        // One worker count per scale would make every repro verdict vacuous.
        assert!(SUITE_A_JOBS.len() >= 2 && !SUITE_A_SCALES.is_empty());
    }

    #[test]
    fn stderr_tail_keeps_the_last_lines() {
        let text = (1..=20).map(|i| format!("line {i}")).collect::<Vec<_>>().join("\n");
        let tail = stderr_tail(text.as_bytes(), 3);
        assert_eq!(tail, "line 18\nline 19\nline 20");
        assert_eq!(stderr_tail(b"", 3), "");
    }

    #[test]
    fn missing_sibling_binary_is_a_named_preflight_error() {
        let err = sibling_binary("definitely-not-a-binary-9f3a").unwrap_err();
        assert!(err.contains("definitely-not-a-binary-9f3a"), "{err}");
        assert!(err.contains("cargo build --release"), "{err}");
    }

    #[test]
    fn throughput_guards_zero_wall() {
        assert_eq!(records_per_sec(500, 0), 500_000.0);
        assert_eq!(records_per_sec(500, 1_000), 500.0);
    }
}
