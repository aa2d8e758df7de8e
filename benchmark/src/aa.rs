//! `aa-compare DIR_A DIR_B --benchmark-json PATH [--write-bounds]`: two
//! sides of runs of the same code, compared metric by metric. Each side
//! is a directory with one sub-directory per run (one seed each, the same
//! seeds on both sides) holding that run's `report-<workload>.json`.
//!
//! This is the driver's own acceptance test of a benchmark, run locally:
//! per workload and end-to-end metric it prints the two medians, their
//! relative gap, each side's spread (interquartile range over median, the
//! quartiles as Python's `statistics.quantiles(v, n=4)` gives them) and the
//! bound, and fails if a gap or a spread exceeds its bound (`setup_s`'s
//! spread is exempt, as it is for the driver).
//!
//! With `--write-bounds` every bound is set to the larger of 2 x the largest
//! gap (the issue's A/A rule) and 3 x the largest spread (the driver's: a
//! spread has to stay under a third of its bound) seen on any workload,
//! never under 10 % and never over 25 %. A metric whose gaps alone ask for
//! more than the cap, or whose spread exceeds it, is named: it belongs on
//! the per-layer list.

use crate::stats;
use obs::Json;
use std::path::Path;
use std::process::ExitCode;

const FLOOR: f64 = 0.10;
const CAP: f64 = 0.25;

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn value(report: &Json, metric: &str) -> Option<f64> {
    report.get("result")?.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// One side's reports of `workload`, one per run sub-directory.
fn side(dir: &str, workload: &str) -> Result<Vec<Json>, String> {
    let runs = std::fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
    let reports: Result<Vec<Json>, String> = runs
        .flatten()
        .map(|run| load(&run.path().join(format!("report-{workload}.json"))))
        .collect();
    reports.and_then(|r| if r.is_empty() { Err(format!("{dir}: no runs")) } else { Ok(r) })
}

fn values_of(reports: &[Json], metric: &str, which: &str) -> Result<Vec<f64>, String> {
    let values: Option<Vec<f64>> = reports.iter().map(|r| value(r, metric)).collect();
    values.ok_or(format!("no {metric} in a run of {which}"))
}

fn compare(argv: &[String]) -> Result<bool, String> {
    let [dir_a, dir_b, flag, spec_path, rest @ ..] = argv else {
        return Err("usage: aa-compare DIR_A DIR_B --benchmark-json PATH [--write-bounds]".into());
    };
    if flag != "--benchmark-json" {
        return Err(format!("expected --benchmark-json, got {flag}"));
    }
    let write = rest.first().is_some_and(|f| f == "--write-bounds");
    let mut spec = load(Path::new(spec_path))?;
    let names = |key: &str| -> Vec<String> {
        spec.get(key)
            .and_then(Json::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|e| e.get("name")?.as_str().map(str::to_string))
            .collect()
    };
    let (workloads, metrics) = (names("workloads"), names("end_to_end"));
    let bound_of = |spec: &Json, metric: &str| {
        spec.get("end_to_end")
            .and_then(Json::as_array)
            .and_then(|l| l.iter().find(|e| e.get("name").and_then(Json::as_str) == Some(metric)))
            .and_then(|e| e.get("bound")?.as_f64())
    };

    let mut within = true;
    let mut widest_gap = vec![0.0f64; metrics.len()];
    let mut widest_spread = vec![0.0f64; metrics.len()];
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>8} {:>9} {:>9} {:>6}",
        "workload", "metric", "A", "B", "gap", "spread A", "spread B", "bound"
    );
    for w in &workloads {
        let (a, b) = (side(dir_a, w)?, side(dir_b, w)?);
        for (i, m) in metrics.iter().enumerate() {
            let (va, vb) = (values_of(&a, m, "A")?, values_of(&b, m, "B")?);
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let gap = (ma - mb).abs() / ma.min(mb);
            let (sa, sb) = (stats::quartile_spread(&va), stats::quartile_spread(&vb));
            let bound = bound_of(&spec, m).ok_or(format!("{m}: no bound"))?;
            widest_gap[i] = widest_gap[i].max(gap);
            widest_spread[i] = widest_spread[i].max(sa).max(sb);
            let over = gap > bound || (m != "setup_s" && sa.max(sb) > bound);
            within &= !over;
            println!(
                "{w:<16} {m:<24} {ma:>14.4} {mb:>14.4} {:>7.2}% {:>8.2}% {:>8.2}% {:>5.0}%{}",
                gap * 100.0,
                sa * 100.0,
                sb * 100.0,
                bound * 100.0,
                if over { "  OVER" } else { "" }
            );
        }
    }
    if write {
        if let Some(Json::Array(entries)) = spec.get("end_to_end").cloned().as_mut() {
            for (entry, (gap, spread)) in
                entries.iter_mut().zip(widest_gap.iter().zip(&widest_spread))
            {
                let name = entry.get("name").and_then(Json::as_str).unwrap_or("?").to_string();
                let wanted = ((2.0 * gap).max(3.0 * spread) * 100.0).ceil() / 100.0;
                println!(
                    "# {name}: largest gap {:.1}%, largest spread {:.1}%: bound {:.0}%",
                    gap * 100.0,
                    spread * 100.0,
                    wanted.clamp(FLOOR, CAP) * 100.0
                );
                if 2.0 * gap > CAP || *spread > CAP {
                    println!(
                        "# {name} needs more than the cap: a per-layer metric, not a gated one"
                    );
                }
                entry.set("bound", Json::F64(wanted.clamp(FLOOR, CAP)));
            }
            spec.set("end_to_end", Json::Array(entries.clone()));
            std::fs::write(spec_path, spec.pretty()).map_err(|e| e.to_string())?;
            println!("# bounds written to {spec_path}");
        }
    }
    Ok(within)
}

pub fn main(argv: &[String]) -> ExitCode {
    match compare(argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!(
                "aa-compare: a gap or a spread between runs of the same code exceeds its bound"
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("aa-compare: {e}");
            ExitCode::from(2)
        }
    }
}
