//! The causal event trace's headline invariants (DESIGN §10):
//!
//! - the deterministic event stream (every field except `wall_micros`) is
//!   identical across `--jobs` counts;
//! - the non-fault subset of the stream is identical across chaos seeds —
//!   and identical to a fault-free run — while fault events pair up
//!   exactly (every injection has a matching repair);
//! - `check_causality` holds on real runs: triggers follow feed arrivals
//!   within the paper's 10-minute bound, probe rounds respect the
//!   50-domain budget;
//! - `repro explain`'s episode timeline is byte-identical across worker
//!   counts;
//! - the Chrome trace-event export round-trips losslessly.
//!
//! One `#[test]` only: the trace ring is process-global, so the scenarios
//! run sequentially in a single function and reset the ring between runs.

use bench_support::{run_catalog_checkpointed, run_experiments};
use scenarios::{paper_longitudinal_config, PaperScale, WorldConfig};

/// Covers every emission site: the longitudinal pipeline (onsets, joins,
/// baselines, impacts — `rsdos` scope), the reactive platform (feed
/// arrivals, triggers, probes — `milru`/`rdz` scopes), and the catalog's
/// stage brackets.
const IDS: &[&str] = &["table1", "fig7", "russia"];

/// Reset the registries, run the pipeline + catalog at the given worker
/// count and chaos seed, and return the trace snapshot.
fn run_and_trace(jobs: usize, chaos_seed: Option<u64>) -> Vec<obs::trace::TraceEvent> {
    obs::registry().reset();
    obs::trace::reset();
    let cfg = WorldConfig { providers: 20, domains: 6_000, ..WorldConfig::default() };
    let schedule = paper_longitudinal_config(PaperScale { divisor: 400 });
    let ex = run_experiments(42, schedule, &cfg, jobs, chaos_seed);
    let ids: Vec<String> = IDS.iter().map(|s| s.to_string()).collect();
    let fault = chaos_seed.map(|cs| {
        streamproc::FaultPlan::from_seed(
            cs,
            "experiment-catalog",
            streamproc::ChaosConfig::CALIBRATED,
        )
    });
    let (_, _) = run_catalog_checkpointed(Some(&ex), 42, &ids, jobs, fault.as_ref(), None, &|_| {});
    obs::trace::snapshot()
}

fn deterministic_lines(events: &[obs::trace::TraceEvent]) -> Vec<String> {
    events.iter().map(|e| e.deterministic_line()).collect()
}

fn non_fault_lines(events: &[obs::trace::TraceEvent]) -> Vec<String> {
    events.iter().filter(|e| !e.kind.is_fault()).map(|e| e.deterministic_line()).collect()
}

#[test]
fn trace_is_deterministic_and_causally_sound() {
    // --- jobs 1 vs jobs 8, fault-free -----------------------------------
    let seq = run_and_trace(1, None);
    let par = run_and_trace(8, None);
    assert!(!seq.is_empty(), "the pipeline emitted trace events");
    assert_eq!(
        deterministic_lines(&seq),
        deterministic_lines(&par),
        "sim-time event stream differs across --jobs"
    );

    // Every layer of the causal chain is represented.
    for kind in [
        obs::EventKind::AttackOnset,
        obs::EventKind::FeedRecordArrived,
        obs::EventKind::JoinMatched,
        obs::EventKind::TriggerFired,
        obs::EventKind::ProbeScheduled,
        obs::EventKind::ProbeCompleted,
        obs::EventKind::ImpactComputed,
        obs::EventKind::StageStart,
        obs::EventKind::StageEnd,
    ] {
        assert!(
            seq.iter().any(|e| e.kind == kind),
            "no {} event in a full fault-free run",
            kind.as_str()
        );
    }

    // Causality invariants hold on a real run.
    assert_eq!(
        obs::trace::check_causality(&par),
        Vec::<String>::new(),
        "causality violations in a fault-free run"
    );

    // The `repro explain` timeline is byte-identical across worker counts.
    let timeline_seq =
        obs::trace::explain(&seq, "milru", 0).expect("mil.ru episode 0 has trace events");
    let timeline_par = obs::trace::explain(&par, "milru", 0).unwrap();
    assert_eq!(timeline_seq, timeline_par, "explain output differs across --jobs");
    assert!(timeline_seq.contains("AttackOnset"), "timeline shows the onset");
    assert!(timeline_seq.contains("within bound"), "timeline checks the trigger bound");
    assert!(timeline_seq.contains("within budget"), "timeline checks the probe budget");

    // The Chrome trace-event export round-trips losslessly (deterministic
    // fields; `ts`/`args.wall_micros` carry the wall clock alongside).
    let text = obs::trace::to_chrome_json(&par).pretty();
    let back = obs::trace::from_chrome_json(&obs::Json::parse(&text).unwrap())
        .expect("exported trace parses back");
    assert_eq!(
        deterministic_lines(&back),
        deterministic_lines(&par),
        "chrome export round-trip lost events"
    );

    // --- chaos seeds: same pipeline story, balanced fault events --------
    let clean = non_fault_lines(&seq);
    for chaos_seed in [1337, 4242] {
        let chaos = run_and_trace(8, Some(chaos_seed));
        assert_eq!(
            non_fault_lines(&chaos),
            clean,
            "non-fault event stream perturbed by chaos seed {chaos_seed}"
        );
        assert!(
            chaos.iter().any(|e| e.kind == obs::EventKind::FaultInjected),
            "calibrated chaos seed {chaos_seed} injected no traced faults"
        );
        // check_causality pairs every FaultInjected with a FaultRepaired
        // per (site, detail) — and re-checks the pipeline invariants.
        assert_eq!(
            obs::trace::check_causality(&chaos),
            Vec::<String>::new(),
            "causality violations under chaos seed {chaos_seed}"
        );
    }
}
