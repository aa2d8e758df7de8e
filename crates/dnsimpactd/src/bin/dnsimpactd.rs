//! The daemon binary. Four subcommands:
//!
//! - `serve` — build the feed, start the HTTP server, recover from any
//!   checkpoint, run the supervised ingest to completion, then keep
//!   serving until killed. `--port-file` publishes the bound address
//!   atomically so a harness can find a port-0 listener.
//!   `--live-report PATH` writes the `dnsimpactd-live/v2` telemetry
//!   report (tick-clock series + SLO transitions) after ingest;
//!   `--tick-cap` bounds the telemetry ring.
//! - `fingerprint` — apply the whole feed in-process (no daemon, no
//!   transport) and print the full index fingerprint: the clean-replay
//!   reference the CI gate diffs a crash-recovered daemon against.
//! - `domains` — print domain names from the built world; `--impacted`
//!   restricts to domains whose NSSet joined at least one episode.
//! - `get` — a tiny HTTP client (`curl` is not guaranteed in the CI
//!   container): fetch a path, print the body or one `--field` of it,
//!   exit 0 on 2xx and 3 otherwise. `--expo` instead parses the body as
//!   Prometheus text exposition (the CI live gate's `/metricsz` check).
//!
//! All flag parsing reports contextful errors on stderr and exits 2 —
//! never panics.

use dnsimpactd::live::{self, LiveFinal, LiveMeta};
use dnsimpactd::{
    http_get, DomainDir, FeedConfig, IndexSnapshot, IndexState, IngestConfig, Ingestor, Server,
    ServerConfig, Telemetry, TelemetryConfig,
};
use obs::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use streamproc::SwapCell;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("usage: dnsimpactd <serve|fingerprint|domains|get> [flags]");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "serve" => serve(rest),
        "fingerprint" => fingerprint(rest),
        "domains" => domains(rest),
        "get" => return get(rest),
        other => Err(format!("unknown subcommand {other:?}; want serve|fingerprint|domains|get")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dnsimpactd: {e}");
            ExitCode::from(2)
        }
    }
}

/// Shared feed/ingest flags for serve/fingerprint/domains.
struct Opts {
    feed: FeedConfig,
    jobs: usize,
    chaos_seed: Option<u64>,
    pace_ms: u64,
    staleness_bound_s: u64,
    checkpoint_dir: Option<PathBuf>,
    bind: String,
    port_file: Option<PathBuf>,
    impacted: bool,
    limit: usize,
    scale_target: u64,
    tick_cap: usize,
    live_report: Option<PathBuf>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        feed: FeedConfig::pinned(1_500),
        jobs: 2,
        chaos_seed: None,
        pace_ms: 0,
        staleness_bound_s: 1_800,
        checkpoint_dir: None,
        bind: "127.0.0.1:0".into(),
        port_file: None,
        impacted: false,
        limit: usize::MAX,
        scale_target: 1_500,
        tick_cap: 1_024,
        live_report: None,
    };
    let mut scale_target: Option<u64> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("flag {name} needs a value"))
        };
        fn num<T: std::str::FromStr>(name: &str, v: &str) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            v.parse().map_err(|e| format!("flag {name}: bad value {v:?}: {e}"))
        }
        match flag.as_str() {
            "--seed" => o.feed.seed = num(flag, val(flag)?)?,
            "--scale-target" => scale_target = Some(num(flag, val(flag)?)?),
            "--months" => o.feed.months = num(flag, val(flag)?)?,
            "--domains" => o.feed.world.domains = num(flag, val(flag)?)?,
            "--providers" => o.feed.world.providers = num(flag, val(flag)?)?,
            "--gap-seed" => o.feed.gap_seed = num(flag, val(flag)?)?,
            "--gap-prob" => o.feed.gap_prob = num(flag, val(flag)?)?,
            "--outage-seed" => o.feed.outage_seed = num(flag, val(flag)?)?,
            "--outage-prob" => o.feed.outage_prob = num(flag, val(flag)?)?,
            "--jobs" => o.jobs = num::<usize>(flag, val(flag)?)?.max(1),
            "--chaos-seed" => o.chaos_seed = Some(num(flag, val(flag)?)?),
            "--pace-ms" => o.pace_ms = num(flag, val(flag)?)?,
            "--staleness-bound-s" => o.staleness_bound_s = num(flag, val(flag)?)?,
            "--checkpoint-dir" => o.checkpoint_dir = Some(PathBuf::from(val(flag)?)),
            "--bind" => o.bind = val(flag)?.clone(),
            "--port-file" => o.port_file = Some(PathBuf::from(val(flag)?)),
            "--impacted" => o.impacted = true,
            "-n" | "--limit" => o.limit = num(flag, val(flag)?)?,
            "--tick-cap" => o.tick_cap = num::<usize>(flag, val(flag)?)?.max(1),
            "--live-report" => o.live_report = Some(PathBuf::from(val(flag)?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if let Some(t) = scale_target {
        o.feed.divisor = scenarios::divisor_for_target(t);
        o.scale_target = t;
    }
    Ok(o)
}

fn ingest_cfg(o: &Opts) -> IngestConfig {
    IngestConfig {
        chaos_seed: o.chaos_seed,
        pace_ms: o.pace_ms,
        checkpoint_dir: o.checkpoint_dir.clone(),
        ..IngestConfig::default()
    }
}

fn serve(args: &[String]) -> Result<(), String> {
    let o = parse_opts(args)?;
    obs::progress("daemon", "building feed");
    let source = dnsimpactd::feed::build(&o.feed, o.jobs);
    obs::progress(
        "daemon",
        &format!("feed ready: {} batches, {} records", source.batches.len(), source.total_records),
    );
    let dir = Arc::new(DomainDir::build(&source.world.infra));
    let cell = Arc::new(SwapCell::new(IndexSnapshot::default()));
    let server_cfg = ServerConfig {
        bind: o.bind.clone(),
        staleness_bound_s: o.staleness_bound_s,
        ..ServerConfig::default()
    };
    let telemetry = Telemetry::new(TelemetryConfig {
        tick_cap: o.tick_cap,
        staleness_slo_s: o.staleness_bound_s,
    });
    let server = Server::start(&server_cfg, Arc::clone(&cell), dir, Some(Arc::clone(&telemetry)))
        .map_err(|e| format!("bind {}: {e}", o.bind))?;
    let addr = server.addr();
    obs::progress("daemon", &format!("serving on {addr}"));
    if let Some(pf) = &o.port_file {
        dnsimpact_core::report::write_atomic(pf, &format!("{addr}\n"))
            .map_err(|e| format!("write port file {}: {e}", pf.display()))?;
    }
    let mut ingestor = Ingestor::new(&source, ingest_cfg(&o), Arc::clone(&cell))
        .with_telemetry(Arc::clone(&telemetry));
    let stats = ingestor.recover_and_run();
    obs::progress(
        "daemon",
        &format!(
            "ingest complete: seq {} / {} batches, full_fp {:#018x} (repair_rounds {}, \
             dropped {}, duplicated {}, reordered {})",
            ingestor.state.applied_seq,
            source.batches.len(),
            ingestor.state.full_fingerprint(),
            stats.repair_rounds,
            stats.dropped,
            stats.duplicated,
            stats.reordered,
        ),
    );
    if let Some(path) = &o.live_report {
        let meta = LiveMeta {
            seed: o.feed.seed,
            scale: o.scale_target,
            months: o.feed.months as u64,
            jobs: o.jobs as u64,
            date: obs::report::today_utc(),
            chaos_seed: o.chaos_seed,
            tick_cap: o.tick_cap as u64,
        };
        let fin = LiveFinal {
            applied_seq: ingestor.state.applied_seq,
            total_batches: source.batches.len() as u64,
            records_applied: ingestor.state.records_applied,
            episodes: ingestor.state.columns.len() as u64,
            joined_rows: ingestor.state.join.len() as u64,
            staleness_s: ingestor.state.staleness_s(),
            full_fp: format!("{:#018x}", ingestor.state.full_fingerprint()),
        };
        let report = live::build(&meta, &fin, &telemetry, &obs::registry().snapshot());
        dnsimpact_core::report::write_report(path, &report)
            .map_err(|e| format!("write live report {}: {e}", path.display()))?;
        obs::progress("daemon", &format!("live report written to {}", path.display()));
    }
    // Keep serving until killed; the harness owns our lifetime.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// Apply the feed in-process — the clean single-pass replay reference.
fn replayed_state(o: &Opts) -> (dnsimpactd::FeedSource, IndexState) {
    let source = dnsimpactd::feed::build(&o.feed, o.jobs);
    let mut state = IndexState::default();
    for batch in &source.batches {
        state.apply(&source.world, batch);
    }
    (source, state)
}

fn fingerprint(args: &[String]) -> Result<(), String> {
    let o = parse_opts(args)?;
    let (_, state) = replayed_state(&o);
    println!("{:#018x}", state.full_fingerprint());
    Ok(())
}

fn domains(args: &[String]) -> Result<(), String> {
    let o = parse_opts(args)?;
    let (source, state) = replayed_state(&o);
    let dir = DomainDir::build(&source.world.infra);
    let mut printed = 0usize;
    for name in dir.names() {
        if printed >= o.limit {
            break;
        }
        if o.impacted {
            let Some((_, nsset)) = dir.lookup(name) else { continue };
            let impacted = state
                .nssets
                .get(&nsset.0)
                .is_some_and(|s| s.attacks_seen > 0 && s.impact_on_rtt.is_some());
            if !impacted {
                continue;
            }
        }
        println!("{name}");
        printed += 1;
    }
    if o.impacted && printed == 0 {
        return Err("no impacted domains in this feed".into());
    }
    Ok(())
}

fn get(args: &[String]) -> ExitCode {
    let mut url: Option<&str> = None;
    let mut field: Option<&str> = None;
    let mut expo = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--field" => match it.next() {
                Some(f) => field = Some(f),
                None => {
                    eprintln!("dnsimpactd: --field needs a value");
                    return ExitCode::from(2);
                }
            },
            "--expo" => expo = true,
            other => url = Some(other),
        }
    }
    let Some(url) = url else {
        eprintln!("dnsimpactd: get needs HOST:PORT/PATH");
        return ExitCode::from(2);
    };
    let (hostport, path) = match url.trim_start_matches("http://").split_once('/') {
        Some((h, p)) => (h, format!("/{p}")),
        None => (url.trim_start_matches("http://"), "/".to_string()),
    };
    let addr = match hostport.parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dnsimpactd: bad address {hostport:?}: {e}");
            return ExitCode::from(2);
        }
    };
    match http_get(addr, &path, Duration::from_secs(5)) {
        Ok((status, body)) => {
            if expo {
                // Exposition mode: strict-parse the text body instead of
                // printing it — the CI gate's "does /metricsz parse" check.
                return match dnsimpactd::expo::parse_text(&body) {
                    Ok(families) if (200..300).contains(&status) => {
                        println!("expo-ok {} families", families.len());
                        ExitCode::SUCCESS
                    }
                    Ok(_) => {
                        eprintln!("dnsimpactd: HTTP {status}");
                        ExitCode::from(3)
                    }
                    Err(e) => {
                        eprintln!("dnsimpactd: exposition does not parse: {e}");
                        ExitCode::from(3)
                    }
                };
            }
            match field {
                Some(f) => match Json::parse(&body).ok().and_then(|d| d.get(f).cloned()) {
                    Some(Json::Str(s)) => println!("{s}"),
                    Some(v) => println!("{}", v.pretty()),
                    None => {
                        eprintln!("dnsimpactd: field {f:?} not in response: {body}");
                        return ExitCode::from(3);
                    }
                },
                None => println!("{body}"),
            }
            if (200..300).contains(&status) {
                ExitCode::SUCCESS
            } else {
                eprintln!("dnsimpactd: HTTP {status}");
                ExitCode::from(3)
            }
        }
        Err(e) => {
            eprintln!("dnsimpactd: GET {url}: {e}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse_opts;

    #[test]
    fn retired_bench_oneshot_flag_is_an_unknown_flag() {
        let args = ["--seed".to_string(), "7".to_string(), "--bench-oneshot".to_string()];
        let err = parse_opts(&args).err().expect("--bench-oneshot was accepted");
        assert_eq!(err, r#"unknown flag "--bench-oneshot""#);
    }
}
