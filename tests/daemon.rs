//! Integration lock on `dnsimpactd` (DESIGN §12): replay determinism
//! across crashes, degradation honesty in answers, the HTTP surface, and
//! exact shed accounting under overload.
//!
//! The replay rule under test: the served index is a pure function of
//! the applied batch prefix — for any crash point, any chaos seed, and
//! any build parallelism, recovery (checkpoint + feed replay) must land
//! on the byte-identical index a clean single pass produces.
//!
//! The metrics registry is process-global, so every test serializes on
//! [`lock`] and asserts on counter *deltas*.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use dnsimpactd::{
    checkpoint, feed, http_get, DomainDir, FeedConfig, IndexState, IngestConfig, Ingestor, Server,
    ServerConfig, Telemetry, TelemetryConfig,
};
use obs::Json;
use scenarios::divisor_for_target;
use scenarios::WorldConfig;
use streamproc::SwapCell;

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
}

/// The small-but-gappy feed every test here runs on: ~8k attacks over 2
/// months (the DNS share of attacks is under 1%, so smaller feeds can
/// produce zero joined episodes), half the gap schedule active so
/// staleness actually moves.
fn tiny() -> FeedConfig {
    FeedConfig {
        seed: 7,
        divisor: divisor_for_target(8_000),
        months: 2,
        world: WorldConfig { providers: 20, domains: 6_000, ..WorldConfig::default() },
        gap_seed: 5,
        gap_prob: 0.5,
        max_gap_windows: 24,
        loss_frac: 0.1,
        outage_seed: 6,
        outage_prob: 0.1,
        batch_records: 32,
        batch_windows: 6,
    }
}

/// `clean_fingerprint` of the `tiny()` feed.
const TINY_FEED_FINGERPRINT: u64 = 0x9f57_901d_602a_585f;

/// Clean single-pass ingest (no chaos, no checkpoint) → full fingerprint.
fn clean_fingerprint(src: &feed::FeedSource) -> u64 {
    let cell = Arc::new(SwapCell::new(Default::default()));
    let mut ing = Ingestor::new(src, IngestConfig::default(), cell);
    ing.run();
    ing.state.full_fingerprint()
}

#[test]
fn recovery_replays_to_clean_fingerprint_at_any_kill_offset() {
    let _g = lock();
    let src = feed::build(&tiny(), 2);
    let total = src.batches.len();
    assert!(total >= 8, "tiny feed too small ({total} batches) to test mid-stream kills");
    let want = clean_fingerprint(&src);

    // Kill right after the first batch, mid-stream, and on the last
    // batch; resume with and without transport chaos. A kill -9 leaves
    // exactly this on disk: the marker of the last completed batch (the
    // in-memory index is gone) — replicate that state directly.
    for kill_after in [1, total / 2, total - 1] {
        for chaos_seed in [None, Some(3u64)] {
            let dir = tempdir(&format!("daemon-kill-{kill_after}-{}", chaos_seed.is_some()));
            let mut dead = IndexState::default();
            for batch in &src.batches[..kill_after] {
                dead.apply(&src.world, batch);
            }
            checkpoint::save(&dir, &dead).expect("write checkpoint marker");
            drop(dead); // the crash: in-memory state is lost, marker survives

            let cell = Arc::new(SwapCell::new(Default::default()));
            let cfg = IngestConfig {
                chaos_seed,
                segment: 8,
                checkpoint_dir: Some(dir.clone()),
                ..IngestConfig::default()
            };
            let mut ing = Ingestor::new(&src, cfg, Arc::clone(&cell));
            let replayed = ing.recover();
            assert_eq!(replayed, kill_after as u64, "recover must honor the marker");
            ing.run();
            assert_eq!(
                ing.state.full_fingerprint(),
                want,
                "kill after {kill_after}/{total} with chaos {chaos_seed:?} \
                 diverged from the clean single pass"
            );
            let snap = cell.load();
            assert!(snap.ingest_done());
            assert_eq!(snap.full_fp, Some(want));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn feed_build_is_jobs_invariant() {
    let _g = lock();
    let a = feed::build(&tiny(), 1);
    let b = feed::build(&tiny(), 4);
    assert_eq!(a.batches.len(), b.batches.len());
    assert_eq!(a.total_records, b.total_records);
    let got = clean_fingerprint(&a);
    assert_eq!(got, clean_fingerprint(&b));
    // Across commits too: recorded on the commit before `feed::build`
    // moved onto `core::front`.
    assert_eq!(got, TINY_FEED_FINGERPRINT, "got {got:#018x}");
}

#[test]
fn lying_checkpoint_is_discarded_and_full_replay_still_converges() {
    let _g = lock();
    let src = feed::build(&tiny(), 2);
    let want = clean_fingerprint(&src);

    // A marker whose fingerprint the feed cannot reproduce (e.g. written
    // by a daemon running a different feed config) must be rejected.
    let dir = tempdir("daemon-lying-ckpt");
    let mut foreign = IndexState::default();
    for batch in &src.batches[..4] {
        foreign.apply(&src.world, batch);
    }
    foreign.records_applied += 1; // the lie
    checkpoint::save(&dir, &foreign).expect("write checkpoint marker");

    let before = obs::counter("daemon.ckpt_mismatch").get();
    let cell = Arc::new(SwapCell::new(Default::default()));
    let cfg = IngestConfig { checkpoint_dir: Some(dir.clone()), ..IngestConfig::default() };
    let mut ing = Ingestor::new(&src, cfg, cell);
    assert_eq!(ing.recover(), 0, "a lying marker must degrade to a fresh start");
    assert_eq!(obs::counter("daemon.ckpt_mismatch").get(), before + 1);
    ing.run();
    assert_eq!(ing.state.full_fingerprint(), want);

    // Unreadable garbage must be survivable too (counted, not fatal).
    std::fs::write(dir.join("daemon.ckpt.json"), b"not json at all").expect("scribble");
    assert!(checkpoint::load(&dir).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn staleness_is_reported_and_flips_readiness_and_degrades_answers() {
    let _g = lock();
    let src = feed::build(&tiny(), 2);
    let dir = Arc::new(DomainDir::build(&src.world.infra));

    // Walk the feed to the staleness peak — the gap schedule (gap_prob
    // 0.5) guarantees batches where the horizon stalls behind the clock.
    let mut state = IndexState::default();
    let mut worst = (0u64, 0usize);
    for (i, batch) in src.batches.iter().enumerate() {
        state.apply(&src.world, batch);
        if state.staleness_s() > worst.0 {
            worst = (state.staleness_s(), i);
        }
    }
    assert!(worst.0 > 0, "tiny feed never went stale; gap model is not exercised");

    // Rebuild to just past the peak and serve that snapshot with a bound
    // below the observed staleness.
    let mut state = IndexState::default();
    for batch in &src.batches[..=worst.1] {
        state.apply(&src.world, batch);
    }
    let cell = Arc::new(SwapCell::new(state.snapshot(src.batches.len() as u64, false)));
    let cfg = ServerConfig { staleness_bound_s: worst.0 - 1, ..ServerConfig::default() };
    let server = Server::start(&cfg, Arc::clone(&cell), Arc::clone(&dir), None).expect("bind");
    let addr = server.addr();
    let t = Duration::from_secs(5);

    let (code, body) = http_get(addr, "/readyz", t).expect("readyz");
    assert_eq!(code, 503, "stale-past-bound must flip not-ready: {body}");
    assert!(body.contains(&format!("\"staleness_s\": {}", worst.0)), "staleness in body: {body}");

    let name = dir.names().next().expect("non-empty directory").to_string();
    let (code, body) = http_get(addr, &format!("/query?domain={name}"), t).expect("query");
    assert_eq!(code, 200);
    assert!(body.contains("\"degraded\": true"), "stale answers must say so: {body}");
    assert!(body.contains("\"staleness_s\""), "every answer carries staleness: {body}");

    // The same snapshot under a generous bound is ready and not degraded
    // by staleness alone (weak baselines can still degrade specific
    // NSSets, so assert only on readiness here).
    let cfg = ServerConfig { staleness_bound_s: worst.0 + 1, ..ServerConfig::default() };
    let server2 = Server::start(&cfg, Arc::clone(&cell), Arc::clone(&dir), None).expect("bind");
    let (code, _) = http_get(server2.addr(), "/readyz", t).expect("readyz");
    assert_eq!(code, 200);
    server2.shutdown();
    server.shutdown();
}

#[test]
fn http_surface_serves_impact_answers_and_errors() {
    let _g = lock();
    let src = feed::build(&tiny(), 2);
    let dir = Arc::new(DomainDir::build(&src.world.infra));
    let cell = Arc::new(SwapCell::new(Default::default()));
    let telemetry = Telemetry::new(TelemetryConfig::default());
    let mut ing = Ingestor::new(&src, IngestConfig::default(), Arc::clone(&cell))
        .with_telemetry(Arc::clone(&telemetry));
    ing.run();

    // Pick a domain whose NSSet demonstrably took attacks.
    let impacted = dir
        .names()
        .find(|n| {
            let (_, nsset) = dir.lookup(n).unwrap();
            ing.state.nssets.get(&nsset.0).is_some_and(|s| s.attacks_seen > 0)
        })
        .expect("tiny feed produced no impacted domain")
        .to_string();

    let server = Server::start(
        &ServerConfig::default(),
        Arc::clone(&cell),
        Arc::clone(&dir),
        Some(Arc::clone(&telemetry)),
    )
    .expect("bind");
    let addr = server.addr();
    let t = Duration::from_secs(5);

    let (code, body) = http_get(addr, "/healthz", t).expect("healthz");
    assert_eq!((code, body.contains("\"ok\": true")), (200, true), "healthz: {body}");

    let (code, body) = http_get(addr, "/readyz", t).expect("readyz");
    assert_eq!(code, 200, "fully ingested index must be ready: {body}");

    let (code, body) = http_get(addr, "/statz", t).expect("statz");
    assert_eq!(code, 200);
    for field in [
        "\"ingest_done\": true",
        "\"state_fp\"",
        "\"full_fp\"",
        "\"records_applied\"",
        // Satellite: the serving accounting and durability cursor are in
        // the same snapshot the gate polls, not only in the final report.
        "\"queries_received\"",
        "\"queries_served\"",
        "\"queries_shed\"",
        "\"checkpoint_seq\"",
        "\"slo\"",
        "\"diagnosis\"",
    ] {
        assert!(body.contains(field), "statz missing {field}: {body}");
    }

    let (code, body) = http_get(addr, &format!("/query?domain={impacted}"), t).expect("query");
    assert_eq!(code, 200);
    for field in [
        "\"attacks_seen\"",
        "\"peak_ppm\"",
        "\"baseline_source\"",
        "\"degraded\"",
        "\"staleness_s\"",
    ] {
        assert!(body.contains(field), "answer missing {field}: {body}");
    }
    assert!(!body.contains("\"attacks_seen\": 0"), "picked an impacted domain: {body}");

    let (code, _) = http_get(addr, "/query?domain=no.such.domain.example", t).expect("404 query");
    assert_eq!(code, 404);
    let (code, _) = http_get(addr, "/query", t).expect("400 query");
    assert_eq!(code, 400);
    let (code, _) = http_get(addr, "/nope", t).expect("404 route");
    assert_eq!(code, 404);

    // The exposition endpoint answers text that the strict parser accepts
    // and that carries the per-route instrumentation.
    let (code, body) = http_get(addr, "/metricsz", t).expect("metricsz");
    assert_eq!(code, 200);
    let families = dnsimpactd::expo::parse_text(&body).expect("exposition must parse strictly");
    assert!(!families.is_empty());
    assert!(
        body.contains("sched_daemon_http_requests_query"),
        "per-route counter missing from exposition"
    );
    assert!(
        body.contains("# TYPE sched_daemon_http_latency_us_query histogram"),
        "per-route latency histogram missing from exposition"
    );

    // The live-plane routes answer from the ticked store.
    let (code, body) = http_get(addr, "/seriesz?name=live.records", t).expect("seriesz");
    assert_eq!(code, 200, "{body}");
    let doc = Json::parse(&body).expect("seriesz JSON");
    let det = doc.get("deterministic").expect("deterministic half");
    assert_eq!(det.get("kind").and_then(|k| k.as_str()), Some("delta"));
    assert!(doc.get("annotation").and_then(|a| a.get("wall_ms")).is_some());

    let (code, body) = http_get(addr, "/seriesz?name=no.such.series", t).expect("seriesz 404");
    assert_eq!(code, 404);
    assert!(body.contains("\"known\""), "unknown series must list the known ones: {body}");

    let (code, body) = http_get(addr, "/sloz", t).expect("sloz");
    assert_eq!(code, 200);
    let doc = Json::parse(&body).expect("sloz JSON");
    assert!(doc.get("deterministic").and_then(|d| d.get("transitions")).is_some());
    assert!(doc.get("annotation").and_then(|a| a.get("diagnosis")).is_some());

    server.shutdown();
}

#[test]
fn hostile_query_strings_get_structured_400s_not_fallthrough() {
    let _g = lock();
    let src = feed::build(&tiny(), 2);
    let dir = Arc::new(DomainDir::build(&src.world.infra));
    let cell = Arc::new(SwapCell::new(Default::default()));
    let mut ing = Ingestor::new(&src, IngestConfig::default(), Arc::clone(&cell));
    ing.run();
    let telemetry = Telemetry::new(TelemetryConfig::default());
    let server = Server::start(
        &ServerConfig::default(),
        Arc::clone(&cell),
        Arc::clone(&dir),
        Some(telemetry),
    )
    .expect("bind");
    let addr = server.addr();
    let t = Duration::from_secs(5);

    let big = "a".repeat(300);
    let hostile = [
        "/query?domain=a&domain=b",             // duplicate key
        "/query?domain=%zz",                    // malformed escape
        "/query?domain=%2",                     // truncated escape
        "/query?domain=%ff%fe",                 // decodes to invalid UTF-8
        "/query?bogus=1",                       // unknown parameter
        "/query?domain",                        // bare word, no '='
        "/query?domain=a&&domain=b",            // stray '&'
        "/seriesz?name=live.records&last=nope", // non-numeric window
        "/seriesz?name=live.records&last=0",    // zero window
    ];
    for path in hostile {
        let (code, body) = http_get(addr, path, t).expect(path);
        assert_eq!(code, 400, "{path} must 400: {body}");
        let doc = Json::parse(&body).unwrap_or_else(|e| panic!("{path}: bad JSON {e}: {body}"));
        assert!(doc.get("error").is_some(), "{path}: no error field: {body}");
    }
    let (code, body) = http_get(addr, &format!("/query?domain={big}"), t).expect("oversized value");
    assert_eq!(code, 400, "oversized value must 400: {body}");
    assert!(body.contains("max 256"), "detail must name the limit: {body}");

    server.shutdown();
}

/// The tentpole determinism contract, end to end: the deterministic
/// halves of `/seriesz` and `/sloz` are a pure function of the feed
/// prefix — byte-identical across chaos seeds, `--jobs`, and a
/// crash-recovery replay.
#[test]
fn live_series_and_slo_verdicts_are_replay_deterministic() {
    let _g = lock();
    let src = feed::build(&tiny(), 2);
    let total = src.batches.len();

    let capture = |ing_cfg: IngestConfig, jobs: usize| -> (String, String) {
        let src = feed::build(&tiny(), jobs);
        let cell = Arc::new(SwapCell::new(Default::default()));
        let telemetry = Telemetry::new(TelemetryConfig::default());
        let mut ing =
            Ingestor::new(&src, ing_cfg, Arc::clone(&cell)).with_telemetry(Arc::clone(&telemetry));
        ing.recover_and_run();
        let dir = Arc::new(DomainDir::build(&src.world.infra));
        let server =
            Server::start(&ServerConfig::default(), Arc::clone(&cell), dir, Some(telemetry))
                .expect("bind");
        let t = Duration::from_secs(5);
        let mut series = String::new();
        for name in ["live.batches", "live.records", "live.staleness_s", "live.ingest_lag"] {
            let (code, body) =
                http_get(server.addr(), &format!("/seriesz?name={name}&last=100000"), t)
                    .expect("seriesz");
            assert_eq!(code, 200, "{body}");
            let doc = Json::parse(&body).expect("seriesz JSON");
            series.push_str(&doc.get("deterministic").expect("det half").pretty());
            series.push('\n');
        }
        let (code, body) = http_get(server.addr(), "/sloz", t).expect("sloz");
        assert_eq!(code, 200);
        let doc = Json::parse(&body).expect("sloz JSON");
        let verdicts = doc.get("deterministic").expect("det half").pretty();
        server.shutdown();
        (series, verdicts)
    };

    let (series_a, verdicts_a) = capture(IngestConfig::default(), 1);
    let (series_b, verdicts_b) =
        capture(IngestConfig { chaos_seed: Some(9), segment: 8, ..IngestConfig::default() }, 4);
    assert_eq!(series_a, series_b, "chaos seed / jobs changed the deterministic series");
    assert_eq!(verdicts_a, verdicts_b, "chaos seed / jobs changed the SLO verdict sequence");

    // Crash mid-ingest, recover from the marker, finish: the regrown
    // series must still match — recovery replay ticks like live ingest.
    let ckpt = tempdir("daemon-live-determinism");
    let mut dead = IndexState::default();
    for batch in &src.batches[..total / 2] {
        dead.apply(&src.world, batch);
    }
    checkpoint::save(&ckpt, &dead).expect("write checkpoint marker");
    drop(dead);
    let (series_c, verdicts_c) = capture(
        IngestConfig {
            chaos_seed: Some(3),
            checkpoint_dir: Some(ckpt.clone()),
            ..IngestConfig::default()
        },
        2,
    );
    assert_eq!(series_a, series_c, "crash recovery changed the deterministic series");
    assert_eq!(verdicts_a, verdicts_c, "crash recovery changed the SLO verdict sequence");
    let _ = std::fs::remove_dir_all(&ckpt);
}

#[test]
fn overload_sheds_visibly_and_accounts_every_query_exactly_once() {
    let _g = lock();
    let src = feed::build(&tiny(), 2);
    let dir = Arc::new(DomainDir::build(&src.world.infra));
    let cell = Arc::new(SwapCell::new(Default::default()));
    let mut ing = Ingestor::new(&src, IngestConfig::default(), Arc::clone(&cell));
    ing.run();

    let received0 = obs::counter("sched.daemon.queries_received").get();
    let served0 = obs::counter("sched.daemon.queries_served").get();
    let shed0 = obs::counter("sched.daemon.queries_shed").get();
    let errors0 = obs::counter("sched.daemon.query_errors").get();

    // One slow worker, a one-slot queue, and a 32-connection burst: the
    // accept loop must shed most of it — with a 503, not a hang.
    let cfg =
        ServerConfig { workers: 1, queue_cap: 1, handle_delay_ms: 20, ..ServerConfig::default() };
    let server = Server::start(&cfg, Arc::clone(&cell), Arc::clone(&dir), None).expect("bind");
    let addr = server.addr();
    let t = Duration::from_secs(10);

    let mut client = (0u64, 0u64, 0u64); // ok, shed, errors (client view)
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(move || {
                    let mut c = (0u64, 0u64, 0u64);
                    for _ in 0..4 {
                        match http_get(addr, "/healthz", t) {
                            Ok((200, _)) => c.0 += 1,
                            Ok((503, _)) => c.1 += 1,
                            Ok(_) | Err(_) => c.2 += 1,
                        }
                    }
                    c
                })
            })
            .collect();
        for h in handles {
            let c = h.join().expect("client thread");
            client = (client.0 + c.0, client.1 + c.1, client.2 + c.2);
        }
    });
    server.shutdown(); // drains the queue: every admitted conn is handled

    let received = obs::counter("sched.daemon.queries_received").get() - received0;
    let served = obs::counter("sched.daemon.queries_served").get() - served0;
    let shed = obs::counter("sched.daemon.queries_shed").get() - shed0;
    let errors = obs::counter("sched.daemon.query_errors").get() - errors0;

    assert_eq!(client.0 + client.1 + client.2, 32, "every client query classified once");
    assert_eq!(received, 32, "every connection admitted or shed at the accept loop");
    assert_eq!(
        received,
        served + shed + errors,
        "shed accounting must balance exactly (served {served} + shed {shed} + errors {errors})"
    );
    assert!(shed > 0, "queue_cap 1 + slow worker + 32-burst must shed, got 0");
    assert_eq!(client.1, shed, "client-observed 503s must equal the daemon's shed count");
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dnsimpactd-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tempdir");
    dir
}
