//! The daemon half: `dnsimpactd`'s ingest rate and query latency, taken
//! with the benchmark's spans off, and a traced run that replays
//! `Ingestor::run`'s loop a span per step and times each HTTP route alone.
//!
//! Every load phase starts its own `Server::start` (fresh port) and sends
//! at most [`CONNECTION_BUDGET`] connections to it: the server closes
//! first, so each request leaves a TIME_WAIT entry on the client's
//! ephemeral port towards that server port, and once a port has seen more
//! connections than the ephemeral range holds, connects start to stall.

use crate::loadgen::{self, Books, OpenSchedule, Reply, Session};
use crate::spans::Recorder;
use crate::stats;
use crate::{affinity, Run};
use dnsimpactd::{feed, DomainDir, FeedConfig, FeedSource, IndexSnapshot, IndexState};
use dnsimpactd::{IngestConfig, Ingestor, Server, ServerConfig};
use obs::Json;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use streamproc::{reliable_stream, SwapCell};

pub const CONNECTION_BUDGET: usize = 20_000;
/// Reader think time of the mixed workload.
const THINK: Duration = Duration::from_micros(300);
/// A cycle of the mixed workload ingests again and again until its reader
/// has this many replies: a round then leaves twenty samples beyond its
/// p99 however fast one ingest gets.
const MIXED_ROUND: usize = 2_000;
const TRACED_PASSES: usize = 3;
/// Cycles of the workload's own measurement a traced run makes for
/// `query_rtt_p99_us`.
const TAIL_CYCLES: usize = 6;
/// Open-loop ladder: the offered rates.
const RUNGS_QPS: [u64; 4] = [1000, 2000, 4000, 8000];
/// A rung is sustainable when its p99 from the due time stays under this.
const LATENCY_LIMIT_US: f64 = 2000.0;
const LOOKUPS: usize = 200_000;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mode {
    /// Ingest to completion, then query the final snapshot: write path
    /// and read path each run alone.
    Seq,
    /// One reader queries the swapped snapshots while ingest runs.
    Mixed,
}

#[derive(Clone, Copy, Debug)]
pub struct DaemonPlan {
    /// `FeedConfig::pinned` target attack count.
    pub feed_target: u64,
    pub mode: Mode,
    /// Sequential queries per round (`Seq` only).
    pub round_queries: usize,
    /// Traced run: queries per route, and seconds per open-loop rung.
    pub route_queries: usize,
    pub rung_seconds: f64,
}

pub struct DaemonInputs {
    pub source: FeedSource,
    pub dir: Arc<DomainDir>,
    pub names: Vec<String>,
    pub feed_build_ms: f64,
}

/// `feed::build` + `DomainDir::build`: the daemon half's set-up. The feed's
/// world and episode catalog are pinned (see [`crate::DATASET_SEED`]);
/// `seed` drives the telescope-gap and sensor-outage schedules, and the
/// query streams.
pub fn build_inputs(plan: &DaemonPlan, seed: u64) -> DaemonInputs {
    let start = Instant::now();
    let cfg = FeedConfig {
        seed: crate::DATASET_SEED,
        gap_seed: seed,
        outage_seed: seed.wrapping_add(1),
        ..FeedConfig::pinned(plan.feed_target)
    };
    let source = feed::build(&cfg, 1);
    let feed_build_ms = start.elapsed().as_secs_f64() * 1e3;
    let dir = Arc::new(DomainDir::build(&source.world.infra));
    let names = dir.names().map(str::to_string).collect();
    DaemonInputs { source, dir, names, feed_build_ms }
}

type Cell = Arc<SwapCell<IndexSnapshot>>;

fn new_cell() -> Cell {
    Arc::new(SwapCell::new(IndexSnapshot::default()))
}

/// The server's own books (`/statz` reports these same counters).
#[derive(Clone, Copy, Debug, Default)]
struct ServerBooks {
    received: u64,
    served: u64,
    shed: u64,
    errors: u64,
}

impl ServerBooks {
    fn now() -> ServerBooks {
        ServerBooks {
            received: obs::counter("sched.daemon.queries_received").get(),
            served: obs::counter("sched.daemon.queries_served").get(),
            shed: obs::counter("sched.daemon.queries_shed").get(),
            errors: obs::counter("sched.daemon.query_errors").get(),
        }
    }

    fn since(self, before: ServerBooks) -> ServerBooks {
        ServerBooks {
            received: self.received - before.received,
            served: self.served - before.served,
            shed: self.shed - before.shed,
            errors: self.errors - before.errors,
        }
    }

    fn add(&mut self, o: ServerBooks) {
        self.received += o.received;
        self.served += o.served;
        self.shed += o.shed;
        self.errors += o.errors;
    }
}

fn ephemeral_ports() -> Option<usize> {
    let text = std::fs::read_to_string("/proc/sys/net/ipv4/ip_local_port_range").ok()?;
    let mut it = text.split_whitespace().map(|p| p.parse::<usize>().ok());
    let (lo, hi) = (it.next()??, it.next()??);
    Some(hi.saturating_sub(lo) + 1)
}

/// One load phase: a fresh server on a fresh port, the load `f` sends to
/// it, shutdown (which joins the workers, so the books are final), and the
/// phase's checks — connection budget, both sets of books, every answer.
///
/// The serving side — the server's threads and the client threads `f`
/// spawns — is confined to the first allowed CPU for the phase. Left to
/// the scheduler, a sequential client's p50 is bimodal (about 48 or 125 µs
/// on the 2-vCPU sandbox) according to whether a request's hand-offs wake
/// an idle vCPU; on one CPU they never do.
fn with_server<T>(
    run: &mut Run,
    inputs: &DaemonInputs,
    cell: &Cell,
    f: impl FnOnce(SocketAddr) -> (Vec<Reply>, T),
) -> (Vec<Reply>, T, ServerBooks) {
    let before = ServerBooks::now();
    affinity::pin(affinity::serving());
    let server =
        Server::start(&ServerConfig::default(), Arc::clone(cell), Arc::clone(&inputs.dir), None)
            .expect("bind 127.0.0.1:0");
    let (replies, extra) = f(server.addr());
    // Straight after an open-loop rung the admission queue may still be
    // full, and `/statz` is shed like any request: ask again until it is not.
    let mut statz_tries = 0;
    let statz = loop {
        statz_tries += 1;
        let reply = loadgen::get(server.addr(), "/statz");
        if reply.0 != 503 || statz_tries == 100 {
            break reply;
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    server.shutdown();
    affinity::pin(affinity::all());
    let books = ServerBooks::now().since(before);

    let client = Books::of(&replies);
    let sent = client.sent + statz_tries;
    let budget = CONNECTION_BUDGET.min(ephemeral_ports().unwrap_or(usize::MAX)) as u64;
    run.connections += sent;
    run.check_quiet("daemon: connections per server within budget", sent <= budget, || {
        format!("{sent} connections, budget {budget}")
    });
    run.check_quiet("daemon: client books balance", client.balanced(), || format!("{client:?}"));
    run.check_quiet(
        "daemon: server books balance and match the client's",
        books.received == books.served + books.shed + books.errors && books.received == sent,
        || format!("{books:?}, client sent {sent}"),
    );
    // `/statz` publishes the same counters the balance above was read from.
    let statz_ok =
        statz.0 == 200 && Json::parse(&statz.1).is_ok_and(|j| j.get("queries_received").is_some());
    run.check_quiet("daemon: /statz answers with the books", statz_ok, || statz.1.clone());
    verify_answers(run, inputs, &replies);
    (replies, extra, books)
}

/// Every 200 `/query` body parses and carries `staleness_s` and
/// `degraded`; every [`loadgen::VERIFY_EVERY`]-th is compared with a
/// direct `DomainDir::lookup` + snapshot read. The answer was computed
/// from a snapshot current between send and reply, so it must agree with
/// the one loaded before or the one loaded after.
fn verify_answers(run: &mut Run, inputs: &DaemonInputs, replies: &[Reply]) {
    let (mut malformed, mut wrong, mut compared) = (0u64, 0u64, 0u64);
    for r in replies.iter().filter(|r| r.status == 200 && r.path.starts_with("/query")) {
        let body = match Json::parse(&r.body) {
            Ok(b) if b.get("staleness_s").is_some() && b.get("degraded").is_some() => b,
            _ => {
                malformed += 1;
                continue;
            }
        };
        let Some((before, after)) = &r.around else { continue };
        compared += 1;
        let name = r.path.trim_start_matches("/query?domain=");
        let agrees = |snap: &IndexSnapshot| {
            let direct = inputs.dir.lookup(name).and_then(|(_, nsset)| snap.nssets.get(&nsset.0));
            body.get("attacks_seen").and_then(Json::as_u64)
                == Some(direct.map_or(0, |s| s.attacks_seen))
                && body.get("impact_on_rtt").and_then(Json::as_f64)
                    == direct.and_then(|s| s.impact_on_rtt)
        };
        if !agrees(before) && !agrees(after) {
            wrong += 1;
        }
    }
    run.answers_compared += compared;
    run.check_quiet("daemon: every 200 body is well-formed", malformed == 0, || {
        format!("{malformed} malformed")
    });
    run.check_quiet("daemon: sampled answers equal a direct index read", wrong == 0, || {
        format!("{wrong} of {compared} differ")
    });
}

/// Count `replies` as attempted queries; anything but `expect` failed.
fn count_queries(run: &mut Run, replies: &[Reply], expect: u16) {
    run.attempted += replies.len() as u64;
    run.failed += replies.iter().filter(|r| r.status != expect).count() as u64;
}

struct Ingested {
    wall_s: f64,
    full_fp: u64,
    cell: Cell,
}

/// One fresh `Ingestor` run to completion: clean transport, no checkpoint
/// directory, publishing into `cell`.
fn ingest_into(inputs: &DaemonInputs, cell: Cell) -> Ingested {
    let mut ingestor = Ingestor::new(&inputs.source, IngestConfig::default(), Arc::clone(&cell));
    let start = Instant::now();
    ingestor.run();
    let wall_s = start.elapsed().as_secs_f64();
    let full_fp = cell.load().full_fp.expect("the final publish carries the full fingerprint");
    Ingested { wall_s, full_fp, cell }
}

fn query_paths(inputs: &DaemonInputs, seed: u64, stream: u64, count: usize) -> Vec<String> {
    loadgen::zipf_ranks(seed, stream, inputs.names.len(), count)
        .into_iter()
        .map(|r| loadgen::query_path(&inputs.names[r as usize]))
        .collect()
}

fn latencies(replies: &[Reply]) -> Vec<f64> {
    stats::sorted(replies.iter().map(|r| r.latency_us).collect())
}

fn p50(replies: &[Reply]) -> f64 {
    stats::percentile(&latencies(replies), 500)
}

/// A round counts as run at the sandbox's fast speed when its p50 is
/// within this factor of the fastest round's.
const FAST_ROUND: f64 = 1.10;

/// `query_rtt_p50_us` is taken over stretches of this many consecutive
/// replies: a stretch lasts 15 ms (sequential) to 0.2 s (with think time),
/// short enough to fall inside one of the sandbox's fast stretches, where a
/// whole round of the mixed workload (a second or more, both CPUs busy)
/// often does not: ten same-seed runs spread 29 % on the fastest round's
/// p50 there.
const STRETCH: usize = 500;

/// Ingest walls and fingerprints of the repeats, the sorted latencies of
/// each query round, and the p50 of every stretch of every round.
#[derive(Default)]
pub struct Measured {
    walls: Vec<f64>,
    fps: Vec<u64>,
    rounds: Vec<Vec<f64>>,
    stretch_p50s: Vec<f64>,
}

impl Measured {
    fn ingest(&mut self, done: &Ingested) {
        self.walls.push(done.wall_s);
        self.fps.push(done.full_fp);
    }

    /// Outside smoke runs a round must leave ten samples beyond its p99.
    fn round(&mut self, run: &mut Run, replies: &[Reply]) {
        count_queries(run, replies, 200);
        let sorted = latencies(replies);
        let supported = stats::highest_supported_percentile(sorted.len()).is_some_and(|p| p >= 990);
        run.check_quiet(
            "daemon: a round leaves ten samples beyond its p99",
            supported || run.smoke,
            || format!("{} samples", sorted.len()),
        );
        self.rounds.push(sorted);
        self.stretch_p50s.extend(replies.chunks_exact(STRETCH).map(p50));
    }

    fn round_percentiles(&self) -> Vec<(f64, f64)> {
        self.rounds.iter().map(|r| (stats::percentile(r, 500), stats::percentile(r, 990))).collect()
    }

    /// The fastest stretch's p50, like every timing.
    fn p50_us(&self) -> f64 {
        stats::fastest(&self.stretch_p50s)
    }

    /// A tail has no fastest repeat to report — the lowest per-round p99
    /// is the luckiest round's — so the tail is the p99 of the pooled
    /// samples of every round that ran at the fast speed, told by its p50.
    fn p99_us(&self) -> f64 {
        let round_p50s: Vec<f64> = self.round_percentiles().iter().map(|p| p.0).collect();
        let limit = stats::fastest(&round_p50s) * FAST_ROUND;
        let fast = self.rounds.iter().filter(|r| stats::percentile(r, 500) <= limit);
        stats::percentile(&stats::sorted(fast.flatten().copied().collect()), 990)
    }

    /// The checks and notes of the cycles run so far.
    fn close(&self, run: &mut Run) {
        run.attempted += self.walls.len() as u64;
        let drifted = self.fps.iter().filter(|&&fp| fp != self.fps[0]).count() as u64;
        run.failed += drifted;
        run.check(
            "daemon: full_fingerprint equal across ingest repeats",
            drifted == 0,
            format!("{} of {} differ from {:#018x}", drifted, self.fps.len(), self.fps[0]),
        );
        run.note("daemon_full_fingerprint", format!("{:#018x}", self.fps[0]));
        run.note("ingest_walls_s", format!("{:.4?}", self.walls));
        run.note("query_rounds_p50_p99_us", format!("{:.1?}", self.round_percentiles()));
        run.note(
            "query_stretch_p50s_us",
            format!(
                "{} stretches of {STRETCH} replies: fastest {:.1}, median {:.1}",
                self.stretch_p50s.len(),
                self.p50_us(),
                stats::median(&self.stretch_p50s)
            ),
        );
    }

    /// The end-to-end metrics of the daemon half.
    pub fn report(&self, run: &mut Run, inputs: &DaemonInputs) {
        self.close(run);
        run.metric(
            "ingest_records_per_s",
            inputs.source.total_records as f64 / stats::fastest(&self.walls),
        );
        run.metric("query_rtt_p50_us", self.p50_us());
    }

    /// One cycle of the spans-off measurement. `Seq`: a fresh ingest to
    /// completion, then one round of sequential queries against its final
    /// snapshot. `Mixed`: fresh ingests, one after the other on the CPU
    /// beside the serving one, with one reader alongside until it has
    /// [`MIXED_ROUND`] replies and the ingest then running has ended; the
    /// round is what the reader got through.
    pub fn cycle(&mut self, run: &mut Run, inputs: &DaemonInputs, plan: &DaemonPlan, seed: u64) {
        let stream = self.rounds.len() as u64;
        match plan.mode {
            Mode::Seq => {
                let done = ingest_into(inputs, new_cell());
                let paths = query_paths(inputs, seed, stream, plan.round_queries);
                let (replies, _, _) = with_server(run, inputs, &done.cell, |addr| {
                    (loadgen::run_closed(addr, paths, Duration::ZERO, None, &done.cell), ())
                });
                self.ingest(&done);
                self.round(run, &replies);
            }
            Mode::Mixed => {
                let cell = new_cell();
                let round = if run.smoke { STRETCH } else { MIXED_ROUND };
                // More names than one reader gets through in the stretch.
                let paths = query_paths(inputs, seed, stream, CONNECTION_BUDGET - 1);
                let (replies, ingests, _) = with_server(run, inputs, &cell, |addr| {
                    let session = Session::default();
                    std::thread::scope(|scope| {
                        let reader = scope.spawn(|| {
                            loadgen::run_closed(addr, paths, THINK, Some(&session), &cell)
                        });
                        affinity::pin(affinity::beside_serving());
                        let mut ingests = Vec::new();
                        while session.replies.load(Ordering::SeqCst) < round {
                            ingests.push(ingest_into(inputs, Arc::clone(&cell)));
                        }
                        session.stop.store(true, Ordering::SeqCst);
                        (reader.join().expect("reader thread"), ingests)
                    })
                });
                ingests.iter().for_each(|done| self.ingest(done));
                self.round(run, &replies);
            }
        }
    }
}

/// One traced ingest pass: `Ingestor::run`'s loop for a clean transport
/// and no checkpoint directory, a span around each step. Segment cloning
/// and `SwapCell::store` stay outside the step spans: they are the root
/// span's self time, `dnsimpactd.ingest.unattributed_ms`.
fn replay_ingest(rec: &mut Recorder, inputs: &DaemonInputs) -> (u32, IndexState, u64) {
    let cfg = IngestConfig::default();
    let batches = &inputs.source.batches;
    let cell = new_cell();
    let mut state = IndexState::default();
    let mut retransmits = 0;
    let root = rec.enter("dnsimpactd.ingest");
    for segment in batches.chunks(cfg.segment) {
        let segment = segment.to_vec();
        let (delivered, stats) = rec.time("streamproc.supervise.transport", || {
            reliable_stream("dnsimpactd-feed", segment, None, &cfg.supervisor)
        });
        retransmits += stats.dropped;
        for batch in &delivered {
            rec.time("dnsimpactd.index.apply", || state.apply(&inputs.source.world, batch));
            let snap = rec
                .time("dnsimpactd.index.snapshot", || state.snapshot(batches.len() as u64, false));
            cell.store(snap);
        }
    }
    // The final publish: one more snapshot, stamped with the full fingerprint.
    let mut last =
        rec.time("dnsimpactd.index.snapshot", || state.snapshot(batches.len() as u64, false));
    last.full_fp = Some(rec.time("dnsimpactd.index.full_fingerprint", || state.full_fingerprint()));
    cell.store(last);
    rec.exit(root);
    (root, state, retransmits)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time of the whole process, in nanoseconds. Unlike a
/// sum over `/proc/self/task`, the process clock keeps the time of threads
/// that have exited: a server's workers are joined before `with_server`
/// returns.
fn process_cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on the
    // 64-bit Linux targets this benchmark builds for).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

fn handler_hist() -> (u64, u64) {
    let h = obs::histogram("sched.daemon.http.latency_us.query").snapshot();
    (h.sum, h.count)
}

/// The traced run of the daemon half: every `per_layer` metric of the
/// daemon's layers.
pub fn trace(
    run: &mut Run,
    rec: &mut Recorder,
    inputs: &DaemonInputs,
    plan: &DaemonPlan,
    seed: u64,
) {
    run.metric("dnsimpactd.feed.build_ms", inputs.feed_build_ms);
    run.metric("dnsimpactd.feed.batches", inputs.source.batches.len() as f64);
    run.metric("dnsimpactd.feed.records", inputs.source.total_records as f64);

    let warm = ingest_into(inputs, new_cell());
    let reference = ingest_into(inputs, new_cell());
    run.attempted += 1;
    let mut passes = Vec::new();
    let mut walls = Vec::new();
    let mut drifted = 0;
    let mut retransmits = 0;
    let mut nssets = 0;
    for _ in 0..TRACED_PASSES {
        let (root, state, dropped) = replay_ingest(rec, inputs);
        if state.full_fingerprint() != reference.full_fp {
            drifted += 1;
        }
        passes.push(rec.self_ms_by_name(root));
        walls.push(rec.duration_ms(root));
        retransmits = dropped;
        nssets = state.nssets.len();
    }
    run.attempted += TRACED_PASSES as u64;
    run.failed += drifted;
    run.check(
        "daemon: traced ingest replay reproduces Ingestor::run's full_fingerprint",
        drifted == 0,
        format!("{drifted} of {TRACED_PASSES} passes differ from {:#018x}", reference.full_fp),
    );
    let ms = |span: &str| {
        stats::median(
            &passes.iter().map(|p| p.get(span).copied().unwrap_or(0.0)).collect::<Vec<_>>(),
        )
    };
    let apply_ms = ms("dnsimpactd.index.apply");
    let snapshot_ms = ms("dnsimpactd.index.snapshot");
    run.metric("streamproc.supervise.transport_ms", ms("streamproc.supervise.transport"));
    run.metric("streamproc.supervise.retransmits", retransmits as f64);
    run.metric("dnsimpactd.index.apply_ms", apply_ms);
    run.metric(
        "dnsimpactd.index.apply_records_per_s",
        inputs.source.total_records as f64 / (apply_ms / 1e3),
    );
    run.metric("dnsimpactd.index.snapshot_ms", snapshot_ms);
    run.metric(
        "dnsimpactd.index.snapshot_mean_us",
        snapshot_ms * 1e3 / (inputs.source.batches.len() + 1) as f64,
    );
    run.metric("dnsimpactd.index.full_fingerprint_ms", ms("dnsimpactd.index.full_fingerprint"));
    run.metric("dnsimpactd.index.nssets", nssets as f64);
    run.metric("dnsimpactd.ingest.unattributed_ms", ms("dnsimpactd.ingest"));
    // Fastest traced pass against the fastest of three untraced ingests,
    // two before the passes and one after (as in `batch::trace`).
    let after = ingest_into(inputs, new_cell());
    let untraced_s = stats::fastest(&[warm.wall_s, reference.wall_s, after.wall_s]);
    run.metric(
        "trace.ingest_overhead_pct",
        (stats::fastest(&walls) / 1e3 / untraced_s - 1.0) * 100.0,
    );

    // The index read a `/query` makes, without the HTTP around it.
    let snap = reference.cell.load();
    let ranks = loadgen::zipf_ranks(seed, 1_000, inputs.names.len(), LOOKUPS);
    let start = Instant::now();
    for &r in &ranks {
        let hit = inputs.dir.lookup(&inputs.names[r as usize]).map(|(_, n)| snap.nssets.get(&n.0));
        std::hint::black_box(hit);
    }
    run.metric("dnsimpactd.index.lookup_ns", start.elapsed().as_nanos() as f64 / LOOKUPS as f64);

    // The workload's own query rounds, for the tail that is not gated.
    let mut cycles = Measured::default();
    for _ in 0..TAIL_CYCLES {
        cycles.cycle(run, inputs, plan, seed);
    }
    cycles.close(run);
    run.metric("query_rtt_p99_us", cycles.p99_us());

    trace_routes(run, rec, inputs, plan, seed, &reference.cell);
    trace_open_loop(run, inputs, plan, seed, &reference.cell);
    run.metric("loadgen.connections", run.connections as f64);
}

/// Closed loop, one client, each route alone against the final snapshot.
fn trace_routes(
    run: &mut Run,
    rec: &mut Recorder,
    inputs: &DaemonInputs,
    plan: &DaemonPlan,
    seed: u64,
    cell: &Cell,
) {
    let n = plan.route_queries;
    // Connect + close and nothing else: what a request costs before the
    // daemon reads a byte of it.
    let (probes, _, _) = with_server(run, inputs, cell, |addr| {
        let probes = (0..n)
            .map(|_| {
                let span = rec.enter("dnsimpactd.http.connect");
                let ok = TcpStream::connect(addr).is_ok();
                rec.exit(span);
                Reply {
                    path: "(connect)".into(),
                    status: if ok { 200 } else { 0 },
                    body: String::new(),
                    latency_us: rec.duration_ms(span) * 1e3,
                    around: None,
                }
            })
            .collect();
        (probes, ())
    });
    run.metric("dnsimpactd.http.connect_p50_us", p50(&probes));

    let mut closed = |run: &mut Run, paths: Vec<String>, expect: u16| {
        let handler_before = handler_hist();
        // Both CPU readings are taken around the requests alone: the phase's
        // checks parse every reply, which is the benchmark's CPU time.
        let (replies, cpu_ns, books) = with_server(run, inputs, cell, |addr| {
            let mut replies = Vec::new();
            let cpu_before = process_cpu_ns();
            for path in paths {
                let span = rec.enter("dnsimpactd.http.request");
                replies.extend(loadgen::run_closed(addr, vec![path], Duration::ZERO, None, cell));
                rec.exit(span);
            }
            (replies, process_cpu_ns() - cpu_before)
        });
        let handler_after = handler_hist();
        count_queries(run, &replies, expect);
        let handled = (handler_after.1 - handler_before.1).max(1);
        let handler_mean_us = (handler_after.0 - handler_before.0) as f64 / handled as f64;
        (p50(&replies), cpu_ns as f64 / 1e3 / replies.len() as f64, handler_mean_us, books)
    };
    let mut books = ServerBooks::default();
    let (healthz_p50, _, _, b) = closed(run, vec!["/healthz".to_string(); n], 200);
    books.add(b);
    let (query_p50, cpu_us, handler_mean_us, b) =
        closed(run, query_paths(inputs, seed, 1_001, 2 * n), 200);
    books.add(b);
    let unknown = (0..n).map(|i| loadgen::query_path(&format!("no-such-{i}.invalid"))).collect();
    let (notfound_p50, _, _, b) = closed(run, unknown, 404);
    books.add(b);
    run.metric("dnsimpactd.http.healthz_p50_us", healthz_p50);
    run.metric("dnsimpactd.http.query_p50_us", query_p50);
    run.metric("dnsimpactd.http.notfound_p50_us", notfound_p50);
    run.metric("dnsimpactd.http.handler_mean_us", handler_mean_us);
    run.metric("dnsimpactd.http.cpu_us_per_query", cpu_us);

    // Closed loop at the most clients this process may run.
    let paths = query_paths(inputs, seed, 1_002, 6 * n);
    let (replies, wall, b) =
        with_server(run, inputs, cell, |addr| loadgen::run_closed_max(addr, &paths, cell));
    books.add(b);
    count_queries(run, &replies, 200);
    run.metric("dnsimpactd.http.closed_qps", replies.len() as f64 / wall.as_secs_f64());
    run.metric("dnsimpactd.http.received", books.received as f64);
    run.metric("dnsimpactd.http.served", books.served as f64);
    run.metric("dnsimpactd.http.shed", books.shed as f64);
    run.metric("dnsimpactd.http.errors", books.errors as f64);
}

/// ROADMAP 1(d): the open-loop ladder. Latency counts from the due time,
/// so queue wait shows as p99 rising at the upper rungs before the closed
/// loop's qps stops rising. Reported per layer, never gated: across
/// identical runs the p99 swings with the generator's own lag. Its
/// requests are not counted as attempted or failed operations: past the
/// sustainable rate a shed is the daemon's contract at work, and a rung
/// with any failure is simply not sustainable.
fn trace_open_loop(
    run: &mut Run,
    inputs: &DaemonInputs,
    plan: &DaemonPlan,
    seed: u64,
    cell: &Cell,
) {
    let mut sustainable = 0;
    let (mut lag_p99_us, mut late_share) = (0.0f64, 0.0f64);
    for (i, qps) in RUNGS_QPS.into_iter().enumerate() {
        let schedule = OpenSchedule::for_duration(qps, plan.rung_seconds);
        let paths = query_paths(inputs, seed, 2_000 + i as u64, schedule.count);
        let (replies, timings, _) =
            with_server(run, inputs, cell, |addr| loadgen::run_open(addr, &paths, schedule));
        let sorted = latencies(&replies);
        let p99 = stats::percentile(&sorted, 990);
        let shed = replies.iter().filter(|r| r.status == 503).count();
        let failed = replies.iter().filter(|r| r.status != 200).count();
        let lag = loadgen::lag_account(&timings, schedule.gap_ns());
        run.metric(&format!("dnsimpactd.http.p50_us.at_{qps}qps"), stats::percentile(&sorted, 500));
        run.metric(&format!("dnsimpactd.http.p99_us.at_{qps}qps"), p99);
        run.metric(
            &format!("dnsimpactd.http.shed_share.at_{qps}qps"),
            shed as f64 / replies.len() as f64,
        );
        if p99 <= LATENCY_LIMIT_US && failed == 0 && !lag.growing {
            sustainable = sustainable.max(qps);
        }
        lag_p99_us = lag_p99_us.max(lag.lag_p99_us);
        late_share = late_share.max(lag.late_share);
    }
    run.metric("dnsimpactd.http.sustainable_qps", sustainable as f64);
    run.metric("loadgen.lag_p99_us", lag_p99_us);
    run.metric("loadgen.late_share", late_share);
}
