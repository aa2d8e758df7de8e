//! A minimal hand-rolled HTTP/1.1 server for the query API.
//!
//! No HTTP library exists in this workspace, and the API surface is four
//! GET routes returning small JSON bodies — so this is a deliberately
//! tiny server: an accept thread that admits connections into a
//! fixed-capacity [`streamproc::BoundedQueue`], and N worker threads
//! that pop, parse one request, and answer from the current
//! [`IndexSnapshot`].
//!
//! The overload contract lives at admission: `try_push` never blocks and
//! never buffers beyond capacity. A full queue means the connection gets
//! an immediate `503 {"error":"overloaded"}` and a counted shed — memory
//! stays bounded no matter the offered load, and the books balance:
//! `queries_received == queries_served + queries_shed + query_errors`.
//! (Those counters are `sched.`-prefixed: which queries shed depends on
//! thread timing, so they are real observability but excluded from
//! determinism diffs.)
//!
//! Routes:
//!
//! - `GET /healthz` — liveness: the process accepts and answers.
//! - `GET /readyz` — readiness: 200 only while the served snapshot is
//!   fresher than the staleness bound; 503 with the same JSON body
//!   otherwise, so probes and humans see *why*.
//! - `GET /query?domain=NAME` — the impact answer, always carrying
//!   `staleness_s` and `degraded`.
//! - `GET /statz` — ingest progress, fingerprints, the serving-side
//!   query accounting (received/served/shed/errors), the last durable
//!   checkpoint sequence, and current SLO verdicts — one consistent
//!   snapshot for the CI gate and the watchdog.
//! - `GET /metricsz` — every registered metric as Prometheus text
//!   exposition ([`crate::expo`]), `text/plain`.
//! - `GET /seriesz?name=NAME&last=N` — a window of one live time series,
//!   split into deterministic fields and annotation.
//! - `GET /sloz` — SLO specs, deterministic verdict transitions, live
//!   burn rates, and the overload-vs-starvation diagnosis.
//!
//! Every route is instrumented with a `sched.daemon.http.requests.*`
//! counter and a `sched.daemon.http.latency_us.*` histogram (the route
//! key set is fixed, so the metric names stay `&'static`).
//!
//! Query strings are parsed by [`parse_query`], which treats hostile
//! input as a structured `400` rather than a fallthrough: duplicate
//! keys, bad `%`-escapes, oversized keys/values, unknown parameters,
//! and non-UTF-8 decodes are all named in the error body.

use crate::index::{BaselineSource, DomainDir, IndexSnapshot};
use crate::telemetry::Telemetry;
use obs::metrics::Held;
use obs::{Counter, Histogram, Json};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use streamproc::{BoundedQueue, PushError, SwapCell};

/// Serving policy.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (tests).
    pub bind: String,
    pub workers: usize,
    /// Admission queue capacity; overflow sheds with a 503.
    pub queue_cap: usize,
    /// `/readyz` flips not-ready when the snapshot is staler than this.
    pub staleness_bound_s: u64,
    /// Artificial per-request delay — a test hook to force queue overflow
    /// deterministically-enough to assert shedding happens and is counted.
    pub handle_delay_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            bind: "127.0.0.1:0".into(),
            workers: 4,
            queue_cap: 64,
            staleness_bound_s: 1800,
            handle_delay_ms: 0,
        }
    }
}

/// A running server; dropping it does NOT stop it — call [`Server::shutdown`].
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    queue: Arc<BoundedQueue<TcpStream>>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving the snapshots published through `cell`.
    /// `telemetry` enables the live plane (`/seriesz`, `/sloz`, and the
    /// SLO block in `/statz`); without it those routes answer 404.
    pub fn start(
        cfg: &ServerConfig,
        cell: Arc<SwapCell<IndexSnapshot>>,
        dir: Arc<DomainDir>,
        telemetry: Option<Arc<Telemetry>>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.bind)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(BoundedQueue::new(cfg.queue_cap.max(1)));

        let accept = {
            let stop = Arc::clone(&stop);
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(conn) = conn else { continue };
                    QUERIES_RECEIVED.incr();
                    match queue.try_push(conn) {
                        Ok(()) => {}
                        Err(PushError::Full(conn)) | Err(PushError::Closed(conn)) => {
                            QUERIES_SHED.incr();
                            // Drain the request before answering: closing a
                            // socket with unread data RSTs the connection and
                            // can discard the queued 503 — the client would
                            // see a reset, not the shed verdict. Bounded by a
                            // short timeout so a slow client cannot stall
                            // admission for long.
                            let _ = drain_request(&conn, Duration::from_millis(250));
                            let _ = respond(conn, 503, &{
                                let mut b = Json::obj();
                                b.set("error", Json::Str("overloaded".into()));
                                b
                            });
                        }
                    }
                }
            })
        };

        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let cell = Arc::clone(&cell);
                let dir = Arc::clone(&dir);
                let cfg = cfg.clone();
                let telemetry = telemetry.clone();
                std::thread::spawn(move || {
                    while let Some(conn) = queue.pop() {
                        if cfg.handle_delay_ms > 0 {
                            std::thread::sleep(Duration::from_millis(cfg.handle_delay_ms));
                        }
                        match handle(conn, &cell, &dir, &cfg, telemetry.as_deref()) {
                            Ok(()) => QUERIES_SERVED.incr(),
                            Err(_) => QUERY_ERRORS.incr(),
                        }
                    }
                })
            })
            .collect();

        Ok(Server { addr, stop, queue, accept: Some(accept), workers })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain the admitted queue, join every thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop is blocked in accept(); poke it awake. The
        // wakeup connection is seen after `stop` and never counted.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Best-effort read of one request's head (request line + headers) so the
/// peer's send buffer is empty before we respond and close. Stops at the
/// blank line, EOF, an 8 KiB cap, or `timeout` — whichever comes first.
fn drain_request(mut conn: &TcpStream, timeout: Duration) -> std::io::Result<()> {
    conn.set_read_timeout(Some(timeout))?;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = conn.read(&mut chunk)?;
        if n == 0 {
            return Ok(());
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
            return Ok(());
        }
    }
}

// The accept and worker loops count every connection: each handle is
// interned at its first use and held, so no request takes the metric
// registry's lock.
static QUERIES_RECEIVED: Held<Counter> = Held::counter("sched.daemon.queries_received");
static QUERIES_SHED: Held<Counter> = Held::counter("sched.daemon.queries_shed");
static QUERIES_SERVED: Held<Counter> = Held::counter("sched.daemon.queries_served");
static QUERY_ERRORS: Held<Counter> = Held::counter("sched.daemon.query_errors");

/// One route's request counter and latency histogram.
struct RouteMetrics {
    requests: Held<Counter>,
    latency_us: Held<Histogram>,
}

macro_rules! route {
    ($name:literal) => {
        (
            concat!("/", $name),
            RouteMetrics {
                requests: Held::counter(concat!("sched.daemon.http.requests.", $name)),
                latency_us: Held::histogram(concat!("sched.daemon.http.latency_us.", $name)),
            },
        )
    };
}

/// The fixed route-metric table, each handle interned at its route's first
/// request. Unknown paths share the `other` pair, so hostile path spam
/// cannot grow the registry.
static ROUTES: [(&str, RouteMetrics); 8] = [
    route!("healthz"),
    route!("readyz"),
    route!("statz"),
    route!("query"),
    route!("metricsz"),
    route!("seriesz"),
    route!("sloz"),
    route!("other"),
];

fn route_metrics(path: &str) -> &'static RouteMetrics {
    let (_, other) = &ROUTES[ROUTES.len() - 1];
    ROUTES.iter().find(|(p, _)| *p == path).map_or(other, |(_, m)| m)
}

/// Read one request line + headers (8 KiB cap), route, respond.
fn handle(
    mut conn: TcpStream,
    cell: &SwapCell<IndexSnapshot>,
    dir: &DomainDir,
    cfg: &ServerConfig,
    telemetry: Option<&Telemetry>,
) -> std::io::Result<()> {
    conn.set_read_timeout(Some(Duration::from_secs(5)))?;
    conn.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = conn.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
            break;
        }
    }
    let text = String::from_utf8_lossy(&buf);
    let request_line = text.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, target) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        let mut body = Json::obj();
        body.set("error", Json::Str("only GET is served".into()));
        return respond(conn, 405, &body);
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let metrics = route_metrics(path);
    metrics.requests.incr();
    let started = Instant::now();
    let result = if path == "/metricsz" {
        // Text exposition, not JSON — rendered from the whole registry.
        respond_text(conn, 200, &crate::expo::render(&obs::registry().snapshot()))
    } else {
        let snap = cell.load();
        let (status, body) = route(path, query, &snap, dir, cfg, telemetry);
        respond(conn, status, &body)
    };
    metrics.latency_us.record(started.elapsed().as_micros() as u64);
    result
}

/// Query-string hardening limits. Small on purpose: every legitimate
/// client of this API sends one short pair.
const MAX_QUERY_PAIRS: usize = 8;
const MAX_KEY_LEN: usize = 64;
const MAX_VALUE_LEN: usize = 256;
const MAX_QUERY_LEN: usize = 2048;

fn percent_decode(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .ok_or_else(|| format!("truncated %-escape in {s:?}"))?;
                let decode = |b: u8| (b as char).to_digit(16);
                let (hi, lo) = match (decode(hex[0]), decode(hex[1])) {
                    (Some(hi), Some(lo)) => (hi, lo),
                    _ => {
                        return Err(format!(
                            "bad %-escape %{} in {s:?}",
                            String::from_utf8_lossy(hex)
                        ))
                    }
                };
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| format!("{s:?} does not decode to UTF-8"))
}

/// Strict query-string parser: every key must be in `allowed`, appear at
/// most once, carry a `=`, decode cleanly, and fit the size limits. Any
/// violation is an `Err` naming the offending piece — the route turns it
/// into a structured 400, never a 404 fallthrough.
fn parse_query(raw: Option<&str>, allowed: &[&str]) -> Result<Vec<(String, String)>, String> {
    let Some(raw) = raw else { return Ok(Vec::new()) };
    if raw.is_empty() {
        return Ok(Vec::new());
    }
    if raw.len() > MAX_QUERY_LEN {
        return Err(format!("query string is {} bytes; max {MAX_QUERY_LEN}", raw.len()));
    }
    let mut pairs: Vec<(String, String)> = Vec::new();
    for kv in raw.split('&') {
        if kv.is_empty() {
            return Err("empty query parameter (stray '&')".into());
        }
        if pairs.len() >= MAX_QUERY_PAIRS {
            return Err(format!("more than {MAX_QUERY_PAIRS} query parameters"));
        }
        let Some((k, v)) = kv.split_once('=') else {
            return Err(format!("query parameter {kv:?} has no '='"));
        };
        if k.len() > MAX_KEY_LEN {
            return Err(format!("query key is {} bytes; max {MAX_KEY_LEN}", k.len()));
        }
        if v.len() > MAX_VALUE_LEN {
            return Err(format!("value of {k:?} is {} bytes; max {MAX_VALUE_LEN}", v.len()));
        }
        let k = percent_decode(k)?;
        let v = percent_decode(v)?;
        if !allowed.contains(&k.as_str()) {
            return Err(format!("unknown query parameter {k:?}; expected one of {allowed:?}"));
        }
        if pairs.iter().any(|(seen, _)| *seen == k) {
            return Err(format!("duplicate query parameter {k:?}"));
        }
        pairs.push((k, v));
    }
    Ok(pairs)
}

fn bad_request(detail: String) -> (u16, Json) {
    let mut b = Json::obj();
    b.set("error", Json::Str("bad query string".into()));
    b.set("detail", Json::Str(detail));
    (400, b)
}

fn param<'a>(pairs: &'a [(String, String)], key: &str) -> Option<&'a str> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

fn route(
    path: &str,
    query: Option<&str>,
    snap: &IndexSnapshot,
    dir: &DomainDir,
    cfg: &ServerConfig,
    telemetry: Option<&Telemetry>,
) -> (u16, Json) {
    match path {
        "/healthz" => {
            let mut b = Json::obj();
            b.set("ok", Json::Bool(true));
            (200, b)
        }
        "/readyz" => {
            let ready = snap.ready(cfg.staleness_bound_s);
            let mut b = Json::obj();
            b.set("ready", Json::Bool(ready));
            b.set("staleness_s", Json::U64(snap.staleness_s()));
            b.set("staleness_bound_s", Json::U64(cfg.staleness_bound_s));
            b.set("applied_seq", Json::U64(snap.applied_seq));
            (if ready { 200 } else { 503 }, b)
        }
        "/statz" => {
            let mut b = Json::obj();
            b.set("applied_seq", Json::U64(snap.applied_seq));
            b.set("total_batches", Json::U64(snap.total_batches));
            b.set("records_applied", Json::U64(snap.records_applied));
            b.set("episodes", Json::U64(snap.episodes));
            b.set("joined_rows", Json::U64(snap.joined_rows));
            b.set("clock_s", Json::U64(snap.clock.secs()));
            b.set("staleness_s", Json::U64(snap.staleness_s()));
            b.set("ready", Json::Bool(snap.ready(cfg.staleness_bound_s)));
            b.set("ingest_done", Json::Bool(snap.ingest_done()));
            b.set("state_fp", Json::Str(format!("{:#018x}", snap.state_fp)));
            if let Some(fp) = snap.full_fp {
                b.set("full_fp", Json::Str(format!("{fp:#018x}")));
            }
            // The serving-side accounting, in the same snapshot the CI
            // gate and the watchdog already poll: shedding was previously
            // visible only in the final report.
            b.set("queries_received", Json::U64(QUERIES_RECEIVED.get()));
            b.set("queries_served", Json::U64(QUERIES_SERVED.get()));
            b.set("queries_shed", Json::U64(QUERIES_SHED.get()));
            b.set("query_errors", Json::U64(QUERY_ERRORS.get()));
            if let Some(tel) = telemetry {
                b.set("checkpoint_seq", Json::U64(tel.checkpoint_seq()));
                b.set("slo", tel.statz_slo());
            }
            (200, b)
        }
        "/query" => {
            let pairs = match parse_query(query, &["domain"]) {
                Ok(p) => p,
                Err(e) => return bad_request(e),
            };
            let Some(name) = param(&pairs, "domain").filter(|v| !v.is_empty()) else {
                return bad_request("missing ?domain=NAME".into());
            };
            let Some((_, nsset)) = dir.lookup(name) else {
                let mut b = Json::obj();
                b.set("error", Json::Str(format!("unknown domain {name:?}")));
                return (404, b);
            };
            (200, answer(name, nsset.0, snap, cfg))
        }
        "/seriesz" => {
            let Some(tel) = telemetry else {
                let mut b = Json::obj();
                b.set("error", Json::Str("live telemetry is not enabled".into()));
                return (404, b);
            };
            let pairs = match parse_query(query, &["name", "last"]) {
                Ok(p) => p,
                Err(e) => return bad_request(e),
            };
            let Some(name) = param(&pairs, "name").filter(|v| !v.is_empty()) else {
                return bad_request("missing ?name=SERIES".into());
            };
            let last = match param(&pairs, "last") {
                None => 64,
                Some(raw) => match raw.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => return bad_request(format!("last={raw:?} is not a positive integer")),
                },
            };
            match tel.seriesz(name, last) {
                Some(body) => (200, body),
                None => {
                    let mut b = Json::obj();
                    b.set("error", Json::Str(format!("unknown series {name:?}")));
                    b.set(
                        "known",
                        Json::Array(
                            tel.series_names().into_iter().map(|(n, _)| Json::Str(n)).collect(),
                        ),
                    );
                    (404, b)
                }
            }
        }
        "/sloz" => {
            let Some(tel) = telemetry else {
                let mut b = Json::obj();
                b.set("error", Json::Str("live telemetry is not enabled".into()));
                return (404, b);
            };
            (200, tel.sloz())
        }
        _ => {
            let mut b = Json::obj();
            b.set("error", Json::Str(format!("no route {path:?}")));
            (404, b)
        }
    }
}

/// The impact answer for one domain. Degradation is part of the answer,
/// not a side channel: `staleness_s` is always present, and `degraded`
/// is true whenever the view is stale past the bound OR the impact ratio
/// rests on a fallback (week-before) or missing baseline.
fn answer(name: &str, nsset: u32, snap: &IndexSnapshot, cfg: &ServerConfig) -> Json {
    let mut b = Json::obj();
    b.set("domain", Json::Str(name.into()));
    b.set("nsset", Json::U64(nsset as u64));
    b.set("staleness_s", Json::U64(snap.staleness_s()));
    let stale = snap.staleness_s() > cfg.staleness_bound_s;
    match snap.nssets.get(&nsset) {
        Some(s) => {
            b.set("attacks_seen", Json::U64(s.attacks_seen));
            b.set(
                "under_attack",
                Json::Bool(s.last_attack_window.is_some_and(|w| w >= snap.horizon)),
            );
            b.set("peak_ppm", Json::F64(s.peak_ppm));
            if let Some(w) = s.first_attack_window {
                b.set("first_attack_window", Json::U64(w.0));
            }
            if let Some(w) = s.last_attack_window {
                b.set("last_attack_window", Json::U64(w.0));
            }
            if let Some(rtt) = s.during_rtt_ms {
                b.set("during_rtt_ms", Json::F64(rtt));
            }
            if let Some(r) = s.impact_on_rtt {
                b.set("impact_on_rtt", Json::F64(r));
            }
            if let Some(r) = s.worst_impact_on_rtt {
                b.set("worst_impact_on_rtt", Json::F64(r));
            }
            let baseline = s.baseline_source.unwrap_or(BaselineSource::Missing);
            let weak_baseline = s.during_rtt_ms.is_some() && baseline != BaselineSource::DayBefore;
            b.set("baseline_source", Json::Str(baseline.as_str().into()));
            b.set("degraded", Json::Bool(stale || weak_baseline));
        }
        None => {
            b.set("attacks_seen", Json::U64(0));
            b.set("under_attack", Json::Bool(false));
            b.set("baseline_source", Json::Str("none_needed".into()));
            b.set("degraded", Json::Bool(stale));
        }
    }
    b
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

fn respond(conn: TcpStream, status: u16, body: &Json) -> std::io::Result<()> {
    respond_raw(conn, status, "application/json", &body.pretty())
}

/// Prometheus text exposition (`/metricsz`) — the one route whose body is
/// not JSON.
fn respond_text(conn: TcpStream, status: u16, payload: &str) -> std::io::Result<()> {
    respond_raw(conn, status, "text/plain; version=0.0.4", payload)
}

fn respond_raw(
    mut conn: TcpStream,
    status: u16,
    content_type: &str,
    payload: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        payload.len(),
        reason = status_reason(status),
    );
    conn.write_all(head.as_bytes())?;
    conn.write_all(payload.as_bytes())?;
    conn.flush()
}

/// A blocking one-shot GET client — enough for the CI gate, the query
/// load generator, and tests; no external curl required.
pub fn http_get(addr: SocketAddr, path: &str, timeout: Duration) -> std::io::Result<(u16, String)> {
    let mut conn = TcpStream::connect_timeout(&addr, timeout)?;
    conn.set_read_timeout(Some(timeout))?;
    conn.set_write_timeout(Some(timeout))?;
    conn.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: dnsimpactd\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = String::new();
    conn.read_to_string(&mut raw)?;
    let status = raw
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed response: {raw:?}"),
            )
        })?;
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::{parse_query, percent_decode, MAX_QUERY_PAIRS};

    #[test]
    fn parse_query_accepts_the_legitimate_shapes() {
        assert_eq!(parse_query(None, &["domain"]).unwrap(), vec![]);
        assert_eq!(parse_query(Some(""), &["domain"]).unwrap(), vec![]);
        assert_eq!(
            parse_query(Some("domain=ns1.example.org"), &["domain"]).unwrap(),
            vec![("domain".to_string(), "ns1.example.org".to_string())]
        );
        assert_eq!(
            parse_query(Some("name=live.batches&last=8"), &["name", "last"]).unwrap(),
            vec![
                ("name".to_string(), "live.batches".to_string()),
                ("last".to_string(), "8".to_string())
            ]
        );
        // Percent-escapes and '+' decode before the allowlist check.
        assert_eq!(
            parse_query(Some("domain=a%2Eb+c"), &["domain"]).unwrap(),
            vec![("domain".to_string(), "a.b c".to_string())]
        );
    }

    #[test]
    fn parse_query_rejects_duplicate_keys() {
        let err = parse_query(Some("domain=a&domain=b"), &["domain"]).unwrap_err();
        assert!(err.contains("duplicate"), "got {err:?}");
        // Including duplicates smuggled through percent-encoding.
        let err = parse_query(Some("domain=a&%64omain=b"), &["domain"]).unwrap_err();
        assert!(err.contains("duplicate"), "got {err:?}");
    }

    #[test]
    fn parse_query_rejects_unknown_keys_and_bare_words() {
        let err = parse_query(Some("nope=1"), &["domain"]).unwrap_err();
        assert!(err.contains("unknown query parameter"), "got {err:?}");
        let err = parse_query(Some("domain"), &["domain"]).unwrap_err();
        assert!(err.contains("no '='"), "got {err:?}");
        let err = parse_query(Some("domain=a&&domain=b"), &["domain"]).unwrap_err();
        assert!(err.contains("stray"), "got {err:?}");
    }

    #[test]
    fn parse_query_rejects_percent_junk() {
        for raw in ["domain=%", "domain=%2", "domain=%zz", "domain=%G1abc"] {
            let err = parse_query(Some(raw), &["domain"]).unwrap_err();
            assert!(err.contains("%-escape"), "{raw:?} gave {err:?}");
        }
        // A valid escape that decodes to invalid UTF-8 is also junk.
        let err = parse_query(Some("domain=%ff%fe"), &["domain"]).unwrap_err();
        assert!(err.contains("UTF-8"), "got {err:?}");
    }

    #[test]
    fn parse_query_enforces_size_limits() {
        let big_value = format!("domain={}", "a".repeat(300));
        let err = parse_query(Some(&big_value), &["domain"]).unwrap_err();
        assert!(err.contains("max 256"), "got {err:?}");

        let big_key = format!("{}=1", "k".repeat(70));
        let err = parse_query(Some(&big_key), &["domain"]).unwrap_err();
        assert!(err.contains("max 64"), "got {err:?}");

        let allowed = ["k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8"];
        let many: String = allowed.iter().map(|k| format!("{k}=x")).collect::<Vec<_>>().join("&");
        assert!(allowed.len() > MAX_QUERY_PAIRS);
        let err = parse_query(Some(&many), &allowed).unwrap_err();
        assert!(err.contains("more than"), "got {err:?}");

        let huge = format!("domain={}", "a".repeat(4000));
        let err = parse_query(Some(&huge), &["domain"]).unwrap_err();
        assert!(err.contains("query string is"), "got {err:?}");
    }

    #[test]
    fn percent_decode_roundtrips_plain_text() {
        assert_eq!(percent_decode("plain-text_1.2").unwrap(), "plain-text_1.2");
        assert_eq!(percent_decode("%41%2b").unwrap(), "A+");
        assert_eq!(percent_decode("a+b").unwrap(), "a b");
    }
}
