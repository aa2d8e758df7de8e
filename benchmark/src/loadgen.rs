//! The query-load generator: a seeded Zipf name stream, a closed loop
//! (next request only after the previous reply) and an open loop (requests
//! on a fixed schedule, latency counted from the due time). Everything
//! runs in this process on at most [`MAX_GENERATOR_THREADS`] threads and
//! talks to the daemon only through its public `http_get` client, one TCP
//! connection per request.

use dnsimpactd::{http_get, IndexSnapshot};
use simcore::dist::Zipf;
use simcore::rng::RngFactory;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use streamproc::SwapCell;

pub const MAX_GENERATOR_THREADS: usize = 2;
/// Zipf exponent of domain popularity over `DomainDir::names` order.
pub const ZIPF_S: f64 = 1.1;
/// Every `VERIFY_EVERY`-th answer is compared field for field with a
/// direct index read.
pub const VERIFY_EVERY: usize = 100;
const TIMEOUT: Duration = Duration::from_secs(5);

/// `count` 0-based name indices, a pure function of `(seed, stream)`.
pub fn zipf_ranks(seed: u64, stream: u64, names: usize, count: usize) -> Vec<u32> {
    let zipf = Zipf::new(names, ZIPF_S);
    let mut rng = RngFactory::new(seed).stream_indexed("benchmark-queries", stream);
    (0..count).map(|_| (zipf.sample(&mut rng) - 1) as u32).collect()
}

pub fn query_path(name: &str) -> String {
    format!("/query?domain={name}")
}

/// One request's outcome. `status` 0 is a transport error or timeout.
pub struct Reply {
    pub path: String,
    pub status: u16,
    pub body: String,
    /// Closed loop: send → reply. Open loop: due time → reply.
    pub latency_us: f64,
    /// Snapshots current just before the send and just after the reply,
    /// kept for every [`VERIFY_EVERY`]-th request only.
    pub around: Option<(Arc<IndexSnapshot>, Arc<IndexSnapshot>)>,
}

fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

pub fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    http_get(addr, path, TIMEOUT).unwrap_or((0, String::new()))
}

/// The client's books: every request is classified exactly once, so
/// `sent == ok + not_found + shed + errors`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Books {
    pub sent: u64,
    pub ok: u64,
    pub not_found: u64,
    pub shed: u64,
    pub errors: u64,
}

impl Books {
    pub fn of(replies: &[Reply]) -> Books {
        let mut b = Books::default();
        for r in replies {
            b.sent += 1;
            match r.status {
                200 => b.ok += 1,
                404 => b.not_found += 1,
                503 => b.shed += 1,
                _ => b.errors += 1,
            }
        }
        b
    }

    pub fn balanced(&self) -> bool {
        self.sent == self.ok + self.not_found + self.shed + self.errors
    }
}

/// What a closed-loop client shares with whoever runs beside it: how many
/// replies it has so far, and the flag that ends it.
#[derive(Default)]
pub struct Session {
    pub replies: AtomicUsize,
    pub stop: AtomicBool,
}

/// Closed loop, one client: request `paths` in order, waiting `think`
/// between reply and next send, until the paths run out or the session
/// is stopped.
/// The think time is polled, not slept: a sleeping client halts the
/// serving CPU, and what its next request then measures is the wake-up.
pub fn run_closed(
    addr: SocketAddr,
    paths: impl IntoIterator<Item = String>,
    think: Duration,
    session: Option<&Session>,
    cell: &SwapCell<IndexSnapshot>,
) -> Vec<Reply> {
    let mut replies = Vec::new();
    for (i, path) in paths.into_iter().enumerate() {
        if session.is_some_and(|s| s.stop.load(Ordering::SeqCst)) {
            break;
        }
        let before = (i % VERIFY_EVERY == 0).then(|| cell.load());
        let t0 = Instant::now();
        let (status, body) = get(addr, &path);
        let latency_us = micros(t0.elapsed());
        let around = before.map(|b| (b, cell.load()));
        replies.push(Reply { path, status, body, latency_us, around });
        if let Some(s) = session {
            s.replies.fetch_add(1, Ordering::SeqCst);
        }
        let thought = Instant::now();
        while thought.elapsed() < think {
            std::thread::yield_now();
        }
    }
    replies
}

/// An open-loop arrival schedule: request `i` is due `i / rate` seconds
/// after the start, whatever happened to the requests before it.
#[derive(Clone, Copy, Debug)]
pub struct OpenSchedule {
    pub rate_qps: u64,
    pub count: usize,
}

impl OpenSchedule {
    pub fn for_duration(rate_qps: u64, seconds: f64) -> OpenSchedule {
        OpenSchedule { rate_qps, count: (rate_qps as f64 * seconds) as usize }
    }

    pub fn due_ns(&self, i: usize) -> u64 {
        i as u64 * 1_000_000_000 / self.rate_qps
    }

    pub fn gap_ns(&self) -> u64 {
        1_000_000_000 / self.rate_qps
    }

    /// The requests generator thread `thread` of `threads` sends:
    /// round-robin, so each thread's own arrivals are evenly spaced.
    pub fn indices_for(&self, thread: usize, threads: usize) -> impl Iterator<Item = usize> {
        (thread..self.count).step_by(threads)
    }
}

/// When one open-loop request was due and when it was actually sent, in
/// nanoseconds since the rung began.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub due_ns: u64,
    pub sent_ns: u64,
}

/// How late the generator ran over one rung.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LagAccount {
    pub lag_p99_us: f64,
    /// Share of requests sent after the *next* request was already due.
    pub late_share: f64,
    /// Mean lag of the last quarter exceeds the first quarter's by more
    /// than a millisecond: the generator (or the system) is falling behind.
    pub growing: bool,
}

/// `timings` in due order.
pub fn lag_account(timings: &[Timing], gap_ns: u64) -> LagAccount {
    assert!(!timings.is_empty(), "lag of no requests");
    let lags: Vec<u64> = timings.iter().map(|t| t.sent_ns.saturating_sub(t.due_ns)).collect();
    let sorted = crate::stats::sorted(lags.iter().map(|&l| l as f64 / 1e3).collect());
    let late = lags.iter().filter(|&&l| l > gap_ns).count();
    let quarter = (lags.len() / 4).max(1);
    let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
    LagAccount {
        lag_p99_us: crate::stats::percentile(&sorted, 990),
        late_share: late as f64 / lags.len() as f64,
        growing: mean(&lags[lags.len() - quarter..]) > mean(&lags[..quarter]) + 1e6,
    }
}

/// Busy-wait, yielding, until `due_ns` after `origin`. A sleeping
/// generator wakes 0.2 to 3 ms late on this sandbox (timer slack plus the
/// wake-up of a halted vCPU), which is more than the latency it is there
/// to measure; the open loop's generators therefore poll the clock, on the
/// CPU the serving side is not confined to.
fn wait_until(origin: Instant, due_ns: u64) {
    let due = Duration::from_nanos(due_ns);
    while origin.elapsed() < due {
        std::thread::yield_now();
    }
}

/// Open loop on [`MAX_GENERATOR_THREADS`] threads. Returns replies and
/// timings in due order; `latency_us` counts from the due time, so a
/// stall is charged to every request it delayed.
pub fn run_open(
    addr: SocketAddr,
    paths: &[String],
    schedule: OpenSchedule,
) -> (Vec<Reply>, Vec<Timing>) {
    assert_eq!(paths.len(), schedule.count);
    let origin = Instant::now();
    let mut slots: Vec<Option<(Reply, Timing)>> = (0..schedule.count).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..MAX_GENERATOR_THREADS)
            .map(|thread| {
                scope.spawn(move || {
                    crate::affinity::pin(crate::affinity::beside_serving());
                    schedule
                        .indices_for(thread, MAX_GENERATOR_THREADS)
                        .map(|i| {
                            let due_ns = schedule.due_ns(i);
                            wait_until(origin, due_ns);
                            let sent_ns = origin.elapsed().as_nanos() as u64;
                            let (status, body) = get(addr, &paths[i]);
                            let done_ns = origin.elapsed().as_nanos() as u64;
                            let reply = Reply {
                                path: paths[i].clone(),
                                status,
                                body,
                                latency_us: (done_ns - due_ns) as f64 / 1e3,
                                around: None,
                            };
                            (i, reply, Timing { due_ns, sent_ns })
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, reply, timing) in h.join().expect("open-loop generator thread") {
                slots[i] = Some((reply, timing));
            }
        }
    });
    slots.into_iter().map(|s| s.expect("every scheduled request was sent")).unzip()
}

/// Closed loop on [`MAX_GENERATOR_THREADS`] clients, `per_client` queries
/// each: the most load this process can offer. Returns replies and wall.
pub fn run_closed_max(
    addr: SocketAddr,
    paths: &[String],
    cell: &SwapCell<IndexSnapshot>,
) -> (Vec<Reply>, Duration) {
    let per_client = paths.len().div_ceil(MAX_GENERATOR_THREADS).max(1);
    let start = Instant::now();
    let mut replies = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = paths
            .chunks(per_client)
            .map(|chunk| {
                scope.spawn(move || run_closed(addr, chunk.to_vec(), Duration::ZERO, None, cell))
            })
            .collect();
        for h in handles {
            replies.extend(h.join().expect("closed-loop client thread"));
        }
    });
    (replies, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_stream_is_a_pure_function_of_the_seed() {
        let a = zipf_ranks(42, 0, 5000, 2000);
        assert_eq!(a, zipf_ranks(42, 0, 5000, 2000), "same seed, same stream");
        assert_ne!(a, zipf_ranks(43, 0, 5000, 2000), "the seed moves it");
        assert_ne!(a, zipf_ranks(42, 1, 5000, 2000), "so does the stream index");
        assert!(a.iter().all(|&r| (r as usize) < 5000));
        // Heavy head: rank 0 is by far the most popular name.
        let head = a.iter().filter(|&&r| r == 0).count();
        assert!(head > 2000 / 20, "rank 0 drew {head} of 2000");
        // A prefix of a longer draw is the shorter draw.
        assert_eq!(zipf_ranks(42, 0, 5000, 100), a[..100]);
    }

    #[test]
    fn open_schedule_due_times_ignore_what_came_before() {
        let s = OpenSchedule::for_duration(2000, 1.5);
        assert_eq!(s.count, 3000);
        assert_eq!(s.gap_ns(), 500_000);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(1), 500_000);
        assert_eq!(s.due_ns(2999), 1_499_500_000);
        // No cumulative drift at a rate that does not divide a second.
        let odd = OpenSchedule { rate_qps: 3000, count: 6001 };
        assert_eq!(odd.due_ns(6000), 2_000_000_000);
        // Two threads split the schedule round-robin and cover it once.
        let a: Vec<usize> = s.indices_for(0, 2).collect();
        let b: Vec<usize> = s.indices_for(1, 2).collect();
        assert_eq!(a[..3], [0, 2, 4]);
        assert_eq!(b[..3], [1, 3, 5]);
        assert_eq!(a.len() + b.len(), s.count);
    }

    #[test]
    fn lag_is_counted_from_the_due_time() {
        let gap = 1_000_000; // 1000 qps
        let on_time: Vec<Timing> =
            (0..400).map(|i| Timing { due_ns: i * gap, sent_ns: i * gap + 20_000 }).collect();
        let acct = lag_account(&on_time, gap);
        assert_eq!(acct.lag_p99_us, 20.0);
        assert_eq!(acct.late_share, 0.0);
        assert!(!acct.growing);

        // A generator that falls 30 µs further behind on every request.
        let behind: Vec<Timing> =
            (0..400).map(|i| Timing { due_ns: i * gap, sent_ns: i * gap + i * 30_000 }).collect();
        let acct = lag_account(&behind, gap);
        assert!(acct.growing, "last-quarter lag is ~10 ms above the first quarter's");
        // Lag exceeds one gap from request 34 on.
        assert_eq!(acct.late_share, (400 - 34) as f64 / 400.0);
        assert_eq!(acct.lag_p99_us, 395.0 * 30.0);
        // Sent early (clock skew between threads) is zero lag, not negative.
        let early = [Timing { due_ns: 500, sent_ns: 400 }];
        assert_eq!(lag_account(&early, gap).lag_p99_us, 0.0);
    }

    #[test]
    fn books_classify_every_reply_once() {
        let reply = |status| Reply {
            path: String::new(),
            status,
            body: String::new(),
            latency_us: 1.0,
            around: None,
        };
        let replies: Vec<Reply> = [200, 200, 404, 503, 0, 500].into_iter().map(reply).collect();
        let b = Books::of(&replies);
        assert_eq!(b, Books { sent: 6, ok: 2, not_found: 1, shed: 1, errors: 2 });
        assert!(b.balanced());
    }
}
