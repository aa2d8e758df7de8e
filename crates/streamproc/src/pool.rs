//! Work-stealing worker pools over `std::thread::scope`.
//!
//! Two shapes of parallelism, both determinism-friendly:
//!
//! - [`parallel_map`]: run a closure over a batch of items on up to N
//!   worker threads pulling from a shared queue, and return the results
//!   **in input order**. Thread count and scheduling never affect the
//!   output, only the wall clock — callers derive any randomness from
//!   per-item labels/indices (see `simcore::rng::RngFactory`), never from
//!   shared mutable RNG state.
//! - [`spawn_pool`]: a bounded pool of stage workers draining one
//!   [`Consumer`] and publishing to one [`Topic`] — the multi-worker
//!   generalization of [`crate::spawn_stage`]. Output order across workers
//!   is *not* deterministic; use it for throughput paths where the
//!   downstream aggregation is order-insensitive, or re-sort downstream.

use crate::exec::StageHandle;
use crate::fault::{injected_crash, FaultPlan};
use crate::supervise::{SuperviseStats, SupervisorConfig};
use crate::topic::{Consumer, Topic};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Resolve a requested worker count: `0` means "use the machine's
/// available parallelism" (falling back to 1 if that is unknown).
pub fn effective_jobs(requested: usize) -> usize {
    if requested == 0 {
        thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        requested
    }
}

/// Cut `0..len` into at most `jobs` contiguous shards of equal ceiling
/// size — the canonical batching the columnar join and sweep stages use.
/// Concatenating the ranges in order always reproduces `0..len`, so any
/// per-shard pass that appends its results in shard order is
/// byte-identical to the sequential pass. `jobs == 0` resolves to the
/// machine's parallelism; `len == 0` yields no shards.
pub fn shard_ranges(len: usize, jobs: usize) -> Vec<std::ops::Range<usize>> {
    let jobs = effective_jobs(jobs);
    if len == 0 {
        return Vec::new();
    }
    let shard_len = len.div_ceil(jobs);
    (0..len.div_ceil(shard_len)).map(|i| i * shard_len..((i + 1) * shard_len).min(len)).collect()
}

/// Apply `f` to every item on up to `jobs` worker threads and return the
/// results in input order.
///
/// The items are cut into **runs** of consecutive items, about sixteen per
/// worker (one item each while there are fewer than `16 * jobs`), and the
/// workers share one queue of runs: a free worker claims the next run,
/// computes `f(index, item)` over it in order, and keeps the results to
/// itself. After all workers finish, the runs are put back in input order,
/// so the returned `Vec` is byte-for-byte the same whatever `jobs` is; `f`
/// sees the same `index` for an item however the runs fall. `jobs <= 1`
/// walks the same runs on the calling thread, with no threads at all. A
/// panic in `f` propagates to the caller once every worker has stopped.
///
/// ```
/// use streamproc::pool::parallel_map;
///
/// let squares = parallel_map(4, (0u64..100).collect(), |_, x| x * x);
/// assert_eq!(squares, (0u64..100).map(|x| x * x).collect::<Vec<_>>());
/// ```
pub fn parallel_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let jobs = effective_jobs(jobs).min(n);
    // Out-of-band accounting (see the `obs` crate): everything here lives
    // in the `time.`/`sched.` namespaces excluded from determinism
    // comparisons — callers batch work differently per worker count (e.g.
    // per-`jobs` sharding), so even the task count is jobs-dependent.
    // Every handle is resolved once per call, outside the workers: a
    // lookup takes the registry's lock.
    obs::counter("sched.pool.tasks").add(n as u64);
    obs::gauge("sched.pool.jobs_max").record_max(jobs as u64);
    let task_ms = obs::histogram("time.pool.task_ms");
    let run_len = (n / (16 * jobs.max(1))).max(1);
    // One run: `f` over consecutive items, results appended to `out`, the
    // whole run one `task_ms` sample (an item of a measurement plan takes
    // microseconds, which the histogram's unit cannot see).
    let compute = |run: &mut dyn Iterator<Item = (usize, T)>, out: &mut Vec<R>| {
        let start = Instant::now();
        out.extend(run.map(|(i, t)| f(i, t)));
        let elapsed = start.elapsed();
        task_ms.record(elapsed.as_millis() as u64);
        elapsed
    };
    let mut items = items.into_iter().enumerate();
    if jobs <= 1 {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            compute(&mut items.by_ref().take(run_len), &mut out);
        }
        return out;
    }
    let queue_depth = obs::histogram("sched.pool.queue_depth");
    let steals = obs::counter("sched.pool.steals");
    let worker_busy_ms = obs::histogram("time.pool.worker_busy_ms");
    let runs: Vec<Vec<(usize, T)>> =
        (0..n).step_by(run_len).map(|_| items.by_ref().take(run_len).collect()).collect();
    let queue = Mutex::new(runs.into_iter());
    let worker = |w: usize| {
        let mut busy = Duration::ZERO;
        let mut taken = 0;
        // The runs this worker computed, each behind its first index.
        let mut done: Vec<(usize, Vec<R>)> = Vec::new();
        loop {
            // Claim under the lock, compute outside it.
            let Some(run) = queue.lock().next() else { break };
            let first = run[0].0;
            queue_depth.record((n - first) as u64);
            taken += run.len() as u64;
            let mut out = Vec::with_capacity(run.len());
            busy += compute(&mut run.into_iter(), &mut out);
            done.push((first, out));
        }
        if w > 0 {
            // An item taken by a non-primary worker is work that a
            // single-threaded run would not have given away: a steal.
            steals.add(taken);
        }
        worker_busy_ms.record(busy.as_millis() as u64);
        done
    };
    let joined: Vec<thread::Result<_>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs).map(|w| scope.spawn(move || worker(w))).collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    // Every worker has stopped: hand a panic on, or put the runs in order.
    let mut done = Vec::new();
    for part in joined {
        done.extend(part.unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
    }
    done.sort_unstable_by_key(|&(first, _)| first);
    let mut out = Vec::with_capacity(n);
    for (_, run) in done {
        out.extend(run);
    }
    out
}

/// [`parallel_map`] under supervision: each task runs in a bounded-restart
/// retry loop, with the plan's injected crashes (and any real panic in `f`)
/// caught, backed off exponentially, and retried. The task index — not the
/// worker thread — keys the crash schedule, so the set of injected faults
/// is independent of `jobs`, and because `f` is deterministic per item, the
/// returned `Vec` is byte-identical to `parallel_map`'s for any plan.
///
/// `f` borrows the item (unlike [`parallel_map`]) so a restarted attempt
/// can re-run it. The panic propagates once `cfg.max_restarts` is spent.
pub fn parallel_map_supervised<T, R, F>(
    jobs: usize,
    items: Vec<T>,
    plan: Option<&FaultPlan>,
    cfg: &SupervisorConfig,
    f: F,
) -> (Vec<R>, SuperviseStats)
where
    T: Send + Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let Some(&plan) = plan else {
        let out = parallel_map(jobs, items, |i, t| f(i, &t));
        return (out, SuperviseStats::default());
    };
    let restarts = AtomicU64::new(0);
    let backoff_ms = AtomicU64::new(0);
    let out = parallel_map(jobs, items, |i, t| {
        let planned = plan.planned_crashes(i as u64);
        let mut attempt: u32 = 0;
        loop {
            let r = catch_unwind(AssertUnwindSafe(|| {
                if attempt < planned {
                    obs::trace::emit(
                        obs::EventKind::FaultInjected,
                        "pool",
                        None,
                        None,
                        format!("crash task={i} attempt={attempt}"),
                        None,
                    );
                    injected_crash();
                }
                f(i, &t)
            }));
            match r {
                Ok(v) => return v,
                Err(e) => {
                    if attempt >= cfg.max_restarts {
                        std::panic::resume_unwind(e);
                    }
                    // The restart is the repair of an injected crash; a
                    // real panic being retried is a restart but not a
                    // repaired fault.
                    if e.downcast_ref::<crate::fault::InjectedCrash>().is_some() {
                        obs::counter("chaos.crashes_repaired").incr();
                        obs::counter("chaos.faults_repaired").incr();
                        obs::trace::emit(
                            obs::EventKind::FaultRepaired,
                            "pool",
                            None,
                            None,
                            format!("crash task={i} attempt={attempt}"),
                            None,
                        );
                    }
                    obs::counter("chaos.restarts").incr();
                    restarts.fetch_add(1, Ordering::Relaxed);
                    let backoff = (cfg.backoff_base_ms << attempt.min(16)).min(cfg.backoff_cap_ms);
                    obs::counter("chaos.backoff_ms").add(backoff);
                    backoff_ms.fetch_add(backoff, Ordering::Relaxed);
                    thread::sleep(Duration::from_millis(backoff));
                    attempt += 1;
                }
            }
        }
    });
    let stats = SuperviseStats {
        restarts: restarts.into_inner(),
        backoff_ms: backoff_ms.into_inner(),
        ..SuperviseStats::default()
    };
    (out, stats)
}

/// Handle to a running worker pool (see [`spawn_pool`]).
pub struct PoolHandle {
    name: String,
    handles: Vec<StageHandle>,
}

impl PoolHandle {
    /// Wait for every worker to finish; returns the total number of
    /// messages the pool emitted. Panics (propagates) if any worker
    /// panicked.
    pub fn join(self) -> u64 {
        self.handles.into_iter().map(StageHandle::join).sum()
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn workers(&self) -> usize {
        self.handles.len()
    }
}

/// Spawn a flat-map stage running on `workers` threads: the workers share
/// `input` (each message is processed by exactly one worker), and each
/// output of `f` is published to `out`. When the input ends and every
/// worker has drained, the last worker out closes `out`.
///
/// `workers == 0` uses the machine's available parallelism;
/// `workers == 1` is exactly [`crate::spawn_stage`] plus the shared-input
/// plumbing. Cross-worker output order is unspecified.
pub fn spawn_pool<I, O, F>(
    name: &str,
    workers: usize,
    input: Consumer<I>,
    out: Topic<O>,
    f: F,
) -> PoolHandle
where
    I: Send + 'static,
    O: Clone + Send + 'static,
    F: Fn(I) -> Vec<O> + Send + Sync + 'static,
{
    let workers = effective_jobs(workers);
    let input = Arc::new(input);
    let f = Arc::new(f);
    let live = Arc::new(AtomicUsize::new(workers));
    let mut handles = Vec::with_capacity(workers);
    for w in 0..workers {
        let worker_name = format!("{name}[{w}/{workers}]");
        let input = Arc::clone(&input);
        let out = out.clone();
        let f = Arc::clone(&f);
        let live = Arc::clone(&live);
        handles.push(StageHandle::spawn(&worker_name, move || {
            let mut emitted = 0u64;
            let task_ms = obs::histogram("time.pool.stage_task_ms");
            while let Some(msg) = input.recv() {
                obs::counter("pool.stage_messages").incr();
                let start = Instant::now();
                for o in f(msg) {
                    out.publish(o);
                    emitted += 1;
                }
                task_ms.record(start.elapsed().as_millis() as u64);
            }
            // Last worker to drain the (now ended) input closes the
            // output so downstream consumers see end-of-stream.
            if live.fetch_sub(1, Ordering::AcqRel) == 1 {
                out.close();
            }
            emitted
        }));
    }
    PoolHandle { name: name.to_string(), handles }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_tile_the_input() {
        for len in [0usize, 1, 2, 7, 100, 1001] {
            for jobs in [1usize, 2, 3, 8, 64] {
                let shards = shard_ranges(len, jobs);
                assert!(shards.len() <= jobs.max(1), "len={len} jobs={jobs}");
                let flat: Vec<usize> = shards.iter().cloned().flatten().collect();
                assert_eq!(flat, (0..len).collect::<Vec<_>>(), "len={len} jobs={jobs}");
                if let Some(first) = shards.first() {
                    // Equal ceiling-size shards except possibly the last.
                    for s in &shards[..shards.len() - 1] {
                        assert_eq!(s.len(), first.len());
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        for jobs in [0, 1, 2, 3, 8, 64] {
            let got = parallel_map(jobs, (0u64..500).collect(), |i, x| {
                assert_eq!(i as u64, x);
                x * 3 + 1
            });
            let want: Vec<u64> = (0..500).map(|x| x * 3 + 1).collect();
            assert_eq!(got, want, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let empty: Vec<u32> = parallel_map(8, Vec::<u32>::new(), |_, x| x);
        assert!(empty.is_empty());
        assert_eq!(parallel_map(8, vec![7u32], |_, x| x + 1), vec![8]);
    }

    #[test]
    fn parallel_map_more_jobs_than_items() {
        let got = parallel_map(32, vec![1u32, 2, 3], |_, x| x * 10);
        assert_eq!(got, vec![10, 20, 30]);
    }

    #[test]
    fn parallel_map_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            parallel_map(4, (0u32..64).collect(), |_, x| {
                if x == 33 {
                    panic!("boom at {x}");
                }
                x
            })
        });
        assert!(r.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn parallel_map_runs_each_item_once_in_order_around_every_run_boundary() {
        for jobs in [1usize, 2, 3, 8] {
            // One item a run up to 16 * jobs items, longer runs beyond.
            for n in
                [0, 1, jobs - 1, jobs, 16 * jobs - 1, 16 * jobs, 16 * jobs + 1, 32 * jobs, 10_007]
            {
                let calls: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let got = parallel_map(jobs, (0..n).collect(), |i, x: usize| {
                    assert_eq!(i, x, "an item keeps its input index");
                    calls[i].fetch_add(1, Ordering::Relaxed);
                    x * 3 + 1
                });
                assert_eq!(got, (0..n).map(|x| x * 3 + 1).collect::<Vec<_>>(), "jobs={jobs} n={n}");
                assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1), "jobs={jobs} n={n}");
            }
        }
    }

    #[test]
    fn panic_inside_a_run_propagates_after_every_worker_stopped() {
        struct Running<'a>(&'a AtomicUsize);
        impl Drop for Running<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let (n, jobs) = (10_007usize, 3);
        let run_len = n / (16 * jobs);
        // Halfway into the sixth run.
        let bad = 5 * run_len + run_len / 2;
        let (running, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let r = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(jobs, (0..n).collect(), |_, x: usize| {
                running.fetch_add(1, Ordering::SeqCst);
                let _running = Running(&running);
                if x == bad {
                    panic!("boom at {x}");
                }
                finished.fetch_add(1, Ordering::SeqCst);
                x
            })
        }));
        let panic = r.expect_err("worker panic must reach the caller");
        assert_eq!(panic.downcast_ref::<String>(), Some(&format!("boom at {bad}")));
        assert_eq!(running.load(Ordering::SeqCst), 0, "no worker is still inside `f`");
        // The other workers drained the queue first: only the rest of the
        // panicking worker's run was left undone.
        assert_eq!(n - finished.load(Ordering::SeqCst), run_len - run_len / 2);
    }

    #[test]
    fn parallel_map_supervised_matches_plain_for_any_jobs() {
        use crate::fault::ChaosConfig;
        use simcore::rng::RngFactory;
        let plan = FaultPlan::new(&RngFactory::new(3), "pool-test", ChaosConfig::CALIBRATED);
        let cfg = SupervisorConfig { backoff_base_ms: 0, ..Default::default() };
        // 200 items are runs of one at jobs=8; 2 000 are runs of 15 to 125.
        for n in [200u64, 2_000] {
            let want = parallel_map(1, (0..n).collect(), |_, x| x * 7 + 1);
            let mut all_restarts = Vec::new();
            for jobs in [1, 2, 8] {
                let (got, stats) =
                    parallel_map_supervised(jobs, (0..n).collect(), Some(&plan), &cfg, |i, x| {
                        assert_eq!(i as u64, *x, "the crash schedule is keyed by the item's index");
                        x * 7 + 1
                    });
                assert_eq!(got, want, "jobs={jobs} n={n}");
                all_restarts.push(stats.restarts);
            }
            assert!(all_restarts[0] > 0, "calibrated profile crashes some tasks");
            assert!(
                all_restarts.windows(2).all(|w| w[0] == w[1]),
                "injected crash schedule is independent of jobs: {all_restarts:?}"
            );
        }
    }

    #[test]
    fn parallel_map_supervised_exhausted_budget_propagates() {
        use crate::fault::ChaosConfig;
        use simcore::rng::RngFactory;
        let plan = FaultPlan::new(&RngFactory::new(3), "pool-test", ChaosConfig::DISABLED);
        let cfg = SupervisorConfig { max_restarts: 1, backoff_base_ms: 0, ..Default::default() };
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            parallel_map_supervised(2, vec![1u32], Some(&plan), &cfg, |_, _| -> u32 {
                std::panic::resume_unwind(Box::new("real bug"))
            })
        }));
        assert!(r.is_err(), "real panics escape after the restart budget");
    }

    #[test]
    fn pool_shares_work_exactly_once() {
        let src: Topic<u64> = Topic::new("src");
        let out: Topic<u64> = Topic::new("out");
        let pool = spawn_pool("triple", 4, src.subscribe(), out.clone(), |x| vec![x * 3]);
        assert_eq!(pool.workers(), 4);
        let sink = crate::exec::sink_to_vec(out.subscribe());
        for i in 0..1_000 {
            src.publish(i);
        }
        src.close();
        assert_eq!(pool.join(), 1_000, "every input processed exactly once");
        let mut got = sink.join().unwrap();
        got.sort();
        assert_eq!(got, (0..1_000).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn pool_worker_names_enumerate() {
        let src: Topic<u8> = Topic::new("src");
        let out: Topic<u8> = Topic::new("out");
        let pool = spawn_pool("stage", 2, src.subscribe(), out, |x| vec![x]);
        assert_eq!(pool.name(), "stage");
        src.close();
        pool.join();
    }
}
