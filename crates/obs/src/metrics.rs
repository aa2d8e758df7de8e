//! Atomic metric primitives and the process-global registry.
//!
//! Three instrument kinds cover every site in the workspace:
//!
//! - [`Counter`]: monotonically increasing `u64` (`add`/`incr`);
//! - [`Gauge`]: running-maximum `u64` (`record_max`) plus `set` for values
//!   that are written once — maxima merge deterministically regardless of
//!   worker interleaving, unlike last-writer-wins;
//! - [`Histogram`]: log2-bucketed `u64` distribution with exact count/sum
//!   and min/max, good enough for p50/p90/p99 of latencies.
//!
//! All instruments are lock-free atomics, registered once by name in a
//! global [`Registry`] and handed out as `&'static` so hot paths pay one
//! `OnceLock` hit on first use and a relaxed atomic add afterwards.
//!
//! Snapshots are ordered by name (`BTreeMap`) so serialized output is
//! stable. `Snapshot::deterministic` drops the `time.` / `sched.`
//! namespaces (see crate docs) — the remainder must be bit-identical
//! across `--jobs` and, for pipeline counters, across chaos seeds.

use crate::schema::{checked_sum, record, show_sum, Reader};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Monotone counter. Relaxed ordering is sufficient: values are only read
/// at snapshot time, after all recording threads have been joined.
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    const fn new() -> Self {
        Self { value: AtomicU64::new(0) }
    }

    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn incr(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Gauge tracking a running maximum (CAS loop), with `set` for
/// write-once values. Maxima are order-independent, so concurrent workers
/// produce the same final value regardless of interleaving.
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    const fn new() -> Self {
        Self { value: AtomicU64::new(0) }
    }

    pub fn record_max(&self, n: u64) {
        self.value.fetch_max(n, Ordering::Relaxed);
    }

    pub fn set(&self, n: u64) {
        self.value.store(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of log2 buckets: bucket `i` holds values whose bit length is
/// `i`, i.e. `[2^(i-1), 2^i)` for `i >= 1` and `{0}` for bucket 0.
const BUCKETS: usize = 64;

/// The quantiles a snapshot carries, by field name.
const QUANTILES: [(&str, f64); 4] = [("p50", 0.50), ("p90", 0.90), ("p95", 0.95), ("p99", 0.99)];

/// The value at quantile `q` (0 < q <= 1) of `count` samples in log2
/// `buckets`: the upper bound `2^i - 1` of the first bucket whose
/// cumulative count reaches the rank (bucket 0 is `{0}`); `max` when the
/// buckets hold fewer samples than that. Callers pass at most [`BUCKETS`]
/// buckets whose sum fits a `u64` ([`HistogramSnapshot::defects`] checks
/// both on report input before asking).
fn bucket_quantile(buckets: &[u64], count: u64, max: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((count as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &b) in buckets.iter().enumerate() {
        seen += b;
        if seen >= rank {
            return if i == 0 { 0 } else { (1u64 << i) - 1 };
        }
    }
    max
}

/// Log2-bucketed histogram with exact count/sum/min/max. Quantiles are
/// approximate (bucket upper bound) but the exact fields are what the
/// determinism tests compare where a histogram is deterministic.
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        let bucket = (64 - v.leading_zeros()) as usize;
        self.buckets[bucket.min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let mut buckets: Vec<u64> =
            self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let max = self.max.load(Ordering::Relaxed);
        let [p50, p90, p95, p99] = QUANTILES.map(|(_, q)| bucket_quantile(&buckets, count, max, q));
        // Trailing zeros trimmed so the carried form is canonical: equal
        // distributions compare and serialize equal regardless of max value.
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { self.min.load(Ordering::Relaxed) },
            max,
            p50,
            p90,
            p95,
            p99,
            buckets,
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

record! {
    /// Point-in-time view of one histogram, as it appears in the run report.
    /// `buckets` carries the raw log2 bucket counts (trailing zeros
    /// trimmed), the parts the quantiles are checked against on the way
    /// back in. Reports written before `buckets` existed carry none: they
    /// read as a non-empty histogram with empty `buckets`, and are written
    /// back without the key.
    #[derive(Eq)]
    pub struct HistogramSnapshot {
        pub count: u64,
        pub sum: u64,
        pub min: u64,
        pub max: u64,
        pub p50: u64,
        pub p90: u64,
        pub p95: u64,
        pub p99: u64,
        pub buckets: Vec<u64> [optional if has_buckets],
    }
    rules = HistogramSnapshot::rules;

    /// Point-in-time, name-sorted view of the whole registry.
    #[derive(Eq)]
    pub struct Snapshot {
        pub counters: BTreeMap<String, u64>,
        pub gauges: BTreeMap<String, u64>,
        pub histograms: BTreeMap<String, HistogramSnapshot>,
    }
}

impl HistogramSnapshot {
    /// False only for a pre-buckets report's histogram: samples, but no
    /// bucket counts (a live histogram with samples has a non-zero bucket).
    pub fn has_buckets(&self) -> bool {
        self.count == 0 || !self.buckets.is_empty()
    }

    /// What rules this snapshot out as the view of a quiescent histogram,
    /// each as a `Reader::fail` message: `min > max` on a non-empty one,
    /// and — when buckets are carried — more buckets than the log2 grid
    /// has, bucket counts that do not add up to `count`, or a claimed
    /// quantile the buckets do not imply. A report is outside input: it
    /// cannot claim a distribution its own parts contradict. (A snapshot
    /// taken while another thread records can be torn the same ways.)
    pub fn defects(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.count > 0 && self.min > self.max {
            out.push(format!(": min {} > max {}", self.min, self.max));
        }
        if !self.has_buckets() {
            return out;
        }
        let total = checked_sum(&self.buckets);
        if self.buckets.len() > BUCKETS {
            out.push(format!(
                ".buckets has {} entries; the log2 grid has at most {BUCKETS}",
                self.buckets.len()
            ));
        } else if total != Some(self.count) {
            out.push(format!(".buckets sum to {} but count is {}", show_sum(total), self.count));
        } else {
            let claims = [self.p50, self.p90, self.p95, self.p99];
            for ((key, q), claimed) in QUANTILES.into_iter().zip(claims) {
                let implied = bucket_quantile(&self.buckets, self.count, self.max, q);
                if claimed != implied {
                    out.push(format!(".{key} claims {claimed} but the buckets imply {implied}"));
                }
            }
        }
        out
    }

    fn rules(&self, r: &mut Reader) {
        for defect in self.defects() {
            r.fail(defect);
        }
    }
}

/// Process-global metric registry. Instruments are interned by name and
/// leaked to `&'static` so call sites can cache them in `OnceLock`s.
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    gauges: Mutex<BTreeMap<&'static str, &'static Gauge>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
}

impl Registry {
    fn new() -> Self {
        Self {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn counter(&self, name: &'static str) -> &'static Counter {
        let mut map = self.counters.lock().unwrap();
        map.entry(name).or_insert_with(|| Box::leak(Box::new(Counter::new())))
    }

    pub fn gauge(&self, name: &'static str) -> &'static Gauge {
        let mut map = self.gauges.lock().unwrap();
        map.entry(name).or_insert_with(|| Box::leak(Box::new(Gauge::new())))
    }

    pub fn histogram(&self, name: &'static str) -> &'static Histogram {
        let mut map = self.histograms.lock().unwrap();
        map.entry(name).or_insert_with(|| Box::leak(Box::new(Histogram::new())))
    }

    /// Stable, name-sorted view of every registered instrument.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(&k, v)| (k.to_string(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(&k, v)| (k.to_string(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(&k, v)| (k.to_string(), v.snapshot()))
                .collect(),
        }
    }

    /// Zero every instrument (names stay registered). Tests use this to
    /// compare runs within one process; `repro` never calls it mid-run.
    pub fn reset(&self) {
        for c in self.counters.lock().unwrap().values() {
            c.reset();
        }
        for g in self.gauges.lock().unwrap().values() {
            g.reset();
        }
        for h in self.histograms.lock().unwrap().values() {
            h.reset();
        }
    }
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

/// The process-global registry.
pub fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::new)
}

/// Intern (or fetch) the counter `name`.
pub fn counter(name: &'static str) -> &'static Counter {
    registry().counter(name)
}

/// Intern (or fetch) the gauge `name`.
pub fn gauge(name: &'static str) -> &'static Gauge {
    registry().gauge(name)
}

/// Intern (or fetch) the histogram `name`.
pub fn histogram(name: &'static str) -> &'static Histogram {
    registry().histogram(name)
}

/// A named instrument for a `static`: interned at its first use, exactly
/// as [`counter`]/[`gauge`]/[`histogram`] would, and held after, so a
/// per-record or per-request site takes the registry's lock and name
/// lookup once per process instead of once per call.
///
/// ```
/// static APPLIED: obs::metrics::Held<obs::Counter> = obs::metrics::Held::counter("doc.applied");
/// APPLIED.incr();
/// assert_eq!(obs::counter("doc.applied").get(), 1);
/// ```
pub struct Held<T: 'static> {
    name: &'static str,
    intern: fn(&'static str) -> &'static T,
    handle: OnceLock<&'static T>,
}

impl Held<Counter> {
    pub const fn counter(name: &'static str) -> Self {
        Held { name, intern: counter, handle: OnceLock::new() }
    }
}

impl Held<Gauge> {
    pub const fn gauge(name: &'static str) -> Self {
        Held { name, intern: gauge, handle: OnceLock::new() }
    }
}

impl Held<Histogram> {
    pub const fn histogram(name: &'static str) -> Self {
        Held { name, intern: histogram, handle: OnceLock::new() }
    }
}

impl<T> std::ops::Deref for Held<T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.handle.get_or_init(|| (self.intern)(self.name))
    }
}

/// Name prefixes carrying wall-clock or scheduling-dependent values,
/// excluded from determinism comparison (crate docs, "Determinism
/// domains").
pub const NONDETERMINISTIC_PREFIXES: [&str; 2] = ["time.", "sched."];

fn is_deterministic_name(name: &str) -> bool {
    !NONDETERMINISTIC_PREFIXES.iter().any(|p| name.starts_with(p))
}

impl Snapshot {
    /// The snapshot restricted to deterministic names — the part that must
    /// be identical across `--jobs` and (for pipeline counters) across
    /// chaos seeds.
    pub fn deterministic(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .filter(|(k, _)| is_deterministic_name(k))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .filter(|(k, _)| is_deterministic_name(k))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|(k, _)| is_deterministic_name(k))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = counter("test.metrics.counter_accumulates");
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
        // Same name returns the same instrument.
        assert_eq!(counter("test.metrics.counter_accumulates").get(), 42);
    }

    #[test]
    fn gauge_tracks_maximum() {
        let g = gauge("test.metrics.gauge_max");
        g.record_max(7);
        g.record_max(3);
        assert_eq!(g.get(), 7);
        g.set(2);
        assert_eq!(g.get(), 2);
    }

    #[test]
    fn histogram_quantiles_bound_values() {
        let h = histogram("test.metrics.histo");
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        // Log2 buckets: quantile is an upper bound and never below min.
        assert!(s.p50 >= 50 && s.p50 <= 127, "p50={}", s.p50);
        assert!(s.p95 >= 95, "p95={}", s.p95);
        assert!(s.p99 >= 99, "p99={}", s.p99);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99, "quantiles ordered");
        // What the instrument writes is what the report reader accepts.
        assert_eq!(s.defects(), Vec::<String>::new());
    }

    #[test]
    fn report_input_cannot_contradict_its_own_buckets() {
        use crate::json::Json;
        use crate::schema::{decode_at, Field};
        // Values {1, 2, 2, 3, 4, 4, 9, 15}.
        let sound = HistogramSnapshot {
            count: 8,
            sum: 40,
            min: 1,
            max: 15,
            p50: 3,
            p90: 15,
            p95: 15,
            p99: 15,
            buckets: vec![0, 1, 3, 2, 2],
        };
        let read = |doc: &Json| decode_at::<HistogramSnapshot>(doc, "$.histograms.h");
        assert_eq!(read(&sound.write()), Ok(sound.clone()));
        let rejected = |bad: HistogramSnapshot, want: &str| {
            let errors = read(&bad.write()).unwrap_err();
            assert!(
                errors.iter().any(|e| e.starts_with("$.histograms.h") && e.contains(want)),
                "{want}: {errors:?}"
            );
        };

        let mut wide = vec![0u64; 65];
        wide[64] = 8;
        rejected(HistogramSnapshot { buckets: wide, ..sound.clone() }, "buckets has 65 entries");
        rejected(HistogramSnapshot { min: 16, ..sound.clone() }, "min 16 > max 15");
        rejected(
            HistogramSnapshot { p95: 7, ..sound.clone() },
            ".p95 claims 7 but the buckets imply 15",
        );
        rejected(
            HistogramSnapshot { count: 9, ..sound.clone() },
            "buckets sum to 8 but count is 9",
        );
        let hostile = HistogramSnapshot { buckets: vec![u64::MAX, 9], ..sound.clone() };
        rejected(hostile, "buckets sum to more than a u64");

        // A pre-buckets histogram (samples, no `buckets` key) still decodes,
        // and is still held to min <= max.
        let Json::Object(pairs) = sound.write() else { unreachable!() };
        let legacy = Json::Object(pairs.into_iter().filter(|(k, _)| k != "buckets").collect());
        let back = read(&legacy).unwrap();
        assert_eq!(back, HistogramSnapshot { buckets: vec![], ..sound.clone() });
        assert_eq!(back.write().pretty(), legacy.pretty());
        rejected(HistogramSnapshot { min: 16, buckets: vec![], ..sound }, "min 16 > max 15");
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let s = histogram("test.metrics.empty_histo").snapshot();
        assert_eq!(
            s,
            HistogramSnapshot {
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                p50: 0,
                p90: 0,
                p95: 0,
                p99: 0,
                buckets: vec![],
            }
        );
    }

    #[test]
    fn deterministic_filter_drops_time_and_sched() {
        counter("test.metrics.det.plain").incr();
        counter("time.test.metrics.det").incr();
        gauge("sched.test.metrics.det").set(3);
        let snap = registry().snapshot().deterministic();
        assert!(snap.counters.contains_key("test.metrics.det.plain"));
        assert!(!snap.counters.contains_key("time.test.metrics.det"));
        assert!(!snap.gauges.contains_key("sched.test.metrics.det"));
    }
}
