//! Mergeable log2 histograms for cross-process aggregation.
//!
//! [`crate::metrics::Histogram`] is an in-process atomic instrument; this
//! module is its *value* form — a plain [`Hist`] that can be rebuilt from
//! the `buckets` array a run report carries, added bucket-wise to another
//! histogram, and asked for percentiles. The suite orchestrator
//! (`repro bench --suite`) uses it to fuse the per-process distributions
//! of N spawned release binaries into one summary: because the buckets are
//! the same fixed log2 grid in every process, [`merge`] is exact — the
//! merged histogram is bit-identical to the histogram one process would
//! have produced had it observed every sample itself.
//!
//! Bucket `i` holds values whose bit length is `i`: `{0}` for bucket 0,
//! `[2^(i-1), 2^i)` for `i >= 1`. Percentiles report the bucket's upper
//! bound (`2^i - 1`), exactly like the in-process instrument, so merged
//! and single-process quantiles are directly comparable. `count`, `sum`,
//! `min`, and `max` are exact under merging.

use crate::json::Json;
use crate::metrics::HistogramSnapshot;
use crate::schema::{self, Field, Reader};

/// Number of log2 buckets — one per possible `u64` bit length, matching
/// [`crate::metrics::Histogram`].
pub const BUCKETS: usize = 64;

/// A plain-value log2 histogram. `buckets` is kept trimmed (no trailing
/// zero buckets) so equality and serialization are canonical regardless
/// of how the histogram was built.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Hist {
    count: u64,
    sum: u64,
    /// Meaningful only when `count > 0`; [`Hist::min`] reports 0 when empty.
    min: u64,
    max: u64,
    buckets: Vec<u64>,
}

impl Hist {
    pub fn new() -> Hist {
        Hist::default()
    }

    /// Record one sample, exactly like the in-process instrument.
    pub fn record(&mut self, v: u64) {
        let bucket = ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1);
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        // Wrapping, to match the in-process instrument's `fetch_add`.
        self.sum = self.sum.wrapping_add(v);
    }

    /// Rebuild a histogram from its carried parts, enforcing the shape
    /// invariants (`sum(buckets) == count`, at most [`BUCKETS`] buckets,
    /// `min <= max` when non-empty) so a hand-edited report cannot smuggle
    /// an inconsistent distribution into a merge.
    pub fn from_parts(
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        buckets: Vec<u64>,
    ) -> Result<Hist, String> {
        if buckets.len() > BUCKETS {
            return Err(format!("{} buckets; the log2 grid has at most {BUCKETS}", buckets.len()));
        }
        match schema::checked_sum(&buckets) {
            Some(total) if total == count => {}
            Some(total) => {
                return Err(format!("bucket counts sum to {total}, count says {count}"));
            }
            None => return Err(format!("bucket counts overflow u64, count says {count}")),
        }
        if count > 0 && min > max {
            return Err(format!("min {min} > max {max}"));
        }
        let mut h = Hist { count, sum, min, max, buckets };
        if count == 0 {
            h.min = 0;
            h.max = 0;
            h.sum = 0;
        }
        h.trim();
        Ok(h)
    }

    /// Rebuild from a run report's [`HistogramSnapshot`]. Fails when the
    /// snapshot carries no bucket array (a pre-buckets report): without
    /// buckets a histogram cannot participate in an exact merge.
    pub fn from_snapshot(s: &HistogramSnapshot) -> Result<Hist, String> {
        if s.count > 0 && s.buckets.is_empty() {
            return Err(format!("snapshot has {} samples but no buckets array", s.count));
        }
        Hist::from_parts(s.count, s.sum, s.min, s.max, s.buckets.clone())
    }

    /// Fold `other` into `self`, bucket-wise. Exact: the result equals
    /// the histogram of the union of both sample streams.
    pub fn merge_from(&mut self, other: &Hist) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        // Wrapping, to match the in-process instrument's `fetch_add`: the
        // merged sum of any split equals the sum of the union mod 2^64.
        self.sum = self.sum.wrapping_add(other.sum);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` (0 < q <= 1): the upper bound `2^i - 1`
    /// of the first bucket whose cumulative count reaches the rank — the
    /// same approximation the in-process instrument reports.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return if i == 0 { 0 } else { (1u64 << i) - 1 };
            }
        }
        self.max
    }

    /// Serialize as the suite report's histogram object: the exact parts
    /// plus derived p50/p95/p99 for human readers. The derived fields are
    /// pure functions of `buckets`, so re-serializing a parsed histogram
    /// is byte-identical.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("count", Json::U64(self.count));
        o.set("sum", Json::U64(self.sum));
        o.set("min", Json::U64(self.min()));
        o.set("max", Json::U64(self.max));
        o.set("p50", Json::U64(self.percentile(0.50)));
        o.set("p95", Json::U64(self.percentile(0.95)));
        o.set("p99", Json::U64(self.percentile(0.99)));
        o.set("buckets", self.buckets.write());
        o
    }

    /// Parse a histogram object rooted at `path` back, re-checking the
    /// shape invariants *and* that the carried p50/p95/p99 match what the
    /// buckets imply — a report cannot claim percentiles its distribution
    /// does not have.
    pub fn from_json(doc: &Json, path: &str) -> Result<Hist, Vec<String>> {
        schema::decode_at(doc, path)
    }

    fn trim(&mut self) {
        while self.buckets.last() == Some(&0) {
            self.buckets.pop();
        }
    }
}

impl Field for Hist {
    fn read(doc: &Json, r: &mut Reader) -> Option<Hist> {
        let count = r.field::<u64>(doc, "count");
        let sum = r.field::<u64>(doc, "sum");
        let min = r.field::<u64>(doc, "min");
        let max = r.field::<u64>(doc, "max");
        let buckets = r.field::<Vec<u64>>(doc, "buckets");
        let h = match Hist::from_parts(count?, sum?, min?, max?, buckets?) {
            Ok(h) => h,
            Err(e) => {
                r.fail(format_args!(": {e}"));
                return None;
            }
        };
        let mut honest = true;
        for (key, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
            let actual = h.percentile(q);
            match r.field::<u64>(doc, key) {
                Some(claimed) if claimed == actual => {}
                Some(claimed) => {
                    honest = false;
                    r.fail(format_args!(".{key} claims {claimed} but the buckets imply {actual}"));
                }
                None => honest = false,
            }
        }
        honest.then_some(h)
    }

    fn write(&self) -> Json {
        self.to_json()
    }
}

/// Merge any number of histograms into one, bucket-wise. Exact (see
/// module docs): equivalent to recording every underlying sample into a
/// single histogram.
pub fn merge<'a, I: IntoIterator<Item = &'a Hist>>(parts: I) -> Hist {
    let mut out = Hist::new();
    for h in parts {
        out.merge_from(h);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist_of(values: &[u64]) -> Hist {
        let mut h = Hist::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn merge_equals_recording_the_union() {
        let all: Vec<u64> = vec![0, 1, 3, 7, 100, 5_000, u64::MAX, 12, 12, 900];
        for split in 0..=all.len() {
            let (a, b) = all.split_at(split);
            let merged = merge([&hist_of(a), &hist_of(b)]);
            assert_eq!(merged, hist_of(&all), "split at {split}");
        }
    }

    #[test]
    fn empty_histograms_are_merge_identities() {
        let h = hist_of(&[4, 9, 31]);
        assert_eq!(merge([&Hist::new(), &h, &Hist::new()]), h);
        let empty = merge::<[&Hist; 0]>([]);
        assert_eq!(empty, Hist::new());
        assert_eq!(empty.percentile(0.99), 0);
        assert_eq!(empty.min(), 0);
    }

    #[test]
    fn percentiles_match_the_instrument() {
        // Same workload as the metrics-module test: the value form must
        // agree with the atomic instrument bucket-for-bucket.
        let mut h = Hist::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let name: &'static str = "test.hist.instrument_parity";
        let instrument = crate::metrics::histogram(name);
        for v in 1..=100u64 {
            instrument.record(v);
        }
        let snap = instrument.snapshot();
        assert_eq!(Hist::from_snapshot(&snap).unwrap(), h);
        assert_eq!(h.percentile(0.50), snap.p50);
        assert_eq!(h.percentile(0.95), snap.p95);
        assert_eq!(h.percentile(0.99), snap.p99);
        assert_eq!((h.count(), h.sum(), h.min(), h.max()), (100, 5050, 1, 100));
    }

    #[test]
    fn from_parts_rejects_inconsistent_shapes() {
        assert!(Hist::from_parts(3, 10, 1, 5, vec![0, 2, 1]).is_ok());
        let e = Hist::from_parts(4, 10, 1, 5, vec![0, 2, 1]).unwrap_err();
        assert!(e.contains("sum to 3"), "{e}");
        let e = Hist::from_parts(2, 10, 9, 5, vec![0, 1, 1]).unwrap_err();
        assert!(e.contains("min 9 > max 5"), "{e}");
        let e = Hist::from_parts(0, 0, 0, 0, vec![0; 65]).unwrap_err();
        assert!(e.contains("65 buckets"), "{e}");
    }

    #[test]
    fn json_round_trips_and_rejects_lying_percentiles() {
        let h = hist_of(&[1, 2, 3, 900, 4096]);
        let doc = h.to_json();
        let back = Hist::from_json(&doc, "$.h").unwrap();
        assert_eq!(back, h);
        assert_eq!(back.to_json().pretty(), doc.pretty());

        let mut lying = doc.clone();
        lying.set("p99", Json::U64(1));
        let errors = Hist::from_json(&lying, "$.h").unwrap_err();
        assert!(errors.iter().any(|e| e.contains("p99 claims 1")), "{errors:?}");

        let mut truncated = doc.clone();
        truncated.set("buckets", Json::Array(vec![Json::U64(1)]));
        assert!(Hist::from_json(&truncated, "$.h").is_err());

        let empty = Json::obj();
        let errors = Hist::from_json(&empty, "$.h").unwrap_err();
        assert!(errors.iter().any(|e| e.contains("$.h.count")), "{errors:?}");
    }

    #[test]
    fn snapshot_without_buckets_cannot_merge() {
        let legacy = HistogramSnapshot {
            count: 5,
            sum: 10,
            min: 1,
            max: 4,
            p50: 3,
            p90: 3,
            p95: 3,
            p99: 3,
            buckets: Vec::new(),
        };
        assert!(Hist::from_snapshot(&legacy).unwrap_err().contains("no buckets"));
    }
}
