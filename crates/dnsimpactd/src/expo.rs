//! Prometheus text exposition, dependency-free: a renderer from a metrics
//! [`Snapshot`] and a strict parser used by tests and the CI `live` gate.
//!
//! The renderer emits the text format any Prometheus-compatible scraper
//! accepts: one `# TYPE` line per family, then samples. Metric names are
//! sanitized (`.` and every other illegal byte become `_`), which can
//! collide distinct registry names in principle — the renderer detects a
//! collision and suffixes rather than silently merging.
//!
//! Histograms expose the native log2 grid as cumulative `le` buckets:
//! bucket `i` of the registry instrument holds values of bit length `i`,
//! so its exposition upper bound is `2^i - 1` (`0` for bucket 0), plus
//! the standard `+Inf` bucket, `_sum`, and `_count`.
//!
//! [`parse_text`] is *stricter* than a scraper needs to be: it re-checks
//! that every sample name is legal, every value parses, histogram bucket
//! counts are cumulative and agree with `_count`, and every sample was
//! preceded by its `# TYPE`. The CI gate scrapes `/metricsz` mid-ingest
//! and runs this parser — an exposition bug fails the build, not the
//! operator's dashboard.

use obs::metrics::Snapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Map a registry name onto the Prometheus grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn is_legal_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

/// Sanitize every name in `names`, de-colliding with `_2`, `_3`, …
/// suffixes in input order so two registry names never merge silently.
fn sanitized_unique<'a>(names: impl Iterator<Item = &'a str>) -> BTreeMap<&'a str, String> {
    let mut used: BTreeMap<String, usize> = BTreeMap::new();
    let mut out = BTreeMap::new();
    for name in names {
        let base = sanitize(name);
        let n = used.entry(base.clone()).or_insert(0);
        *n += 1;
        let unique = if *n == 1 { base } else { format!("{base}_{n}") };
        out.insert(name, unique);
    }
    out
}

/// Render a snapshot as Prometheus text exposition.
pub fn render(snap: &Snapshot) -> String {
    let names = sanitized_unique(
        snap.counters
            .keys()
            .chain(snap.gauges.keys())
            .chain(snap.histograms.keys())
            .map(String::as_str),
    );
    let mut out = String::new();
    for (name, &value) in &snap.counters {
        let n = &names[name.as_str()];
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, &value) in &snap.gauges {
        let n = &names[name.as_str()];
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, h) in &snap.histograms {
        let n = &names[name.as_str()];
        let _ = writeln!(out, "# TYPE {n} histogram");
        let mut cum = 0u64;
        for (i, &b) in h.buckets.iter().enumerate() {
            cum += b;
            let le = if i == 0 { 0 } else { (1u64 << i) - 1 };
            let _ = writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cum}");
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{n}_sum {}", h.sum);
        let _ = writeln!(out, "{n}_count {}", h.count);
    }
    out
}

/// One parsed metric family.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    pub name: String,
    /// `counter`, `gauge`, or `histogram`.
    pub kind: String,
    /// `(sample name with suffix, label text or "", value)`.
    pub samples: Vec<(String, String, f64)>,
}

/// Strictly parse a text exposition (see module docs). Returns the
/// families in document order.
pub fn parse_text(text: &str) -> Result<Vec<Family>, String> {
    let mut families: Vec<Family> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (name, kind) = (it.next().unwrap_or(""), it.next().unwrap_or(""));
            if !is_legal_name(name) {
                return Err(format!("line {lineno}: illegal family name {name:?}"));
            }
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("line {lineno}: unknown family kind {kind:?}"));
            }
            if it.next().is_some() {
                return Err(format!("line {lineno}: trailing tokens on TYPE line"));
            }
            if families.iter().any(|f| f.name == name) {
                return Err(format!("line {lineno}: duplicate TYPE for {name:?}"));
            }
            families.push(Family { name: name.into(), kind: kind.into(), samples: Vec::new() });
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {lineno}: sample has no value: {line:?}"))?;
        let (name, labels) = match name_part.split_once('{') {
            Some((n, l)) => {
                let l = l
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {lineno}: unterminated labels: {line:?}"))?;
                (n, l.to_string())
            }
            None => (name_part, String::new()),
        };
        if !is_legal_name(name) {
            return Err(format!("line {lineno}: illegal sample name {name:?}"));
        }
        let value: f64 = value_part
            .parse()
            .map_err(|_| format!("line {lineno}: bad sample value {value_part:?}"))?;
        let family = families
            .iter_mut()
            .rev()
            .find(|f| {
                name == f.name
                    || (f.kind == "histogram"
                        && [
                            format!("{}_bucket", f.name),
                            format!("{}_sum", f.name),
                            format!("{}_count", f.name),
                        ]
                        .iter()
                        .any(|s| s == name))
            })
            .ok_or_else(|| format!("line {lineno}: sample {name:?} has no preceding # TYPE"))?;
        family.samples.push((name.into(), labels, value));
    }
    // Histogram shape: cumulative buckets, +Inf present, count agrees.
    for f in &families {
        if f.kind != "histogram" {
            if f.samples.len() != 1 {
                return Err(format!("{} family {:?} must have exactly one sample", f.kind, f.name));
            }
            continue;
        }
        let buckets: Vec<&(String, String, f64)> =
            f.samples.iter().filter(|(n, _, _)| *n == format!("{}_bucket", f.name)).collect();
        let mut prev = 0.0;
        let mut inf = None;
        for (_, labels, v) in &buckets {
            if *v < prev {
                return Err(format!("histogram {:?}: bucket counts not cumulative", f.name));
            }
            prev = *v;
            if labels == "le=\"+Inf\"" {
                inf = Some(*v);
            }
        }
        let inf =
            inf.ok_or_else(|| format!("histogram {:?}: missing le=\"+Inf\" bucket", f.name))?;
        let count = f
            .samples
            .iter()
            .find(|(n, _, _)| *n == format!("{}_count", f.name))
            .map(|(_, _, v)| *v)
            .ok_or_else(|| format!("histogram {:?}: missing _count", f.name))?;
        if count != inf {
            return Err(format!("histogram {:?}: _count {count} != +Inf bucket {inf}", f.name));
        }
        if !f.samples.iter().any(|(n, _, _)| *n == format!("{}_sum", f.name)) {
            return Err(format!("histogram {:?}: missing _sum", f.name));
        }
    }
    Ok(families)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::metrics::HistogramSnapshot;
    use std::collections::BTreeMap;

    fn snapshot_with_histogram() -> Snapshot {
        let mut h = HistogramSnapshot {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            p50: 0,
            p90: 0,
            p95: 0,
            p99: 0,
            buckets: vec![1, 2, 0, 4],
        };
        h.count = 7;
        h.sum = 40;
        Snapshot {
            counters: BTreeMap::from([("join.rows".into(), 12), ("time.wall_ms".into(), 88)]),
            gauges: BTreeMap::from([("daemon.staleness_s".into(), 3)]),
            histograms: BTreeMap::from([("sched.daemon.http.latency_us.query".into(), h)]),
        }
    }

    #[test]
    fn render_parses_back_with_expected_families() {
        let text = render(&snapshot_with_histogram());
        let families = parse_text(&text).unwrap();
        assert_eq!(families.len(), 4);
        let hist = families
            .iter()
            .find(|f| f.name == "sched_daemon_http_latency_us_query")
            .expect("histogram family");
        assert_eq!(hist.kind, "histogram");
        // 4 finite buckets + +Inf + _sum + _count.
        assert_eq!(hist.samples.len(), 7);
        let counter = families.iter().find(|f| f.name == "join_rows").unwrap();
        assert_eq!(counter.samples, vec![("join_rows".into(), String::new(), 12.0)]);
    }

    #[test]
    fn sanitize_maps_dots_and_collisions_stay_distinct() {
        assert_eq!(sanitize("a.b-c.9"), "a_b_c_9");
        assert_eq!(sanitize("9lead"), "_lead");
        let names = sanitized_unique(["a.b", "a_b"].into_iter());
        assert_eq!(names["a.b"], "a_b");
        assert_eq!(names["a_b"], "a_b_2");
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse_text("# TYPE x weird\nx 1\n").unwrap_err().contains("unknown family kind"));
        assert!(parse_text("orphan 1\n").unwrap_err().contains("no preceding # TYPE"));
        assert!(parse_text("# TYPE x counter\nx notanumber\n")
            .unwrap_err()
            .contains("bad sample value"));
        let non_cumulative = "# TYPE h histogram\n\
             h_bucket{le=\"1\"} 5\nh_bucket{le=\"3\"} 2\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n";
        assert!(parse_text(non_cumulative).unwrap_err().contains("not cumulative"));
        let count_mismatch = "# TYPE h histogram\n\
             h_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 6\n";
        assert!(parse_text(count_mismatch).unwrap_err().contains("_count"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_log2_bounds() {
        let text = render(&snapshot_with_histogram());
        let bucket_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("sched_daemon_http_latency_us_query_bucket"))
            .collect();
        assert_eq!(
            bucket_lines,
            vec![
                "sched_daemon_http_latency_us_query_bucket{le=\"0\"} 1",
                "sched_daemon_http_latency_us_query_bucket{le=\"1\"} 3",
                "sched_daemon_http_latency_us_query_bucket{le=\"3\"} 3",
                "sched_daemon_http_latency_us_query_bucket{le=\"7\"} 7",
                "sched_daemon_http_latency_us_query_bucket{le=\"+Inf\"} 7",
            ]
        );
    }
}
