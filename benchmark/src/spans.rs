//! The benchmark's own span recorder: spans are taken around the calls
//! into each layer's public functions, from outside the program, kept in
//! memory, and written when the run ends. A layer's self time is its
//! span minus the part its children cover. (In-program spans — ROADMAP
//! 1c/5b — are a later change and will replace the replicas that drive
//! this recorder.)

use obs::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<u32>,
}

/// Self time per span: duration minus the summed durations of its direct
/// children (children nest inside their parent on one thread, so they
/// never overlap each other).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= s.end_ns - s.start_ns;
        }
    }
    own
}

/// Index of each span's top-level ancestor — the identifier the spans of
/// one pass (or one request) share. Parents always precede children.
pub fn roots(spans: &[Span]) -> Vec<u32> {
    let mut root = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        root.push(s.parent.map_or(i as u32, |p| root[p as usize]));
    }
    root
}

pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Time one call as a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn duration_ms(&self, id: u32) -> f64 {
        let s = &self.spans[id as usize];
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    /// Summed self time in milliseconds per span name, within the tree
    /// rooted at `root`.
    pub fn self_ms_by_name(&self, root: u32) -> BTreeMap<&'static str, f64> {
        let own = self_times(&self.spans);
        let roots = roots(&self.spans);
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if roots[i] == root {
                *out.entry(s.name).or_insert(0.0) += own[i] as f64 / 1e6;
            }
        }
        out
    }

    /// `{"names": [...], "spans": [[id, parent|null, root, name_idx,
    /// start_ns, end_ns], ...]}` — compact, because a daemon trace holds
    /// three spans per feed batch.
    pub fn to_json(&self) -> Json {
        let mut names: Vec<&'static str> = Vec::new();
        let roots = roots(&self.spans);
        let rows = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let name_idx = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                    names.push(s.name);
                    names.len() - 1
                });
                Json::Array(vec![
                    Json::U64(i as u64),
                    s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                    Json::U64(roots[i] as u64),
                    Json::U64(name_idx as u64),
                    Json::U64(s.start_ns),
                    Json::U64(s.end_ns),
                ])
            })
            .collect();
        let mut doc = Json::obj();
        doc.set(
            "columns",
            Json::Array(
                ["id", "parent", "root", "name", "start_ns", "end_ns"]
                    .map(|c| Json::Str(c.into()))
                    .to_vec(),
            ),
        );
        doc.set("spans", Json::Array(rows));
        doc.set("names", Json::Array(names.into_iter().map(|n| Json::Str(n.into())).collect()));
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("pipeline", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 40, 90, Some(0)),
            span("other-root", 200, 230, None),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 10, 50, 30]);
        assert_eq!(roots(&spans), vec![0, 0, 0, 0, 4]);
        // Self times of one tree sum to its root's duration.
        let own = self_times(&spans);
        assert_eq!(own[..4].iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_and_groups_by_root() {
        let mut rec = Recorder::new();
        let mut pass_roots = Vec::new();
        for _ in 0..2 {
            let root = rec.enter("pass");
            rec.time("layer", || std::hint::black_box(1 + 1));
            let outer = rec.enter("outer");
            rec.time("layer", || ());
            rec.exit(outer);
            rec.exit(root);
            pass_roots.push(root);
        }
        assert_eq!(rec.spans.len(), 8);
        assert_eq!(rec.spans[3].parent, Some(2));
        assert_eq!(rec.spans[4].parent, None);
        for &root in &pass_roots {
            let by_name = rec.self_ms_by_name(root);
            assert_eq!(by_name.keys().copied().collect::<Vec<_>>(), ["layer", "outer", "pass"]);
            let total: f64 = by_name.values().sum();
            assert!((total - rec.duration_ms(root)).abs() < 1e-6, "self times sum to the root");
        }
        let doc = rec.to_json();
        assert_eq!(doc.get("spans").and_then(Json::as_array).map(<[Json]>::len), Some(8));
        assert_eq!(doc.get("names").and_then(Json::as_array).map(<[Json]>::len), Some(3));
    }
}
