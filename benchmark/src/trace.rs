//! In-memory spans recorded by the benchmark around its calls into each
//! layer (the program itself is not instrumented; that is a later issue).
//!
//! A span has a name (the layer boundary, e.g. `core.run`), the span that
//! caused it, a tag shared by all spans of one unit or job, and a count of
//! the work done inside it. Spans stay in memory during the traced pass
//! and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use ftdircmp_serve::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub tag: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span, in the unit natural to its layer
    /// (events for `core.run`, memory ops for `workloads.generate`, ...).
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span around `f`, whose second return value is the span's
    /// work count. Spans opened inside `f` become its children.
    pub fn span_counted<T>(
        &mut self,
        name: &'static str,
        tag: &str,
        f: impl FnOnce(&mut Tracer) -> (T, u64),
    ) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            tag: tag.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            count: 0,
        });
        self.open.push(id);
        let (out, count) = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].count = count;
        out
    }

    /// A span whose work count is one call.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        tag: &str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        self.span_counted(name, tag, |tr| (f(tr), 1))
    }

    /// Records an already-measured interval as a child of the open span.
    pub fn record(&mut self, name: &'static str, tag: &str, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            tag: tag.to_string(),
            start_ns: ns(start),
            end_ns: ns(end),
            count: 1,
        });
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name, in nanoseconds: each span's duration minus
    /// the part of it its children cover.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(&child_ns) {
            *by_name.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(*covered);
        }
        by_name
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj(vec![
                    ("id", Json::num_u64(id as u64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::num_u64(p as u64)),
                    ),
                    ("name", Json::str(s.name)),
                    ("tag", Json::str(&s.tag)),
                    ("start_us", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur_us", Json::Num(s.dur_ns() as f64 / 1e3)),
                    ("count", Json::num_u64(s.count)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::str(workload)),
            ("seed", Json::num_u64(seed)),
            ("spans", Json::Arr(spans)),
        ])
    }
}
