//! In-memory spans for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions; nothing under `crates/` knows about
//! them. They stay in memory while the run measures and are written to
//! `benchmark/out/<workload>.trace.json` when it ends.

use std::time::Instant;

use crate::json::Value;

/// One recorded interval. `parent` is the span that was open when this one
/// started; a span without a parent is a root (one per graph).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// 1 for a real span. An *aggregate* stands for `calls` callbacks whose
    /// individual intervals were summed instead of recorded (millions of
    /// protocol callbacks); its length is their total.
    pub calls: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder: a flat list plus the stack of open spans.
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

    /// Runs `f` inside a span called `name` and returns its result together
    /// with the span's id.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, usize) {
        let id = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            calls: 1,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        (out, id)
    }

    /// Like [`Tracer::span`] for callers that only want the result.
    pub fn within<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.span(name, f).0
    }

    /// Records `calls` callbacks that together took `total_ns` as one child
    /// of `parent`, so that the parent's self time excludes them.
    pub fn aggregate(&mut self, parent: usize, name: &str, total_ns: u64, calls: u64) {
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns + total_ns,
            parent: Some(parent),
            calls,
        });
    }

    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// A span's length minus the part its direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::ns)
            .sum();
        self.spans[id].ns().saturating_sub(children)
    }

    /// Total length of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(Span::ns).sum::<u64>() as f64 / 1e9
    }

    /// Total self time of every span called `name`, in seconds.
    pub fn total_self_s(&self, name: &str) -> f64 {
        let ns: u64 = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_ns(i))
            .sum();
        ns as f64 / 1e9
    }

    /// Calls covered by the spans called `name` (aggregates count all the
    /// callbacks they stand for).
    pub fn calls(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.calls).sum()
    }

    /// Lengths of the spans called `name`, in milliseconds.
    pub fn each_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.ns() as f64 / 1e6).collect()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// The spans as a JSON array (name, start, end, parent; `calls` only on
    /// aggregates).
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    let mut fields = vec![
                        ("id".to_string(), Value::Num(id as f64)),
                        ("name".to_string(), Value::Str(s.name.clone())),
                        ("start_ns".to_string(), Value::Num(s.start_ns as f64)),
                        ("end_ns".to_string(), Value::Num(s.end_ns as f64)),
                        (
                            "parent".to_string(),
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                    ];
                    if s.calls != 1 {
                        fields.push(("calls".to_string(), Value::Num(s.calls as f64)));
                    }
                    Value::Obj(fields)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-set times: root [0, 100] with children [10, 30]
    /// and an aggregate of 50 ns over 5 calls; the first child has a
    /// grandchild [12, 20].
    fn fixture() -> Tracer {
        let mut t = Tracer::new();
        let span = |name: &str, start_ns, end_ns, parent, calls| Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            calls,
        };
        t.spans = vec![
            span("root", 0, 100, None, 1),
            span("child", 10, 30, Some(0), 1),
            span("leaf", 12, 20, Some(1), 1),
        ];
        t.aggregate(0, "handlers", 50, 5);
        t
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = fixture();
        // 100 - (20 + 50): the grandchild is inside the child already
        assert_eq!(t.self_ns(0), 30);
        assert_eq!(t.self_ns(1), 12);
        assert_eq!(t.self_ns(2), 8);
        assert_eq!(t.self_ns(3), 50);
    }

    #[test]
    fn aggregates_count_their_calls_and_never_go_negative() {
        let mut t = fixture();
        assert_eq!(t.calls("handlers"), 5);
        assert_eq!(t.calls("child"), 1);
        assert_eq!(t.get(3).parent, Some(0));
        // children that overrun their parent (clock granularity) clamp at 0
        t.aggregate(2, "overrun", 1_000, 2);
        assert_eq!(t.self_ns(2), 0);
    }

    #[test]
    fn spans_nest_by_call_structure() {
        let mut t = Tracer::new();
        let (inner, outer) = t.span("outer", |t| t.span("inner", |_| 7).1);
        assert_eq!(t.get(inner).parent, Some(outer));
        assert_eq!(t.get(outer).parent, None);
        assert!(t.get(outer).ns() >= t.get(inner).ns());
        assert_eq!(t.len(), 2);
        assert!((t.total_s("outer") - t.get(outer).ns() as f64 / 1e9).abs() < 1e-12);
    }
}
