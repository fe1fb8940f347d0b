//! In-memory spans recorded from *outside* the program: one per call into
//! a crate's public function (name, start, end, parent, op id), kept in
//! memory and written to `trace.jsonl` when the run ends.
//!
//! A layer's self time is its spans' duration minus the part their child
//! spans cover; summed over one replayed op, the self times of the named
//! layers against the op's own wall time is the coverage the traced run
//! prints.

use serde_json::json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// Which replayed op the span belongs to (`workload/network`).
    pub op: String,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// A span whose duration was read back from the program's own report
    /// (`CompileReport.phases`) or estimated by a separate call, rather
    /// than timed around a call inside its parent.
    pub derived: bool,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

pub struct Tracer {
    epoch: Instant,
    op: String,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            op: String::new(),
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Label the spans that follow with the op they belong to.
    pub fn set_op(&mut self, op: impl Into<String>) {
        self.op = op.into();
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span named `name` under the currently open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            op: self.op.clone(),
            name,
            start_us,
            end_us: start_us,
            derived: false,
        });
        self.stack.push(id);
        id
    }

    /// Close span `id` (and anything an early return left open inside it).
    pub fn close(&mut self, id: usize) {
        let now = self.now_us();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_us = now;
            if top == id {
                break;
            }
        }
    }

    /// Time `f` as a span named `name` under the currently open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        out
    }

    /// Record a child of span `parent` whose duration is known but was
    /// not timed in place; laid out from the parent's start after any
    /// earlier derived siblings.
    pub fn derived(&mut self, parent: usize, name: &'static str, seconds: f64) {
        let used: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.derived)
            .map(|s| s.end_us - s.start_us)
            .sum();
        let start_us = self.spans[parent].start_us + used;
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: Some(parent),
            op: self.spans[parent].op.clone(),
            name,
            start_us,
            end_us: start_us + seconds * 1e6,
            derived: true,
        });
    }

    /// Id of the most recently *closed or opened* span named `name`.
    pub fn last(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// Self seconds per span name over the subtree rooted at `root`
    /// (the root's own self time is reported under its name too).
    pub fn self_times(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let mut child_sum = vec![0.0f64; self.spans.len()];
        let mut in_tree = vec![false; self.spans.len()];
        in_tree[root] = true;
        for s in &self.spans[root + 1..] {
            if let Some(p) = s.parent {
                if in_tree[p] {
                    in_tree[s.id] = true;
                    child_sum[p] += s.seconds();
                }
            }
        }
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| in_tree[s.id]) {
            *out.entry(s.name).or_insert(0.0) += (s.seconds() - child_sum[s.id]).max(0.0);
        }
        out
    }

    /// One JSON object per span, in start order.
    pub fn to_jsonl(&self) -> String {
        self.spans
            .iter()
            .map(|s| {
                let line = json!({
                    "id": s.id as u64,
                    "parent": s.parent.map(|p| p as u64),
                    "op": s.op,
                    "name": s.name,
                    "start_us": s.start_us,
                    "end_us": s.end_us,
                    "derived": s.derived,
                });
                serde_json::to_string(&line).expect("span serializes") + "\n"
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut tr = Tracer::default();
        tr.span("op", |tr| {
            tr.span("a", |tr| {
                tr.span("b", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(5))
                })
            });
        });
        let op = tr.last("op").unwrap();
        tr.derived(op, "c", 0.001);
        let selfs = tr.self_times(op);
        let total: f64 = selfs.values().sum();
        assert!((total - tr.spans[op].seconds()).abs() < 1e-3, "{selfs:?}");
        assert!(selfs["b"] >= 0.005 && selfs["a"] < 0.004);
        assert_eq!(tr.to_jsonl().lines().count(), 4);
    }
}
