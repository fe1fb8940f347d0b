//! Event-stream aggregation: fold any telemetry stream into a
//! deterministic, diffable [`RunReport`].
//!
//! The raw [`Event`](crate::Event) stream is a total order (by `seq`) over
//! everything a flow run did. This module folds that order into the three
//! views the paper-style evaluation needs:
//!
//! * a **span profile tree** — every `SpanStart`/`SpanEnd` pair becomes a
//!   node keyed by its path of enclosing spans, with call counts and an
//!   event-ordered *cost*: the number of events emitted while the span was
//!   open (total) and while it was the innermost open span (self). Cost is
//!   counted in events, never wall clock, so two same-seed runs produce
//!   byte-identical profiles at any `PI_THREADS` setting;
//! * **metric tables** — counter sums, gauge last/min/max, point counts,
//!   and fixed-bucket [`Histogram`]s over every numeric point field;
//! * **convergence traces** — annealer cost per temperature round, router
//!   expansions/rip-ups per negotiation pass, and the stitch placer's
//!   threshold-retry log.
//!
//! [`RunReport::diff`] aligns two reports by scope path and flags every
//! metric delta; `flowstat diff --fail-on-regression` turns that into a CI
//! gate. Fields whose key starts with `wallclock` are skipped during the
//! fold (they are nondeterministic by convention, see
//! [`Event::to_json`](crate::Event::to_json)), so a report folded from a
//! live [`MemorySink`](crate::MemorySink) equals one folded from the
//! recorded `--trace` JSONL of the same run.

use crate::{Event, EventKind, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Number of histogram buckets: underflow (`< 0`), `[0, 1)`, then one
/// power-of-two bucket per magnitude up to `2^15`, then overflow.
pub const HISTOGRAM_BUCKETS: usize = 18;

/// A fixed-bucket histogram over `f64` samples.
///
/// Bucket boundaries are hard-coded powers of two (bucket 0 is `< 0`,
/// bucket 1 is `[0, 1)`, bucket `i` for `2 <= i <= 16` is
/// `[2^(i-2), 2^(i-1))`, bucket 17 is `>= 2^15`), so two histograms built
/// from the same samples in the same order are identical — no dynamic
/// rebinning, no data-dependent boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    pub counts: [u64; HISTOGRAM_BUCKETS],
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// Bucket index for a sample. Comparisons against exact integer powers
    /// of two — no `log2`, so the mapping is bit-reproducible.
    pub fn bucket_of(v: f64) -> usize {
        if v < 0.0 || v.is_nan() {
            return 0;
        }
        if v < 1.0 {
            return 1;
        }
        let mut bound = 2.0f64;
        for i in 2..HISTOGRAM_BUCKETS - 1 {
            if v < bound {
                return i;
            }
            bound *= 2.0;
        }
        HISTOGRAM_BUCKETS - 1
    }

    /// Human-readable label of a bucket's range.
    pub fn bucket_label(i: usize) -> String {
        match i {
            0 => "<0".to_string(),
            1 => "[0,1)".to_string(),
            i if i < HISTOGRAM_BUCKETS - 1 => {
                format!("[{},{})", 1u64 << (i - 2), 1u64 << (i - 1))
            }
            _ => format!(">={}", 1u64 << (HISTOGRAM_BUCKETS - 3)),
        }
    }

    pub fn record(&mut self, v: f64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// A scalar fingerprint of the bucket shape: moving any sample to a
    /// different bucket changes it. Used by [`RunReport::metrics`] so a
    /// distribution shift is flagged even when count/sum/min/max agree.
    pub fn shape_fingerprint(&self) -> f64 {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| c as f64 * (i as f64 + 1.0))
            .sum()
    }

    fn to_json(&self) -> serde_json::Value {
        let mut m = serde_json::Value::Map(Vec::new());
        m["count"] = serde_json::Value::U64(self.count);
        m["sum"] = serde_json::Value::F64(self.sum);
        if self.count > 0 {
            m["min"] = serde_json::Value::F64(self.min);
            m["max"] = serde_json::Value::F64(self.max);
        }
        let mut buckets = Vec::new();
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                buckets.push(serde_json::Value::Seq(vec![
                    serde_json::Value::Str(Self::bucket_label(i)),
                    serde_json::Value::U64(c),
                ]));
            }
        }
        m["buckets"] = serde_json::Value::Seq(buckets);
        m
    }
}

/// Profile statistics of one span path.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpanProfile {
    /// Times a span with this path was entered.
    pub count: u64,
    /// Events emitted while a span with this path was open (its
    /// event-ordered total cost, children included).
    pub total_events: u64,
    /// Events emitted while this path was the innermost open span (total
    /// minus the children's share).
    pub self_events: u64,
}

/// Counter aggregate: counters carry monotonic totals sampled at emission
/// time, so both the sum over samples and the last sample are kept.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CounterStats {
    pub count: u64,
    pub sum: u64,
    pub last: u64,
}

/// Gauge aggregate over instantaneous measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeStats {
    pub count: u64,
    pub last: f64,
    pub min: f64,
    pub max: f64,
}

impl Default for GaugeStats {
    fn default() -> Self {
        GaugeStats {
            count: 0,
            last: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

/// Point aggregate: occurrence count plus a fixed-bucket histogram per
/// numeric field.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PointStats {
    pub count: u64,
    pub fields: BTreeMap<String, Histogram>,
}

/// One simulated-annealing placement run (a `pnr::place` `anneal_round`
/// sequence restarting at round 0): cost vs. iteration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AnnealTrace {
    pub seed: u64,
    /// Cost after each temperature round, in round order.
    pub cost: Vec<f64>,
    /// Moves accepted per round (present once the annealer reports them).
    pub accepted: u64,
    /// Moves rejected per round total.
    pub rejected: u64,
}

impl AnnealTrace {
    pub fn rounds(&self) -> u64 {
        self.cost.len() as u64
    }

    pub fn initial_cost(&self) -> f64 {
        self.cost.first().copied().unwrap_or(0.0)
    }

    pub fn final_cost(&self) -> f64 {
        self.cost.last().copied().unwrap_or(0.0)
    }
}

/// One PathFinder negotiation run (a `pnr::route` `pathfinder_iter`
/// sequence restarting at iteration 0).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RouteTrace {
    /// Per-pass `(overused, ripups, expansions)` samples, in pass order.
    pub passes: Vec<(u64, u64, u64)>,
    /// Two-pin segments routed through Steiner decomposition across the run.
    pub steiner_segments: u64,
    /// Rip-ups of negative-slack (timing-critical) nets across the run.
    pub criticality_reroutes: u64,
    /// Parallel-merge conflicts re-routed against the live state.
    pub parallel_conflicts: u64,
}

impl RouteTrace {
    pub fn iters(&self) -> u64 {
        self.passes.len() as u64
    }

    pub fn final_overused(&self) -> u64 {
        self.passes.last().map(|p| p.0).unwrap_or(0)
    }

    pub fn total_ripups(&self) -> u64 {
        self.passes.iter().map(|p| p.1).sum()
    }

    pub fn total_expansions(&self) -> u64 {
        self.passes.iter().map(|p| p.2).sum()
    }
}

/// One firing of the stitch placer's unplace-and-retry loop
/// (`stitch::placer` `threshold_retry`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StitchRetry {
    pub component: String,
    pub step: u64,
    pub score: f64,
    pub threshold: f64,
}

/// A deterministic aggregation of one telemetry stream.
///
/// Folding is keyed entirely on the event payload in `seq` order — never on
/// `ts_us` or `wallclock*` fields — so the report of a run is a pure
/// function of its deterministic event stream: fold a live `MemorySink`
/// snapshot or the re-parsed `--trace` JSONL of the same run and the
/// reports compare equal. (`wallclock*` point fields are additionally
/// aggregated into [`RunReport::wallclock`] for human inspection; the
/// timestamp-stripped JSONL form drops them, and [`RunReport::metrics`] /
/// [`RunReport::diff`] never look at them.)
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Total events folded.
    pub events: u64,
    /// Every seed that tagged at least one event.
    pub seeds: BTreeSet<u64>,
    /// Span profile nodes, keyed by `/`-joined span path (each segment is
    /// `scope:name`). Sorted lexicographically the keys read as a tree.
    pub spans: BTreeMap<String, SpanProfile>,
    /// Counter aggregates keyed by `scope:name`.
    pub counters: BTreeMap<String, CounterStats>,
    /// Gauge aggregates keyed by `scope:name`.
    pub gauges: BTreeMap<String, GaugeStats>,
    /// Point aggregates (count + per-field histograms) keyed by
    /// `scope:name`.
    pub points: BTreeMap<String, PointStats>,
    /// Wall-clock aggregates folded from `wallclock*` point fields, keyed
    /// `scope:name.field` (e.g. per-request latency from `pi-serve`).
    /// Real measurements, but nondeterministic by convention — excluded
    /// from [`RunReport::metrics`] (and therefore from diffs and
    /// regression gates) and from the default text rendering; see
    /// [`RunReport::render_wallclock`].
    pub wallclock: BTreeMap<String, GaugeStats>,
    /// Annealer convergence traces, in stream order.
    pub anneal: Vec<AnnealTrace>,
    /// Router negotiation traces, in stream order.
    pub route: Vec<RouteTrace>,
    /// Stitch-placer threshold retries, in stream order.
    pub stitch_retries: Vec<StitchRetry>,
}

fn seg(scope: &str, name: &str) -> String {
    if scope.is_empty() {
        name.to_string()
    } else {
        format!("{scope}:{name}")
    }
}

fn field_f64(fields: &[(String, Value)], key: &str) -> Option<f64> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            Value::U64(n) => Some(*n as f64),
            Value::I64(n) => Some(*n as f64),
            Value::F64(n) => Some(*n),
            _ => None,
        })
}

fn field_u64(fields: &[(String, Value)], key: &str) -> Option<u64> {
    field_f64(fields, key).map(|v| v as u64)
}

fn field_str<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a str> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        })
}

impl RunReport {
    /// Fold an event stream (in `seq` order) into a report.
    pub fn from_events(events: &[Event]) -> RunReport {
        let mut r = RunReport::default();
        // Stack of open spans: (scope, name, full path).
        let mut stack: Vec<(String, String, String)> = Vec::new();
        for e in events {
            r.events += 1;
            r.seeds.insert(e.seed);
            // Event-ordered cost attribution: every event (including the
            // span markers themselves) bills one unit to each open span,
            // and one *self* unit to the innermost.
            for (_, _, path) in &stack {
                r.spans.entry(path.clone()).or_default().total_events += 1;
            }
            if let Some((_, _, path)) = stack.last() {
                r.spans.entry(path.clone()).or_default().self_events += 1;
            }
            let key = seg(&e.scope, &e.name);
            match e.kind {
                EventKind::SpanStart => {
                    let path = match stack.last() {
                        Some((_, _, parent)) => format!("{parent}/{key}"),
                        None => key.clone(),
                    };
                    r.spans.entry(path.clone()).or_default().count += 1;
                    stack.push((e.scope.clone(), e.name.clone(), path));
                }
                EventKind::SpanEnd => {
                    // Pop the matching span; tolerate unbalanced streams
                    // (e.g. a truncated trace) by searching downward.
                    if let Some(pos) = stack
                        .iter()
                        .rposition(|(s, n, _)| *s == e.scope && *n == e.name)
                    {
                        stack.truncate(pos);
                    }
                }
                EventKind::Counter => {
                    let v = field_u64(&e.fields, "value").unwrap_or(0);
                    let c = r.counters.entry(key).or_default();
                    c.count += 1;
                    c.sum += v;
                    c.last = v;
                }
                EventKind::Gauge => {
                    let v = field_f64(&e.fields, "value").unwrap_or(0.0);
                    let g = r.gauges.entry(key).or_default();
                    g.count += 1;
                    g.last = v;
                    g.min = g.min.min(v);
                    g.max = g.max.max(v);
                }
                EventKind::Point => {
                    for (k, v) in &e.fields {
                        // Nondeterministic by convention: aggregated apart
                        // from the deterministic histograms below.
                        if !k.starts_with("wallclock") {
                            continue;
                        }
                        let n = match v {
                            Value::U64(n) => *n as f64,
                            Value::I64(n) => *n as f64,
                            Value::F64(n) => *n,
                            _ => continue,
                        };
                        let w = r.wallclock.entry(format!("{key}.{k}")).or_default();
                        w.count += 1;
                        w.last = n;
                        w.min = w.min.min(n);
                        w.max = w.max.max(n);
                    }
                    let p = r.points.entry(key).or_default();
                    p.count += 1;
                    for (k, v) in &e.fields {
                        if k.starts_with("wallclock") {
                            continue;
                        }
                        let n = match v {
                            Value::U64(n) => *n as f64,
                            Value::I64(n) => *n as f64,
                            Value::F64(n) => *n,
                            _ => continue,
                        };
                        p.fields.entry(k.clone()).or_default().record(n);
                    }
                    r.fold_convergence(e);
                }
            }
        }
        r
    }

    fn fold_convergence(&mut self, e: &Event) {
        match (e.scope.as_str(), e.name.as_str()) {
            ("pnr::place", "anneal_round") => {
                if field_u64(&e.fields, "round") == Some(0) || self.anneal.is_empty() {
                    self.anneal.push(AnnealTrace {
                        seed: e.seed,
                        ..AnnealTrace::default()
                    });
                }
                let t = self.anneal.last_mut().expect("pushed above");
                t.cost.push(field_f64(&e.fields, "cost").unwrap_or(0.0));
                t.accepted += field_u64(&e.fields, "accepted").unwrap_or(0);
                t.rejected += field_u64(&e.fields, "rejected").unwrap_or(0);
            }
            ("pnr::route", "pathfinder_iter") => {
                if field_u64(&e.fields, "iter") == Some(0) || self.route.is_empty() {
                    self.route.push(RouteTrace::default());
                }
                let t = self.route.last_mut().expect("pushed above");
                t.passes.push((
                    field_u64(&e.fields, "overused").unwrap_or(0),
                    field_u64(&e.fields, "ripups").unwrap_or(0),
                    field_u64(&e.fields, "expansions").unwrap_or(0),
                ));
                t.steiner_segments += field_u64(&e.fields, "steiner_segments").unwrap_or(0);
                t.criticality_reroutes += field_u64(&e.fields, "criticality_reroutes").unwrap_or(0);
                t.parallel_conflicts += field_u64(&e.fields, "parallel_conflicts").unwrap_or(0);
            }
            ("stitch::placer", "threshold_retry") => {
                self.stitch_retries.push(StitchRetry {
                    component: field_str(&e.fields, "component").unwrap_or("").to_string(),
                    step: field_u64(&e.fields, "step").unwrap_or(0),
                    score: field_f64(&e.fields, "score").unwrap_or(0.0),
                    threshold: field_f64(&e.fields, "threshold").unwrap_or(0.0),
                });
            }
            _ => {}
        }
    }

    /// Flatten the report into a sorted map of scalar metrics — the
    /// alignment form [`RunReport::diff`] compares. Keys are
    /// human-readable (`span <path> total`, `counter <scope:name> sum`,
    /// ...), values are exact folds of the deterministic payload.
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        m.insert("events".to_string(), self.events as f64);
        m.insert("seeds".to_string(), self.seeds.len() as f64);
        for (path, s) in &self.spans {
            m.insert(format!("span {path} count"), s.count as f64);
            m.insert(format!("span {path} total"), s.total_events as f64);
            m.insert(format!("span {path} self"), s.self_events as f64);
        }
        for (k, c) in &self.counters {
            m.insert(format!("counter {k} sum"), c.sum as f64);
            m.insert(format!("counter {k} last"), c.last as f64);
            m.insert(format!("counter {k} n"), c.count as f64);
        }
        for (k, g) in &self.gauges {
            m.insert(format!("gauge {k} last"), g.last);
            m.insert(format!("gauge {k} min"), g.min);
            m.insert(format!("gauge {k} max"), g.max);
            m.insert(format!("gauge {k} n"), g.count as f64);
        }
        for (k, p) in &self.points {
            m.insert(format!("point {k} n"), p.count as f64);
            for (f, h) in &p.fields {
                m.insert(format!("hist {k}.{f} n"), h.count as f64);
                m.insert(format!("hist {k}.{f} sum"), h.sum);
                if h.count > 0 {
                    m.insert(format!("hist {k}.{f} min"), h.min);
                    m.insert(format!("hist {k}.{f} max"), h.max);
                }
                m.insert(format!("hist {k}.{f} shape"), h.shape_fingerprint());
            }
        }
        m.insert("trace anneal runs".to_string(), self.anneal.len() as f64);
        m.insert(
            "trace anneal rounds".to_string(),
            self.anneal.iter().map(AnnealTrace::rounds).sum::<u64>() as f64,
        );
        m.insert(
            "trace anneal final_cost".to_string(),
            self.anneal.iter().map(AnnealTrace::final_cost).sum(),
        );
        m.insert("trace route runs".to_string(), self.route.len() as f64);
        m.insert(
            "trace route iters".to_string(),
            self.route.iter().map(RouteTrace::iters).sum::<u64>() as f64,
        );
        m.insert(
            "trace route ripups".to_string(),
            self.route.iter().map(RouteTrace::total_ripups).sum::<u64>() as f64,
        );
        m.insert(
            "trace route expansions".to_string(),
            self.route
                .iter()
                .map(RouteTrace::total_expansions)
                .sum::<u64>() as f64,
        );
        m.insert(
            "trace route final_overused".to_string(),
            self.route
                .iter()
                .map(RouteTrace::final_overused)
                .sum::<u64>() as f64,
        );
        m.insert(
            "trace route steiner_segments".to_string(),
            self.route.iter().map(|t| t.steiner_segments).sum::<u64>() as f64,
        );
        m.insert(
            "trace route criticality_reroutes".to_string(),
            self.route
                .iter()
                .map(|t| t.criticality_reroutes)
                .sum::<u64>() as f64,
        );
        m.insert(
            "trace route parallel_conflicts".to_string(),
            self.route.iter().map(|t| t.parallel_conflicts).sum::<u64>() as f64,
        );
        m.insert(
            "trace stitch retries".to_string(),
            self.stitch_retries.len() as f64,
        );
        m
    }

    /// Align two reports by metric key and collect every difference.
    pub fn diff(&self, other: &RunReport) -> ReportDiff {
        let a = self.metrics();
        let b = other.metrics();
        let mut entries = Vec::new();
        let keys: BTreeSet<&String> = a.keys().chain(b.keys()).collect();
        let compared = keys.len();
        for key in keys {
            let (va, vb) = (a.get(key).copied(), b.get(key).copied());
            let differs = match (va, vb) {
                (Some(x), Some(y)) => x != y,
                _ => true,
            };
            if differs {
                entries.push(DiffEntry {
                    key: key.clone(),
                    a: va,
                    b: vb,
                });
            }
        }
        ReportDiff { entries, compared }
    }

    /// The report as a JSON tree (deterministic: sorted keys, no
    /// timestamps).
    pub fn to_json(&self) -> serde_json::Value {
        use serde_json::Value as J;
        let mut root = J::Map(Vec::new());
        root["events"] = J::U64(self.events);
        root["seeds"] = J::Seq(self.seeds.iter().map(|&s| J::U64(s)).collect());
        let mut spans = J::Map(Vec::new());
        for (path, s) in &self.spans {
            let mut n = J::Map(Vec::new());
            n["count"] = J::U64(s.count);
            n["total_events"] = J::U64(s.total_events);
            n["self_events"] = J::U64(s.self_events);
            spans[path.as_str()] = n;
        }
        root["spans"] = spans;
        let mut counters = J::Map(Vec::new());
        for (k, c) in &self.counters {
            let mut n = J::Map(Vec::new());
            n["n"] = J::U64(c.count);
            n["sum"] = J::U64(c.sum);
            n["last"] = J::U64(c.last);
            counters[k.as_str()] = n;
        }
        root["counters"] = counters;
        let mut gauges = J::Map(Vec::new());
        for (k, g) in &self.gauges {
            let mut n = J::Map(Vec::new());
            n["n"] = J::U64(g.count);
            n["last"] = J::F64(g.last);
            n["min"] = J::F64(g.min);
            n["max"] = J::F64(g.max);
            gauges[k.as_str()] = n;
        }
        root["gauges"] = gauges;
        let mut points = J::Map(Vec::new());
        for (k, p) in &self.points {
            let mut n = J::Map(Vec::new());
            n["n"] = J::U64(p.count);
            let mut fields = J::Map(Vec::new());
            for (f, h) in &p.fields {
                fields[f.as_str()] = h.to_json();
            }
            n["fields"] = fields;
            points[k.as_str()] = n;
        }
        root["points"] = points;
        let mut conv = J::Map(Vec::new());
        conv["anneal"] = J::Seq(
            self.anneal
                .iter()
                .map(|t| {
                    let mut n = J::Map(Vec::new());
                    n["seed"] = J::U64(t.seed);
                    n["rounds"] = J::U64(t.rounds());
                    n["initial_cost"] = J::F64(t.initial_cost());
                    n["final_cost"] = J::F64(t.final_cost());
                    n["accepted"] = J::U64(t.accepted);
                    n["rejected"] = J::U64(t.rejected);
                    n["cost"] = J::Seq(t.cost.iter().map(|&c| J::F64(c)).collect());
                    n
                })
                .collect(),
        );
        conv["route"] = J::Seq(
            self.route
                .iter()
                .map(|t| {
                    let mut n = J::Map(Vec::new());
                    n["iters"] = J::U64(t.iters());
                    n["final_overused"] = J::U64(t.final_overused());
                    n["ripups"] = J::U64(t.total_ripups());
                    n["expansions"] = J::U64(t.total_expansions());
                    n["steiner_segments"] = J::U64(t.steiner_segments);
                    n["criticality_reroutes"] = J::U64(t.criticality_reroutes);
                    n["parallel_conflicts"] = J::U64(t.parallel_conflicts);
                    n["passes"] = J::Seq(
                        t.passes
                            .iter()
                            .map(|&(o, r, x)| J::Seq(vec![J::U64(o), J::U64(r), J::U64(x)]))
                            .collect(),
                    );
                    n
                })
                .collect(),
        );
        conv["stitch_retries"] = J::Seq(
            self.stitch_retries
                .iter()
                .map(|t| {
                    let mut n = J::Map(Vec::new());
                    n["component"] = J::Str(t.component.clone());
                    n["step"] = J::U64(t.step);
                    n["score"] = J::F64(t.score);
                    n["threshold"] = J::F64(t.threshold);
                    n
                })
                .collect(),
        );
        root["convergence"] = conv;
        root
    }

    /// [`RunReport::to_json`] pretty-printed (the `flowstat summarize
    /// --json` form).
    pub fn render_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_json()).expect("report serializes")
    }

    /// Deterministic plain-text rendering (the `flowstat summarize`
    /// default).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
        out.push_str(&format!(
            "flowstat run report: {} events, seeds [{}]\n",
            self.events,
            seeds.join(", ")
        ));

        if !self.spans.is_empty() {
            out.push_str("\nspan profile (event-ordered cost)\n");
            out.push_str(&format!(
                "  {:<52} {:>7} {:>10} {:>10}\n",
                "path", "count", "total", "self"
            ));
            for (path, s) in &self.spans {
                let depth = path.matches('/').count();
                let name = path.rsplit('/').next().unwrap_or(path);
                let label = format!("{}{}", "  ".repeat(depth), name);
                out.push_str(&format!(
                    "  {:<52} {:>7} {:>10} {:>10}\n",
                    label, s.count, s.total_events, s.self_events
                ));
            }
        }

        if !self.counters.is_empty() {
            out.push_str("\ncounters\n");
            for (k, c) in &self.counters {
                out.push_str(&format!(
                    "  {:<52} sum {:>10}  last {:>10}  n {}\n",
                    k, c.sum, c.last, c.count
                ));
            }
        }

        if !self.gauges.is_empty() {
            out.push_str("\ngauges\n");
            for (k, g) in &self.gauges {
                out.push_str(&format!(
                    "  {:<52} last {:>12.4}  min {:>12.4}  max {:>12.4}  n {}\n",
                    k, g.last, g.min, g.max, g.count
                ));
            }
        }

        if !self.points.is_empty() {
            out.push_str("\npoints\n");
            for (k, p) in &self.points {
                out.push_str(&format!("  {:<52} n {}\n", k, p.count));
                for (f, h) in &p.fields {
                    out.push_str(&format!(
                        "    .{:<30} n {:>8}  mean {:>12.4}  min {:>12.4}  max {:>12.4}\n",
                        f,
                        h.count,
                        h.mean(),
                        h.min,
                        h.max
                    ));
                }
            }
        }

        out.push_str("\nconvergence\n");
        let anneal_rounds: u64 = self.anneal.iter().map(AnnealTrace::rounds).sum();
        let (acc, rej) = self
            .anneal
            .iter()
            .fold((0u64, 0u64), |(a, r), t| (a + t.accepted, r + t.rejected));
        out.push_str(&format!(
            "  anneal: {} runs, {} rounds, {} accepted / {} rejected moves\n",
            self.anneal.len(),
            anneal_rounds,
            acc,
            rej
        ));
        for t in &self.anneal {
            out.push_str(&format!(
                "    seed {:<3} {:>3} rounds  cost {:>12.2} -> {:>12.2}\n",
                t.seed,
                t.rounds(),
                t.initial_cost(),
                t.final_cost()
            ));
        }
        let max_iters = self.route.iter().map(RouteTrace::iters).max().unwrap_or(0);
        out.push_str(&format!(
            "  route: {} runs, max {} passes, {} expansions, {} rip-ups, final overuse {}\n",
            self.route.len(),
            max_iters,
            self.route
                .iter()
                .map(RouteTrace::total_expansions)
                .sum::<u64>(),
            self.route.iter().map(RouteTrace::total_ripups).sum::<u64>(),
            self.route
                .iter()
                .map(RouteTrace::final_overused)
                .sum::<u64>()
        ));
        out.push_str(&format!(
            "  route opt: {} steiner segments, {} criticality re-routes, {} merge conflicts\n",
            self.route.iter().map(|t| t.steiner_segments).sum::<u64>(),
            self.route
                .iter()
                .map(|t| t.criticality_reroutes)
                .sum::<u64>(),
            self.route.iter().map(|t| t.parallel_conflicts).sum::<u64>()
        ));
        out.push_str(&format!(
            "  stitch: {} threshold retries\n",
            self.stitch_retries.len()
        ));
        for t in &self.stitch_retries {
            out.push_str(&format!(
                "    step {:<3} {:<40} score {:>10.2} > threshold {:>10.2}\n",
                t.step, t.component, t.score, t.threshold
            ));
        }
        out
    }

    /// The `n` hottest span paths by self cost (event-ordered), hottest
    /// first; ties break lexicographically by path so the order is
    /// deterministic.
    pub fn hot_spans(&self, n: usize) -> Vec<(&str, &SpanProfile)> {
        let mut v: Vec<(&str, &SpanProfile)> =
            self.spans.iter().map(|(k, s)| (k.as_str(), s)).collect();
        v.sort_by(|a, b| {
            b.1.self_events
                .cmp(&a.1.self_events)
                .then_with(|| a.0.cmp(b.0))
        });
        v.truncate(n);
        v
    }

    /// Compact table of the `n` hottest spans (the `flowstat summarize
    /// --top N` form): full paths, no tree indentation, sorted by self
    /// cost.
    pub fn render_top(&self, n: usize) -> String {
        let hot = self.hot_spans(n);
        let mut out = format!(
            "flowstat hot spans: top {} of {} (by self cost, event-ordered)\n",
            hot.len(),
            self.spans.len()
        );
        out.push_str(&format!(
            "  {:<60} {:>7} {:>10} {:>10}\n",
            "path", "count", "total", "self"
        ));
        for (path, s) in hot {
            out.push_str(&format!(
                "  {:<60} {:>7} {:>10} {:>10}\n",
                path, s.count, s.total_events, s.self_events
            ));
        }
        out
    }

    /// Render the wall-clock aggregates (empty string when the stream
    /// carried none). Kept out of [`RunReport::render_text`] so the
    /// default `flowstat summarize` output stays byte-identical across
    /// same-seed runs; `flowstat summarize --wallclock` appends it.
    pub fn render_wallclock(&self) -> String {
        if self.wallclock.is_empty() {
            return String::new();
        }
        let mut out = String::from("\nwall-clock (nondeterministic, excluded from diffs)\n");
        for (k, w) in &self.wallclock {
            out.push_str(&format!(
                "  {:<52} last {:>12.4}  min {:>12.4}  max {:>12.4}  n {}\n",
                k, w.last, w.min, w.max, w.count
            ));
        }
        out
    }
}

/// One aligned metric that differs between two reports.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    pub key: String,
    /// Value in the first report (`None` = metric absent there).
    pub a: Option<f64>,
    /// Value in the second report.
    pub b: Option<f64>,
}

impl DiffEntry {
    /// Relative change in percent, when both sides are present and the
    /// baseline is nonzero.
    pub fn rel_change_pct(&self) -> Option<f64> {
        match (self.a, self.b) {
            (Some(a), Some(b)) if a != 0.0 => Some((b - a) / a.abs() * 100.0),
            _ => None,
        }
    }

    /// Whether this delta trips a `--fail-on-regression pct` gate: metrics
    /// appearing or disappearing always do; present-on-both-sides metrics
    /// do when the relative change exceeds `pct` percent in either
    /// direction (with a zero baseline, any nonzero value trips).
    pub fn is_regression(&self, pct: f64) -> bool {
        match (self.a, self.b) {
            (Some(a), Some(b)) => {
                if a == 0.0 {
                    b != 0.0
                } else {
                    ((b - a) / a.abs() * 100.0).abs() > pct
                }
            }
            _ => true,
        }
    }
}

/// The aligned difference of two [`RunReport`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportDiff {
    /// Differing metrics, sorted by key.
    pub entries: Vec<DiffEntry>,
    /// Total metric keys compared (union of both reports).
    pub compared: usize,
}

impl ReportDiff {
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries that trip a `--fail-on-regression pct` gate.
    pub fn regressions(&self, pct: f64) -> Vec<&DiffEntry> {
        self.entries
            .iter()
            .filter(|e| e.is_regression(pct))
            .collect()
    }

    /// Deterministic plain-text rendering.
    pub fn render_text(&self) -> String {
        if self.entries.is_empty() {
            return format!(
                "flowstat diff: reports are identical ({} metrics compared)\n",
                self.compared
            );
        }
        let mut out = format!(
            "flowstat diff: {} differing metrics (of {} compared)\n",
            self.entries.len(),
            self.compared
        );
        let fmt = |v: Option<f64>| match v {
            Some(x) => format!("{x}"),
            None => "-".to_string(),
        };
        for e in &self.entries {
            let rel = match e.rel_change_pct() {
                Some(p) => format!("  ({p:+.2}%)"),
                None => String::new(),
            };
            out.push_str(&format!(
                "  {:<60} {:>16} -> {:>16}{}\n",
                e.key,
                fmt(e.a),
                fmt(e.b),
                rel
            ));
        }
        out
    }

    /// [`ReportDiff::to_json`] pretty-printed (the `flowstat diff --json`
    /// form).
    pub fn render_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_json()).expect("diff serializes")
    }

    /// The diff as a JSON array (deterministic).
    pub fn to_json(&self) -> serde_json::Value {
        use serde_json::Value as J;
        let mut root = J::Map(Vec::new());
        root["compared"] = J::U64(self.compared as u64);
        root["differing"] = J::U64(self.entries.len() as u64);
        root["entries"] = J::Seq(
            self.entries
                .iter()
                .map(|e| {
                    let mut n = J::Map(Vec::new());
                    n["key"] = J::Str(e.key.clone());
                    n["a"] = e.a.map(J::F64).unwrap_or(J::Null);
                    n["b"] = e.b.map(J::F64).unwrap_or(J::Null);
                    n
                })
                .collect(),
        );
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemorySink, Obs};
    use std::sync::Arc;

    fn sample_stream() -> Vec<Event> {
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::new(sink.clone()).with_seed(7);
        let flow = obs.scoped("flow::arch_opt");
        let span = flow.span("stitch");
        let placer = obs.scoped("stitch::placer").with_seed(7);
        placer.point(
            "candidate",
            &[("score", 12.5f64.into()), ("step", 0u64.into())],
        );
        placer.point(
            "threshold_retry",
            &[
                ("component", "conv1".into()),
                ("step", 1u64.into()),
                ("score", 300.0f64.into()),
                ("threshold", 200.0f64.into()),
            ],
        );
        span.end();
        let route = obs.scoped("pnr::route");
        let rspan = route.span("pathfinder");
        route.point(
            "pathfinder_iter",
            &[
                ("iter", 0u64.into()),
                ("overused", 3u64.into()),
                ("ripups", 2u64.into()),
                ("expansions", 100u64.into()),
                ("steiner_segments", 5u64.into()),
                ("criticality_reroutes", 1u64.into()),
                ("parallel_conflicts", 0u64.into()),
            ],
        );
        route.point(
            "pathfinder_iter",
            &[
                ("iter", 1u64.into()),
                ("overused", 0u64.into()),
                ("ripups", 0u64.into()),
                ("expansions", 40u64.into()),
                ("steiner_segments", 2u64.into()),
                ("criticality_reroutes", 0u64.into()),
                ("parallel_conflicts", 1u64.into()),
            ],
        );
        rspan.end();
        let place = obs.scoped("pnr::place").with_seed(3);
        place.point(
            "anneal_round",
            &[
                ("round", 0u64.into()),
                ("cost", 100.0f64.into()),
                ("accepted", 10u64.into()),
                ("rejected", 5u64.into()),
            ],
        );
        place.point(
            "anneal_round",
            &[
                ("round", 1u64.into()),
                ("cost", 80.0f64.into()),
                ("accepted", 4u64.into()),
                ("rejected", 11u64.into()),
            ],
        );
        obs.scoped("flow::function_opt").counter("cache_hits", 6);
        obs.scoped("pnr::timing").gauge("fmax_mhz", 312.5);
        sink.snapshot()
    }

    #[test]
    fn folds_spans_counters_gauges_and_traces() {
        let r = RunReport::from_events(&sample_stream());
        assert_eq!(r.events, 12);
        assert_eq!(r.seeds.iter().copied().collect::<Vec<_>>(), vec![3, 7]);
        let stitch = &r.spans["flow::arch_opt:stitch"];
        assert_eq!(stitch.count, 1);
        // start + 2 points + end, all billed to the open span.
        assert_eq!(stitch.total_events, 3);
        assert_eq!(stitch.self_events, 3);
        assert_eq!(r.counters["flow::function_opt:cache_hits"].sum, 6);
        let g = &r.gauges["pnr::timing:fmax_mhz"];
        assert_eq!((g.last, g.min, g.max, g.count), (312.5, 312.5, 312.5, 1));
        assert_eq!(r.anneal.len(), 1);
        assert_eq!(r.anneal[0].seed, 3);
        assert_eq!(r.anneal[0].cost, vec![100.0, 80.0]);
        assert_eq!(r.anneal[0].accepted, 14);
        assert_eq!(r.route.len(), 1);
        assert_eq!(r.route[0].iters(), 2);
        assert_eq!(r.route[0].total_expansions(), 140);
        assert_eq!(r.route[0].final_overused(), 0);
        assert_eq!(r.route[0].steiner_segments, 7);
        assert_eq!(r.route[0].criticality_reroutes, 1);
        assert_eq!(r.route[0].parallel_conflicts, 1);
        let m = r.metrics();
        assert_eq!(m["trace route steiner_segments"], 7.0);
        assert_eq!(m["trace route criticality_reroutes"], 1.0);
        assert_eq!(m["trace route parallel_conflicts"], 1.0);
        assert_eq!(r.stitch_retries.len(), 1);
        assert_eq!(r.stitch_retries[0].component, "conv1");
    }

    #[test]
    fn nested_spans_attribute_self_and_total() {
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::new(sink.clone()).scoped("t");
        {
            let _outer = obs.span("outer");
            obs.point("a", &[]);
            {
                let _inner = obs.span("inner");
                obs.point("b", &[]);
                obs.point("c", &[]);
            }
            obs.point("d", &[]);
        }
        let r = RunReport::from_events(&sink.snapshot());
        let outer = &r.spans["t:outer"];
        let inner = &r.spans["t:outer/t:inner"];
        // Outer sees everything after its start: a, inner start, b, c,
        // inner end, d, outer end = 7.
        assert_eq!(outer.total_events, 7);
        // Inner's share: b, c, inner end = 3.
        assert_eq!(inner.total_events, 3);
        assert_eq!(outer.self_events, outer.total_events - inner.total_events);
        assert_eq!(inner.self_events, 3);
    }

    #[test]
    fn histogram_buckets_are_fixed_and_exhaustive() {
        assert_eq!(Histogram::bucket_of(-1.0), 0);
        assert_eq!(Histogram::bucket_of(0.0), 1);
        assert_eq!(Histogram::bucket_of(0.999), 1);
        assert_eq!(Histogram::bucket_of(1.0), 2);
        assert_eq!(Histogram::bucket_of(2.0), 3);
        assert_eq!(Histogram::bucket_of(3.99), 3);
        assert_eq!(Histogram::bucket_of(32768.0), HISTOGRAM_BUCKETS - 1);
        assert_eq!(Histogram::bucket_of(1.0e300), HISTOGRAM_BUCKETS - 1);
        let mut h = Histogram::default();
        for v in [0.5, 1.5, 1.5, 100.0] {
            h.record(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[2], 2);
        assert_eq!(h.sum, 103.5);
        assert_eq!((h.min, h.max), (0.5, 100.0));
        assert_eq!(Histogram::bucket_label(1), "[0,1)");
        assert_eq!(Histogram::bucket_label(2), "[1,2)");
    }

    #[test]
    fn same_stream_folds_to_equal_reports_and_empty_diff() {
        let events = sample_stream();
        let a = RunReport::from_events(&events);
        let b = RunReport::from_events(&events);
        assert_eq!(a, b);
        let d = a.diff(&b);
        assert!(d.is_empty());
        assert!(d.compared > 10);
        assert!(d.render_text().contains("identical"));
    }

    #[test]
    fn diff_flags_deltas_and_regressions() {
        let events = sample_stream();
        let a = RunReport::from_events(&events);
        // Perturb: drop the last two events (gauge + counter differ).
        let b = RunReport::from_events(&events[..events.len() - 2]);
        let d = a.diff(&b);
        assert!(!d.is_empty());
        // Removed metrics always count as regressions.
        assert!(!d.regressions(50.0).is_empty());
        // events went from 12 to 10: -16.7%, above a 5% gate, below 50%.
        let ev = d.entries.iter().find(|e| e.key == "events").unwrap();
        assert!(ev.is_regression(5.0));
        assert!(!ev.is_regression(50.0));
        let text = d.render_text();
        assert!(text.contains("differing metrics"));
        // Deterministic rendering.
        assert_eq!(text, a.diff(&b).render_text());
    }

    #[test]
    fn report_round_trips_through_jsonl() {
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::new(sink.clone()).scoped("rt").with_seed(2);
        let span = obs.span_with("phase", &[("n", 3u64.into())]);
        obs.point(
            "step",
            &[
                ("cost", 1.25f64.into()),
                ("i", (-4i64).into()),
                ("ok", true.into()),
                ("tag", "x".into()),
                ("wallclock_s", 0.5f64.into()),
            ],
        );
        obs.counter("c", 9);
        obs.gauge("g", -2.5);
        span.end();
        let direct = RunReport::from_events(&sink.snapshot());
        // Full JSONL (with timestamps) and the stripped comparison form
        // must fold to the same report.
        let full: String = sink
            .snapshot()
            .iter()
            .map(|e| e.to_json_line() + "\n")
            .collect();
        let fold =
            |jsonl: &str| RunReport::from_events(&crate::parse_jsonl(jsonl).expect("parses"));
        assert_eq!(direct, fold(&full));
        // The stripped comparison form drops exactly the wall-clock
        // aggregates — every deterministic metric still aligns.
        let stripped = fold(&sink.stripped_jsonl());
        assert!(direct.diff(&stripped).is_empty());
        assert!(stripped.wallclock.is_empty());
        assert_eq!(direct.wallclock["rt:step.wallclock_s"].last, 0.5);
        assert!(direct.render_wallclock().contains("wallclock_s"));
        assert_eq!(stripped.render_wallclock(), "");
        let mut no_wallclock = direct.clone();
        no_wallclock.wallclock.clear();
        assert_eq!(no_wallclock, stripped);
    }

    #[test]
    fn renderings_are_deterministic_and_mention_sections() {
        let r = RunReport::from_events(&sample_stream());
        let t1 = r.render_text();
        let t2 = RunReport::from_events(&sample_stream()).render_text();
        assert_eq!(t1, t2);
        for needle in ["span profile", "counters", "gauges", "convergence"] {
            assert!(t1.contains(needle), "missing section {needle}");
        }
        let j1 = serde_json::to_string_pretty(&r.to_json()).unwrap();
        let j2 = serde_json::to_string_pretty(&r.to_json()).unwrap();
        assert_eq!(j1, j2);
        assert!(j1.contains("\"convergence\""));
    }

    #[test]
    fn hot_spans_sort_by_self_cost_with_stable_ties() {
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::new(sink.clone()).scoped("t");
        {
            let _outer = obs.span("outer");
            {
                let _hot = obs.span("hot");
                for _ in 0..5 {
                    obs.point("w", &[]);
                }
            }
            {
                let _cool = obs.span("cool");
                obs.point("w", &[]);
            }
        }
        let r = RunReport::from_events(&sink.snapshot());
        let top = r.hot_spans(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, "t:outer/t:hot");
        assert!(top[0].1.self_events >= top[1].1.self_events);
        // Truncation and rendering are deterministic.
        assert_eq!(r.hot_spans(10).len(), r.spans.len());
        let text = r.render_top(2);
        assert!(text.starts_with("flowstat hot spans: top 2 of 3"));
        assert!(text.contains("t:outer/t:hot"));
        assert!(!text.contains("t:outer/t:cool"));
        assert_eq!(text, r.render_top(2));
    }

    #[test]
    fn unbalanced_streams_do_not_panic() {
        // A truncated trace may end with open spans or carry an orphan end.
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::new(sink.clone()).scoped("x");
        let span = obs.span("open_forever");
        obs.point("p", &[]);
        drop(span);
        let mut events = sink.snapshot();
        events.remove(2); // drop the span end -> stream ends with open span
        let r = RunReport::from_events(&events);
        assert_eq!(r.spans["x:open_forever"].count, 1);
        // Orphan end only.
        let orphan = vec![Event {
            seq: 0,
            ts_us: 0,
            seed: 0,
            scope: "y".to_string(),
            name: "ghost".to_string(),
            kind: EventKind::SpanEnd,
            fields: vec![],
        }];
        let r = RunReport::from_events(&orphan);
        assert_eq!(r.events, 1);
    }
}
