//! Flow-wide telemetry: a lightweight, thread-safe structured-event layer.
//!
//! Every engine in the workspace (annealing placer, PathFinder router,
//! physical optimization, component stitcher, the two flows) emits
//! [`Event`]s through an [`Obs`] handle instead of printing or keeping
//! private statistics. Events flow into an [`EventSink`]:
//!
//! * [`NullSink`] — drop everything (the default; instrumentation costs a
//!   branch),
//! * [`MemorySink`] — collect in memory for tests and in-process analysis,
//! * [`FileSink`] — append JSON Lines to a file (the `--trace` flag of the
//!   `pi-bench` binaries),
//! * [`FanoutSink`] — tee to several sinks.
//!
//! **Determinism contract**: an event's payload (`seq`, `seed`, `scope`,
//! `name`, `kind`, `fields`) never contains wall-clock time; the only
//! nondeterministic field is the microsecond timestamp `ts_us`, carried
//! separately so it can be stripped. Two runs of the same seeded flow emit
//! byte-identical streams once timestamps are removed —
//! [`stripped_jsonl`] is exactly that comparison form.
//!
//! **Wire form**: one event is one JSON line, the derived serde form of
//! `Line` (`{seq, ts_us, seed, scope, name, kind, fields}`); reading a
//! line back is [`Event`]'s derived `Deserialize`. Only the `fields` map is
//! written and read by hand, because its values are untagged scalars (see
//! [`Value`]) and the comparison form drops its `wallclock*` keys.

use serde::{Content, DeError, Deserialize, Serialize};
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub mod agg;
pub mod registry;

/// A telemetry field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Bool(bool),
}

macro_rules! value_from {
    ($($ty:ty => $variant:ident as $conv:ty),* $(,)?) => {$(
        impl From<$ty> for Value {
            fn from(v: $ty) -> Self {
                Value::$variant(v as $conv)
            }
        }
    )*};
}

value_from!(
    u64 => U64 as u64,
    u32 => U64 as u64,
    u16 => U64 as u64,
    usize => U64 as u64,
    i64 => I64 as i64,
    i32 => I64 as i64,
    f64 => F64 as f64,
    f32 => F64 as f64,
);

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Written by hand, not derived: a field value is an *untagged* scalar on
/// the wire (`7`, `-2.5`, `"x"`, `true`), which the externally tagged
/// derive cannot express.
impl Serialize for Value {
    fn to_content(&self) -> Content {
        match self {
            Value::U64(v) => Content::U64(*v),
            Value::I64(v) => Content::I64(*v),
            Value::F64(v) => Content::F64(*v),
            Value::Str(v) => Content::Str(v.clone()),
            Value::Bool(v) => Content::Bool(*v),
        }
    }
}

/// Written by hand, not derived: the inverse of the untagged form, plus
/// `null` — non-finite floats serialize as null, and reading them back as
/// NaN keeps the field instead of dropping it.
impl Deserialize for Value {
    fn from_content(c: &Content) -> Result<Value, DeError> {
        Ok(match c {
            Content::U64(n) => Value::U64(*n),
            Content::I64(n) => Value::I64(*n),
            Content::F64(n) => Value::F64(*n),
            Content::Str(s) => Value::Str(s.clone()),
            Content::Bool(b) => Value::Bool(*b),
            Content::Null => Value::F64(f64::NAN),
            _ => return Err(DeError::custom("non-scalar value")),
        })
    }
}

/// What an event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum EventKind {
    /// A named phase begins. Paired with [`EventKind::SpanEnd`] by name
    /// within a scope.
    SpanStart,
    /// A named phase ends. Duration is *not* in the payload — it is
    /// derivable from the (strippable) timestamps, keeping the payload
    /// deterministic.
    SpanEnd,
    /// A monotonic count sampled at this point.
    Counter,
    /// An instantaneous measurement.
    Gauge,
    /// A structured progress record (one iteration, one candidate, ...).
    Point,
}

/// Error parsing a recorded JSONL trace back into [`Event`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending record (0 for single-line
    /// parses).
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "trace line {}: {}", self.line, self.message)
        } else {
            write!(f, "trace: {}", self.message)
        }
    }
}

impl std::error::Error for ParseError {}

/// One structured telemetry record. Its derived `Deserialize` reads a
/// line written by [`Event::to_json_line`] or [`stripped_jsonl`].
#[derive(Debug, Clone, Deserialize)]
pub struct Event {
    /// Monotonic sequence number, shared by every handle cloned from the
    /// same root — a total order over the run.
    pub seq: u64,
    /// Microseconds since the root handle was created. The only
    /// nondeterministic field; strip it to compare runs (a stripped line
    /// reads back as 0).
    #[serde(default)]
    pub ts_us: u64,
    /// Seed of the computation that emitted this event.
    pub seed: u64,
    /// Dotted origin, e.g. `pnr::place` or `flow::baseline`.
    pub scope: String,
    pub name: String,
    pub kind: EventKind,
    #[serde(default, deserialize_with = "read_fields")]
    pub fields: Vec<(String, Value)>,
}

/// The wire form of one event line, borrowed from an [`Event`].
#[derive(Serialize)]
struct Line<'a> {
    seq: u64,
    /// `None` in the comparison form.
    #[serde(skip_serializing_if = "Option::is_none")]
    ts_us: Option<u64>,
    seed: u64,
    scope: &'a str,
    name: &'a str,
    kind: EventKind,
    fields: Fields<'a>,
}

/// An event's `fields` as a JSON object.
struct Fields<'a> {
    fields: &'a [(String, Value)],
    /// Drop `wallclock*` keys (the comparison form).
    strip_wallclock: bool,
}

/// Written by hand, not derived: the fields are a list of pairs in memory
/// but an object on the wire, with the strippable keys filtered. A
/// repeated key keeps its first position and takes the last value, like
/// assigning into a JSON object.
impl Serialize for Fields<'_> {
    fn to_content(&self) -> Content {
        let mut m: Vec<(String, Content)> = Vec::with_capacity(self.fields.len());
        for (k, v) in self.fields {
            if self.strip_wallclock && k.starts_with("wallclock") {
                continue;
            }
            match m.iter_mut().find(|(seen, _)| seen == k) {
                Some(slot) => slot.1 = v.to_content(),
                None => m.push((k.clone(), v.to_content())),
            }
        }
        Content::Map(m)
    }
}

/// Decoder of the `fields` object (order kept).
fn read_fields(c: &Content) -> Result<Vec<(String, Value)>, DeError> {
    let Content::Map(m) = c else {
        return Err(DeError::custom("fields is not an object"));
    };
    m.iter()
        .map(|(k, v)| {
            let v = Value::from_content(v).map_err(|e| DeError(format!("field {k}: {e}")))?;
            Ok((k.clone(), v))
        })
        .collect()
}

impl Event {
    /// The wire view; `include_ts` false is the comparison form. Besides
    /// `ts_us`, fields whose key starts with `wallclock` are
    /// nondeterministic by convention (they carry wall-clock-derived
    /// measurements such as the stitch share) and are stripped from the
    /// comparison form along with the timestamp.
    fn line(&self, include_ts: bool) -> Line<'_> {
        Line {
            seq: self.seq,
            ts_us: include_ts.then_some(self.ts_us),
            seed: self.seed,
            scope: &self.scope,
            name: &self.name,
            kind: self.kind,
            fields: Fields {
                fields: &self.fields,
                strip_wallclock: !include_ts,
            },
        }
    }

    /// JSON object for this event; `include_ts` controls whether the
    /// nondeterministic data is present (see [`stripped_jsonl`]).
    pub fn to_json(&self, include_ts: bool) -> serde_json::Value {
        serde_json::to_value(&self.line(include_ts))
    }

    /// One JSON line, timestamp included.
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(&self.line(true)).expect("event serializes")
    }

    /// Parse one JSON line produced by [`Event::to_json_line`] (or its
    /// timestamp-stripped [`stripped_jsonl`] form — a missing `ts_us`
    /// reads as 0).
    pub fn from_json_line(line: &str) -> Result<Event, ParseError> {
        serde_json::from_str(line).map_err(|e| ParseError {
            line: 0,
            message: e.to_string(),
        })
    }
}

/// The determinism comparison form of `events`: JSON Lines with the
/// timestamp and the `wallclock*` fields stripped. Two same-seed runs
/// must produce byte-identical output.
pub fn stripped_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&serde_json::to_string(&e.line(false)).expect("event serializes"));
        out.push('\n');
    }
    out
}

/// Parse a whole JSON-Lines trace (blank lines skipped), e.g. a `--trace`
/// recording, back into events. Errors carry the 1-based line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, ParseError> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(Event::from_json_line(line).map_err(|e| ParseError {
            line: i + 1,
            message: e.message,
        })?);
    }
    Ok(events)
}

/// Receives every event emitted through an [`Obs`] handle. Implementations
/// must be cheap and thread-safe; the engines call `record` from inside
/// their hot loops (guarded by [`Obs::enabled`]).
pub trait EventSink: Send + Sync {
    fn record(&self, event: &Event);
    fn flush(&self) {}
}

/// Drops everything.
#[derive(Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn record(&self, _event: &Event) {}
}

/// Collects events in memory.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy of everything recorded so far.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events.lock().expect("sink lock").clone()
    }

    pub fn len(&self) -> usize {
        self.events.lock().expect("sink lock").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// [`stripped_jsonl`] of everything recorded so far.
    pub fn stripped_jsonl(&self) -> String {
        stripped_jsonl(&self.events.lock().expect("sink lock"))
    }
}

impl EventSink for MemorySink {
    fn record(&self, event: &Event) {
        self.events.lock().expect("sink lock").push(event.clone());
    }
}

/// Appends JSON Lines (timestamps included) to a file.
pub struct FileSink {
    out: Mutex<BufWriter<File>>,
}

impl FileSink {
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(FileSink {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }
}

impl EventSink for FileSink {
    fn record(&self, event: &Event) {
        let mut out = self.out.lock().expect("sink lock");
        let _ = writeln!(out, "{}", event.to_json_line());
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("sink lock").flush();
    }
}

impl Drop for FileSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Tees every event to several sinks.
pub struct FanoutSink {
    sinks: Vec<Arc<dyn EventSink>>,
}

impl FanoutSink {
    pub fn new(sinks: Vec<Arc<dyn EventSink>>) -> Self {
        FanoutSink { sinks }
    }
}

impl EventSink for FanoutSink {
    fn record(&self, event: &Event) {
        for s in &self.sinks {
            s.record(event);
        }
    }

    fn flush(&self) {
        for s in &self.sinks {
            s.flush();
        }
    }
}

struct ObsInner {
    sink: Arc<dyn EventSink>,
    seq: AtomicU64,
    epoch: Instant,
    enabled: bool,
}

/// A handle for emitting events. Clones share the sink, the sequence
/// counter, and the epoch; each clone carries its own scope and seed, so
/// threading telemetry through a call tree is `obs.scoped("pnr::route")`
/// or `obs.with_seed(seed)` — cheap, and no global state anywhere.
#[derive(Clone)]
pub struct Obs {
    inner: Arc<ObsInner>,
    scope: String,
    seed: u64,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("scope", &self.scope)
            .field("seed", &self.seed)
            .field("enabled", &self.inner.enabled)
            .finish()
    }
}

impl Obs {
    /// A recording handle emitting to `sink`.
    pub fn new(sink: Arc<dyn EventSink>) -> Self {
        Obs {
            inner: Arc::new(ObsInner {
                sink,
                seq: AtomicU64::new(0),
                epoch: Instant::now(),
                enabled: true,
            }),
            scope: String::new(),
            seed: 0,
        }
    }

    /// The disabled handle: every emit is a single branch.
    pub fn null() -> Self {
        Obs {
            inner: Arc::new(ObsInner {
                sink: Arc::new(NullSink),
                seq: AtomicU64::new(0),
                epoch: Instant::now(),
                enabled: false,
            }),
            scope: String::new(),
            seed: 0,
        }
    }

    /// Whether events reach a real sink. Engines use this to skip building
    /// field vectors in hot loops.
    pub fn enabled(&self) -> bool {
        self.inner.enabled
    }

    /// A handle with the given scope (replacing this handle's scope).
    pub fn scoped(&self, scope: impl Into<String>) -> Obs {
        Obs {
            inner: Arc::clone(&self.inner),
            scope: scope.into(),
            seed: self.seed,
        }
    }

    /// A handle whose scope nests under this handle's scope
    /// (`parent::child`); a handle with no scope behaves like
    /// [`Obs::scoped`]. Lets per-request workers (e.g. `pi-serve` jobs)
    /// tag their events under a request-specific sub-scope without the
    /// caller reassembling dotted paths by hand.
    pub fn subscoped(&self, child: impl AsRef<str>) -> Obs {
        let child = child.as_ref();
        if self.scope.is_empty() {
            self.scoped(child)
        } else {
            self.scoped(format!("{}::{}", self.scope, child))
        }
    }

    /// A handle tagging its events with `seed`.
    pub fn with_seed(&self, seed: u64) -> Obs {
        Obs {
            inner: Arc::clone(&self.inner),
            scope: self.scope.clone(),
            seed,
        }
    }

    pub fn scope(&self) -> &str {
        &self.scope
    }

    fn emit(&self, name: &str, kind: EventKind, fields: &[(&str, Value)]) {
        if !self.inner.enabled {
            return;
        }
        let event = Event {
            seq: self.inner.seq.fetch_add(1, Ordering::Relaxed),
            ts_us: self.inner.epoch.elapsed().as_micros() as u64,
            seed: self.seed,
            scope: self.scope.clone(),
            name: name.to_string(),
            kind,
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        };
        self.inner.sink.record(&event);
    }

    /// A structured progress record.
    pub fn point(&self, name: &str, fields: &[(&str, Value)]) {
        self.emit(name, EventKind::Point, fields);
    }

    /// A monotonic count observed at this moment.
    pub fn counter(&self, name: &str, value: u64) {
        self.emit(name, EventKind::Counter, &[("value", Value::U64(value))]);
    }

    /// An instantaneous measurement.
    pub fn gauge(&self, name: &str, value: f64) {
        self.emit(name, EventKind::Gauge, &[("value", Value::F64(value))]);
    }

    /// Start a span; the returned guard emits the matching `SpanEnd` when
    /// dropped. Extra fields go on the start event.
    pub fn span(&self, name: &str) -> SpanGuard {
        self.span_with(name, &[])
    }

    /// [`Obs::span`] with fields on the start event.
    pub fn span_with(&self, name: &str, fields: &[(&str, Value)]) -> SpanGuard {
        self.emit(name, EventKind::SpanStart, fields);
        SpanGuard {
            obs: self.clone(),
            name: name.to_string(),
        }
    }

    /// Ask the sink to persist anything buffered.
    pub fn flush(&self) {
        self.inner.sink.flush();
    }

    /// A shared handle to this handle's sink — for tee-ing an existing
    /// pipeline into a [`FanoutSink`] without rebuilding it.
    pub fn sink_handle(&self) -> Arc<dyn EventSink> {
        Arc::clone(&self.inner.sink)
    }

    /// Re-emit `events` through this handle's sink, assigning fresh
    /// sequence numbers and timestamps from this handle's root. Scope,
    /// seed, name, kind and fields are preserved. This is the flush half
    /// of the [`BufferedObs`] pattern.
    pub fn replay<I: IntoIterator<Item = Event>>(&self, events: I) {
        if !self.inner.enabled {
            return;
        }
        for e in events {
            let event = Event {
                seq: self.inner.seq.fetch_add(1, Ordering::Relaxed),
                ts_us: self.inner.epoch.elapsed().as_micros() as u64,
                ..e
            };
            self.inner.sink.record(&event);
        }
    }

    /// A buffering handle for one task of a parallel region (see
    /// [`BufferedObs`]). Cheap no-op when this handle is disabled.
    pub fn buffered(&self) -> BufferedObs {
        BufferedObs::new(self)
    }
}

/// Telemetry buffering for parallel regions.
///
/// **The rule:** worker closures must never emit through a shared handle —
/// the global sequence counter would interleave events in thread-schedule
/// order and break the same-seed determinism contract. Instead, each
/// parallel *item* gets a `BufferedObs`: a private handle recording into a
/// per-task [`MemorySink`]. After the parallel region joins, the
/// coordinator calls [`BufferedObs::flush_into`] on each buffer **in input
/// index order**, which replays the events through the real handle with
/// freshly assigned sequence numbers. The resulting stream is byte-
/// identical (in [`stripped_jsonl`] form) at every thread
/// count, including the `PI_THREADS=1` sequential path.
///
/// When the parent handle is disabled this is a no-op wrapper around the
/// same disabled handle: nothing is buffered and flushing does nothing.
pub struct BufferedObs {
    obs: Obs,
    sink: Option<Arc<MemorySink>>,
}

impl BufferedObs {
    /// A buffer whose handle inherits `parent`'s scope and seed.
    pub fn new(parent: &Obs) -> BufferedObs {
        if !parent.enabled() {
            return BufferedObs {
                obs: parent.clone(),
                sink: None,
            };
        }
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::new(sink.clone())
            .scoped(parent.scope().to_string())
            .with_seed(parent.seed);
        BufferedObs {
            obs,
            sink: Some(sink),
        }
    }

    /// The handle to hand to the worker closure.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Replay everything buffered through `target`, in buffered order,
    /// with fresh sequence numbers. Call once per buffer, in input index
    /// order, from the coordinating thread.
    pub fn flush_into(self, target: &Obs) {
        if let Some(sink) = self.sink {
            target.replay(sink.snapshot());
        }
    }
}

/// Emits the `SpanEnd` for [`Obs::span`] on drop.
pub struct SpanGuard {
    obs: Obs,
    name: String,
}

impl SpanGuard {
    /// End the span now (instead of at scope exit).
    pub fn end(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.obs.emit(&self.name, EventKind::SpanEnd, &[]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_handle_is_disabled_and_silent() {
        let obs = Obs::null();
        assert!(!obs.enabled());
        obs.point("p", &[("x", 1u64.into())]);
        obs.counter("c", 2);
        let _g = obs.span("s");
    }

    #[test]
    fn memory_sink_records_in_sequence_order() {
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::new(sink.clone()).scoped("test").with_seed(7);
        obs.point("a", &[("v", 1u64.into())]);
        obs.gauge("g", 2.5);
        obs.counter("c", 3);
        let events = sink.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(events.iter().all(|e| e.scope == "test" && e.seed == 7));
        assert_eq!(events[1].kind, EventKind::Gauge);
        assert_eq!(events[1].fields[0].1, Value::F64(2.5));
    }

    #[test]
    fn spans_nest_and_close_in_reverse_order() {
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::new(sink.clone()).scoped("nest");
        {
            let _outer = obs.span("outer");
            {
                let _inner = obs.span("inner");
                obs.point("work", &[]);
            }
        }
        let events = sink.snapshot();
        let trace: Vec<(String, EventKind)> =
            events.iter().map(|e| (e.name.clone(), e.kind)).collect();
        assert_eq!(
            trace,
            vec![
                ("outer".to_string(), EventKind::SpanStart),
                ("inner".to_string(), EventKind::SpanStart),
                ("work".to_string(), EventKind::Point),
                ("inner".to_string(), EventKind::SpanEnd),
                ("outer".to_string(), EventKind::SpanEnd),
            ]
        );
    }

    #[test]
    fn fanout_reaches_every_sink() {
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        let obs = Obs::new(Arc::new(FanoutSink::new(vec![a.clone(), b.clone()])));
        obs.point("p", &[]);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn wallclock_fields_are_stripped_with_the_timestamp() {
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::new(sink.clone());
        obs.point(
            "flow_done",
            &[
                ("fmax_mhz", 312.5f64.into()),
                ("wallclock_stitch_share", 0.07f64.into()),
            ],
        );
        let stripped = sink.stripped_jsonl();
        assert!(stripped.contains("fmax_mhz"));
        assert!(!stripped.contains("wallclock_stitch_share"));
        // The full line keeps the wall-clock measurement.
        let full = sink.snapshot()[0].to_json_line();
        assert!(full.contains("wallclock_stitch_share"));
    }

    #[test]
    fn stripped_jsonl_is_timestamp_free_and_stable() {
        let run = || {
            let sink = Arc::new(MemorySink::new());
            let obs = Obs::new(sink.clone()).scoped("d").with_seed(3);
            let span = obs.span_with("phase", &[("n", 4u64.into())]);
            obs.point("step", &[("cost", 1.25f64.into()), ("ok", true.into())]);
            span.end();
            sink.stripped_jsonl()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(!a.contains("ts_us"));
        assert!(a.contains("\"scope\":\"d\""));
        // Full lines still carry the timestamp.
        let sink = Arc::new(MemorySink::new());
        Obs::new(sink.clone()).point("p", &[]);
        assert!(sink.snapshot()[0].to_json_line().contains("ts_us"));
    }

    #[test]
    fn buffered_obs_replays_in_flush_order_with_fresh_seqs() {
        let sink = Arc::new(MemorySink::new());
        let root = Obs::new(sink.clone()).scoped("flow").with_seed(9);
        root.point("before", &[]);
        // Two buffers, flushed in index order regardless of emit order.
        let b0 = root.buffered();
        let b1 = root.buffered();
        b1.obs().point("item1", &[("i", 1u64.into())]);
        b0.obs().point("item0a", &[("i", 0u64.into())]);
        b0.obs().point("item0b", &[]);
        b0.flush_into(&root);
        b1.flush_into(&root);
        root.point("after", &[]);
        let events = sink.snapshot();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["before", "item0a", "item0b", "item1", "after"]);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4], "replay must renumber");
        // Scope and seed survive the replay.
        assert!(events.iter().all(|e| e.scope == "flow" && e.seed == 9));
    }

    #[test]
    fn buffered_obs_preserves_scoped_and_seeded_children() {
        let sink = Arc::new(MemorySink::new());
        let root = Obs::new(sink.clone()).scoped("flow");
        let buf = root.buffered();
        buf.obs().scoped("pnr::place").with_seed(3).point("p", &[]);
        buf.flush_into(&root);
        let events = sink.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].scope, "pnr::place");
        assert_eq!(events[0].seed, 3);
    }

    #[test]
    fn buffered_obs_is_free_when_disabled() {
        let root = Obs::null();
        let buf = root.buffered();
        assert!(!buf.obs().enabled());
        buf.obs().point("dropped", &[]);
        buf.flush_into(&root); // no-op, must not panic
    }

    #[test]
    fn nested_buffers_flatten_into_one_ordered_stream() {
        let sink = Arc::new(MemorySink::new());
        let root = Obs::new(sink.clone());
        let outer = root.buffered();
        outer.obs().point("outer_pre", &[]);
        let inner = outer.obs().buffered();
        inner.obs().point("inner", &[]);
        inner.flush_into(outer.obs());
        outer.obs().point("outer_post", &[]);
        outer.flush_into(&root);
        let names: Vec<String> = sink.snapshot().iter().map(|e| e.name.clone()).collect();
        assert_eq!(names, vec!["outer_pre", "inner", "outer_post"]);
    }

    #[test]
    fn file_sink_writes_json_lines() {
        let path = std::env::temp_dir().join("pi_obs_file_sink_test.jsonl");
        {
            let obs = Obs::new(Arc::new(FileSink::create(&path).expect("create")));
            obs.scoped("f").point("p", &[("x", 9u64.into())]);
            obs.flush();
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"x\":9"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_sink_buffers_until_explicit_flush() {
        let path = std::env::temp_dir().join("pi_obs_file_sink_flush_test.jsonl");
        let sink = FileSink::create(&path).expect("create");
        sink.record(&Event {
            seq: 0,
            ts_us: 0,
            seed: 0,
            scope: "f".to_string(),
            name: "small".to_string(),
            kind: EventKind::Point,
            fields: vec![("x".to_string(), Value::U64(1))],
        });
        // One small record sits in the BufWriter — nothing on disk yet
        // (that's the point: no syscall per event on long traces).
        let before = std::fs::read_to_string(&path).expect("read back");
        assert!(before.is_empty(), "expected buffered, got {before:?}");
        sink.flush();
        let after = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(after.lines().count(), 1);
        assert!(after.contains("\"small\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_sink_flushes_on_drop() {
        let path = std::env::temp_dir().join("pi_obs_file_sink_drop_test.jsonl");
        {
            let sink = FileSink::create(&path).expect("create");
            let obs = Obs::new(Arc::new(sink));
            obs.scoped("f").point("dropped", &[("x", 3u64.into())]);
            // No explicit flush: the Drop impl must write the buffer out.
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"dropped\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn events_round_trip_through_json_lines() {
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::new(sink.clone()).scoped("rt").with_seed(4);
        let span = obs.span_with("phase", &[("n", 2u64.into())]);
        obs.point(
            "mixed",
            &[
                ("u", 7u64.into()),
                ("f", 2.5f64.into()),
                ("s", "text".into()),
                ("b", false.into()),
            ],
        );
        obs.counter("c", 11);
        obs.gauge("g", -1.5);
        span.end();
        for e in sink.snapshot() {
            let parsed = Event::from_json_line(&e.to_json_line()).expect("parses");
            assert_eq!(parsed.seq, e.seq);
            assert_eq!(parsed.ts_us, e.ts_us);
            assert_eq!(parsed.seed, e.seed);
            assert_eq!(parsed.scope, e.scope);
            assert_eq!(parsed.name, e.name);
            assert_eq!(parsed.kind, e.kind);
            // Values compare via JSON form: a positive I64 reads back as
            // U64, which is the same JSON scalar.
            assert_eq!(parsed.to_json_line(), e.to_json_line());
        }
        // Whole-trace parse, including the stripped form (ts_us -> 0).
        let full: String = sink
            .snapshot()
            .iter()
            .map(|e| e.to_json_line() + "\n")
            .collect();
        assert_eq!(parse_jsonl(&full).expect("parses").len(), sink.len());
        let stripped = parse_jsonl(&sink.stripped_jsonl()).expect("parses");
        assert_eq!(stripped.len(), sink.len());
        assert!(stripped.iter().all(|e| e.ts_us == 0));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let text = "{\"seq\":0,\"seed\":0,\"scope\":\"a\",\"name\":\"p\",\
                    \"kind\":\"point\",\"fields\":{}}\nnot json\n";
        let e = parse_jsonl(text).expect_err("second line is invalid");
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));
        assert!(Event::from_json_line("{}").is_err());
        assert!(Event::from_json_line("[1,2]").is_err());
        let bad_kind = "{\"seq\":0,\"seed\":0,\"scope\":\"a\",\"name\":\"p\",\
                        \"kind\":\"mystery\",\"fields\":{}}";
        assert!(Event::from_json_line(bad_kind)
            .unwrap_err()
            .message
            .contains("mystery"));
    }

    #[test]
    fn subscoped_nests_under_the_parent_scope() {
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::new(sink.clone());
        obs.scoped("serve").subscoped("job_1").point("start", &[]);
        obs.subscoped("root_level").point("start", &[]);
        let events = sink.snapshot();
        assert_eq!(events[0].scope, "serve::job_1");
        assert_eq!(events[1].scope, "root_level", "no leading separator");
    }

    #[test]
    fn sink_handle_shares_the_sink() {
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::new(sink.clone());
        let tee = Obs::new(obs.sink_handle());
        tee.point("via_handle", &[]);
        assert_eq!(sink.len(), 1);
    }
}
