//! Property-based tests over the flowstat aggregation pipeline: folding a
//! live event stream into a [`RunReport`] and folding the same stream
//! after a JSONL round trip (what `flowstat` reads from `--trace` files)
//! must agree exactly — for arbitrary streams, including unbalanced span
//! pairs and truncated traces — and the fold must never panic.

use preimpl_cnn::obs::{Event, EventKind, Value};
use preimpl_cnn::prelude::{parse_jsonl, RunReport};
use proptest::prelude::*;

/// Scopes chosen so the generator regularly hits the convergence-trace
/// fold paths (annealer rounds, pathfinder passes) in addition to plain
/// scopes.
const SCOPES: &[&str] = &[
    "pnr::place",
    "pnr::route",
    "stitch::placer",
    "flow::arch_opt",
    "bench",
];

const NAMES: &[&str] = &[
    "anneal",
    "anneal_round",
    "pathfinder",
    "pathfinder_iter",
    "candidate",
    "route_design",
    "flow_done",
    "cache_hit",
];

/// Field keys include a `wallclock`-prefixed one: those are skipped by the
/// histogram fold, and must be skipped identically on both sides of the
/// round trip.
const FIELD_KEYS: &[&str] = &[
    "cost",
    "iter",
    "round",
    "overused",
    "ripups",
    "expansions",
    "accepted",
    "rejected",
    "component",
    "step",
    "score",
    "threshold",
    "wallclock_ms",
];

const STRINGS: &[&str] = &["", "c1", "conv_k5", "é層🚀", "a b:c/d"];

/// The vendored proptest stand-in has no `prop_oneof`; a selector index
/// mapped over a tuple of candidate draws covers the same ground.
fn value_strategy() -> impl Strategy<Value = Value> {
    (
        0u8..5,
        0u64..1_000_000,
        -1_000_000i64..1_000_000,
        // Finite floats only: non-finite values serialize to JSON null and
        // cannot survive any text round trip.
        -1.0e9f64..1.0e9,
        0usize..STRINGS.len(),
    )
        .prop_map(|(pick, u, i, f, s)| match pick {
            0 => Value::U64(u),
            1 => Value::I64(i),
            2 => Value::F64(f),
            3 => Value::Str(STRINGS[s].to_string()),
            _ => Value::Bool(u % 2 == 0),
        })
}

fn kind_strategy() -> impl Strategy<Value = EventKind> {
    (0u8..5).prop_map(|k| match k {
        0 => EventKind::SpanStart,
        1 => EventKind::SpanEnd,
        2 => EventKind::Counter,
        3 => EventKind::Gauge,
        _ => EventKind::Point,
    })
}

fn event_strategy() -> impl Strategy<Value = Event> {
    (
        0u64..8,
        0usize..SCOPES.len(),
        0usize..NAMES.len(),
        kind_strategy(),
        proptest::collection::vec((0usize..FIELD_KEYS.len(), value_strategy()), 0..5),
    )
        .prop_map(|(seed, scope, name, kind, fields)| Event {
            seq: 0,    // assigned per-stream below
            ts_us: 17, // nondeterministic slot; must not influence the report
            seed,
            scope: SCOPES[scope].to_string(),
            name: NAMES[name].to_string(),
            kind,
            fields: {
                // Real emitters never repeat a key within one event, and a
                // JSON object cannot represent duplicates — drop them.
                let mut seen = std::collections::BTreeSet::new();
                fields
                    .into_iter()
                    .filter(|(k, _)| seen.insert(*k))
                    .map(|(k, v)| (FIELD_KEYS[k].to_string(), v))
                    .collect()
            },
        })
}

fn stream_strategy() -> impl Strategy<Value = Vec<Event>> {
    proptest::collection::vec(event_strategy(), 0..64).prop_map(|mut events| {
        for (i, e) in events.iter_mut().enumerate() {
            e.seq = i as u64;
        }
        events
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The report folded straight from an in-memory stream equals the one
    /// folded after serializing every event to a JSON line and parsing the
    /// file back — the `flowstat summarize` path. Their diff is empty.
    #[test]
    fn report_survives_jsonl_round_trip(events in stream_strategy()) {
        let direct = RunReport::from_events(&events);
        let jsonl: String = events.iter().map(|e| e.to_json_line() + "\n").collect();
        let parsed = parse_jsonl(&jsonl).expect("generated stream serializes to parseable JSONL");
        prop_assert_eq!(parsed.len(), events.len());
        let round_tripped = RunReport::from_events(&parsed);
        prop_assert_eq!(&direct, &round_tripped);
        prop_assert!(direct.diff(&round_tripped).is_empty());
    }

    /// Folding is total: arbitrary streams — unmatched SpanEnds, spans
    /// never closed, truncated prefixes — produce a report without
    /// panicking, and both renderings are deterministic functions of it.
    #[test]
    fn fold_and_render_never_panic(events in stream_strategy(), cut in 0usize..64) {
        let cut = cut.min(events.len());
        let report = RunReport::from_events(&events[..cut]);
        prop_assert_eq!(report.events as usize, cut);
        prop_assert_eq!(report.render_text(), RunReport::from_events(&events[..cut]).render_text());
        prop_assert_eq!(report.render_json(), RunReport::from_events(&events[..cut]).render_json());
    }

    /// Self-diff of any report is empty; a diff against the stream with
    /// one extra counter event is not, and every entry carries a key.
    #[test]
    fn self_diff_is_empty_and_perturbation_is_visible(events in stream_strategy()) {
        let report = RunReport::from_events(&events);
        prop_assert!(report.diff(&report).is_empty());

        let mut perturbed = events.clone();
        perturbed.push(Event {
            seq: events.len() as u64,
            ts_us: 0,
            seed: 0,
            scope: "proptest".to_string(),
            name: "extra".to_string(),
            kind: EventKind::Counter,
            fields: vec![("n".to_string(), Value::U64(1))],
        });
        let other = RunReport::from_events(&perturbed);
        let diff = report.diff(&other);
        prop_assert!(!diff.is_empty());
        prop_assert!(diff.entries.iter().all(|e| !e.key.is_empty()));
    }
}
