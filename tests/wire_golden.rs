//! Byte-identity goldens for every JSON artifact the flow writes: the
//! telemetry event line, the `flowstat` run report and diff, the lint
//! report, the assembled-design summary, the `pi-serve` job payloads and
//! the daemon's small reply bodies.
//!
//! The expected bytes live in `tests/golden/`; clients, job IDs, caches
//! and seed traces depend on them, so any change to how an artifact is
//! serialized must reproduce them exactly. Every parse path is also
//! checked to read back what it pins: parse, re-render, compare.

use pi_serve::protocol::http_call;
use pi_serve::{serve, JobResult, JobSpec, ServerOptions};
use preimpl_cnn::lint::{parse_waivers, Diagnostic, LintConfig, LintReport};
use preimpl_cnn::obs::{parse_jsonl, Event, EventKind, MemorySink, Obs, Value};
use preimpl_cnn::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Compare `actual` with `tests/golden/<name>`, showing the first
/// differing line on mismatch.
fn check(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let expected =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    if actual != expected {
        let line = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "{name} differs from its golden at line {}:\n  got:  {:?}\n  want: {:?}",
            line + 1,
            actual.lines().nth(line),
            expected.lines().nth(line)
        );
    }
}

fn event(seq: u64, ts_us: u64, kind: EventKind, fields: Vec<(&str, Value)>) -> Event {
    Event {
        seq,
        ts_us,
        seed: seq % 3,
        scope: "wire::golden".to_string(),
        name: format!("e{seq}"),
        kind,
        fields: fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    }
}

/// Every scalar shape a field can take, the strippable `wallclock*`
/// convention, a duplicate key (the later value wins in place) and
/// strings that need escaping.
fn golden_events() -> Vec<Event> {
    vec![
        event(0, 0, EventKind::SpanStart, vec![("n", Value::U64(3))]),
        event(
            1,
            17,
            EventKind::Point,
            vec![
                ("max", Value::U64(u64::MAX)),
                ("neg", Value::I64(-42)),
                ("pos_i64", Value::I64(7)),
                ("cost", Value::F64(1.25)),
                ("tiny", Value::F64(1.0e-7)),
                ("nan", Value::F64(f64::NAN)),
                ("inf", Value::F64(f64::INFINITY)),
                ("ok", Value::Bool(true)),
                ("wallclock_s", Value::F64(0.5)),
                ("wallclockish", Value::U64(9)),
                ("dup", Value::U64(1)),
                ("tag", Value::Str("q\"b\\s\nn\tt\r\u{1}é☂".to_string())),
                ("dup", Value::Str("second".to_string())),
            ],
        ),
        event(2, 18, EventKind::Counter, vec![("value", Value::U64(11))]),
        event(3, 19, EventKind::Gauge, vec![("value", Value::F64(-2.5))]),
        event(
            4,
            20,
            EventKind::Point,
            vec![("wallclock_ms", Value::F64(3.0))],
        ),
        event(5, 21, EventKind::SpanEnd, vec![]),
    ]
}

fn full_jsonl(events: &[Event]) -> String {
    events.iter().map(|e| e.to_json_line() + "\n").collect()
}

fn stripped_jsonl(events: &[Event]) -> String {
    let sink = Arc::new(MemorySink::new());
    Obs::new(sink.clone()).replay(events.iter().cloned());
    sink.stripped_jsonl()
}

#[test]
fn event_lines_are_pinned_and_parse_back() {
    let events = golden_events();
    let full = full_jsonl(&events);
    let stripped = stripped_jsonl(&events);
    check("events.jsonl", &full);
    check("events.stripped.jsonl", &stripped);
    // The report folds a NaN-only histogram: counted, min/max written null.
    check(
        "events.report.json",
        &RunReport::from_events(&events).render_json(),
    );
    // Both forms read back to the same bytes (NaN survives as null, a
    // non-negative i64 is the same JSON scalar as a u64).
    assert_eq!(full_jsonl(&parse_jsonl(&full).unwrap()), full);
    assert_eq!(stripped_jsonl(&parse_jsonl(&stripped).unwrap()), stripped);
    let back = Event::from_json_line(full.lines().nth(1).unwrap()).unwrap();
    assert!(
        matches!(back.fields.iter().find(|(k, _)| k == "nan"), Some((_, Value::F64(x))) if x.is_nan())
    );
}

fn seed_events() -> (String, Vec<Event>) {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/ci/router_lenet.seed.jsonl"
    ))
    .unwrap();
    let events = parse_jsonl(&text).unwrap();
    (text, events)
}

#[test]
fn seed_trace_report_and_diffs_are_pinned() {
    let (text, events) = seed_events();
    // The recorded trace re-renders to itself.
    assert_eq!(full_jsonl(&events), text);
    let report = RunReport::from_events(&events);
    check("router_lenet.report.json", &report.render_json());
    check(
        "router_lenet.diff_self.json",
        &report.diff(&report).render_json(),
    );
    // Drop a spread of events (metrics move) and add the golden stream
    // (metrics appear, one of them NaN): both null and number entries.
    let mut perturbed: Vec<Event> = events.iter().filter(|e| e.seq % 50 != 7).cloned().collect();
    perturbed.extend(golden_events());
    let diff = report.diff(&RunReport::from_events(&perturbed));
    assert!(!diff.is_empty());
    check("router_lenet.diff_perturbed.json", &diff.render_json());
}

#[test]
fn lint_report_is_pinned() {
    let raw = vec![
        Diagnostic::new("PL0107", "module:b/net:n", "fan-out 80 exceeds 64"),
        Diagnostic::new("PL0107", "module:c/net:\"q\"", "fan-out 90 exceeds 64"),
        Diagnostic::new("PL0101", "module:a/port:q", "sunk twice"),
        Diagnostic::new("PL0101", "module:a/port:q", "sunk twice\tagain"),
        Diagnostic::new("PL0102", "module:a/port:din", "drives nothing"),
    ];
    let cfg = LintConfig::new()
        .allow("PL0102")
        .with_waivers(parse_waivers("PL0107 module:b").unwrap());
    let report = LintReport::from_raw(raw, &cfg);
    assert!(report.errors() > 0 && report.warnings() > 0);
    assert!(report.waived > 0 && report.allowed > 0 && report.deduped > 0);
    check("lint_report.json", &report.render_json());
}

#[test]
fn lenet_summaries_are_pinned() {
    let device = Device::xcku5p_like();
    let network = models::lenet5();
    let cfg = FlowConfig::new().with_seeds([1]);
    let (db, _) = build_component_db(&network, &device, &cfg).unwrap();
    let (_, plain) = run_pre_implemented_flow(&network, &db, &device, &cfg).unwrap();
    check("lenet_summary.json", &plain.deterministic_summary());
    let linted = cfg.with_lint(LintConfig::new().allow("PL0001"));
    let (_, report) = run_pre_implemented_flow(&network, &db, &device, &linted).unwrap();
    assert!(report.lint.is_some());
    check("lenet_summary.lint.json", &report.deterministic_summary());
}

fn spec() -> JobSpec {
    JobSpec::new(
        "network n\ninput 1x8x8\nconv c1 kernel=3 out=2\n",
        "test-part",
        FlowConfig::new().with_seeds([1, 2]),
    )
}

#[test]
fn job_payloads_are_pinned_and_parse_back() {
    for (name, s) in [
        ("jobspec.archdef.json", spec()),
        ("jobspec.json.json", spec().with_format(ModelFormat::Json)),
    ] {
        let wire = s.to_json();
        check(name, &wire);
        assert_eq!(JobSpec::from_json(&wire).unwrap().to_json(), wire);
    }
    let result = JobResult {
        job_id: "0123456789abcdef".to_string(),
        summary: "assembled n: Fmax 400 MHz".to_string(),
        trace_jsonl: full_jsonl(&golden_events()),
        report_text: "flowstat run report\n\tindented \"quoted\"\n".to_string(),
        cache: DbCacheStats {
            hits: 3,
            misses: 1,
            invalidations: 2,
            bytes_loaded: 4096,
            evictions: 5,
        },
    };
    let wire = result.to_json();
    check("jobresult.json", &wire);
    let back = JobResult::from_json(&wire).unwrap();
    assert_eq!(back, result);
    assert_eq!(back.to_json(), wire);
}

#[test]
fn daemon_reply_bodies_are_pinned() {
    let h = serve("127.0.0.1:0", ServerOptions::default()).expect("bind ephemeral");
    let addr = h.addr();
    // healthz: the key order is pinned, the values are build/clock facts.
    let (status, health) = http_call(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
    let prefix = format!(
        "{{\"ok\":true,\"version\":\"{}\",\"uptime_seconds\":",
        env!("CARGO_PKG_VERSION")
    );
    let uptime = health
        .strip_prefix(&prefix)
        .and_then(|rest| rest.strip_suffix('}'))
        .unwrap_or_else(|| panic!("{health}"));
    assert!(uptime.bytes().all(|b| b.is_ascii_digit()), "{health}");

    let (status, body) = http_call(&addr, "GET", "/status/ffff", "").unwrap();
    assert_eq!(status, 404);
    check("serve.unknown.json", &body);
    let (status, body) = http_call(&addr, "POST", "/submit", "not json").unwrap();
    assert_eq!(status, 400);
    check("serve.bad_submit.json", &body);

    // A job on an unknown device: acknowledged, then failed by the worker.
    let mut job = spec();
    job.device = "no-such-part".to_string();
    let (status, ack) = http_call(&addr, "POST", "/submit", &job.to_json()).unwrap();
    assert_eq!(status, 200, "{ack}");
    check("serve.ack.json", &ack);
    let id = job.normalized(None, None).job_id();
    let deadline = Instant::now() + Duration::from_secs(60);
    let failed = loop {
        let (status, body) = http_call(&addr, "GET", &format!("/result/{id}"), "").unwrap();
        match status {
            500 => break body,
            202 if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            other => panic!("unexpected status {other}: {body}"),
        }
    };
    check("serve.job_failed.json", &failed);
    let (status, stats) = http_call(&addr, "GET", "/stats", "").unwrap();
    assert_eq!(status, 200);
    check("serve.stats.json", &stats);
    let (status, body) = http_call(&addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(status, 200);
    check("serve.shutdown.json", &body);
    h.join();
}
