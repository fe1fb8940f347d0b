//! Farm-wide observability end-to-end: the `/metrics` exposition and the
//! cross-process trace splice.
//!
//! Three contracts under test:
//!
//! * `/metrics` counters are sums over queue history — four racing
//!   clients submitting the same job always scrape as 4 submitted,
//!   1 unique, 3 coalesced, 1 completed, whatever the interleaving;
//! * a spliced remote report (`submit_and_wait_traced`) carries the
//!   daemon's span tree under the local `serve:request` span, and with
//!   the serve framing filtered out it equals the report of an identical
//!   local run byte-for-byte — the cross-process stream is the *same*
//!   deterministic stream;
//! * two callers whose raw specs differ only in daemon-owned knobs
//!   coalesce onto one job, and each caller's splice carries that
//!   caller's own `trace_id`.

use pi_obs::Event;
use pi_serve::{serve, submit_and_wait_traced, JobSpec, ServerOptions};
use preimpl_cnn::prelude::*;

/// The job under test: tiny network, one seed, test-part device — a
/// sub-second build so the farm round-trips stay fast.
fn tiny_spec() -> JobSpec {
    JobSpec::new(
        "network tiny\ninput 1x8x8\nconv c1 kernel=3 out=2\n",
        "test-part",
        FlowConfig::new().with_seeds([1]),
    )
}

/// Parse Prometheus text into (name-with-labels, value) pairs, failing on
/// any line that is neither a comment nor a sample.
fn parse_prometheus(text: &str) -> Vec<(String, f64)> {
    let mut samples = Vec::new();
    for line in text.lines() {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# TYPE ") || line.starts_with("# HELP "),
                "unknown comment form: {line}"
            );
            continue;
        }
        let (name, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without value: {line:?}");
        });
        let value: f64 = value
            .parse()
            .unwrap_or_else(|e| panic!("unparseable value in {line:?}: {e}"));
        samples.push((name.to_string(), value));
    }
    samples
}

fn sample(samples: &[(String, f64)], name: &str) -> f64 {
    samples
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .1
}

#[test]
fn metrics_counters_are_independent_of_client_interleaving() {
    let h = serve(
        "127.0.0.1:0",
        ServerOptions {
            workers: 2,
            ..ServerOptions::default()
        },
    )
    .expect("bind ephemeral");
    let addr = h.addr();

    // Four clients race the same job; however the submissions interleave
    // with the build, the queue counters must sum the same way.
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                pi_serve::submit_and_wait(&addr, &tiny_spec()).expect("job completes")
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    let text = pi_serve::client::metrics(&addr).expect("metrics scrape");
    let samples = parse_prometheus(&text);
    assert_eq!(sample(&samples, "pi_serve_jobs_submitted_total"), 4.0);
    assert_eq!(sample(&samples, "pi_serve_jobs_unique_total"), 1.0);
    assert_eq!(sample(&samples, "pi_serve_jobs_coalesced_total"), 3.0);
    assert_eq!(sample(&samples, "pi_serve_jobs_completed_total"), 1.0);
    assert_eq!(sample(&samples, "pi_serve_jobs_failed_total"), 0.0);
    assert_eq!(sample(&samples, "pi_serve_queue_depth"), 0.0);
    assert_eq!(sample(&samples, "pi_serve_jobs_running"), 0.0);
    assert_eq!(sample(&samples, "pi_serve_workers"), 2.0);
    // One wallclock observation per unique job, in the compose histogram.
    assert_eq!(sample(&samples, "pi_serve_job_wall_ms_compose_count"), 1.0);
    assert!(
        text.contains("pi_serve_job_wall_ms_compose_bucket{le=\"+Inf\"} 1"),
        "{text}"
    );
    assert!(sample(&samples, "uptime_seconds") >= 0.0);

    pi_serve::client::shutdown(&addr).expect("shutdown");
    h.join();
}

#[test]
fn spliced_remote_report_matches_a_local_run() {
    let h = serve("127.0.0.1:0", ServerOptions::default()).expect("bind ephemeral");
    let addr = h.addr();
    let spec = tiny_spec();

    let (result, events) = submit_and_wait_traced(&addr, &spec).expect("traced round-trip");
    assert_eq!(
        result.job_id,
        spec.job_id(),
        "trace context must not move the ID"
    );

    // The splice is one balanced, monotonically sequenced call tree...
    assert!(preimpl_cnn::lint::lint_trace(&events).is_empty());
    // ...rooted at the client-side request span, with the daemon's tagged
    // job span directly beneath it.
    let first = events.first().expect("non-empty splice");
    assert_eq!(
        (first.scope.as_str(), first.name.as_str()),
        ("serve", "request")
    );
    let spliced = RunReport::from_events(&events);
    let spliced_text = spliced.render_text();
    assert!(
        spliced
            .metrics()
            .keys()
            .any(|k| k.contains("serve:request/serve::job:run/")),
        "remote spans must nest under the request span:\n{spliced_text}"
    );

    // Strip the serve framing: what remains is the daemon's own capture of
    // the flow, which must fold to the same report as running the job
    // locally with the same config (no cache tier on either side).
    let inner: Vec<Event> = events
        .iter()
        .filter(|e| e.scope != "serve" && e.scope != "serve::job")
        .cloned()
        .collect();
    let network = parse_archdef(&spec.archdef).expect("archdef parses");
    let device = Device::catalog(&spec.device).expect("device exists");
    let cfg = spec.config.clone().with_report_capture();
    let (db, _, _) = build_component_db_cached(&network, &device, &cfg).expect("db builds");
    run_pre_implemented_flow(&network, &db, &device, &cfg).expect("flow runs");
    let local = cfg.run_report().expect("capture installed");
    assert_eq!(
        RunReport::from_events(&inner).render_text(),
        local.render_text(),
        "remote and local telemetry must be the same deterministic stream"
    );

    // A coalesced re-submission is served the stored trace: the spliced
    // report comes out byte-identical.
    let (_, events2) = submit_and_wait_traced(&addr, &spec).expect("coalesced round-trip");
    assert_eq!(RunReport::from_events(&events2).render_text(), spliced_text);

    pi_serve::client::shutdown(&addr).expect("shutdown");
    h.join();
}

#[test]
fn coalesced_callers_each_splice_under_their_own_trace_id() {
    let h = serve("127.0.0.1:0", ServerOptions::default()).expect("bind ephemeral");
    let addr = h.addr();
    // `threads` is daemon-owned: `JobSpec::normalized` clears it, so the
    // two raw specs hash apart but land on one job.
    let first = tiny_spec();
    let mut second = tiny_spec();
    second.config = second.config.with_threads(2);
    assert_ne!(first.job_id(), second.job_id());

    let mut job_ids = Vec::new();
    for spec in [&first, &second] {
        let (result, events) = submit_and_wait_traced(&addr, spec).expect("traced round-trip");
        assert!(preimpl_cnn::lint::lint_trace(&events).is_empty());
        for (scope, name) in [("serve", "request"), ("serve::job", "run")] {
            let start = events
                .iter()
                .find(|e| {
                    e.scope == scope
                        && e.name == name
                        && matches!(e.kind, pi_obs::EventKind::SpanStart)
                })
                .unwrap_or_else(|| panic!("splice has no {scope}:{name} span"));
            let trace_id = start.fields.iter().find(|(k, _)| k == "trace_id");
            assert_eq!(
                trace_id.map(|(_, v)| v),
                Some(&pi_obs::Value::Str(spec.job_id())),
                "{scope}:{name} must carry its own caller's trace_id"
            );
        }
        job_ids.push(result.job_id);
    }
    assert_eq!(job_ids[0], job_ids[1], "the two specs must coalesce");

    pi_serve::client::shutdown(&addr).expect("shutdown");
    h.join();
}
