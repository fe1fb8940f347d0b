//! `lint` — throughput and stability bench for the `pi-lint` dataflow
//! fixpoint engine.
//!
//! Runs the PL04xx dataflow analysis (worklist fixpoint over arrival
//! intervals → per-link FIFO occupancy bounds) on the bundled networks,
//! measures analysis wall time and fixpoint iteration counts, and writes
//! `BENCH_lint.json` plus a deterministic flowstat snapshot of the
//! captured `lint::dataflow` telemetry.
//!
//! The bench is self-gating (shared exit code 2):
//!
//! * the fixpoint must converge on every bundled network (no `PL0403`),
//! * every bundled network must lint clean at the stitcher's default
//!   link-FIFO depth — the shipped models are the calibration set,
//! * the ResNet skip-path minimum depth must not drift from the
//!   checked-in value: that number is the rate model's observable, and a
//!   silent change means the folding/cycle model moved under the
//!   analysis.
//!
//! Usage: `lint [--networks lenet5,resnet_small] [--out PATH]
//! [--trace PATH]`. `--trace` records the first network's event stream
//! (CI diffs the `PI_THREADS=1` and `4` recordings with `flowstat diff`).

use pi_cnn::graph::Granularity;
use pi_cnn::Network;
use pi_lint::{analyze_dataflow, LintConfig, LintEngine};
use pi_obs::agg::RunReport;
use pi_obs::{Event, EventSink, FanoutSink, FileSink, MemorySink, Obs};
use serde_json::json;
use std::sync::Arc;
use std::time::Instant;

/// The ResNet skip edge into `add2+relu2b` dominates every bundled
/// minimum depth; the rate model puts it at 44 tokens (43 cycles of path
/// skew at one token per cycle, plus one in flight).
const RESNET_EXPECTED_MAX_DEPTH: u64 = 44;

struct NetResult {
    analysis_ms: f64,
    iterations: u64,
    edges: usize,
    max_min_depth: u64,
    diverged: bool,
    clean: bool,
    summary: String,
    events: Vec<Event>,
}

fn run_network(network: &Network, trace: Option<&str>) -> NetResult {
    let sink = Arc::new(MemorySink::new());
    let obs = match trace {
        Some(path) => {
            let file = FileSink::create(path).unwrap_or_else(|e| panic!("--trace {path}: {e}"));
            let tee: Vec<Arc<dyn EventSink>> = vec![sink.clone(), Arc::new(file)];
            Obs::new(Arc::new(FanoutSink::new(tee)))
        }
        None => Obs::new(sink.clone()),
    };
    let t0 = Instant::now();
    let analysis = analyze_dataflow(network, Granularity::Layer);
    let analysis_ms = t0.elapsed().as_secs_f64() * 1e3;
    let engine = LintEngine::new(LintConfig::new());
    let report = engine.lint_dataflow(network, Granularity::Layer, false, &obs);
    NetResult {
        analysis_ms,
        iterations: analysis.iterations,
        edges: analysis.edges.len(),
        max_min_depth: analysis.max_min_depth(),
        diverged: analysis.diverged,
        clean: report.is_clean(),
        summary: report.summary_line(),
        events: sink.snapshot(),
    }
}

fn main() {
    let mut networks = vec![
        "lenet5".to_string(),
        "alexnet_like".to_string(),
        "resnet_small".to_string(),
        "cifar10_quick".to_string(),
    ];
    let mut out = "BENCH_lint.json".to_string();
    let mut trace: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--networks" => {
                let v = argv.next().expect("--networks needs a value");
                networks = v.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--out" => out = argv.next().expect("--out needs a path"),
            "--trace" => trace = argv.next(),
            other => panic!("unknown argument {other:?}"),
        }
    }

    let mut sections: Vec<(String, serde_json::Value)> = Vec::new();
    let mut all_events: Vec<Event> = Vec::new();
    let mut gate_failures: Vec<String> = Vec::new();

    for (i, name) in networks.iter().enumerate() {
        let network = match name.as_str() {
            "lenet5" => pi_cnn::models::lenet5(),
            "alexnet_like" => pi_cnn::models::alexnet_like(),
            "resnet_small" => pi_cnn::models::resnet_small(),
            "cifar10_quick" => pi_cnn::models::cifar10_quick(),
            "vgg16" => pi_cnn::models::vgg16(),
            other => panic!("unknown network {other:?}"),
        };
        let r = run_network(&network, (i == 0).then_some(trace.as_deref()).flatten());
        println!(
            "{name:<14} {:>7.3} ms   {:>4} iterations   {:>3} links   max min-depth {:>3}   {}",
            r.analysis_ms, r.iterations, r.edges, r.max_min_depth, r.summary,
        );
        if r.diverged {
            gate_failures.push(format!("{name}: fixpoint diverged"));
        }
        if !r.clean {
            gate_failures.push(format!(
                "{name}: bundled network no longer lints clean ({})",
                r.summary
            ));
        }
        if name == "resnet_small" && r.max_min_depth != RESNET_EXPECTED_MAX_DEPTH {
            gate_failures.push(format!(
                "resnet_small: skip-path minimum depth drifted ({} != {RESNET_EXPECTED_MAX_DEPTH})",
                r.max_min_depth
            ));
        }
        sections.push((
            name.clone(),
            json!({
                "analysis_ms": r.analysis_ms,
                "iterations": r.iterations,
                "links": r.edges,
                "max_min_depth": r.max_min_depth,
                "diverged": r.diverged,
                "clean": r.clean,
            }),
        ));
        all_events.extend(r.events);
    }

    let doc = json!({
        "bench": "lint_dataflow",
        "networks": serde_json::Value::Map(sections),
        "notes": "iterations is total worklist visits of the arrival-interval fixpoint; \
                  max_min_depth the deepest per-link FIFO requirement the analysis proves. \
                  Both are schedule-independent; analysis_ms is wall-clock and excluded \
                  from any determinism comparison. The gate requires convergence, clean \
                  bundled models at the default link depth, and a stable ResNet skip \
                  minimum.",
    });
    std::fs::write(
        &out,
        serde_json::to_string_pretty(&doc).expect("serialize") + "\n",
    )
    .unwrap_or_else(|e| panic!("write {out}: {e}"));
    let report = RunReport::from_events(&all_events);
    let summary_path = match out.strip_suffix(".json") {
        Some(stem) => format!("{stem}.flowstat.txt"),
        None => format!("{out}.flowstat.txt"),
    };
    std::fs::write(&summary_path, report.render_text())
        .unwrap_or_else(|e| panic!("write {summary_path}: {e}"));
    eprintln!("[lint] wrote {out} + {summary_path}");

    if !gate_failures.is_empty() {
        for f in &gate_failures {
            eprintln!("[lint] GATE: {f}");
        }
        std::process::exit(2);
    }
}
