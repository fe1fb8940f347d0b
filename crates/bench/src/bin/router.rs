//! `router` — work/quality ledger of the PathFinder router.
//!
//! Runs the full pre-implemented flow per network, folds the telemetry
//! into router work metrics (negotiation passes, A* expansions, final
//! overuse, Steiner segments) and appends them as one point to the
//! `trajectory` of `BENCH_router.json`, beside a deterministic flowstat
//! snapshot. Every metric is a pure function of the tree — equal on any
//! host at any `PI_THREADS` — so the ledger is a drift detector, not a
//! stopwatch.
//!
//! The bench is self-gating: it exits 2 (the shared gate exit code) when,
//! against the ledger's last point with the same `--seeds`, a network's
//! expansions or passes rose or its Fmax fell. The ledger's
//! `pre_pr7_baseline` section is carried over verbatim: it records the
//! star router this one replaced, which no longer exists at HEAD.
//!
//! Usage: `router [--networks lenet,vgg] [--seeds N] [--out PATH]
//! [--trace PATH]`. `--trace` records the first network's stream (CI
//! diffs it against a checked-in seed snapshot).

use pi_cnn::graph::Granularity;
use pi_cnn::Network;
use pi_fabric::Device;
use pi_flow::{build_component_db, run_pre_implemented_flow, FlowConfig};
use pi_obs::agg::RunReport;
use pi_obs::{Event, EventSink, FanoutSink, FileSink, MemorySink, Obs};
use pi_synth::SynthOptions;
use serde_json::{json, Value};
use std::sync::Arc;

/// One network's measurement (a ledger entry) plus the events behind it.
fn measure(
    network: &Network,
    device: &Device,
    granularity: Granularity,
    synth: SynthOptions,
    seeds: u64,
    trace: Option<&str>,
) -> (Value, Vec<Event>) {
    let sink = Arc::new(MemorySink::new());
    let obs = match trace {
        Some(path) => {
            let file = FileSink::create(path).unwrap_or_else(|e| panic!("--trace {path}: {e}"));
            let tee: Vec<Arc<dyn EventSink>> = vec![sink.clone(), Arc::new(file)];
            Obs::new(Arc::new(FanoutSink::new(tee)))
        }
        None => Obs::new(sink.clone()),
    };
    let cfg = FlowConfig::new()
        .with_synth(synth)
        .with_granularity(granularity)
        .with_seeds(1..=seeds)
        .with_obs(obs);
    let (db, _) = build_component_db(network, device, &cfg).expect("component DB builds");
    let (_, report) =
        run_pre_implemented_flow(network, &db, device, &cfg).expect("pre-implemented flow");
    let events = sink.snapshot();
    let route = RunReport::from_events(&events).route;
    let total = |f: &dyn Fn(&pi_obs::agg::RouteTrace) -> u64| route.iter().map(f).sum::<u64>();
    let entry = json!({
        "passes": total(&|t| t.iters()),
        "expansions": total(&|t| t.total_expansions()),
        "final_overused": total(&|t| t.final_overused()),
        "steiner_segments": total(&|t| t.steiner_segments),
        "fmax_mhz": report.compile.timing.fmax_mhz,
    });
    (entry, events)
}

fn as_f64(v: &Value) -> Option<f64> {
    serde_json::from_value(v.clone()).ok()
}

/// What got worse in `now` against the ledger's `prev` entry for `name`.
fn drift(name: &str, prev: &Value, now: &Value) -> Vec<String> {
    let mut out = Vec::new();
    for key in ["expansions", "passes"] {
        if let (Some(p), Some(n)) = (as_f64(&prev[key]), as_f64(&now[key])) {
            if n > p {
                out.push(format!("{name}: {key} rose ({p} -> {n})"));
            }
        }
    }
    if let (Some(p), Some(n)) = (as_f64(&prev["fmax_mhz"]), as_f64(&now["fmax_mhz"])) {
        if n < p - 1e-9 {
            out.push(format!("{name}: Fmax fell ({p:.3} -> {n:.3} MHz)"));
        }
    }
    out
}

fn main() {
    let mut networks = vec!["lenet".to_string(), "vgg".to_string()];
    let mut seeds = 3u64;
    let mut out = "BENCH_router.json".to_string();
    let mut trace: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--networks" => {
                let v = argv.next().expect("--networks needs a value");
                networks = v.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--seeds" => {
                seeds = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seeds needs a number");
            }
            "--out" => out = argv.next().expect("--out needs a path"),
            "--trace" => trace = argv.next(),
            other => panic!("unknown argument {other:?}"),
        }
    }

    let ledger = std::fs::read_to_string(&out).ok().map(|text| {
        serde_json::from_str::<Value>(&text).unwrap_or_else(|e| panic!("{out} does not parse: {e}"))
    });
    let mut trajectory = match ledger.as_ref().map(|doc| &doc["trajectory"]) {
        Some(Value::Seq(points)) => points.clone(),
        _ => Vec::new(),
    };
    let previous = trajectory
        .iter()
        .rev()
        .find(|p| p["seeds"] == Value::U64(seeds))
        .cloned();

    let device = Device::xcku5p_like();
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut entries: Vec<(String, Value)> = Vec::new();
    let mut all_events: Vec<Event> = Vec::new();
    let mut gate_failures: Vec<String> = Vec::new();

    for (i, name) in networks.iter().enumerate() {
        let (network, granularity, synth) = match name.as_str() {
            "lenet" => (
                pi_cnn::models::lenet5(),
                Granularity::Layer,
                SynthOptions::lenet_like(),
            ),
            "vgg" => (
                pi_cnn::models::vgg16(),
                Granularity::Block,
                SynthOptions::vgg_like(),
            ),
            other => panic!("unknown network {other:?} (expected lenet or vgg)"),
        };
        eprintln!("[router] {name}...");
        let (entry, events) = measure(
            &network,
            &device,
            granularity,
            synth,
            seeds,
            (i == 0).then_some(trace.as_deref()).flatten(),
        );
        let n = |key: &str| as_f64(&entry[key]).expect("measure() writes numbers");
        println!(
            "{name:<6} passes {:>4}   expansions {:>9}   overused {}   Fmax {:>6.1} MHz   \
             {} steiner segs",
            n("passes"),
            n("expansions"),
            n("final_overused"),
            n("fmax_mhz"),
            n("steiner_segments"),
        );
        if let Some(prev) = previous.as_ref().and_then(|p| p["networks"].get(name)) {
            gate_failures.extend(drift(name, prev, &entry));
        }
        entries.push((name.clone(), entry));
        all_events.extend(events);
    }

    trajectory.push(json!({
        "host_cores": host_cores,
        "seeds": seeds,
        "networks": Value::Map(entries),
    }));
    let mut doc = json!({
        "bench": "router_quality_speed",
        "trajectory": Value::Seq(trajectory),
    });
    if let Some(baseline) = ledger.as_ref().and_then(|doc| doc.get("pre_pr7_baseline")) {
        doc["pre_pr7_baseline"] = baseline.clone();
    }
    doc["notes"] = Value::Str(
        "One trajectory point per run of `pi-bench --bin router`. expansions is total A* \
         open-set pops — the router's work metric; every field except host_cores is \
         deterministic at any PI_THREADS. The bench exits 2 when expansions or passes rise \
         or Fmax falls against the last point with the same seeds."
            .to_string(),
    );
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
    eprintln!("[router] wrote {out} + {summary_path} (host_cores = {host_cores})");

    if !gate_failures.is_empty() {
        for f in &gate_failures {
            eprintln!("[router] GATE: {f}");
        }
        std::process::exit(2);
    }
}
