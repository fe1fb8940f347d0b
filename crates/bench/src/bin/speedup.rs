//! `speedup` — wall-clock comparison of the parallel execution backend.
//!
//! Runs the LeNet-5 and VGG-16 flows at 1 worker thread (forced sequential
//! path) and at `PI_THREADS`-or-4 workers, times each phase, verifies the
//! results are identical, and writes `BENCH_parallel.json` with the
//! per-phase times and speedups. The file's `trajectory` is a ledger: each
//! run appends one point to what the checked-in file already holds, with
//! the deterministic `anneal_moves` count beside the wall time so a noisy
//! host cannot hide or fake a change. Numbers are honest: `host_cores`
//! records how much hardware parallelism actually existed — on a
//! single-core host the parallel schedule cannot beat the sequential one,
//! it can only prove it does not regress.
//!
//! Run with `cargo run --release -p pi-bench --bin speedup`.

use pi_cnn::graph::Granularity;
use pi_cnn::Network;
use pi_fabric::Device;
use pi_flow::{build_component_db, run_pre_implemented_flow, FlowConfig};
use pi_obs::agg::RunReport;
use pi_obs::{MemorySink, Obs};
use pi_synth::SynthOptions;
use serde_json::json;
use std::sync::Arc;
use std::time::Instant;

struct RunTimes {
    build_db_s: f64,
    compose_s: f64,
    fmax_mhz: f64,
    checkpoints: usize,
}

fn run_once(
    network: &Network,
    device: &Device,
    granularity: Granularity,
    synth: SynthOptions,
    threads: usize,
    obs: &Obs,
) -> RunTimes {
    let cfg = FlowConfig::new()
        .with_synth(synth)
        .with_granularity(granularity)
        .with_seeds([1, 2, 3])
        .with_threads(threads)
        .with_obs(obs.clone());
    let t0 = Instant::now();
    let (db, _) = build_component_db(network, device, &cfg).expect("component DB builds");
    let build_db_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (_, report) =
        run_pre_implemented_flow(network, &db, device, &cfg).expect("pre-implemented flow");
    let compose_s = t1.elapsed().as_secs_f64();
    RunTimes {
        build_db_s,
        compose_s,
        fmax_mhz: report.compile.timing.fmax_mhz,
        checkpoints: db.len(),
    }
}

fn main() {
    let device = Device::xcku5p_like();
    // One capture across every run: the flowstat summary written next to
    // BENCH_parallel.json covers the sequential and parallel runs of both
    // networks (their deterministic streams are identical pairwise).
    let sink = Arc::new(MemorySink::new());
    let obs = Obs::new(sink.clone());
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let parallel_threads = std::env::var("PI_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 1)
        .unwrap_or(4);

    let mut networks: Vec<(String, serde_json::Value)> = Vec::new();
    let mut vgg_build_speedup = 0.0f64;
    let mut vgg_build_seq_s = 0.0f64;
    for (name, network, granularity, synth) in [
        (
            "lenet5",
            pi_cnn::models::lenet5(),
            Granularity::Layer,
            SynthOptions::lenet_like(),
        ),
        (
            "vgg16",
            pi_cnn::models::vgg16(),
            Granularity::Block,
            SynthOptions::vgg_like(),
        ),
    ] {
        eprintln!("[speedup] {name}: 1 thread...");
        let seq = run_once(&network, &device, granularity, synth, 1, &obs);
        eprintln!("[speedup] {name}: {parallel_threads} threads...");
        let par = run_once(
            &network,
            &device,
            granularity,
            synth,
            parallel_threads,
            &obs,
        );
        assert_eq!(
            seq.fmax_mhz, par.fmax_mhz,
            "{name}: results must not depend on thread count"
        );
        let build_speedup = seq.build_db_s / par.build_db_s;
        let compose_speedup = seq.compose_s / par.compose_s;
        if name == "vgg16" {
            vgg_build_speedup = build_speedup;
            vgg_build_seq_s = seq.build_db_s;
        }
        println!(
            "{name:<8} build_db {:>7.2}s -> {:>7.2}s ({build_speedup:.2}x)   \
             compose {:>6.2}s -> {:>6.2}s ({compose_speedup:.2}x)   \
             {} checkpoints, Fmax {:.0} MHz (identical)",
            seq.build_db_s,
            par.build_db_s,
            seq.compose_s,
            par.compose_s,
            seq.checkpoints,
            seq.fmax_mhz,
        );
        // A measured ratio is only a *speedup claim* when the host could
        // actually run threads side by side; on one core it is scheduler
        // noise and recording it as a speedup would be dishonest.
        let claim = |ratio: f64| -> serde_json::Value {
            if host_cores > 1 {
                json!(ratio)
            } else {
                serde_json::Value::Null
            }
        };
        networks.push((
            name.to_string(),
            json!({
                "checkpoints": seq.checkpoints,
                "fmax_mhz": seq.fmax_mhz,
                "results_identical": true,
                "build_db": json!({
                    "seq_s": seq.build_db_s,
                    "par_s": par.build_db_s,
                    "speedup": claim(build_speedup),
                }),
                "compose": json!({
                    "seq_s": seq.compose_s,
                    "par_s": par.compose_s,
                    "speedup": claim(compose_speedup),
                }),
            }),
        ));
    }

    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let headline = if host_cores > 1 {
        json!(vgg_build_speedup)
    } else {
        eprintln!(
            "[speedup] host has 1 core: refusing to claim a speedup headline \
             (the run only proves the parallel schedule does not regress)"
        );
        serde_json::Value::Null
    };
    let report = RunReport::from_events(&sink.snapshot());
    // Every annealer move of the capture (both networks, both thread
    // counts): a pure function of the tree, equal on any host.
    let anneal_moves: u64 = report.anneal.iter().map(|t| t.accepted + t.rejected).sum();
    let mut trajectory = std::fs::read_to_string("BENCH_parallel.json")
        .ok()
        .map(|text| {
            serde_json::from_str::<serde_json::Value>(&text)
                .expect("existing BENCH_parallel.json parses")
        })
        .and_then(|doc| match &doc["trajectory"] {
            serde_json::Value::Seq(points) => Some(points.clone()),
            _ => None,
        })
        .unwrap_or_default();
    trajectory.push(json!({
        "unix_time": unix_time,
        "host_cores": host_cores,
        "threads": parallel_threads,
        "vgg16_build_db_seq_s": vgg_build_seq_s,
        "anneal_moves": anneal_moves,
        "vgg16_build_db_speedup": headline.clone(),
    }));
    let doc = json!({
        "bench": "parallel_speedup",
        "host_cores": host_cores,
        "thread_counts": json!([1, parallel_threads]),
        "networks": serde_json::Value::Map(networks),
        "trajectory": serde_json::Value::Seq(trajectory),
        "speedup_headline": headline,
        "notes": "build_db is the function-optimization phase (components x seeds \
                  fan-out, the flow's dominant parallel region). Speedup scales with \
                  host_cores; speedup fields are null when host_cores == 1 — a \
                  single-core host cannot substantiate a speedup claim, the run \
                  degenerates to a no-regression check of the scheduler overhead.",
    });
    std::fs::write(
        "BENCH_parallel.json",
        serde_json::to_string_pretty(&doc).expect("serialize") + "\n",
    )
    .expect("write BENCH_parallel.json");
    std::fs::write("BENCH_parallel.flowstat.txt", report.render_text())
        .expect("write BENCH_parallel.flowstat.txt");
    eprintln!(
        "[speedup] wrote BENCH_parallel.json + BENCH_parallel.flowstat.txt \
         (host_cores = {host_cores})"
    );
}
