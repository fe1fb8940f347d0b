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
//! Each network then runs a *warm-load* phase: the cold build's checkpoints
//! are stored in a fresh cache directory and `build_component_db_cached`
//! loads them twice — the first touch in this process (every file read,
//! hash-verified and decoded) and a repeat touch (read and hash-verified,
//! served from the decode memo). Seconds, `bytes_loaded` and the
//! `DbCache::decodes()` delta of both go into the ledger.
//!
//! Self-gating (shared exit code 2): a repeat touch that decodes anything,
//! a warm database whose content hashes differ from the cold build's, or
//! results that depend on the thread count.
//!
//! Run with `cargo run --release -p pi-bench --bin speedup`.

use pi_cnn::graph::Granularity;
use pi_cnn::Network;
use pi_fabric::Device;
use pi_flow::{
    build_component_db, build_component_db_cached, run_pre_implemented_flow, FlowConfig,
};
use pi_obs::agg::RunReport;
use pi_obs::{MemorySink, Obs};
use pi_stitch::{cache_key, ComponentDb, DbCache};
use pi_synth::SynthOptions;
use serde_json::json;
use std::sync::Arc;
use std::time::Instant;

struct RunTimes {
    build_db_s: f64,
    compose_s: f64,
    fmax_mhz: f64,
    cfg: FlowConfig,
    db: ComponentDb,
    /// `db`'s content hashes, what every other build of it must reproduce.
    hashes: Vec<u64>,
}

/// One `build_component_db_cached` over a populated directory.
struct Touch {
    seconds: f64,
    bytes_loaded: u64,
    decodes: u64,
    /// All hits, and every checkpoint hashes as the cold build's does.
    matches_cold: bool,
}

fn content_hashes(db: &ComponentDb) -> Vec<u64> {
    db.checkpoints().map(|cp| cp.content_hash()).collect()
}

/// Store `cold`'s checkpoints under the keys a cached build of `cfg` asks
/// for, then load them twice: first touch, repeat touch.
fn warm_load(name: &str, network: &Network, device: &Device, cold: &RunTimes) -> [Touch; 2] {
    let dir = std::env::temp_dir().join(format!("pi_speedup_warm_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let obs = cold.cfg.obs();
    let mut cache = DbCache::open(&dir, obs).expect("cache directory opens");
    for cp in cold.db.checkpoints() {
        let key = cache_key(
            &cp.meta.signature,
            device.name(),
            cold.cfg.cache_fingerprint(),
        );
        cache.insert(&key, cp, obs).expect("checkpoint persists");
    }
    let cfg = cold.cfg.clone().with_db_dir(&dir);
    let touches = [(); 2].map(|()| {
        let decodes = DbCache::decodes();
        let t = Instant::now();
        let (db, _, stats) = build_component_db_cached(network, device, &cfg).expect("warm load");
        Touch {
            seconds: t.elapsed().as_secs_f64(),
            bytes_loaded: stats.bytes_loaded,
            decodes: DbCache::decodes() - decodes,
            matches_cold: stats.all_hits() && content_hashes(&db) == cold.hashes,
        }
    });
    std::fs::remove_dir_all(&dir).ok();
    touches
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
        cfg,
        hashes: content_hashes(&db),
        db,
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
    let mut vgg_warm = None;
    let mut gate_failures: Vec<String> = Vec::new();
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
        let results_identical = seq.fmax_mhz == par.fmax_mhz && seq.hashes == par.hashes;
        if !results_identical {
            gate_failures.push(format!("{name}: results depend on the thread count"));
        }
        eprintln!("[speedup] {name}: warm load, first and repeat touch...");
        let [first, repeat] = warm_load(name, &network, &device, &par);
        if !(first.matches_cold && repeat.matches_cold) {
            gate_failures.push(format!("{name}: warm database differs from the cold build"));
        }
        if repeat.decodes != 0 {
            gate_failures.push(format!(
                "{name}: repeat touch decoded {} checkpoints (memo not hit)",
                repeat.decodes
            ));
        }
        let build_speedup = seq.build_db_s / par.build_db_s;
        let compose_speedup = seq.compose_s / par.compose_s;
        if name == "vgg16" {
            vgg_build_speedup = build_speedup;
            vgg_build_seq_s = seq.build_db_s;
        }
        println!(
            "{name:<8} build_db {:>7.2}s -> {:>7.2}s ({build_speedup:.2}x)   \
             compose {:>6.2}s -> {:>6.2}s ({compose_speedup:.2}x)   \
             warm load {:.3}s / {} decodes -> {:.3}s / {} decodes   \
             {} checkpoints, Fmax {:.0} MHz",
            seq.build_db_s,
            par.build_db_s,
            seq.compose_s,
            par.compose_s,
            first.seconds,
            first.decodes,
            repeat.seconds,
            repeat.decodes,
            seq.db.len(),
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
                "checkpoints": seq.db.len(),
                "fmax_mhz": seq.fmax_mhz,
                "results_identical": results_identical,
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
                "warm_load": json!({
                    "bytes_loaded": first.bytes_loaded,
                    "first_s": first.seconds,
                    "first_decodes": first.decodes,
                    "repeat_s": repeat.seconds,
                    "repeat_decodes": repeat.decodes,
                }),
            }),
        ));
        if name == "vgg16" {
            vgg_warm = Some([first, repeat]);
        }
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
    let [warm_first, warm_repeat] = vgg_warm.expect("vgg16 ran");
    trajectory.push(json!({
        "unix_time": unix_time,
        "host_cores": host_cores,
        "threads": parallel_threads,
        "vgg16_build_db_seq_s": vgg_build_seq_s,
        "anneal_moves": anneal_moves,
        "vgg16_build_db_speedup": headline.clone(),
        "vgg16_warm_first_s": warm_first.seconds,
        "vgg16_warm_repeat_s": warm_repeat.seconds,
        "vgg16_warm_bytes_loaded": warm_first.bytes_loaded,
        "warm_decodes_first": warm_first.decodes,
        "warm_decodes_repeat": warm_repeat.decodes,
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
                  degenerates to a no-regression check of the scheduler overhead. \
                  warm_load is build_component_db_cached over the cold build's \
                  checkpoints: the first touch in the process decodes every file, the \
                  repeat touch re-reads and hash-verifies them but decodes none.",
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
    if !gate_failures.is_empty() {
        for f in &gate_failures {
            eprintln!("[speedup] GATE: {f}");
        }
        std::process::exit(2);
    }
}
