//! `pi-e2e-bench` — see `benchmark/README.md`.
//!
//! ```text
//! pi-e2e-bench --workload W --seed N --seconds T --trace 0|1   one run, one JSON line (the driver's contract)
//! pi-e2e-bench [--seed S] [--seconds T] [--quick]              the full run: every workload, untraced then traced
//! pi-e2e-bench compare RUN1.json RUN2.json                     what repeat.sh prints
//! ```
//!
//! Paths are relative to the repository root, which `run.sh` makes the
//! working directory.

use pi_e2e_bench::metrics::WORKLOADS;
use pi_e2e_bench::report;
use pi_e2e_bench::trace::Tracer;
use pi_e2e_bench::workloads::{self, Mode, Outcome, Request, Scratch};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

const OUT_DIR: &str = "benchmark/out";
const BENCHMARK_JSON: &str = "BENCHMARK.json";
/// Wall-clock budget of the full run on a 2-core host, and the cap on any
/// single workload of it (set-up + untraced loop + traced replay).
const FULL_RUN_BUDGET_S: f64 = 180.0;
const WORKLOAD_CAP_S: f64 = 60.0;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == name)?;
    args.get(at + 1).map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("{name}: cannot parse {text:?}")),
    }
}

fn read_json(path: &str) -> Result<serde_json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("pi-e2e-bench: {message}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    if args.first().map(String::as_str) == Some("compare") {
        let [_, first, second] = args else {
            return Err("usage: compare RUN1.json RUN2.json".to_string());
        };
        let breaches = report::compare(
            &read_json(first)?,
            &read_json(second)?,
            &read_json(BENCHMARK_JSON)?,
        );
        println!("{breaches} breach(es)");
        return Ok(ExitCode::from(if breaches == 0 { 0 } else { 2 }));
    }

    let seed: u64 = parsed(args, "--seed", 1)?;
    let threads = workloads::threads();
    // Before first use: the worker pool reads the level lazily, and the
    // daemon's jobs (whose `threads` knob the server clears) inherit it.
    std::env::set_var("PI_THREADS", threads.to_string());
    rayon::set_num_threads(threads);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let scratch = Scratch::new(Path::new(OUT_DIR)).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let mut tracer = Tracer::default();

    if let Some(workload) = flag(args, "--workload") {
        let mode = match flag(args, "--trace") {
            None | Some("0") => Mode::Untraced,
            Some("1") => Mode::Traced,
            Some(other) => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
        };
        let req = Request {
            workload: workload.to_string(),
            seed,
            seconds: parsed(args, "--seconds", 8.0)?,
            mode,
            quick: false,
        };
        let out = workloads::run(&req, &scratch, &mut tracer)?;
        for f in &out.failures {
            eprintln!("FAILED: {f}");
        }
        if mode == Mode::Traced {
            write_trace(&tracer)?;
        }
        println!(
            "{workload}: seed {seed}, threads {threads}, host_cores {}",
            workloads::host_cores()
        );
        println!("{}", report::result_line(&out, mode));
        return Ok(ExitCode::SUCCESS);
    }

    // The full run.
    let quick = args.iter().any(|a| a == "--quick");
    let seconds = parsed(args, "--seconds", if quick { 0.5 } else { 5.0 })?;
    let host_cores = workloads::host_cores();
    println!("pi-e2e-bench: seed {seed}, threads {threads}, host_cores {host_cores}, {seconds} s per untraced loop");
    let start = Instant::now();
    let mut runs: BTreeMap<String, Outcome> = BTreeMap::new();
    let mut over_cap = Vec::new();
    for workload in WORKLOADS {
        let t = Instant::now();
        let req = Request {
            workload: workload.to_string(),
            seed,
            seconds,
            mode: Mode::Both,
            quick,
        };
        let out = workloads::run(&req, &scratch, &mut tracer)?;
        let wall_s = t.elapsed().as_secs_f64();
        report::print_workload(workload, &out, wall_s);
        if wall_s > WORKLOAD_CAP_S {
            over_cap.push(format!(
                "{workload} took {wall_s:.1} s (cap {WORKLOAD_CAP_S} s)"
            ));
        }
        runs.insert(workload.to_string(), out);
    }
    let total_s = start.elapsed().as_secs_f64();
    write_trace(&tracer)?;
    let doc = report::report_json(&runs, seed, threads, host_cores, total_s);
    println!(
        "\n== paper_shape (informational)\n{}",
        serde_json::to_string_pretty(&doc["paper_shape"]).expect("serializes")
    );
    let report_path = format!("{OUT_DIR}/report.json");
    let text = serde_json::to_string_pretty(&doc).expect("serializes") + "\n";
    std::fs::write(&report_path, text).map_err(|e| format!("{report_path}: {e}"))?;
    println!("\nwrote {report_path} and {OUT_DIR}/trace.jsonl; total {total_s:.1} s wall");

    let mut code = 0;
    let benchmark_json =
        std::fs::read_to_string(BENCHMARK_JSON).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;
    for problem in report::check_names(&benchmark_json) {
        eprintln!("NAME MISMATCH: {problem}");
        code = 2;
    }
    if runs.values().any(|out| out.failed > 0) {
        eprintln!("FAILED: at least one op failed its correctness check");
        code = 2;
    }
    if !quick && host_cores >= 2 {
        if total_s > FULL_RUN_BUDGET_S {
            over_cap.push(format!(
                "full run took {total_s:.1} s (budget {FULL_RUN_BUDGET_S} s)"
            ));
        }
        for message in &over_cap {
            eprintln!("OVER BUDGET: {message}");
            code = 3;
        }
    }
    Ok(ExitCode::from(code))
}

fn write_trace(tracer: &Tracer) -> Result<(), String> {
    let path = format!("{OUT_DIR}/trace.jsonl");
    std::fs::write(&path, tracer.to_jsonl()).map_err(|e| format!("{path}: {e}"))
}
