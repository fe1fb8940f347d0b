//! `flowstat` — fold recorded telemetry into deterministic run reports.
//!
//! ```text
//! flowstat summarize <trace.jsonl> [--json] [--wallclock] [--top N]
//! flowstat diff <a.jsonl> <b.jsonl> [--fail-on-regression PCT] [--json]
//! ```
//!
//! `summarize` folds one `--trace` recording (see the `preimpl`,
//! `pi-bench` and `pi-serve` binaries) into a [`RunReport`]: span profile
//! tree, counter/gauge/histogram tables and per-phase convergence traces;
//! `--top N` prints only the N hottest spans by self cost. `diff` aligns
//! two recordings by scope path and prints every metric delta; with
//! `--fail-on-regression PCT` the exit code becomes 2 when any aligned
//! metric moved by more than PCT percent (or appeared/vanished), which is
//! the CI regression gate — run against a checked-in seed trace
//! (`ci/*.seed.jsonl`) with PCT 0 it catches any drift exactly, because
//! all output is deterministic: built from seq-ordered events only,
//! timestamps ignored, so two same-seed runs summarize byte-identically
//! at any thread count. `--wallclock` appends the one non-deterministic
//! section — `wallclock*` fields such as the daemon's per-request latency
//! — which never participates in diffs or gates.

use preimpl_cnn::cli::{self, Flag};
use preimpl_cnn::prelude::*;
use std::process::ExitCode;

const USAGE: &str = "usage: flowstat <summarize|diff> <trace.jsonl> [trace-b.jsonl] \
                     [--fail-on-regression PCT] [--json] [--wallclock] [--top N]";

const FLAGS: &[Flag] = &[
    Flag::switch("--json"),
    Flag::switch("--wallclock"),
    Flag::value("--fail-on-regression"),
    Flag::value("--top"),
];

fn load_report(path: &str) -> Result<RunReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let events = parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(RunReport::from_events(&events))
}

/// The gate threshold of `--fail-on-regression PCT`, `None` when absent.
fn gate_pct(args: &cli::Cli) -> Result<Option<f64>, String> {
    match args.parsed::<f64>("--fail-on-regression", "a number")? {
        Some(pct) if !pct.is_finite() || pct < 0.0 => {
            Err("--fail-on-regression must be >= 0".to_string())
        }
        other => Ok(other),
    }
}

fn main() -> ExitCode {
    cli::run_main(run)
}

fn run() -> Result<ExitCode, String> {
    let args = cli::parse(FLAGS, USAGE)?;
    match args.command.as_str() {
        "summarize" => {
            let path = args.positional(0, "trace.jsonl", USAGE)?;
            let report = load_report(path)?;
            if let Some(top) = args.parsed::<usize>("--top", "a number")? {
                cli::emit(&report.render_top(top))?;
                return Ok(ExitCode::SUCCESS);
            }
            if args.switch("--json") {
                cli::emit(&(report.render_json() + "\n"))?;
            } else {
                cli::emit(&report.render_text())?;
                if args.switch("--wallclock") {
                    cli::emit(&report.render_wallclock())?;
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        "diff" => {
            let a_path = args.positional(0, "a.jsonl", USAGE)?.to_string();
            let b_path = args.positional(1, "b.jsonl", USAGE)?;
            let a = load_report(&a_path)?;
            let b = load_report(b_path)?;
            let diff = a.diff(&b);
            if args.switch("--json") {
                cli::emit(&(diff.render_json() + "\n"))?;
            } else {
                cli::emit(&diff.render_text())?;
            }
            if let Some(pct) = gate_pct(&args)? {
                let regressions = diff.regressions(pct);
                if !regressions.is_empty() {
                    eprintln!(
                        "flowstat: {} metrics beyond the {pct}% gate",
                        regressions.len()
                    );
                    return Ok(ExitCode::from(preimpl_cnn::exit::GATE));
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other}\n{USAGE}")),
    }
}
