//! `pi-serve` — the compile-farm daemon CLI.
//!
//! ```text
//! pi-serve serve  [--bind ADDR] [--db-dir PATH] [--db-budget-bytes N]
//!                 [--workers N] [--queue-capacity N] [--trace PATH]
//! pi-serve submit <archdef> [--addr ADDR] [--device NAME] [--seeds N]
//!                 [--block] [--build-db] [--trace PATH] [--report PATH]
//! pi-serve trace  <job-id> [--addr ADDR]
//! pi-serve stats  [--addr ADDR]
//! pi-serve metrics [--addr ADDR]
//! pi-serve health [--addr ADDR]
//! pi-serve stop   [--addr ADDR]
//! ```
//!
//! `serve` runs the daemon in the foreground (background it with `&`): it
//! owns the shared component-database cache at `--db-dir`, accepts jobs
//! over the wire protocol in `pi_serve::protocol`, coalesces identical
//! submissions, and LRU-evicts the cache past `--db-budget-bytes`. With
//! `--trace` the daemon records its own telemetry stream — one
//! `serve::request` point per finished job carrying the deterministic
//! cache counters plus a `wallclock_ms` latency field (`flowstat
//! summarize --wallclock` renders it; diffs never see it).
//!
//! `submit` is the standalone client (`preimpl --remote` wraps the same
//! call): it sends the archdef and waits for the result. `trace` prints
//! a finished job's JSONL event stream — the `trace` of its stored result
//! (feed it to `flowstat summarize` or `pilint trace`); `stats` prints
//! the daemon's queue and cache counters; `metrics` scrapes the live
//! Prometheus-text `/metrics` exposition — the same bytes a real scraper
//! would pull, so CI can validate it with no HTTP client beyond this
//! binary. `stop` asks the daemon to drain and exit. Exit codes follow
//! the shared `preimpl_cnn::exit` convention.

use pi_serve::{JobCommand, JobSpec, ServerOptions};
use preimpl_cnn::cli::{self, Cli, Flag};
use preimpl_cnn::prelude::*;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str =
    "usage: pi-serve <serve|submit|trace|stats|metrics|health|stop> [archdef|job-id] \
                     [--bind ADDR] [--addr ADDR] [--db-dir PATH] [--db-budget-bytes N] \
                     [--workers N] [--queue-capacity N] [--device NAME] [--seeds N] \
                     [--block] [--build-db] [--trace PATH] [--report PATH]";

const FLAGS: &[Flag] = &[
    Flag::switch("--block"),
    Flag::switch("--build-db"),
    Flag::value("--bind"),
    Flag::value("--addr"),
    Flag::value("--db-dir"),
    Flag::value("--db-budget-bytes"),
    Flag::value("--workers"),
    Flag::value("--queue-capacity"),
    Flag::value("--device"),
    Flag::value("--seeds"),
    Flag::value("--trace"),
    Flag::value("--report"),
];

/// Where clients look for the daemon unless told otherwise.
const DEFAULT_ADDR: &str = "127.0.0.1:7878";

fn main() -> ExitCode {
    cli::run_main(run)
}

fn addr(args: &Cli) -> &str {
    args.value("--addr").unwrap_or(DEFAULT_ADDR)
}

fn run() -> Result<ExitCode, String> {
    let args = cli::parse(FLAGS, USAGE)?;
    match args.command.as_str() {
        "serve" => {
            let mut options = ServerOptions {
                db_dir: args.value("--db-dir").map(Into::into),
                db_budget_bytes: args.parsed::<u64>("--db-budget-bytes", "a byte count")?,
                ..ServerOptions::default()
            };
            if let Some(w) = args.parsed::<usize>("--workers", "a number")? {
                if w == 0 {
                    return Err("--workers must be at least 1".to_string());
                }
                options.workers = w;
            }
            if let Some(c) = args.parsed::<usize>("--queue-capacity", "a number")? {
                if c == 0 {
                    return Err("--queue-capacity must be at least 1".to_string());
                }
                options.queue_capacity = c;
            }
            if let Some(path) = args.value("--trace") {
                let sink = FileSink::create(path).map_err(|e| format!("opening {path}: {e}"))?;
                options.obs = Obs::new(Arc::new(sink));
            }
            let bind = args.value("--bind").unwrap_or(DEFAULT_ADDR);
            let handle = pi_serve::serve(bind, options).map_err(|e| e.to_string())?;
            // The resolved address, on its own line, so scripts binding
            // `--bind 127.0.0.1:0` can read the ephemeral port back.
            println!("pi-serve listening on {}", handle.addr());
            handle.join();
            println!("pi-serve stopped");
            Ok(ExitCode::SUCCESS)
        }
        "submit" => {
            let archdef_path = args.positional(0, "archdef", USAGE)?;
            let text = std::fs::read_to_string(archdef_path)
                .map_err(|e| format!("reading {archdef_path}: {e}"))?;
            let seeds = args.parsed::<u64>("--seeds", "a number")?.unwrap_or(3);
            let cfg = FlowConfig::new()
                .with_granularity(args.granularity())
                .with_seeds(1..=seeds);
            let command = if args.switch("--build-db") {
                JobCommand::BuildDb
            } else {
                JobCommand::Compose
            };
            let spec = JobSpec::new(text, args.device(), cfg).with_command(command);
            let result =
                pi_serve::submit_and_wait(addr(&args), &spec).map_err(|e| e.to_string())?;
            cli::emit(&format!("{}\n", result.summary))?;
            cli::emit(&format!(
                "db-cache: {} hits, {} misses, {} invalidated, {} evicted ({} bytes loaded)\n",
                result.cache.hits,
                result.cache.misses,
                result.cache.invalidations,
                result.cache.evictions,
                result.cache.bytes_loaded
            ))?;
            if let Some(path) = args.value("--trace") {
                std::fs::write(path, &result.trace_jsonl)
                    .map_err(|e| format!("writing {path}: {e}"))?;
                println!("remote trace -> {path}");
            }
            if let Some(path) = args.value("--report") {
                std::fs::write(path, &result.report_text)
                    .map_err(|e| format!("writing {path}: {e}"))?;
                println!("flowstat report -> {path}");
            }
            Ok(ExitCode::SUCCESS)
        }
        "trace" => {
            let job_id = args.positional(0, "job-id", USAGE)?;
            let result = pi_serve::client::try_result(addr(&args), job_id)
                .map_err(|e| e.to_string())?
                .ok_or_else(|| format!("job {job_id} is still queued or running"))?;
            cli::emit(&result.trace_jsonl)?;
            Ok(ExitCode::SUCCESS)
        }
        "stats" => {
            let body = pi_serve::client::stats(addr(&args)).map_err(|e| e.to_string())?;
            cli::emit(&format!("{body}\n"))?;
            Ok(ExitCode::SUCCESS)
        }
        "metrics" => {
            let body = pi_serve::client::metrics(addr(&args)).map_err(|e| e.to_string())?;
            cli::emit(&body)?;
            Ok(ExitCode::SUCCESS)
        }
        "health" => {
            pi_serve::client::healthz(addr(&args)).map_err(|e| e.to_string())?;
            println!("ok");
            Ok(ExitCode::SUCCESS)
        }
        "stop" => {
            pi_serve::client::shutdown(addr(&args)).map_err(|e| e.to_string())?;
            println!("stopping");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other}\n{USAGE}")),
    }
}
