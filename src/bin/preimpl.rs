//! `preimpl` — command-line driver for the pre-implemented CNN flow.
//!
//! ```text
//! preimpl stats     <archdef>                      network statistics (Table I style)
//! preimpl build-db  <archdef> <db-dir> [--block]   pre-implement components into a DCP directory
//! preimpl compose   <archdef> <db-dir> [--block]   generate the accelerator from checkpoints
//! preimpl baseline  <archdef>          [--block]   run the traditional monolithic flow
//! preimpl floorplan <archdef> <db-dir> [--block]   render the assembled floorplan
//! preimpl devices                                  list the device catalog
//! ```
//!
//! All commands accept `--device <name>` (default `xcku5p-like`),
//! `--seeds N` (default 3), `--threads N` (worker threads for the
//! parallel regions; default: `PI_THREADS` env, else all cores),
//! `--trace <path>` (write a JSON-Lines telemetry stream of the run),
//! `--report <path>` (write the aggregated `flowstat` run report of the
//! run — see the `flowstat` binary for summarizing/diffing recorded
//! traces), `--lint` (run the `pi-lint` stage-boundary passes; adds a
//! lint summary to the output and, with `--deny-warnings`, turns any
//! warning into a gate failure — exit code 2, matching `pilint` and
//! `flowstat diff`), `--db-dir <path>` (persistent content-addressed
//! component cache: checkpoints keyed by signature + device +
//! implementation knobs are reused across runs instead of
//! re-implemented; with it, `compose` and `floorplan` need no positional
//! `<db-dir>` and build misses on demand), `--db-budget-bytes N`
//! (LRU-evict the cache beyond N bytes) and `--fifo-autosize on|off`
//! (size each stitched link FIFO from the rate model, `pi_cnn::cycles`,
//! instead of the fixed default — makes skew-heavy join topologies that
//! would trip `PL0400`/`PL0401` under `--lint` flow to completion).
//!
//! Every archdef-taking command also accepts `--model FILE` instead of
//! the positional `<archdef>`: FILE is a model descriptor (`.json` op
//! graph or `.prototxt` layer config — see `pi-model`) imported into the
//! flow, with importer findings printed as warnings and the `pi-lint`
//! graph passes (shape propagation included) run as a gate before
//! anything is built. With `--model`, `<db-dir>` becomes the first
//! positional.
//!
//! `compose` and `build-db` also accept `--remote ADDR`: instead of
//! running locally, the job (archdef or descriptor text + full
//! serialized config) is submitted to a `pi-serve` compile farm at ADDR,
//! which builds off its shared component cache; `--trace`/`--report`
//! then write the trace and report the daemon returned. Run `cargo run
//! --release --bin preimpl -- <cmd>`.

use pi_serve::{JobCommand, JobSpec};
use preimpl_cnn::cli::{self, Cli, Flag};
use preimpl_cnn::cnn::graph::Granularity;
use preimpl_cnn::prelude::*;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: preimpl <stats|build-db|compose|baseline|floorplan|devices> \
                     <archdef> [db-dir] [--model FILE] [--device NAME] [--seeds N] [--threads N] \
                     [--block] [--lint] [--deny-warnings] [--trace PATH] [--report PATH] \
                     [--db-dir PATH] [--db-budget-bytes N] [--remote ADDR] \
                     [--router-max-iters N] [--fifo-autosize on|off]";

const FLAGS: &[Flag] = &[
    Flag::switch("--block"),
    Flag::switch("--lint"),
    Flag::switch("--deny-warnings"),
    Flag::value("--model"),
    Flag::value("--device"),
    Flag::value("--seeds"),
    Flag::value("--threads"),
    Flag::value("--trace"),
    Flag::value("--report"),
    Flag::value("--db-dir"),
    Flag::value("--db-budget-bytes"),
    Flag::value("--remote"),
    Flag::value("--router-max-iters"),
    Flag::value("--fifo-autosize"),
];

fn main() -> ExitCode {
    cli::run_main(run)
}

/// Render a lint-gate failure and map it onto the shared exit convention;
/// every other flow error stays an operational error.
fn lint_gate_exit(e: preimpl_cnn::flow::FlowError) -> Result<ExitCode, String> {
    if let preimpl_cnn::flow::FlowError::LintFailed(report) = e {
        print!("{}", report.render_text());
        eprintln!("preimpl: lint gate tripped ({})", report.summary_line());
        Ok(ExitCode::from(preimpl_cnn::exit::GATE))
    } else {
        Err(e.to_string())
    }
}

fn run() -> Result<ExitCode, String> {
    let args = cli::parse(FLAGS, USAGE)?;
    if args.command == "devices" {
        for name in ["xcku5p-like", "xcku060-like", "test-part"] {
            let d = Device::catalog(name).map_err(|e| e.to_string())?;
            let t = d.totals();
            println!(
                "{name:<14} {} cols x {} rows, {} LUTs, {} FFs, {} BRAMs, {} DSPs",
                d.cols(),
                d.rows(),
                t.luts,
                t.ffs,
                t.brams,
                t.dsps
            );
        }
        return Ok(ExitCode::SUCCESS);
    }

    let device = Device::catalog(args.device()).map_err(|e| e.to_string())?;
    let granularity = args.granularity();
    // One frontend for every dialect; a positional descriptor is an archdef.
    let (path, format) = match args.value("--model") {
        Some(path) => (
            path,
            ModelFormat::from_path(path).unwrap_or(ModelFormat::Json),
        ),
        None => (args.positional(0, "archdef", USAGE)?, ModelFormat::Archdef),
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let import = preimpl_cnn::model::import(&text, format).map_err(|e| format!("{path}: {e}"))?;
    for f in &import.findings {
        eprintln!("preimpl: warning[{}] {}: {}", f.code, f.origin, f.message);
    }
    let network = import.network;
    // Imported graphs pass the lint shape-propagation gate before the
    // flow sees them; archdefs keep their opt-in `--lint` behavior.
    if format != ModelFormat::Archdef {
        let engine = preimpl_cnn::lint::LintEngine::new(preimpl_cnn::lint::LintConfig::new());
        let report = engine.lint_network(&network, granularity, &preimpl_cnn::obs::Obs::null());
        if report.errors() > 0 {
            print!("{}", report.render_text());
            eprintln!("preimpl: model gate tripped ({})", report.summary_line());
            return Ok(ExitCode::from(preimpl_cnn::exit::GATE));
        }
    }

    if let Some(addr) = args.value("--remote") {
        return run_remote(addr, &args, &text, format, granularity);
    }

    match args.command.as_str() {
        "stats" => {
            let stats = network.stats().map_err(|e| e.to_string())?;
            println!("network {}", network.name);
            println!("  conv layers : {:>12}", stats.conv_layers);
            println!("  conv weights: {:>12}", stats.conv_weights);
            println!("  conv MACs   : {:>12}", stats.conv_macs);
            println!("  fc layers   : {:>12}", stats.fc_layers);
            println!("  fc weights  : {:>12}", stats.fc_weights);
            println!("  fc MACs     : {:>12}", stats.fc_macs);
            println!(
                "  total       : {:>12} weights, {} MACs",
                stats.total_weights(),
                stats.total_macs()
            );
            if args.switch("--lint") {
                let engine = preimpl_cnn::lint::LintEngine::new(
                    preimpl_cnn::lint::LintConfig::new()
                        .with_deny_warnings(args.switch("--deny-warnings")),
                );
                let report =
                    engine.lint_network(&network, granularity, &preimpl_cnn::obs::Obs::null());
                println!("{}", report.summary_line());
                if report.gate(args.switch("--deny-warnings")) {
                    return Ok(ExitCode::from(preimpl_cnn::exit::GATE));
                }
            }
            println!("\ncomponents ({granularity:?} granularity):");
            for c in network.components(granularity).map_err(|e| e.to_string())? {
                println!("  {:<40} {} -> {}", c.name, c.input_shape, c.output_shape);
            }
            Ok(ExitCode::SUCCESS)
        }
        "build-db" => {
            let dir = db_dir(&args)?;
            let cfg = config(&args, granularity)?;
            let t = std::time::Instant::now();
            let (db, reports, stats) = match build_component_db_cached(&network, &device, &cfg) {
                Ok(v) => v,
                Err(e) => return lint_gate_exit(e),
            };
            db.save_dir(&dir).map_err(|e| e.to_string())?;
            println!(
                "built {} checkpoints in {:.1} s -> {}",
                db.len(),
                t.elapsed().as_secs_f64(),
                dir.display()
            );
            if args.value("--db-dir").is_some() {
                print!("{}", db_cache_line(&stats));
            }
            for r in &reports {
                println!(
                    "  {:<40} {:6.0} MHz  {:6} LUTs {:4} DSPs",
                    r.name, r.fmax_mhz, r.resources.luts, r.resources.dsps
                );
            }
            maybe_write_report(&args, &cfg)?;
            Ok(ExitCode::SUCCESS)
        }
        "compose" | "floorplan" => {
            let cfg = config(&args, granularity)?;
            // With a persistent cache, the positional checkpoint directory
            // is optional: misses are built on demand and persisted. The
            // plain form still loads a directory produced by `build-db`.
            let (db, stats) = if args.value("--db-dir").is_some() {
                let (db, _, stats) = match build_component_db_cached(&network, &device, &cfg) {
                    Ok(v) => v,
                    Err(e) => return lint_gate_exit(e),
                };
                (db, Some(stats))
            } else {
                let dir = db_dir(&args)?;
                (
                    ComponentDb::load_dir(&dir).map_err(|e| e.to_string())?,
                    None,
                )
            };
            let (design, report) = match run_pre_implemented_flow(&network, &db, &device, &cfg) {
                Ok(v) => v,
                Err(e) => return lint_gate_exit(e),
            };
            if args.command == "floorplan" {
                println!(
                    "{}",
                    preimpl_cnn::pnr::report::floorplan_sketch(&design, &device, 96)
                );
            } else {
                // Deterministic line first (the warm/cold CI smoke compares
                // these byte-for-byte), wall-clock on its own line after.
                println!("{}", report.summary_line(&design));
                if let Some(lint) = &report.lint {
                    println!("{}", lint.summary_line());
                }
                if let Some(stats) = &stats {
                    print!("{}", db_cache_line(stats));
                }
                println!(
                    "timing: generated in {:.1} ms (stitch share {:.0}%)",
                    report.total_time().as_secs_f64() * 1000.0,
                    report.stitch_share() * 100.0
                );
                print!(
                    "{}",
                    preimpl_cnn::pnr::report::utilization_table(&design.resources(), &device)
                );
                print!(
                    "{}",
                    preimpl_cnn::pnr::report::routing_summary(&report.compile.route_stats)
                );
            }
            maybe_write_report(&args, &cfg)?;
            Ok(ExitCode::SUCCESS)
        }
        "baseline" => {
            let cfg = config(&args, granularity)?;
            let (design, report) = match run_baseline_flow(&network, &device, &cfg) {
                Ok(v) => v,
                Err(e) => return lint_gate_exit(e),
            };
            println!(
                "baseline {}: Fmax {:.0} MHz, implemented in {:.2} s",
                design.name,
                report.compile.timing.fmax_mhz,
                report.total_time().as_secs_f64()
            );
            print!(
                "{}",
                preimpl_cnn::pnr::report::utilization_table(&design.resources(), &device)
            );
            maybe_write_report(&args, &cfg)?;
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other}\n{USAGE}")),
    }
}

/// Ship the job to a `pi-serve` compile farm and render what came back.
/// The config sent over the wire carries the flow knobs only — sinks and
/// captures are process-local, and the daemon overrides the cache knobs
/// with its own (`JobSpec::normalized`), so `--db-dir` here is pointless
/// but harmless.
fn run_remote(
    addr: &str,
    args: &Cli,
    archdef_text: &str,
    format: ModelFormat,
    granularity: Granularity,
) -> Result<ExitCode, String> {
    let command = match args.command.as_str() {
        "compose" => JobCommand::Compose,
        "build-db" => JobCommand::BuildDb,
        other => {
            return Err(format!(
                "--remote supports compose and build-db, not {other}"
            ))
        }
    };
    let cfg = wire_config(args, granularity)?;
    let spec = JobSpec::new(archdef_text, args.device(), cfg)
        .with_command(command)
        .with_format(format);
    // With `--report`, splice the job's event stream under a local
    // `serve:request` span: the written report is then one unified call
    // tree spanning both processes.
    let (result, spliced) = if args.value("--report").is_some() {
        let (result, events) =
            pi_serve::submit_and_wait_traced(addr, &spec).map_err(|e| e.to_string())?;
        (result, Some(events))
    } else {
        let result = pi_serve::submit_and_wait(addr, &spec).map_err(|e| e.to_string())?;
        (result, None)
    };
    cli::emit(&format!("{}\n", result.summary))?;
    print!("{}", db_cache_line(&result.cache));
    if let Some(path) = args.value("--trace") {
        std::fs::write(path, &result.trace_jsonl).map_err(|e| format!("writing {path}: {e}"))?;
        println!("remote trace -> {path}");
    }
    if let Some(path) = args.value("--report") {
        let events = spliced.expect("--report path takes the traced call");
        let report = RunReport::from_events(&events);
        std::fs::write(path, report.render_text()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("flowstat report -> {path}");
    }
    Ok(ExitCode::SUCCESS)
}

/// The uniform cache-interaction line every cache-aware path prints.
fn db_cache_line(stats: &preimpl_cnn::flow::DbCacheStats) -> String {
    format!(
        "db-cache: {} hits, {} misses, {} invalidated, {} evicted ({} bytes loaded)\n",
        stats.hits, stats.misses, stats.invalidations, stats.evictions, stats.bytes_loaded
    )
}

fn db_dir(args: &Cli) -> Result<PathBuf, String> {
    // With `--model` there is no positional archdef, so db-dir shifts up.
    let idx = if args.value("--model").is_some() {
        0
    } else {
        1
    };
    args.positional(idx, "db-dir", USAGE).map(PathBuf::from)
}

fn seeds(args: &Cli) -> Result<u64, String> {
    Ok(args.parsed::<u64>("--seeds", "a number")?.unwrap_or(3))
}

/// The flow knobs shared by the local and remote paths (everything that
/// crosses the wire in `FlowConfig::to_json`).
fn wire_config(args: &Cli, granularity: Granularity) -> Result<FlowConfig, String> {
    let mut cfg = FlowConfig::new()
        .with_granularity(granularity)
        .with_seeds(1..=seeds(args)?);
    if let Some(n) = args.parsed::<usize>("--router-max-iters", "a number")? {
        if n == 0 {
            return Err("--router-max-iters must be at least 1".into());
        }
        cfg.route.max_iters = n;
    }
    if args.switch("--lint") {
        cfg = cfg.with_lint(
            preimpl_cnn::lint::LintConfig::new().with_deny_warnings(args.switch("--deny-warnings")),
        );
    }
    if let Some(v) = args.value("--fifo-autosize") {
        cfg = cfg.with_fifo_autosize(on_off(v, "--fifo-autosize")?);
    }
    Ok(cfg)
}

fn on_off(v: &str, flag: &str) -> Result<bool, String> {
    match v {
        "on" => Ok(true),
        "off" => Ok(false),
        other => Err(format!("{flag} expects on|off, got {other:?}")),
    }
}

fn config(args: &Cli, granularity: Granularity) -> Result<FlowConfig, String> {
    let mut cfg = wire_config(args, granularity)?;
    if let Some(threads) = args.threads()? {
        cfg = cfg.with_threads(threads);
    }
    if let Some(path) = args.value("--trace") {
        let sink = FileSink::create(path).map_err(|e| format!("opening {path}: {e}"))?;
        cfg = cfg.with_sink(Arc::new(sink));
    }
    if let Some(dir) = args.value("--db-dir") {
        cfg = cfg.with_db_dir(dir);
    }
    if let Some(bytes) = args.parsed::<u64>("--db-budget-bytes", "a byte count")? {
        cfg = cfg.with_db_budget_bytes(bytes);
    }
    if args.value("--report").is_some() {
        // Installed after the sink so the capture tees the same stream the
        // `--trace` file records.
        cfg = cfg.with_report_capture();
    }
    Ok(cfg)
}

/// Write the aggregated run report when `--report` was given. Call after
/// the flow so the capture has seen the whole run.
fn maybe_write_report(args: &Cli, cfg: &FlowConfig) -> Result<(), String> {
    let Some(path) = args.value("--report") else {
        return Ok(());
    };
    let report = cfg
        .run_report()
        .expect("--report installs a capture in config()");
    std::fs::write(path, report.render_text()).map_err(|e| format!("writing {path}: {e}"))?;
    println!("flowstat report -> {path}");
    Ok(())
}
