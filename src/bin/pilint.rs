//! `pilint` — static-analysis front door for the pre-implemented flow.
//!
//! ```text
//! pilint archdef  <file>               lint a CNN architecture definition
//! pilint model    <file>               import + lint a model descriptor (.json/.prototxt)
//! pilint dataflow <file>               fixpoint FIFO/deadlock/rate analysis (PL04xx)
//! pilint db       <db-dir> [archdef]   lint a checkpoint database (+ coverage)
//! pilint design   <archdef> <db-dir>   run the flow's assembly, report its DRC verdict + design lints
//! pilint trace    <trace.jsonl>        lint a recorded telemetry stream
//! pilint codes                         print the lint-code registry
//! ```
//!
//! All lint commands accept `--json`, `--deny-warnings`, `--waivers FILE`,
//! `--allow CODE` / `--warn CODE` / `--deny CODE` (repeatable),
//! `--device NAME` (default `xcku5p-like`), `--block` (block granularity)
//! and `--threads N`. `archdef` parses leniently so semantic defects (a
//! corrupted shape, an orphan layer) surface as diagnostics rather than a
//! parse failure; only syntax errors abort the run.
//!
//! `dataflow` takes any importable network description (archdef, `.json`,
//! `.prototxt` — format sniffed from the extension, archdef otherwise) and
//! runs the worklist fixpoint over arrival intervals: link-FIFO occupancy
//! bounds, skew-induced deadlock risk on reconvergent joins, token-rate
//! mismatches. Links are checked against the stitcher's standard depth
//! (64); `--autosize` lints against the depths
//! `FlowConfig::with_fifo_autosize` would install instead.
//!
//! Waivers that match no finding are themselves flagged (`PL0001`) on the
//! merged report of each run.
//!
//! Exit codes follow the shared gate convention (`preimpl_cnn::exit`):
//! `0` clean, `1` the tool itself failed, `2` the lint gate tripped
//! (errors present, or warnings under `--deny-warnings`) — the same
//! contract as `flowstat diff --fail-on-regression`.

use preimpl_cnn::cli::{self, Cli, Flag};
use preimpl_cnn::exit;
use preimpl_cnn::lint::{lookup, parse_waivers, Level, LintConfig, LintEngine, LintReport};
use preimpl_cnn::prelude::*;
use std::process::ExitCode;

const USAGE: &str =
    "usage: pilint <archdef|model|dataflow|db|design|trace|codes> <inputs...> [--block] [--json] \
                     [--deny-warnings] [--waivers FILE] [--allow CODE] [--warn CODE] \
                     [--deny CODE] [--device NAME] [--threads N] [--autosize]";

const FLAGS: &[Flag] = &[
    Flag::switch("--block"),
    Flag::switch("--json"),
    Flag::switch("--deny-warnings"),
    Flag::switch("--autosize"),
    Flag::value("--waivers"),
    Flag::value("--allow"),
    Flag::value("--warn"),
    Flag::value("--deny"),
    Flag::value("--device"),
    Flag::value("--threads"),
];

fn lint_config(args: &Cli) -> Result<LintConfig, String> {
    let mut cfg = LintConfig::new().with_deny_warnings(args.switch("--deny-warnings"));
    for (flag, level) in [
        ("--allow", Level::Allow),
        ("--warn", Level::Warn),
        ("--deny", Level::Deny),
    ] {
        for code in args.values(flag) {
            if lookup(code).is_none() {
                return Err(format!("unknown lint code {code} (see `pilint codes`)"));
            }
            cfg = cfg.with_level(code.to_string(), level);
        }
    }
    if let Some(path) = args.value("--waivers") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        cfg = cfg.with_waivers(parse_waivers(&text).map_err(|e| format!("{path}: {e}"))?);
    }
    Ok(cfg)
}

fn load_network(path: &str) -> Result<Network, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    // Lenient: semantic defects become diagnostics, only syntax aborts.
    parse_archdef_lenient(&text).map_err(|e| e.to_string())
}

/// Audit waivers on the merged report (this is the outermost point of any
/// pilint run, so "used in any pass" is fully known here), then render and
/// map onto the shared exit-code convention.
fn finish(report: &mut LintReport, args: &Cli) -> Result<ExitCode, String> {
    report.audit_waivers(&lint_config(args)?);
    if args.switch("--json") {
        cli::emit(&(report.render_json() + "\n"))?;
    } else {
        cli::emit(&report.render_text())?;
    }
    if report.gate(args.switch("--deny-warnings")) {
        eprintln!("pilint: gate tripped ({})", report.summary_line());
        Ok(ExitCode::from(exit::GATE))
    } else {
        Ok(ExitCode::from(exit::CLEAN))
    }
}

fn main() -> ExitCode {
    cli::run_main(run)
}

fn run() -> Result<ExitCode, String> {
    let args = cli::parse(FLAGS, USAGE)?;
    if let Some(n) = args.threads()? {
        preimpl_cnn::flow::FlowConfig::new()
            .with_threads(n)
            .apply_parallelism();
    }
    let granularity = args.granularity();

    if args.command == "codes" {
        let mut table = String::new();
        for c in preimpl_cnn::lint::REGISTRY {
            table.push_str(&format!(
                "{}  {:<5} {:<20} {}\n",
                c.code,
                format!("{:?}", c.default).to_lowercase(),
                c.name,
                c.summary.split_whitespace().collect::<Vec<_>>().join(" ")
            ));
        }
        cli::emit(&table)?;
        return Ok(ExitCode::from(exit::CLEAN));
    }

    let engine = LintEngine::new(lint_config(&args)?);
    let obs = Obs::null();

    match args.command.as_str() {
        "archdef" => {
            let network = load_network(args.positional(0, "archdef", USAGE)?)?;
            let mut report = engine.lint_network(&network, granularity, &obs);
            finish(&mut report, &args)
        }
        "model" => {
            let path = args.positional(0, "model", USAGE)?;
            let format = preimpl_cnn::model::ModelFormat::from_path(path)
                .unwrap_or(preimpl_cnn::model::ModelFormat::Json);
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let (_, mut report) = engine.lint_model(&text, format, granularity, &obs);
            finish(&mut report, &args)
        }
        "dataflow" => {
            let path = args.positional(0, "model-or-archdef", USAGE)?;
            let format = preimpl_cnn::model::ModelFormat::from_path(path)
                .unwrap_or(preimpl_cnn::model::ModelFormat::Archdef);
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let (network, mut import_report) = engine.lint_model(&text, format, granularity, &obs);
            match network {
                // Import failed: the findings say why the dataflow pass
                // never got a graph to analyze.
                None => finish(&mut import_report, &args),
                Some(network) => {
                    let mut report = engine.lint_dataflow(
                        &network,
                        granularity,
                        args.switch("--autosize"),
                        &obs,
                    );
                    finish(&mut report, &args)
                }
            }
        }
        "db" => {
            let dir = args.positional(0, "db-dir", USAGE)?;
            let device = Device::catalog(args.device()).map_err(|e| e.to_string())?;
            let db = ComponentDb::load_dir(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
            let mut report = match args.positional.get(1) {
                Some(archdef) => {
                    let network = load_network(archdef)?;
                    engine.lint_db_for_network(&network, granularity, &db, Some(&device), &obs)
                }
                None => engine.lint_db(&db, Some(&device), &obs),
            };
            finish(&mut report, &args)
        }
        "trace" => {
            let path = args.positional(0, "trace.jsonl", USAGE)?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            // A file that is not even parseable JSONL is an operational
            // error (like an archdef syntax error), not a lint finding.
            let events = parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
            let raw = preimpl_cnn::lint::lint_trace(&events);
            let mut report = LintReport::from_raw(raw, &lint_config(&args)?);
            finish(&mut report, &args)
        }
        "design" => {
            let archdef = args.positional(0, "archdef", USAGE)?;
            let dir = args.positional(1, "db-dir", USAGE)?;
            let device = Device::catalog(args.device()).map_err(|e| e.to_string())?;
            let network = load_network(archdef)?;
            let db = ComponentDb::load_dir(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
            let mut report = engine.lint_network(&network, granularity, &obs);
            let coverage =
                engine.lint_db_for_network(&network, granularity, &db, Some(&device), &obs);
            report.merge(coverage);
            if report.errors() > 0 {
                // A broken network or database cannot be composed; report
                // what the early passes found instead of failing opaquely.
                return finish(&mut report, &args);
            }
            // The flow itself composes, routes and judges the design — at
            // the granularity the passes above used, under this run's
            // policy — so `pilint design` refuses exactly what the flow
            // would refuse.
            use preimpl_cnn::flow::{run_pre_implemented_flow, FlowConfig, FlowError};
            let cfg = FlowConfig::new()
                .with_granularity(granularity)
                .with_lint(engine.config().clone());
            match run_pre_implemented_flow(&network, &db, &device, &cfg) {
                Ok((_, flow)) => report.merge(flow.lint.expect("the config carries a policy")),
                Err(FlowError::LintFailed(r)) => report.merge(r),
                Err(FlowError::DrcFailed(violations)) => {
                    // The origin `lint_design` anchors a composed design at.
                    let base = format!("design:{}_assembled", network.name);
                    let raw = violations
                        .iter()
                        .map(|v| preimpl_cnn::lint::diagnose_violation(&base, v))
                        .collect();
                    report.merge(LintReport::from_raw(raw, engine.config()));
                }
                Err(e) => return Err(e.to_string()),
            }
            finish(&mut report, &args)
        }
        other => Err(format!("unknown command {other}\n{USAGE}")),
    }
}
