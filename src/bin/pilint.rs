//! `pilint` — static-analysis front door for the pre-implemented flow.
//!
//! ```text
//! pilint archdef  <file>                      lint a CNN architecture definition
//! pilint model    <file>                      import + lint a model descriptor (.json/.prototxt)
//! pilint db       [archdef] --db-dir PATH     lint a component database (+ the network and its coverage)
//! pilint design   <archdef> --db-dir PATH     run the flow's assembly, report its DRC verdict + design lints
//! pilint trace    <trace.jsonl>               lint a recorded telemetry stream
//! pilint codes                                print the lint-code registry
//! ```
//!
//! All lint commands accept `--json`, `--deny-warnings`, `--waivers FILE`,
//! `--allow CODE` / `--warn CODE` / `--deny CODE` (repeatable),
//! `--device NAME` (default `xcku5p-like`), `--block` (block granularity)
//! and `--threads N`. `archdef` and `model` read leniently, so every
//! defect the network judge (`Network::defects`) finds in the graph — a
//! corrupted shape, an orphan layer — surfaces as a `PL0201`–`PL0205`
//! diagnostic rather than a parse failure, whatever the descriptor format;
//! only syntax errors abort the run.
//!
//! `db` and `design` read the component database `preimpl --db-dir`
//! writes, through the same verified lookup the flow uses: every entry is
//! hashed against its manifest row before it is linted, and one that fails
//! is quarantined, named on stderr and left out of the lint. Reading is a
//! lookup, so it touches each entry's LRU recency. Entries with one
//! signature (built for other devices or knobs) collapse to the last in
//! key order. A `--db-dir` that holds no `manifest.json` (missing, or
//! not a cache) is an error, not an empty database, and is left as it
//! was.
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
use preimpl_cnn::stitch::{CacheLookup, MANIFEST_FILE};
use std::process::ExitCode;

const USAGE: &str = "usage: pilint <archdef|model|db|design|trace|codes> <input> [--db-dir PATH] \
                     [--block] [--json] [--deny-warnings] [--waivers FILE] [--allow CODE] \
                     [--warn CODE] [--deny CODE] [--device NAME] [--threads N]";

const FLAGS: &[Flag] = &[
    Flag::switch("--block"),
    Flag::switch("--json"),
    Flag::switch("--deny-warnings"),
    Flag::value("--waivers"),
    Flag::value("--allow"),
    Flag::value("--warn"),
    Flag::value("--deny"),
    Flag::value("--device"),
    Flag::value("--threads"),
    Flag::value("--db-dir"),
];

/// `codes` takes nothing, every other subcommand one input (optional for
/// `db`).
fn positionals(args: &Cli) -> usize {
    usize::from(args.command != "codes")
}

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

/// The `--db-dir` component database: every entry that passes the cache's
/// hash check, in key order; one that fails is quarantined and reported.
fn load_db(args: &Cli) -> Result<ComponentDb, String> {
    let dir = args
        .value("--db-dir")
        .ok_or_else(|| format!("missing --db-dir PATH\n{USAGE}"))?;
    // `DbCache::open` creates what is missing, so a path without a
    // manifest (absent, or a plain directory of checkpoints) is refused
    // before it is opened.
    if !std::path::Path::new(dir).join(MANIFEST_FILE).is_file() {
        return Err(format!(
            "{dir}: no component database there (no {MANIFEST_FILE})"
        ));
    }
    let obs = Obs::null();
    let mut cache = DbCache::open(dir, &obs).map_err(|e| format!("{dir}: {e}"))?;
    let entries: Vec<(String, String)> = cache
        .keys()
        .map(|k| {
            (
                k.to_string(),
                cache.signature_of(k).unwrap_or("").to_string(),
            )
        })
        .collect();
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    let mut db = ComponentDb::new();
    for ((key, signature), lookup) in entries.iter().zip(cache.lookup_all(&keys, &obs)) {
        match lookup {
            CacheLookup::Hit { checkpoint, .. } => db.insert(*checkpoint),
            CacheLookup::Invalidated { reason } => {
                eprintln!("pilint: quarantined {signature} (key {key}): {reason}, not linted")
            }
            CacheLookup::Miss => {}
        }
    }
    Ok(db)
}

fn load_network(path: &str) -> Result<Network, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    // Lenient: semantic defects become diagnostics, only syntax aborts.
    parse_archdef_lenient(&text).map_err(|e| e.to_string())
}

/// The network's graph pass, then the database and its coverage of the
/// network: coverage is computed over the network's components, so a
/// network the judge rejects is explained by the graph pass, not passed
/// over in silence.
fn lint_network_db(
    engine: &LintEngine,
    network: &Network,
    granularity: Granularity,
    db: &ComponentDb,
    device: &Device,
) -> Result<LintReport, String> {
    let obs = Obs::null();
    let mut report = engine.lint_network(network, granularity, &obs);
    let coverage = engine
        .lint_db_for_network(network, granularity, db, device, &obs)
        .map_err(|e| e.to_string())?;
    report.merge(coverage);
    Ok(report)
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
    let args = cli::parse(FLAGS, positionals, USAGE)?;
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
        "db" => {
            let device = Device::catalog(args.device()).map_err(|e| e.to_string())?;
            let db = load_db(&args)?;
            let mut report = match args.positional.first() {
                Some(archdef) => {
                    let network = load_network(archdef)?;
                    lint_network_db(&engine, &network, granularity, &db, &device)?
                }
                None => engine
                    .lint_db(&db, &device, &obs)
                    .map_err(|e| e.to_string())?,
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
            let device = Device::catalog(args.device()).map_err(|e| e.to_string())?;
            let network = load_network(archdef)?;
            let db = load_db(&args)?;
            let mut report = lint_network_db(&engine, &network, granularity, &db, &device)?;
            if report.errors() > 0 {
                // A broken network or database cannot be composed; report
                // what the early passes found instead of failing opaquely.
                return finish(&mut report, &args);
            }
            // The flow itself composes, routes and judges the design — at
            // the granularity the passes above used — so `pilint design`
            // refuses exactly what the flow would refuse, then lints the
            // design it returns.
            use preimpl_cnn::flow::{run_pre_implemented_flow, FlowConfig, FlowError};
            let cfg = FlowConfig::new().with_granularity(granularity);
            match run_pre_implemented_flow(&network, &db, &device, &cfg) {
                Ok((design, _)) => report.merge(engine.lint_design(&design, &obs)),
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
