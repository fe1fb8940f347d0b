//! The five workloads. Each one sets up (timed as `setup_s`), then either
//! measures a closed loop of ops for the requested seconds with tracing
//! off, or replays one op stage by stage at one thread for the per-layer
//! numbers — or both, sharing the set-up, in the full run.
//!
//! Load shape, all workloads: one process, closed loop, `threads =
//! min(2, cores)`, device `xcku5p_like`, every input derived from
//! `--seed`. Only calls into the program are timed; the oracle checks run
//! between ops, off the clock.

use crate::metrics::{self, Values};
use crate::oracle;
use crate::replay::Replay;
use crate::trace::Tracer;
use crate::zoo::{self, Net};
use pi_cnn::Network;
use pi_fabric::Device;
use pi_flow::{
    build_component_db_cached, run_baseline_flow, run_pre_implemented_flow, DbCacheStats,
    FlowConfig, PreImplReport,
};
use pi_netlist::Design;
use pi_obs::{MemorySink, Obs};
use pi_stitch::ComponentDb;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `--trace 0`: end-to-end metrics only.
    Untraced,
    /// `--trace 1`: per-layer metrics only.
    Traced,
    /// The full run: untraced loop, then the traced replay, one set-up.
    Both,
}

impl Mode {
    pub fn untraced(self) -> bool {
        self != Mode::Traced
    }

    pub fn traced(self) -> bool {
        self != Mode::Untraced
    }
}

pub struct Request {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub mode: Mode,
    /// LeNet stands in for every network (name validation only).
    pub quick: bool,
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// First few oracle / flow failures, for the log.
    pub failures: Vec<String>,
    pub end_to_end: Values,
    pub per_layer: Values,
    /// Timed samples behind `e2e_s`, and the percentile `e2e_tail_s` is.
    pub samples: usize,
    pub tail_percentile: f64,
    /// Sum over the designs one op delivers (0 is the goal; VGG-16 is 2
    /// today).
    pub overused_tiles: u64,
    /// Per network `(fmax_mhz, median seconds)` of the delivered designs
    /// (`assemble_zoo`, `flat_zoo`), for the paper-shape block.
    pub per_network: BTreeMap<String, (f64, f64)>,
    /// Self seconds per layer span of the replayed op, largest first.
    pub layer_shares: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Count one checked op; it failed if the oracle returned anything.
    pub(crate) fn record(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        self.failed += u64::from(!failures.is_empty());
        let room = 8usize.saturating_sub(self.failures.len());
        self.failures.extend(failures.into_iter().take(room));
    }
}

/// Scratch directory under `benchmark/out/`, unique to this process and
/// removed when the run ends.
pub struct Scratch {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

impl Scratch {
    pub fn new(out: &Path) -> std::io::Result<Scratch> {
        let root = out.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    /// A path for a new, not yet existing directory.
    pub fn fresh(&self, label: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(format!("{label}-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Threads every workload runs at: numbers are comparable only between
/// hosts that report the same value.
pub fn threads() -> usize {
    host_cores().min(2)
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

const LIGHT_SETUP_REPS: usize = 5;

/// Seeded Fisher-Yates. The order in which a sweep visits the zoo is the
/// input `--seed` draws for the sweep workloads.
pub(crate) fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// What every workload starts from.
pub(crate) struct Bench<'a> {
    pub req: &'a Request,
    /// When the run started: `setup_s` counts from here.
    pub started: Instant,
    pub device: Device,
    pub device_build_ms: f64,
    pub scratch: &'a Scratch,
}

impl Bench<'_> {
    /// Heavy set-up is over: `setup_s` is everything since the start.
    pub fn setup_done(&self, out: &mut Outcome) {
        out.end_to_end
            .set("setup_s", self.started.elapsed().as_secs_f64());
    }

    pub fn nets(&self, all: Vec<Net>) -> Vec<Net> {
        if self.req.quick {
            vec![zoo::lenet()]
        } else {
            all
        }
    }

    /// Set-up of the workloads that prepare nothing heavy: build the
    /// device, warm up with a LeNet cold build and assembly (so lazy
    /// worker-pool creation and first-touch allocation are not timed
    /// later), then `prepare` the inputs. Run [`LIGHT_SETUP_REPS`] times
    /// with `setup_s` their median: one ~0.4 s sample doubles with
    /// process start-up effects.
    fn light_setup<T>(
        &self,
        out: &mut Outcome,
        mut prepare: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let mut times = Vec::new();
        loop {
            let t = Instant::now();
            let device = std::hint::black_box(Device::xcku5p_like());
            let net = zoo::lenet();
            let (network, cfg) = (net.import()?, net.config());
            let (db, _, _) = build_component_db_cached(&network, &device, &cfg).map_err(err)?;
            run_pre_implemented_flow(&network, &db, &device, &cfg).map_err(err)?;
            let prepared = prepare()?;
            times.push(t.elapsed().as_secs_f64());
            if times.len() == if self.req.quick { 1 } else { LIGHT_SETUP_REPS } {
                out.end_to_end.set("setup_s", metrics::median(&times));
                return Ok(prepared);
            }
        }
    }
}

pub(crate) fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Wall and CPU seconds spent inside the program during one op, plus
/// what the op delivered and what the oracle objected to.
#[derive(Default)]
struct OpLog {
    wall_s: f64,
    cpu_s: f64,
    /// `(fmax_mhz, frame_ms, overused_tiles)` per delivered design.
    designs: Vec<(f64, f64, u64)>,
    failures: Vec<String>,
}

impl OpLog {
    fn timed<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (cpu0, t0) = (metrics::cpu_seconds(), Instant::now());
        let out = f();
        self.wall_s += t0.elapsed().as_secs_f64();
        self.cpu_s += metrics::cpu_seconds() - cpu0;
        out
    }

    fn delivered(&mut self, report: &PreImplReport) {
        self.designs.push((
            report.compile.timing.fmax_mhz,
            report.latency.frame_ms,
            report.compile.route_stats.overused_tiles as u64,
        ));
    }
}

/// Run `op` in a closed loop until `seconds` have passed (at least once)
/// and fold the logs into the end-to-end metrics.
fn closed_loop(out: &mut Outcome, seconds: f64, mut op: impl FnMut(&mut OpLog)) {
    let start = Instant::now();
    let mut logs: Vec<OpLog> = Vec::new();
    while logs.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut log = OpLog::default();
        op(&mut log);
        logs.push(log);
    }
    let samples: Vec<f64> = logs.iter().map(|l| l.wall_s).collect();
    let cpu: f64 = logs.iter().map(|l| l.cpu_s).sum();
    let busy: f64 = samples.iter().sum();
    fold_end_to_end(out, &samples, metrics::median(&samples), busy, cpu);
    // Every op delivers the same designs: the quality metrics are those
    // of one op, so they do not depend on how many ops the time allowed.
    let (fmax, frame): (Vec<f64>, Vec<f64>) = logs[0].designs.iter().map(|d| (d.0, d.1)).unzip();
    fold_quality(out, &fmax, &frame);
    out.overused_tiles = logs[0].designs.iter().map(|d| d.2).sum();
    for log in logs {
        out.record(log.failures);
    }
}

pub(crate) fn fold_end_to_end(
    out: &mut Outcome,
    samples: &[f64],
    centre: f64,
    makespan: f64,
    cpu: f64,
) {
    let n = samples.len() as f64;
    let (tail, percentile) = metrics::tail(samples, centre);
    out.samples = samples.len();
    out.tail_percentile = percentile;
    out.end_to_end.set("e2e_s", centre);
    out.end_to_end.set("e2e_tail_s", tail);
    out.end_to_end
        .set("jobs_per_s", metrics::ratio(n, makespan));
    out.end_to_end.set("cpu_s_per_op", metrics::ratio(cpu, n));
}

pub(crate) fn fold_quality(out: &mut Outcome, fmax: &[f64], frame_ms: &[f64]) {
    out.end_to_end.set("fmax_mhz", metrics::geomean(fmax));
    // The delivered accelerators' throughput: the modelled per-frame
    // latency (Fmax and inserted pipeline stages) as a rate.
    out.end_to_end
        .set("frames_per_s", 1e3 / metrics::geomean(frame_ms));
}

/// What a replayed descriptor-to-design op hands to its probes.
struct Assembled {
    network: Network,
    db: ComponentDb,
    design: Design,
    report: PreImplReport,
}

/// The traced run's working set: spans, counts and the telemetry sink
/// the replayed program writes to.
pub(crate) struct Traced<'a> {
    pub tr: &'a mut Tracer,
    pub counts: Values,
    sink: Arc<MemorySink>,
    obs: Obs,
    /// Root spans of the replayed ops and of the probes run after them.
    pub ops: Vec<usize>,
    probes: Vec<usize>,
    /// Seconds the same ops took through the program's own entry points,
    /// untraced (no spans, no sink): the base of
    /// `obs.trace_overhead_ratio`.
    pub reference_s: f64,
}

impl<'a> Traced<'a> {
    pub fn new(tr: &'a mut Tracer) -> Self {
        let sink = Arc::new(MemorySink::new());
        Traced {
            tr,
            counts: Values::default(),
            obs: Obs::new(sink.clone()),
            sink,
            ops: Vec::new(),
            probes: Vec::new(),
            reference_s: 0.0,
        }
    }

    /// For the replays that run inside this process: one thread, so that
    /// layer times add up to the op's wall time. [`Traced::finish`]
    /// restores the level.
    fn single_threaded(tr: &'a mut Tracer) -> Self {
        rayon::set_num_threads(1);
        Traced::new(tr)
    }

    /// Run `f` under a new root span named `name`; returns the root.
    fn rooted<T>(
        &mut self,
        name: &'static str,
        device: &Device,
        f: impl FnOnce(&mut Replay) -> Result<T, String>,
    ) -> (usize, Result<T, String>) {
        let root = self.tr.open(name);
        let out = f(&mut Replay {
            tr: &mut *self.tr,
            counts: &mut self.counts,
            obs: &self.obs,
            device,
        });
        self.tr.close(root);
        (root, out)
    }

    /// Replay one op under a root span; `label` becomes the op id.
    fn op<T>(
        &mut self,
        label: String,
        device: &Device,
        f: impl FnOnce(&mut Replay) -> Result<T, String>,
    ) -> Result<T, String> {
        self.tr.set_op(label);
        let (root, out) = self.rooted("op", device, f);
        self.ops.push(root);
        out
    }

    /// Stage calls made after an op to time what only runs inside one of
    /// its public functions; recorded under their own root, outside
    /// every op.
    fn probe<T>(
        &mut self,
        device: &Device,
        f: impl FnOnce(&mut Replay) -> Result<T, String>,
    ) -> Result<T, String> {
        let (root, out) = self.rooted("probe", device, f);
        self.probes.push(root);
        out
    }

    /// The probes after a replayed descriptor-to-design op: the assembly
    /// stages and the serialization layer.
    fn probe_assembled(
        &mut self,
        device: &Device,
        cfg: &FlowConfig,
        a: Assembled,
    ) -> Result<PreImplReport, String> {
        self.probe(device, |r| {
            r.probe_assembly(&a.network, &a.db, cfg, &a.design, &a.report)
                .map_err(err)?;
            r.probe_checkpoints(&a.db).map_err(err)
        })?;
        Ok(a.report)
    }

    /// Time one op through the program's own entry points.
    fn reference<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let t = Instant::now();
        let out = f()?;
        self.reference_s += t.elapsed().as_secs_f64();
        Ok(out)
    }

    /// Fold spans and counts into the per-layer metrics.
    pub fn finish(self, out: &mut Outcome, device_build_ms: f64) {
        rayon::set_num_threads(threads());
        let mut selfs: BTreeMap<&'static str, f64> = BTreeMap::new();
        let (mut op_s, mut uncovered_s) = (0.0, 0.0);
        for &root in &self.ops {
            op_s += self.tr.spans[root].seconds();
            for (name, s) in self.tr.self_times(root) {
                if name == "op" {
                    uncovered_s += s;
                } else {
                    *selfs.entry(name).or_insert(0.0) += s;
                }
            }
        }
        let mut shares: Vec<(&'static str, f64)> = selfs.iter().map(|(k, v)| (*k, *v)).collect();
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        out.layer_shares = shares;
        for &root in &self.probes {
            for (name, s) in self.tr.self_times(root) {
                if name != "probe" {
                    *selfs.entry(name).or_insert(0.0) += s;
                }
            }
        }
        let v = &mut out.per_layer;
        for (name, unit) in metrics::PER_LAYER {
            v.set(name, self.counts.get(name));
            let scale = match unit {
                "s" => 1.0,
                "ms" => 1e3,
                "us" => 1e6,
                _ => continue,
            };
            let stem = name.strip_suffix(&format!("_{unit}")).unwrap_or(name);
            if let Some(t) = selfs.get(stem) {
                v.set(name, t * scale);
            }
        }
        let c = &self.counts;
        v.set("fabric.device_build_ms", device_build_ms);
        v.set(
            "flow.seed_useful_ratio",
            metrics::ratio(c.get(crate::replay::SEEDS_KEPT), c.get("flow.seeds_tried")),
        );
        v.set(
            "pnr.anneal_accept_ratio",
            metrics::ratio(c.get("pnr.anneal_accepted"), c.get("pnr.anneal_moves")),
        );
        v.set(
            "pnr.anneal_moves_per_s",
            metrics::ratio(c.get("pnr.anneal_moves"), v.get("pnr.place_module_s")),
        );
        v.set(
            "pnr.expansions_per_s",
            metrics::ratio(c.get("pnr.astar_expansions"), v.get("pnr.route_module_s")),
        );
        v.set(
            "stitch.cache_lookup_mb_per_s",
            metrics::ratio(
                c.get("stitch.cache_bytes_loaded") / 1e6,
                v.get("stitch.cache_lookup_s"),
            ),
        );
        v.set("obs.replay_op_s", op_s);
        v.set("obs.reference_op_s", self.reference_s);
        v.set(
            "obs.trace_overhead_ratio",
            metrics::ratio(op_s - self.reference_s, self.reference_s),
        );
        v.set(
            "obs.layer_coverage_ratio",
            1.0 - metrics::ratio(uncovered_s, op_s),
        );
        v.set("obs.events_per_op", self.sink.len() as f64);
    }
}

/// Run one workload. `tracer` collects the traced run's spans (the
/// caller writes them out).
pub fn run(req: &Request, scratch: &Scratch, tracer: &mut Tracer) -> Result<Outcome, String> {
    let started = Instant::now();
    let device = Device::xcku5p_like();
    let bench = Bench {
        req,
        started,
        device_build_ms: started.elapsed().as_secs_f64() * 1e3,
        device,
        scratch,
    };
    let workload = match req.workload.as_str() {
        "cold_vgg16" => cold_vgg16,
        "warm_zoo" => warm_zoo,
        "assemble_zoo" => assemble_zoo,
        "flat_zoo" => flat_zoo,
        "serve_mix" => crate::serve_mix::run,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let mut out = Outcome::default();
    workload(&bench, tracer, &mut out)?;
    Ok(out)
}

/// One network of the zoo, imported and pre-implemented cold in set-up.
pub(crate) struct Prepared {
    pub net: Net,
    pub network: Network,
    pub cfg: FlowConfig,
    pub db: ComponentDb,
    /// `deterministic_summary` of the design the cold build assembled —
    /// what every warm, in-memory and served run must reproduce.
    pub cold_summary: String,
    pub fmax_mhz: f64,
}

/// Import every network, pre-implement it cold (into `db_dir` when
/// given), assemble once, and run the oracle over the result.
pub(crate) fn prepare_zoo(
    device: &Device,
    nets: Vec<Net>,
    db_dir: Option<&Path>,
    out: &mut Outcome,
) -> Result<Vec<Prepared>, String> {
    let mut zoo = Vec::new();
    for net in nets {
        let network = net.import()?;
        let mut cfg = net.config();
        if let Some(dir) = db_dir {
            cfg = cfg.with_db_dir(dir);
        }
        let (db, _, stats) = build_component_db_cached(&network, device, &cfg).map_err(err)?;
        let (design, report) =
            run_pre_implemented_flow(&network, &db, device, &cfg).map_err(err)?;
        let mut failures = oracle::check_network(net.name, &network);
        failures.extend(oracle::check_assembled(net.name, &design, &report, device));
        if stats.hits != 0 {
            failures.push(format!("{}: cold build hit the cache", net.name));
        }
        out.record(failures);
        zoo.push(Prepared {
            cold_summary: report.deterministic_summary(),
            fmax_mhz: report.compile.timing.fmax_mhz,
            net,
            network,
            cfg,
            db,
        });
    }
    Ok(zoo)
}

fn check_against_cold(
    p: &Prepared,
    design: &Design,
    report: &PreImplReport,
    device: &Device,
) -> Vec<String> {
    let mut failures = oracle::check_assembled(p.net.name, design, report, device);
    if report.deterministic_summary() != p.cold_summary {
        failures.push(format!("{}: summary differs from the cold run", p.net.name));
    }
    failures
}

fn check_all_hits(name: &str, stats: &DbCacheStats, components: usize) -> Vec<String> {
    if stats.all_hits() && stats.hits == components {
        Vec::new()
    } else {
        vec![format!("{name}: warm build not all hits: {stats:?}")]
    }
}

/// `cold_vgg16`: archdef text -> parse -> function optimization on an
/// empty cache directory -> assembly. The one-time cost on the paper's
/// large network; almost all annealer, router and STA.
fn cold_vgg16(b: &Bench, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let mode = b.req.mode;
    let net = b.light_setup(out, || Ok(b.nets(vec![zoo::vgg16()]).remove(0)))?;
    let cfg = net.config();

    let cold_op = |log: &mut OpLog| -> Result<String, String> {
        let dir = b.scratch.fresh("cold");
        let cfg = cfg.clone().with_db_dir(&dir);
        let (network, stats, flow) = log.timed(|| {
            let network = net.import()?;
            let (db, _, stats) =
                build_component_db_cached(&network, &b.device, &cfg).map_err(err)?;
            let flow = run_pre_implemented_flow(&network, &db, &b.device, &cfg).map_err(err)?;
            Ok::<_, String>((network, stats, flow))
        })?;
        let _ = std::fs::remove_dir_all(&dir);
        let (design, report) = flow;
        log.failures = oracle::check_network(net.name, &network);
        log.failures.extend(oracle::check_assembled(
            net.name, &design, &report, &b.device,
        ));
        if stats.hits != 0 || stats.misses != report.compose.component_signatures.len() {
            log.failures.push(format!(
                "{}: cold build was not all misses: {stats:?}",
                net.name
            ));
        }
        log.delivered(&report);
        Ok(report.deterministic_summary())
    };

    if mode.untraced() {
        let mut first: Option<String> = None;
        closed_loop(out, b.req.seconds, |log| match cold_op(log) {
            Ok(summary) => {
                if *first.get_or_insert_with(|| summary.clone()) != summary {
                    log.failures
                        .push(format!("{}: two cold builds disagree", net.name));
                }
            }
            Err(e) => log.failures.push(e),
        });
    }
    if mode.traced() {
        let mut t = Traced::single_threaded(tracer);
        let mut log = OpLog::default();
        let reference = cold_op(&mut log)?;
        t.reference_s += log.wall_s;
        let dir = b.scratch.fresh("replay");
        let cfg = cfg.clone().with_db_dir(&dir);
        let assembled = t.op(format!("cold_vgg16/{}", net.name), &b.device, |r| {
            let network = r.import(&net)?;
            let db = r.component_db(&network, &cfg, &dir).map_err(err)?;
            let (design, report) = r.assemble(&network, &db, &cfg).map_err(err)?;
            Ok(Assembled {
                network,
                db,
                design,
                report,
            })
        })?;
        let report = t.probe_assembled(&b.device, &cfg, assembled)?;
        let _ = std::fs::remove_dir_all(&dir);
        replay_must_match(out, net.name, report.deterministic_summary() == reference);
        t.finish(out, b.device_build_ms);
    }
    Ok(())
}

/// `warm_zoo`: one sweep of all five networks, descriptor text -> import
/// -> cached build against the directory populated in set-up (all hits)
/// -> assembly. The per-architecture cost the paper amortizes into:
/// cache read, hash-verify and checkpoint decode; no annealer.
fn warm_zoo(b: &Bench, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let mode = b.req.mode;
    let dir = b.scratch.fresh("warm");
    let mut zoo = prepare_zoo(&b.device, b.nets(zoo::zoo()), Some(&dir), out)?;
    shuffle(&mut zoo, &mut StdRng::seed_from_u64(b.req.seed));
    b.setup_done(out);

    let warm_net = |p: &Prepared, log: &mut OpLog| -> Result<(), String> {
        let (stats, (design, report)) = log.timed(|| {
            let network = p.net.import()?;
            let (db, _, stats) =
                build_component_db_cached(&network, &b.device, &p.cfg).map_err(err)?;
            let flow = run_pre_implemented_flow(&network, &db, &b.device, &p.cfg).map_err(err)?;
            Ok::<_, String>((stats, flow))
        })?;
        let n = report.compose.component_signatures.len();
        log.failures.extend(check_all_hits(p.net.name, &stats, n));
        log.failures
            .extend(check_against_cold(p, &design, &report, &b.device));
        log.delivered(&report);
        Ok(())
    };

    if mode.untraced() {
        closed_loop(out, b.req.seconds, |log| {
            for p in &zoo {
                if let Err(e) = warm_net(p, log) {
                    log.failures.push(e);
                }
            }
        });
    }
    if mode.traced() {
        let mut t = Traced::single_threaded(tracer);
        for p in &zoo {
            let mut log = OpLog::default();
            warm_net(p, &mut log)?;
            t.reference_s += log.wall_s;
            let assembled = t.op(format!("warm_zoo/{}", p.net.name), &b.device, |r| {
                let network = r.import(&p.net)?;
                let db = r.component_db(&network, &p.cfg, &dir).map_err(err)?;
                let (design, report) = r.assemble(&network, &db, &p.cfg).map_err(err)?;
                Ok(Assembled {
                    network,
                    db,
                    design,
                    report,
                })
            })?;
            let report = t.probe_assembled(&b.device, &p.cfg, assembled)?;
            replay_must_match(
                out,
                p.net.name,
                report.deterministic_summary() == p.cold_summary,
            );
        }
        t.finish(out, b.device_build_ms);
    }
    Ok(())
}

/// A replayed op that disagrees with the program is a failed op.
fn replay_must_match(out: &mut Outcome, name: &str, matches: bool) {
    out.record(if matches {
        Vec::new()
    } else {
        vec![format!("{name}: replay differs from the program")]
    });
}

/// `assemble_zoo`: one sweep of `run_pre_implemented_flow` over the five
/// networks from the in-memory databases built in set-up — the paper's
/// Fig. 6 "pre-implemented generation time". No cache, no annealer.
fn assemble_zoo(b: &Bench, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let mode = b.req.mode;
    let mut zoo = prepare_zoo(&b.device, b.nets(zoo::zoo()), None, out)?;
    shuffle(&mut zoo, &mut StdRng::seed_from_u64(b.req.seed));
    b.setup_done(out);

    if mode.untraced() {
        let mut per_net: Vec<Vec<f64>> = vec![Vec::new(); zoo.len()];
        closed_loop(out, b.req.seconds, |log| {
            for (p, times) in zoo.iter().zip(&mut per_net) {
                let before = log.wall_s;
                match log.timed(|| run_pre_implemented_flow(&p.network, &p.db, &b.device, &p.cfg)) {
                    Ok((design, report)) => {
                        times.push(log.wall_s - before);
                        log.failures
                            .extend(check_against_cold(p, &design, &report, &b.device));
                        log.delivered(&report);
                    }
                    Err(e) => log.failures.push(err(e)),
                }
            }
        });
        for (p, times) in zoo.iter().zip(&per_net) {
            out.per_network
                .insert(p.net.name.to_string(), (p.fmax_mhz, metrics::median(times)));
        }
    }
    if mode.traced() {
        let mut t = Traced::single_threaded(tracer);
        for p in &zoo {
            t.reference(|| {
                run_pre_implemented_flow(&p.network, &p.db, &b.device, &p.cfg).map_err(err)
            })?;
            let (design, report) =
                t.op(format!("assemble_zoo/{}", p.net.name), &b.device, |r| {
                    r.assemble(&p.network, &p.db, &p.cfg).map_err(err)
                })?;
            t.probe(&b.device, |r| {
                r.probe_assembly(&p.network, &p.db, &p.cfg, &design, &report)
                    .map_err(err)
            })?;
            replay_must_match(
                out,
                p.net.name,
                report.deterministic_summary() == p.cold_summary,
            );
        }
        t.finish(out, b.device_build_ms);
    }
    Ok(())
}

/// `flat_zoo`: one sweep of `run_baseline_flow` (monolithic synthesis,
/// full place / phys-opt / route) over LeNet, CIFAR-10-quick and
/// ResNet-small — the paper's comparison arm, and the same placer and
/// router used on one large unconstrained netlist.
fn flat_zoo(b: &Bench, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let mode = b.req.mode;
    let mut zoo = b.light_setup(out, || {
        let mut nets = b.nets(zoo::zoo());
        nets.truncate(zoo::FLAT_NETS);
        nets.into_iter()
            .map(|net| Ok((net.config(), net.import()?, net)))
            .collect::<Result<Vec<_>, String>>()
    })?;
    for (_, network, net) in &zoo {
        out.record(oracle::check_network(net.name, network));
    }
    shuffle(&mut zoo, &mut StdRng::seed_from_u64(b.req.seed));

    if mode.untraced() {
        let mut first_fmax: Vec<Option<f64>> = vec![None; zoo.len()];
        let mut per_net: Vec<Vec<f64>> = vec![Vec::new(); zoo.len()];
        closed_loop(out, b.req.seconds, |log| {
            for (i, (cfg, network, net)) in zoo.iter().enumerate() {
                let before = log.wall_s;
                match log.timed(|| run_baseline_flow(network, &b.device, cfg)) {
                    Ok((design, report)) => {
                        per_net[i].push(log.wall_s - before);
                        let fmax = report.compile.timing.fmax_mhz;
                        log.failures
                            .extend(oracle::check_layout(net.name, &design, &b.device));
                        if *first_fmax[i].get_or_insert(fmax) != fmax {
                            log.failures
                                .push(format!("{}: two flat runs disagree", net.name));
                        }
                        log.designs.push((
                            fmax,
                            report.latency.frame_ms,
                            report.compile.route_stats.overused_tiles as u64,
                        ));
                    }
                    Err(e) => log.failures.push(err(e)),
                }
            }
        });
        for (i, (_, _, net)) in zoo.iter().enumerate() {
            out.per_network.insert(
                net.name.to_string(),
                (first_fmax[i].unwrap_or(0.0), metrics::median(&per_net[i])),
            );
        }
    }
    if mode.traced() {
        let mut t = Traced::single_threaded(tracer);
        for (cfg, _, net) in &zoo {
            let reference = t.reference(|| {
                let network = net.import()?;
                run_baseline_flow(&network, &b.device, cfg).map_err(err)
            })?;
            let (network, report) = t.op(format!("flat_zoo/{}", net.name), &b.device, |r| {
                let network = r.import(net)?;
                let (_, report) = r.flat(&network, cfg).map_err(err)?;
                Ok((network, report))
            })?;
            t.probe(&b.device, |r| r.probe_flat(&network, cfg).map_err(err))?;
            replay_must_match(
                out,
                net.name,
                report.compile.timing.fmax_mhz == reference.1.compile.timing.fmax_mhz,
            );
        }
        t.finish(out, b.device_build_ms);
    }
    Ok(())
}
