//! Function optimization: pre-implement every component once, as well as it
//! will go, and save the result.
//!
//! Per component (paper §IV-A):
//! * **granularity** comes from the network's fusion rule (conv / pool+relu
//!   / fc, or conv blocks for VGG),
//! * **strategic floorplanning**: [`size_pblock`] picks the smallest column
//!   group × row span whose capacity covers the component at the requested
//!   utilization — small pblocks maximize relocatability,
//! * **performance exploration**: a seed sweep over placement, keeping the
//!   best-Fmax implementation. One parallel sweep serves every build, and
//!   components whose netlists differ only in names share one
//!   implementation (see [`build_component_db`]),
//! * **strategic port planning**: [`plan_partpins`] commits each port to a
//!   boundary interconnect tile next to the logic it feeds,
//! * **clock routing**: the checkpoint records a partially routed clock so
//!   OOC timing analysis is meaningful,
//! * **logic locking**: placement and routing are frozen before the DCP is
//!   written to the database,
//! * **admission**: a netlist enters the sweep only if the module judge
//!   ([`Module::defects`]) finds no defect in it, and a seed is a
//!   candidate only if its locked checkpoint passes the checkpoint judge
//!   ([`pi_stitch::check_checkpoint`]); a component none of whose seeds
//!   passes is `FlowError::ComponentUnsatisfiable`.

use crate::config::FlowConfig;
use crate::FlowError;
use pi_cnn::graph::{Component, Network};
use pi_fabric::{Device, Pblock, ResourceCount, TileCoord};
use pi_netlist::{Checkpoint, CheckpointMeta, Endpoint, Module};
use pi_obs::Obs;
use pi_pnr::{place_module_obs, route_module_obs, sta_module, PlaceOptions};
use pi_stitch::{cache_key, check_checkpoint, CacheLookup, ComponentDb, DbCache, Violation};
use pi_synth::synth_component;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::time::{Duration, Instant};

/// Per-component report from the build.
#[derive(Debug, Clone)]
pub struct ComponentBuildReport {
    pub name: String,
    pub signature: String,
    pub fmax_mhz: f64,
    pub resources: ResourceCount,
    pub pblock: Pblock,
    /// Placement seeds run for this component: the whole sweep when it was
    /// implemented, 0 when it shares another component's result.
    pub seeds_tried: usize,
    /// The component whose implementation this one shares: its netlist is
    /// that component's up to names (see [`build_component_db`]).
    pub reused_from: Option<String>,
    pub latency_cycles: u64,
    /// Synthesis plus every seed run for this component. Seeds run in
    /// parallel, so this can exceed the wall time the build took.
    pub build_time: Duration,
}

/// Size the smallest pblock (anchored just right of the left I/O column)
/// whose capacity covers `need` at the requested utilization. Grows in
/// whole column groups (the device's repeating template) horizontally and
/// rows vertically — whole-group widths keep the pblock maximally
/// relocatable.
pub fn size_pblock(
    need: &ResourceCount,
    device: &Device,
    utilization: f64,
) -> Result<Pblock, FlowError> {
    // Column group width on our devices: 16 columns (7 CLB + DSP + 7 CLB +
    // BRAM), starting at column 1.
    const GROUP: u16 = 16;
    let max_groups = (device.cols() - 1) / GROUP;
    // Widths that stay within one contiguous fabric region (no I/O column
    // crossing) keep the component relocatable; wider is a last resort.
    let mut groups_in_region = 0u16;
    for g in 0..max_groups {
        let span_end = 1 + (g + 1) * GROUP - 1;
        let crosses = (1..=span_end).any(|c| {
            device
                .column_kind(c)
                .map(|k| k.is_discontinuity())
                .unwrap_or(true)
        });
        if crosses {
            break;
        }
        groups_in_region = g + 1;
    }
    let groups_in_region = groups_in_region.max(1);
    // Cap pblock height at half the device: flatter pblocks tile the chip in
    // halves, which is what lets an 80%-full VGG pack its rigid components.
    let height_cap = (device.rows() / 2).max(8);
    // On a nearly full device the requested headroom may be unpackable:
    // tighten utilization progressively before giving up, like a
    // floorplanner under pressure.
    let base_util = utilization.clamp(0.05, 1.0);
    let mut utils = vec![base_util];
    for u in [0.85, 0.95, 1.0] {
        if u > base_util {
            utils.push(u);
        }
    }
    // Shape preference dominates utilization: a tighter half-height pblock
    // packs, a sprawling full-height one fragments the chip.
    for (cap_rows, group_cap) in [
        (height_cap, groups_in_region),
        (device.rows(), groups_in_region),
        (device.rows(), max_groups),
    ] {
        for &util in &utils {
            let scaled = need.scale_ceil((100.0 / util) as u64, 100);
            // Wide-flat shapes first: components then stack like shelves,
            // which is what makes an 80%-full assembled design packable.
            for groups in (1..=group_cap).rev() {
                let col_hi = 1 + groups * GROUP - 1;
                // Find the minimal height for this width.
                let mut rows = 8u16;
                while rows <= cap_rows {
                    let pb = Pblock::new(1, col_hi, 0, rows - 1);
                    let cap = device.pblock_capacity(&pb)?;
                    if scaled.fits_in(&cap) {
                        return Ok(pb);
                    }
                    rows += 8;
                }
            }
        }
    }
    Err(FlowError::ComponentUnsatisfiable {
        component: "<pblock sizing>".to_string(),
        reason: format!(
            "demand {need:?} exceeds device capacity {:?}",
            device.totals()
        ),
    })
}

/// Strategic port planning: put each port's partition pin on the pblock
/// boundary tile nearest the centroid of the cells it connects to. A pin
/// anywhere else is off the boundary ring, which the checkpoint judge
/// ([`pi_stitch::check_checkpoint`]) rejects.
pub fn plan_partpins(module: &mut Module, pblock: &Pblock) -> Result<(), FlowError> {
    // Centroid of connected placed cells, per port.
    let mut targets: Vec<Option<TileCoord>> = vec![None; module.ports().len()];
    for (pi, _) in module.ports().iter().enumerate() {
        let mut sum = (0u64, 0u64);
        let mut n = 0u64;
        for net in module.nets() {
            let touches = net
                .endpoints()
                .any(|e| matches!(e, Endpoint::Port(p) if p.index() == pi));
            if !touches {
                continue;
            }
            for e in net.endpoints() {
                if let Endpoint::Cell(c) = e {
                    if let Some(at) = module.cells()[c.index()].placement {
                        sum.0 += u64::from(at.col);
                        sum.1 += u64::from(at.row);
                        n += 1;
                    }
                }
            }
        }
        if let (Some(c), Some(r)) = (sum.0.checked_div(n), sum.1.checked_div(n)) {
            targets[pi] = Some(TileCoord::new(c as u16, r as u16));
        }
    }
    let ports = module.ports_mut()?;
    for (pi, port) in ports.iter_mut().enumerate() {
        let centroid = targets[pi].unwrap_or_else(|| pblock.center());
        // Streaming convention: data and control *enter* through the bottom
        // edge and *leave* through the top edge, at the column nearest the
        // logic they feed. Components stacked in schedule order then connect
        // across short boundary wires — this is what "strategic port
        // planning" buys.
        let col = centroid.col.clamp(pblock.col_lo, pblock.col_hi);
        let row = match port.role {
            pi_netlist::StreamRole::Sink => pblock.row_hi,
            _ => pblock.row_lo,
        };
        port.partpin = Some(TileCoord::new(col, row));
    }
    Ok(())
}

/// Pre-implement one component: synthesize OOC, size a pblock, sweep
/// placement seeds, plan ports, route, lock, and wrap as a checkpoint.
/// This is [`build_component_db`]'s sweep on a single component, so its
/// checkpoint is byte for byte the one the database build stores for it.
/// Through the config's telemetry handle the sweep reports each seed's
/// outcome (`flow::function_opt` / `dse_seed`) and the accepted
/// implementation (`component_built`); the engines below report under
/// `pnr::place` / `pnr::route`.
pub fn build_component(
    network: &Network,
    component: &Component,
    device: &Device,
    cfg: &FlowConfig,
) -> Result<(Checkpoint, ComponentBuildReport), FlowError> {
    Ok(build_components(&[component], network, device, cfg)?.remove(0))
}

/// Pre-implement an already synthesized module — a kernel, a replicated
/// engine, anything that is not one of a network's components — through
/// the same sweep as [`build_component`]: size its pblock, run every seed,
/// keep the best one the judge admits. `signature` names the report and
/// the telemetry and, with `latency_cycles`, goes into the checkpoint's
/// meta. The module comes from outside the flow, so a netlist the module
/// judge rejects ([`Module::validate`]) is refused here, before any seed
/// anneals it.
pub fn pre_implement(
    module: Module,
    signature: &str,
    latency_cycles: u64,
    device: &Device,
    cfg: &FlowConfig,
) -> Result<(Checkpoint, ComponentBuildReport), FlowError> {
    module.validate()?;
    let syn = Synthesized::new(
        module,
        signature.to_string(),
        signature.to_string(),
        latency_cycles,
        Instant::now(),
        device,
        cfg,
    )?;
    Ok(sweep(vec![syn], device, cfg)?.remove(0))
}

/// One synthesized netlist ready for the sweep: the pblock sized for it
/// and what its checkpoint and report record.
struct Synthesized {
    name: String,
    signature: String,
    latency_cycles: u64,
    proto: Module,
    pblock: Pblock,
    synth_time: Duration,
}

impl Synthesized {
    /// Size `proto`'s pblock; `t0` is when its synthesis started. `proto`
    /// is a judged netlist: `synth_component` ends in
    /// `ModuleBuilder::finish`, and [`pre_implement`] judges the rest.
    fn new(
        proto: Module,
        name: String,
        signature: String,
        latency_cycles: u64,
        t0: Instant,
        device: &Device,
        cfg: &FlowConfig,
    ) -> Result<Self, FlowError> {
        let pblock = size_pblock(&proto.resources(), device, cfg.pblock_utilization)?;
        Ok(Synthesized {
            name,
            signature,
            latency_cycles,
            proto,
            pblock,
            synth_time: t0.elapsed(),
        })
    }

    /// The checkpoint envelope of an implementation of this netlist.
    fn meta(&self, fmax_mhz: f64, resources: ResourceCount, device: &Device) -> CheckpointMeta {
        CheckpointMeta {
            signature: self.signature.clone(),
            fmax_mhz,
            resources,
            pblock: self.pblock,
            device: device.name().to_string(),
            latency_cycles: self.latency_cycles,
        }
    }
}

/// A seed's locked implementation and its Fmax, or the first violation the
/// checkpoint judge found in it.
type Admission = Result<(f64, Module), Violation>;

/// One placement seed's implementation of a netlist, with the telemetry
/// it buffered and the time it took.
struct SeedRun {
    result: Result<Admission, FlowError>,
    telemetry: pi_obs::BufferedObs,
    time: Duration,
}

/// Implement `syn`'s netlist with placement seed `seed`: plan ports, place
/// inside the pblock, route, time it, mark the clock pre-routed and lock
/// it, then judge the checkpoint it would be
/// ([`pi_stitch::check_checkpoint`]). Deterministic in the seed, and blind
/// to every module, cell and net name. Emits only through `obs`, and
/// reports `seed_rejected` when the judge rejects the seed.
fn implement_seed(
    syn: &Synthesized,
    seed: u64,
    device: &Device,
    cfg: &FlowConfig,
    obs: &Obs,
) -> Result<Admission, FlowError> {
    let pblock = syn.pblock;
    let mut m = syn.proto.clone();
    m.pblock = Some(pblock);
    // Partition pins act as fixed anchors during placement: planning
    // them *first* pulls each interface's logic toward its pblock edge,
    // so the boundary paths the stitched design will pay for stay
    // short. A refinement pass afterwards snaps the pin columns to the
    // placed logic.
    plan_partpins(&mut m, &pblock)?;
    place_module_obs(
        &mut m,
        device,
        &PlaceOptions {
            seed,
            effort: cfg.effort,
            region: Some(pblock),
        },
        obs,
    )?;
    plan_partpins(&mut m, &pblock)?;
    let (_, congestion) = route_module_obs(&mut m, device, &cfg.route, &obs.with_seed(seed))?;
    let timing = sta_module(&m, device, Some(&congestion))?;
    let dse = obs.scoped("flow::function_opt");
    if dse.enabled() {
        dse.with_seed(seed).point(
            "dse_seed",
            &[
                ("component", syn.name.as_str().into()),
                ("seed", seed.into()),
                ("fmax_mhz", timing.fmax_mhz.into()),
            ],
        );
    }
    // Clock pre-route marker + logic locking.
    m.clock_prerouted = true;
    m.lock();
    let checkpoint = Checkpoint {
        meta: syn.meta(timing.fmax_mhz, m.resources(), device),
        module: m,
    };
    let verdict = check_checkpoint(&checkpoint, device)?;
    let Some(first) = verdict.into_iter().next() else {
        return Ok(Ok((timing.fmax_mhz, checkpoint.module)));
    };
    if dse.enabled() {
        dse.with_seed(seed).point(
            "seed_rejected",
            &[
                ("component", syn.name.as_str().into()),
                ("seed", seed.into()),
                ("violation", first.to_string().into()),
            ],
        );
    }
    Ok(Err(first))
}

/// Synthesize `components` and size their pblocks in parallel, then run
/// them through [`sweep`]; checkpoints and reports come back in input order.
fn build_components(
    components: &[&Component],
    network: &Network,
    device: &Device,
    cfg: &FlowConfig,
) -> Result<Vec<(Checkpoint, ComponentBuildReport)>, FlowError> {
    let synthesized: Vec<Synthesized> = components
        .par_iter()
        .map(|&component| {
            let t0 = Instant::now();
            let proto = synth_component(network, component, &cfg.synth)?;
            Synthesized::new(
                proto,
                component.name.clone(),
                component.signature(network),
                pi_cnn::cycles::component_pipeline_depth(network, component)?,
                t0,
                device,
                cfg,
            )
        })
        .collect::<Result<_, FlowError>>()?;
    sweep(synthesized, device, cfg)
}

/// The one implementation sweep behind every build: pre-implement the
/// `synthesized` netlists and return their checkpoints and reports in
/// input order.
///
/// Netlists equal up to names ([`Module::same_netlist`]) form a group:
/// VGG-16's conv3 and conv4 blocks, its four pools, ResNet's repeated
/// residual layers. Equal netlists have equal resources, so a group shares
/// one pblock as well, and only its first member is implemented. One
/// parallel map runs every (group, seed) item, largest netlist first and
/// one item per task, so the longest anneals start first and no task
/// queues two of them. Each item buffers its telemetry, and locks and
/// judges its seed's checkpoint ([`implement_seed`]).
///
/// Back in input order, a group's first member flushes its seeds' buffers
/// in seed order, keeps the best-Fmax admitted seed (the first on a tie)
/// and reports `component_built`; when the judge admitted none, the member
/// is `ComponentUnsatisfiable`, naming the first rejected seed's first
/// violation. Every later member gets that module under its own module,
/// cell and net names, with its own signature and latency in the meta,
/// and reports `reused_from` and `seeds_tried: 0`. Placement, routing and
/// timing read no name, so the shared checkpoint is byte for
/// byte the one implementing that member separately would produce. Results
/// and the event stream are identical at any `PI_THREADS`; the first error
/// in input order is returned.
fn sweep(
    synthesized: Vec<Synthesized>,
    device: &Device,
    cfg: &FlowConfig,
) -> Result<Vec<(Checkpoint, ComponentBuildReport)>, FlowError> {
    let obs = cfg.obs();
    let dse = obs.scoped("flow::function_opt");

    // `owners[g]` is group g's first member; `group_of[i]` is i's group.
    let mut owners: Vec<usize> = Vec::new();
    let mut group_of: Vec<usize> = Vec::with_capacity(synthesized.len());
    for (i, syn) in synthesized.iter().enumerate() {
        let same = |&o: &usize| synthesized[o].proto.same_netlist(&syn.proto);
        group_of.push(owners.iter().position(same).unwrap_or_else(|| {
            owners.push(i);
            owners.len() - 1
        }));
    }

    // Item `g * n_seeds + k` runs group g's netlist with seed k.
    let n_seeds = cfg.seeds.len();
    let mut order: Vec<usize> = (0..owners.len() * n_seeds).collect();
    order.sort_by_key(|&item| Reverse(synthesized[owners[item / n_seeds]].proto.cells().len()));
    let mut runs: Vec<(usize, SeedRun)> = order
        .into_iter()
        .map(|item| (item, obs.buffered()))
        .collect::<Vec<_>>()
        .into_par_iter()
        .with_max_len(1)
        .map(|(item, telemetry)| {
            let t0 = Instant::now();
            let syn = &synthesized[owners[item / n_seeds]];
            let seed = cfg.seeds[item % n_seeds];
            let result = implement_seed(syn, seed, device, cfg, telemetry.obs());
            let time = t0.elapsed();
            (
                item,
                SeedRun {
                    result,
                    telemetry,
                    time,
                },
            )
        })
        .collect();
    runs.sort_by_key(|&(item, _)| item);
    let mut runs = runs.into_iter().map(|(_, run)| run);

    // Each group's locked winner; `None` once its first member failed.
    let mut winners: Vec<Option<(f64, Module)>> = Vec::with_capacity(owners.len());
    let mut built: Vec<Result<(Checkpoint, ComponentBuildReport), FlowError>> =
        Vec::with_capacity(synthesized.len());
    for (i, syn) in synthesized.iter().enumerate() {
        let g = group_of[i];
        let mut build_time = syn.synth_time;
        let (fmax, module, seeds_tried, reused_from) = if owners[g] == i {
            // Groups are numbered in order of their first member, so this
            // group's seeds are the next `n_seeds` runs.
            let mut best: Option<(f64, Module)> = None;
            let mut rejected: Option<Violation> = None;
            let mut failed: Option<FlowError> = None;
            for run in runs.by_ref().take(n_seeds) {
                run.telemetry.flush_into(obs);
                build_time += run.time;
                match run.result {
                    Ok(Ok((fmax, m))) => {
                        if best.as_ref().is_none_or(|(b, _)| fmax > *b) {
                            best = Some((fmax, m));
                        }
                    }
                    Ok(Err(v)) => {
                        rejected.get_or_insert(v);
                    }
                    Err(e) => {
                        failed.get_or_insert(e);
                    }
                }
            }
            let winner = match (failed, best) {
                (None, Some(best)) => Ok(best),
                (Some(e), _) => Err(e),
                (None, None) => Err(FlowError::ComponentUnsatisfiable {
                    component: syn.name.clone(),
                    reason: match rejected {
                        Some(v) => format!("the checkpoint judge rejected every seed; first: {v}"),
                        None => "no placement seeds supplied".to_string(),
                    },
                }),
            };
            let (fmax, m) = match winner {
                Ok(best) => best,
                Err(e) => {
                    winners.push(None);
                    built.push(Err(e));
                    continue;
                }
            };
            winners.push(Some((fmax, m.clone())));
            (fmax, m, n_seeds, None)
        } else {
            // The group's first member failed and reported the error.
            let Some((fmax, m)) = &winners[g] else {
                continue;
            };
            let from = synthesized[owners[g]].name.clone();
            (*fmax, m.renamed_like(&syn.proto), 0, Some(from))
        };
        let meta = syn.meta(fmax, module.resources(), device);
        let report = ComponentBuildReport {
            name: syn.name.clone(),
            signature: meta.signature.clone(),
            fmax_mhz: fmax,
            resources: meta.resources,
            pblock: syn.pblock,
            seeds_tried,
            reused_from,
            latency_cycles: meta.latency_cycles,
            build_time,
        };
        report_built(&dse, &report);
        built.push(Ok((Checkpoint { meta, module }, report)));
    }
    built.into_iter().collect()
}

/// The `component_built` point for one accepted (or shared) implementation.
fn report_built(dse: &Obs, report: &ComponentBuildReport) {
    if !dse.enabled() {
        return;
    }
    let (need, pblock) = (report.resources, report.pblock);
    let mut fields = vec![
        ("component", report.name.as_str().into()),
        ("signature", report.signature.as_str().into()),
        ("fmax_mhz", report.fmax_mhz.into()),
        ("seeds_tried", report.seeds_tried.into()),
        ("luts", need.luts.into()),
        ("dsps", need.dsps.into()),
        ("brams", need.brams.into()),
        ("pblock_w", pblock.width().into()),
        ("pblock_h", pblock.height().into()),
        ("latency_cycles", report.latency_cycles.into()),
        ("wallclock_build_s", report.build_time.as_secs_f64().into()),
    ];
    if let Some(from) = &report.reused_from {
        fields.push(("reused_from", from.as_str().into()));
    }
    dse.point("component_built", &fields);
}

/// Build the whole component database for a network — the "performed
/// exactly once" investment of the paper. Each distinct netlist is
/// implemented once: components whose netlists are equal up to module,
/// cell and net names ([`Module::same_netlist`]) share one placed-and-routed
/// result, renamed for each, which is byte for byte what building each on
/// its own gives, because placement, routing and timing read no name. The
/// shared component's report names the one it shares (`reused_from`) and
/// `seeds_tried` is 0. All (netlist, seed) pairs run in one parallel sweep,
/// largest netlist first; results and telemetry are identical at any
/// `PI_THREADS`.
pub fn build_component_db(
    network: &Network,
    device: &Device,
    cfg: &FlowConfig,
) -> Result<(ComponentDb, Vec<ComponentBuildReport>), FlowError> {
    cfg.apply_parallelism();
    network.validate()?;
    let components = network.components(cfg.granularity)?;
    let span = cfg.obs().scoped("flow::function_opt").span_with(
        "build_component_db",
        &[("components", components.len().into())],
    );
    let refs: Vec<&Component> = components.iter().collect();
    let results = build_components(&refs, network, device, cfg)?;
    span.end();
    let mut db = ComponentDb::new();
    let mut reports = Vec::with_capacity(results.len());
    for (cp, report) in results {
        db.insert(cp);
        reports.push(report);
    }
    Ok((db, reports))
}

/// Cache interaction summary from [`build_component_db_cached`]: how much
/// of the database came off disk versus was pre-implemented this run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DbCacheStats {
    /// Components served from the persistent cache.
    pub hits: usize,
    /// Components absent from the cache (pre-implemented this run).
    pub misses: usize,
    /// Cached entries that failed verification (truncated, stale version,
    /// hash mismatch, missing file) and were quarantined + rebuilt.
    pub invalidations: usize,
    /// Entries evicted to honor `FlowConfig::db_budget_bytes` while this
    /// run's inserts were persisted.
    pub evictions: u64,
    /// Serialized checkpoint bytes loaded on hits.
    pub bytes_loaded: u64,
}

impl DbCacheStats {
    /// True when every component came off disk — the warm-cache guarantee
    /// the productivity numbers depend on.
    pub fn all_hits(&self) -> bool {
        self.misses == 0 && self.invalidations == 0
    }
}

/// [`build_component_db`] backed by the persistent content-addressed cache
/// at `cfg.db_dir`: every component's cache key — a stable hash of
/// (signature, device part, implementation knobs, see
/// [`FlowConfig::cache_fingerprint`]) — is consulted *before*
/// pre-implementing. A verified hit loads the checkpoint (relocation
/// happens at composition, as always); a miss builds the component and
/// persists it atomically, so the next run with the same knobs performs
/// zero pre-implementations. Corrupted or stale entries are quarantined
/// and rebuilt — never a crash (see [`pi_stitch::DbCache`]).
///
/// With no `db_dir` configured this degrades to [`build_component_db`]
/// (every component a miss, nothing persisted).
///
/// Telemetry: per-entry events under `stitch::db_cache`, plus a `db_cache`
/// span and `cache_hits` / `cache_misses` / `cache_invalidations` /
/// `cache_bytes_loaded` counters under `flow::function_opt`.
pub fn build_component_db_cached(
    network: &Network,
    device: &Device,
    cfg: &FlowConfig,
) -> Result<(ComponentDb, Vec<ComponentBuildReport>, DbCacheStats), FlowError> {
    let Some(dir) = cfg.db_dir.clone() else {
        let (db, reports) = build_component_db(network, device, cfg)?;
        let stats = DbCacheStats {
            misses: reports.len(),
            ..DbCacheStats::default()
        };
        return Ok((db, reports, stats));
    };
    cfg.apply_parallelism();
    network.validate()?;
    let obs = cfg.obs();
    let dse = obs.scoped("flow::function_opt");
    let fingerprint = cfg.cache_fingerprint();
    let components = network.components(cfg.granularity)?;
    let span = dse.span_with("db_cache", &[("components", components.len().into())]);

    let mut cache =
        DbCache::open_with_budget(dir, cfg.db_budget_bytes, obs).map_err(FlowError::Stitch)?;
    let mut db = ComponentDb::new();
    let mut stats = DbCacheStats::default();
    let mut missing: Vec<(&Component, String)> = Vec::new();
    let keys: Vec<String> = components
        .iter()
        .map(|c| cache_key(&c.signature(network), device.name(), fingerprint))
        .collect();
    let lookups = cache.lookup_all(&keys, obs);
    for ((c, key), lookup) in components.iter().zip(keys).zip(lookups) {
        match lookup {
            CacheLookup::Hit { checkpoint, bytes } => {
                stats.hits += 1;
                stats.bytes_loaded += bytes;
                db.insert(*checkpoint);
            }
            CacheLookup::Miss => {
                stats.misses += 1;
                missing.push((c, key));
            }
            CacheLookup::Invalidated { .. } => {
                stats.misses += 1;
                stats.invalidations += 1;
                missing.push((c, key));
            }
        }
    }

    let refs: Vec<&Component> = missing.iter().map(|(c, _)| *c).collect();
    let results = build_components(&refs, network, device, cfg)?;
    let inserts: Vec<(&str, &Checkpoint)> = missing
        .iter()
        .zip(&results)
        .map(|((_, key), (cp, _))| (key.as_str(), cp))
        .collect();
    cache.insert_all(&inserts, obs).map_err(FlowError::Stitch)?;
    let mut reports = Vec::with_capacity(results.len());
    for (cp, report) in results {
        db.insert(cp);
        reports.push(report);
    }
    stats.evictions = cache.budget_evictions();

    if dse.enabled() {
        dse.counter("cache_hits", stats.hits as u64);
        dse.counter("cache_misses", stats.misses as u64);
        dse.counter("cache_invalidations", stats.invalidations as u64);
        dse.counter("cache_bytes_loaded", stats.bytes_loaded);
        dse.counter("cache_evictions", stats.evictions);
    }
    span.end();
    Ok((db, reports, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_cnn::graph::Granularity;
    use pi_cnn::models;

    #[test]
    fn pblock_sizing_is_minimal_and_sufficient() {
        let device = Device::xcku5p_like();
        let need = ResourceCount {
            luts: 4000,
            ffs: 6000,
            brams: 10,
            dsps: 30,
            urams: 0,
            ios: 0,
        };
        let pb = size_pblock(&need, &device, 0.7).unwrap();
        let cap = device.pblock_capacity(&pb).unwrap();
        assert!(need.fits_in(&cap));
        // Tight: half the rows would not fit the scaled demand.
        let smaller = Pblock::new(pb.col_lo, pb.col_hi, 0, pb.height() / 2);
        let cap2 = device.pblock_capacity(&smaller).unwrap();
        let scaled = need.scale_ceil(100 * 10 / 7, 100);
        assert!(!scaled.fits_in(&cap2));
    }

    #[test]
    fn pblock_sizing_rejects_impossible_demand() {
        let device = Device::test_part();
        let need = ResourceCount {
            dsps: 1_000_000,
            ..ResourceCount::ZERO
        };
        assert!(matches!(
            size_pblock(&need, &device, 0.7),
            Err(FlowError::ComponentUnsatisfiable { .. })
        ));
    }

    #[test]
    fn builds_toy_component_with_partpins_on_boundary() {
        let device = Device::xcku5p_like();
        let network = models::toy();
        let comps = network.components(Granularity::Layer).unwrap();
        let opts = FlowConfig::new().with_seeds([1, 2]);
        let (cp, report) = build_component(&network, &comps[0], &device, &opts).unwrap();
        assert!(cp.module.is_locked());
        assert!(cp.module.fully_placed());
        assert!(report.fmax_mhz > 100.0, "fmax {}", report.fmax_mhz);
        assert_eq!(report.seeds_tried, 2);
        let pb = cp.meta.pblock;
        for port in cp.module.ports() {
            let pin = port.partpin.expect("planned");
            assert!(pb.on_ring(pin), "partpin {pin} not on pblock edge {pb}");
        }
    }

    #[test]
    fn seed_sweep_never_worse_than_single_seed() {
        let device = Device::xcku5p_like();
        let network = models::toy();
        let comps = network.components(Granularity::Layer).unwrap();
        let single = FlowConfig::new().with_seeds([1]);
        let sweep = FlowConfig::new().with_seeds([1, 2, 3]);
        let (_, r1) = build_component(&network, &comps[1], &device, &single).unwrap();
        let (_, r3) = build_component(&network, &comps[1], &device, &sweep).unwrap();
        assert!(r3.fmax_mhz >= r1.fmax_mhz);
    }

    #[test]
    fn pre_implementing_a_synthesized_component_is_building_it() {
        let device = Device::xcku5p_like();
        let network = models::toy();
        let comps = network.components(Granularity::Layer).unwrap();
        let cfg = FlowConfig::new().with_seeds([1, 2]);
        let (built, _) = build_component(&network, &comps[0], &device, &cfg).unwrap();
        let module = synth_component(&network, &comps[0], &cfg.synth).unwrap();
        let meta = &built.meta;
        let (cp, report) =
            pre_implement(module, &meta.signature, meta.latency_cycles, &device, &cfg).unwrap();
        assert_eq!(cp.content_hash(), built.content_hash());
        assert_eq!(report.seeds_tried, 2);
    }

    #[test]
    fn full_db_for_toy_network() {
        let device = Device::xcku5p_like();
        let network = models::toy();
        let cfg = FlowConfig::new().with_seeds([1]);
        let (db, reports) = build_component_db(&network, &device, &cfg).unwrap();
        assert_eq!(db.len(), 3);
        assert_eq!(reports.len(), 3);
        for c in network.components(Granularity::Layer).unwrap() {
            assert!(db.get(&c.signature(&network)).is_some());
        }
    }

    #[test]
    fn planned_partpins_follow_the_streaming_convention() {
        let device = Device::xcku5p_like();
        let network = models::toy();
        let comps = network.components(Granularity::Layer).unwrap();
        let opts = FlowConfig::new().with_seeds([1]);
        let (cp, _) = build_component(&network, &comps[0], &device, &opts).unwrap();
        let pb = cp.meta.pblock;
        for port in cp.module.ports() {
            let pin = port.partpin.expect("planned");
            match port.role {
                pi_netlist::StreamRole::Sink => assert_eq!(pin.row, pb.row_hi, "{}", port.name),
                _ => assert_eq!(pin.row, pb.row_lo, "{}", port.name),
            }
        }
    }

    #[test]
    fn cached_build_misses_cold_and_hits_warm() {
        let device = Device::xcku5p_like();
        let network = models::toy();
        let dir = std::env::temp_dir().join(format!(
            "pi-flow-dbcache-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = FlowConfig::new().with_seeds([1]).with_db_dir(&dir);
        let n = network.components(Granularity::Layer).unwrap().len();

        let (db_cold, reports, cold) = build_component_db_cached(&network, &device, &cfg).unwrap();
        assert_eq!((cold.hits, cold.misses, cold.invalidations), (0, n, 0));
        assert_eq!(reports.len(), n);

        let (db_warm, reports, warm) = build_component_db_cached(&network, &device, &cfg).unwrap();
        assert!(warm.all_hits(), "warm run not all hits: {warm:?}");
        assert_eq!(warm.hits, n);
        assert!(warm.bytes_loaded > 0);
        assert!(reports.is_empty(), "warm run pre-implemented components");
        for c in network.components(Granularity::Layer).unwrap() {
            let sig = c.signature(&network);
            assert_eq!(
                db_cold.get(&sig).unwrap().content_hash(),
                db_warm.get(&sig).unwrap().content_hash(),
                "cached checkpoint for '{sig}' differs from the built one"
            );
        }

        // Different implementation knobs must not reuse these entries.
        let other = FlowConfig::new().with_seeds([2]).with_db_dir(&dir);
        let (_, _, stats) = build_component_db_cached(&network, &device, &other).unwrap();
        assert_eq!(stats.hits, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_build_without_db_dir_degrades_to_plain_build() {
        let device = Device::xcku5p_like();
        let network = models::toy();
        let cfg = FlowConfig::new().with_seeds([1]);
        let (db, reports, stats) = build_component_db_cached(&network, &device, &cfg).unwrap();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, reports.len());
        assert_eq!(db.len(), reports.len());
    }
}
