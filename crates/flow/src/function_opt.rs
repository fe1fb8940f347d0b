//! Function optimization: pre-implement every component once, as well as it
//! will go, and save the result.
//!
//! Per component (paper §IV-A):
//! * **granularity** comes from the network's fusion rule (conv / pool+relu
//!   / fc, or conv blocks for VGG),
//! * **strategic floorplanning**: [`size_pblock`] picks the smallest column
//!   group × row span whose capacity covers the component at the requested
//!   utilization — small pblocks maximize relocatability,
//! * **performance exploration**: a seed sweep over placement (rayon-
//!   parallel), keeping the best-Fmax implementation, stopping early when a
//!   target is met,
//! * **strategic port planning**: [`plan_partpins`] commits each port to a
//!   boundary interconnect tile next to the logic it feeds,
//! * **clock routing**: the checkpoint records a partially routed clock so
//!   OOC timing analysis is meaningful,
//! * **logic locking**: placement and routing are frozen before the DCP is
//!   written to the database.

use crate::config::FlowConfig;
use crate::FlowError;
use pi_cnn::graph::{Component, Network};
use pi_fabric::{Device, Pblock, ResourceCount, TileCoord};
use pi_netlist::{Checkpoint, CheckpointMeta, Endpoint, Module};
use pi_obs::Obs;
use pi_pnr::{place_module_obs, route_module_obs, sta_module, PlaceOptions};
use pi_stitch::{cache_key, CacheLookup, ComponentDb, DbCache};
use pi_synth::synth_component;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// One seed's evaluation result paired with the telemetry it buffered.
type BufferedEval = (Result<(f64, Module), FlowError>, pi_obs::BufferedObs);

/// Per-component report from the build.
#[derive(Debug, Clone)]
pub struct ComponentBuildReport {
    pub name: String,
    pub signature: String,
    pub fmax_mhz: f64,
    pub resources: ResourceCount,
    pub pblock: Pblock,
    pub seeds_tried: usize,
    pub latency_cycles: u64,
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
/// boundary tile nearest the centroid of the cells it connects to. Badly
/// planned ports (the ablation's alternative) land wherever, and the
/// stitched design pays in boundary wire length.
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
        // planning" buys, and the un-planned ablation shows what it costs.
        let col = centroid.col.clamp(pblock.col_lo, pblock.col_hi);
        let row = match port.role {
            pi_netlist::StreamRole::Sink => pblock.row_hi,
            _ => pblock.row_lo,
        };
        port.partpin = Some(TileCoord::new(col, row));
    }
    Ok(())
}

/// The un-planned alternative (ablation A1): the OOC tool placed the ports
/// "anywhere in the p-block" (paper §IV-A) — modeled as a deterministic
/// hash-scatter over the pblock interior. The stitched design then pays for
/// boundary wires that start deep inside the components.
pub fn scatter_partpins(module: &mut Module, pblock: &Pblock) -> Result<(), FlowError> {
    let ports = module.ports_mut()?;
    for (pi, port) in ports.iter_mut().enumerate() {
        // FNV-ish hash of the port name + index for a stable pseudo-random
        // interior position.
        let mut h = 0xcbf29ce484222325u64;
        for b in port.name.bytes().chain([pi as u8]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
        let col = pblock.col_lo + (h % u64::from(pblock.width())) as u16;
        let row = pblock.row_lo + ((h >> 32) % u64::from(pblock.height())) as u16;
        port.partpin = Some(pi_fabric::TileCoord::new(col, row));
    }
    Ok(())
}

/// Pre-implement one component: synthesize OOC, size a pblock, sweep
/// placement seeds, plan ports, route, lock, and wrap as a checkpoint.
/// Through the config's telemetry handle the DSE sweep reports each seed's
/// outcome (`flow::function_opt` / `dse_seed`) and the accepted
/// implementation (`component_built`); the engines below report under
/// `pnr::place` / `pnr::route`.
pub fn build_component(
    network: &Network,
    component: &Component,
    device: &Device,
    cfg: &FlowConfig,
) -> Result<(Checkpoint, ComponentBuildReport), FlowError> {
    let obs = cfg.obs();
    let dse = obs.scoped("flow::function_opt");
    let t0 = Instant::now();
    let proto = synth_component(network, component, &cfg.synth)?;
    let need = proto.resources();
    let pblock = size_pblock(&need, device, cfg.pblock_utilization)?;

    // Performance exploration: independent placements per seed, best Fmax
    // wins. Each evaluation is deterministic in its seed. The closure only
    // emits through the telemetry handle it is *given* — in the parallel
    // sweep that is a per-seed buffer, so the stream stays deterministic
    // at every thread count.
    let evaluate = |s: u64, obs: &Obs| -> Result<(f64, Module), FlowError> {
        let mut m = proto.clone();
        m.pblock = Some(pblock);
        // Partition pins act as fixed anchors during placement: planning
        // them *first* pulls each interface's logic toward its pblock edge,
        // so the boundary paths the stitched design will pay for stay
        // short. A refinement pass afterwards snaps the pin columns to the
        // placed logic.
        if cfg.plan_partpins {
            plan_partpins(&mut m, &pblock)?;
        } else {
            scatter_partpins(&mut m, &pblock)?;
        }
        place_module_obs(
            &mut m,
            device,
            &PlaceOptions {
                seed: s,
                effort: cfg.effort,
                region: Some(pblock),
            },
            obs,
        )?;
        if cfg.plan_partpins {
            plan_partpins(&mut m, &pblock)?;
        }
        let (_, congestion) = route_module_obs(&mut m, device, &cfg.route, &obs.with_seed(s))?;
        let timing = sta_module(&m, device, Some(&congestion))?;
        let dse = obs.scoped("flow::function_opt");
        if dse.enabled() {
            dse.with_seed(s).point(
                "dse_seed",
                &[
                    ("component", component.name.as_str().into()),
                    ("seed", s.into()),
                    ("fmax_mhz", timing.fmax_mhz.into()),
                ],
            );
        }
        Ok((timing.fmax_mhz, m))
    };

    // Sweep every seed, embarrassingly parallel. Each seed buffers its
    // telemetry; the buffers flush in seed index order after the join, so
    // the stream is identical at any PI_THREADS.
    let items: Vec<(u64, pi_obs::BufferedObs)> =
        cfg.seeds.iter().map(|&s| (s, obs.buffered())).collect();
    let evaluated: Vec<BufferedEval> = items
        .into_par_iter()
        .map(|(s, buf)| {
            let r = evaluate(s, buf.obs());
            (r, buf)
        })
        .collect();
    let mut candidates: Vec<Result<(f64, Module), FlowError>> = Vec::with_capacity(evaluated.len());
    for (r, buf) in evaluated {
        buf.flush_into(obs);
        candidates.push(r);
    }
    let candidates: Vec<(f64, Module)> = candidates.into_iter().collect::<Result<_, _>>()?;
    let mut best: Option<(f64, Module)> = None;
    for (fmax, m) in candidates {
        if best.as_ref().map(|(b, _)| fmax > *b).unwrap_or(true) {
            best = Some((fmax, m));
        }
    }
    let (fmax, mut module) = best.ok_or_else(|| FlowError::ComponentUnsatisfiable {
        component: component.name.clone(),
        reason: "no placement seeds supplied".to_string(),
    })?;

    // Clock pre-route marker + logic locking, then checkpoint.
    module.clock_prerouted = true;
    module.lock();
    let latency_cycles = pi_cnn::cycles::component_pipeline_depth(network, component)?;
    let signature = component.signature(network);
    let meta = CheckpointMeta {
        signature: signature.clone(),
        fmax_mhz: fmax,
        resources: need,
        pblock,
        device: device.name().to_string(),
        latency_cycles,
    };
    let report = ComponentBuildReport {
        name: component.name.clone(),
        signature,
        fmax_mhz: fmax,
        resources: need,
        pblock,
        seeds_tried: cfg.seeds.len(),
        latency_cycles,
        build_time: t0.elapsed(),
    };
    if dse.enabled() {
        dse.point(
            "component_built",
            &[
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
                ("wallclock_build_s", t0.elapsed().as_secs_f64().into()),
            ],
        );
    }
    Ok((Checkpoint { meta, module }, report))
}

/// Pre-stage lint gate: when `cfg.lint` is set, run the graph-family
/// passes *and* the `PL04xx` dataflow analysis on the network before
/// spending any implementation effort. Waivers are audited here, on the
/// merged report, so a waiver consumed by either pass counts as used.
pub(crate) fn lint_gate_network(network: &Network, cfg: &FlowConfig) -> Result<(), FlowError> {
    let Some(lc) = &cfg.lint else { return Ok(()) };
    let engine = pi_lint::LintEngine::new(lc.clone());
    let mut report = engine.lint_network(network, cfg.granularity, cfg.obs());
    report.merge(engine.lint_dataflow(network, cfg.granularity, cfg.obs()));
    report.audit_waivers(lc);
    if report.gate(lc.deny_warnings) {
        return Err(FlowError::LintFailed(report));
    }
    Ok(())
}

/// Post-stage lint gate: when `cfg.lint` is set, verify every checkpoint
/// the function-optimization stage produced (or loaded) honours its
/// envelope contracts and covers the network.
pub(crate) fn lint_gate_db(
    db: &ComponentDb,
    network: &Network,
    device: &Device,
    cfg: &FlowConfig,
) -> Result<(), FlowError> {
    let Some(lc) = &cfg.lint else { return Ok(()) };
    let engine = pi_lint::LintEngine::new(lc.clone());
    let report = engine.lint_db_for_network(network, cfg.granularity, db, Some(device), cfg.obs());
    if report.gate(lc.deny_warnings) {
        return Err(FlowError::LintFailed(report));
    }
    Ok(())
}

/// Build a set of components in parallel, buffering each component's
/// telemetry and flushing the buffers in component index order — the
/// pi-obs determinism contract for parallel regions (see
/// [`pi_obs::BufferedObs`]).
fn build_components_parallel(
    components: &[&Component],
    network: &Network,
    device: &Device,
    cfg: &FlowConfig,
) -> Result<Vec<(Checkpoint, ComponentBuildReport)>, FlowError> {
    type Built = Result<(Checkpoint, ComponentBuildReport), FlowError>;
    let obs = cfg.obs();
    let items: Vec<(&Component, pi_obs::BufferedObs)> =
        components.iter().map(|&c| (c, obs.buffered())).collect();
    let built: Vec<(Built, pi_obs::BufferedObs)> = items
        .into_par_iter()
        .map(|(c, buf)| {
            let cfg = cfg.clone().with_obs(buf.obs().clone());
            let r = build_component(network, c, device, &cfg);
            (r, buf)
        })
        .collect();
    let mut results: Vec<Built> = Vec::with_capacity(built.len());
    for (r, buf) in built {
        buf.flush_into(obs);
        results.push(r);
    }
    results.into_iter().collect()
}

/// The paper's stated future work: "the frequency of the pre-implemented
/// network is bounded by the slowest component of the design. We are
/// planning to investigate optimization approaches to improve the
/// performance of components during the function optimization stage."
///
/// Each round finds the slowest of this network's components and re-runs
/// its performance exploration with fresh seeds and doubled effort,
/// replacing the checkpoint when the new implementation is faster. Returns
/// one report per improvement made; stops early when a round fails to
/// improve.
pub fn improve_slowest(
    db: &mut ComponentDb,
    network: &Network,
    device: &Device,
    cfg: &FlowConfig,
    rounds: usize,
) -> Result<Vec<ComponentBuildReport>, FlowError> {
    cfg.apply_parallelism();
    let dse = cfg.obs().scoped("flow::function_opt");
    let components = network.components(cfg.granularity)?;
    let mut improvements = Vec::new();
    for round in 0..rounds {
        // Slowest checkpoint among this network's components.
        let (slowest_idx, old_fmax) = components
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                db.get(&c.signature(network))
                    .map(|cp| (i, cp.meta.fmax_mhz))
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .ok_or_else(|| FlowError::ComponentUnsatisfiable {
                component: network.name.clone(),
                reason: "no checkpoints for this network in the database".to_string(),
            })?;
        // Fresh seeds per round so reruns explore new placements, plus
        // doubled effort: a deeper dive on the one component that matters.
        let base = 1000 + (round as u64) * 16;
        let retry = cfg
            .clone()
            .with_seeds(base..base + cfg.seeds.len().max(4) as u64)
            .with_effort(cfg.effort * 2.0);
        let (cp, report) = build_component(network, &components[slowest_idx], device, &retry)?;
        let improved = report.fmax_mhz > old_fmax;
        if dse.enabled() {
            dse.point(
                "improve_round",
                &[
                    ("round", round.into()),
                    ("component", report.name.as_str().into()),
                    ("old_fmax_mhz", old_fmax.into()),
                    ("new_fmax_mhz", report.fmax_mhz.into()),
                    ("improved", improved.into()),
                ],
            );
        }
        if improved {
            db.insert(cp);
            improvements.push(report);
        } else {
            break;
        }
    }
    Ok(improvements)
}

/// Build the whole component database for a network. Components build in
/// parallel (rayon) — the "performed exactly once" investment of the paper.
pub fn build_component_db(
    network: &Network,
    device: &Device,
    cfg: &FlowConfig,
) -> Result<(ComponentDb, Vec<ComponentBuildReport>), FlowError> {
    cfg.apply_parallelism();
    lint_gate_network(network, cfg)?;
    let components = network.components(cfg.granularity)?;
    let span = cfg.obs().scoped("flow::function_opt").span_with(
        "build_component_db",
        &[("components", components.len().into())],
    );
    let refs: Vec<&Component> = components.iter().collect();
    let results = build_components_parallel(&refs, network, device, cfg)?;
    span.end();
    let mut db = ComponentDb::new();
    let mut reports = Vec::with_capacity(results.len());
    for (cp, report) in results {
        db.insert(cp);
        reports.push(report);
    }
    lint_gate_db(&db, network, device, cfg)?;
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
    lint_gate_network(network, cfg)?;
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
    let results = build_components_parallel(&refs, network, device, cfg)?;
    let mut reports = Vec::with_capacity(results.len());
    for ((cp, report), (_, key)) in results.into_iter().zip(&missing) {
        cache.insert(key, &cp, obs).map_err(FlowError::Stitch)?;
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
    lint_gate_db(&db, network, device, cfg)?;
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
        assert!(cp.module.locked);
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
    fn scattered_partpins_land_inside_the_pblock_deterministically() {
        let device = Device::xcku5p_like();
        let network = models::toy();
        let comps = network.components(Granularity::Layer).unwrap();
        let opts = FlowConfig::new().with_seeds([1]).with_plan_partpins(false);
        let (cp1, _) = build_component(&network, &comps[0], &device, &opts).unwrap();
        let (cp2, _) = build_component(&network, &comps[0], &device, &opts).unwrap();
        for (p1, p2) in cp1.module.ports().iter().zip(cp2.module.ports()) {
            let pin = p1.partpin.expect("scattered");
            assert!(cp1.meta.pblock.contains(pin), "{pin} outside pblock");
            assert_eq!(p1.partpin, p2.partpin, "scatter must be deterministic");
        }
        // At least one scattered pin sits off the pblock boundary — that is
        // the point of the un-planned model.
        let pb = cp1.meta.pblock;
        let interior = cp1.module.ports().iter().any(|p| {
            let pin = p.partpin.expect("scattered");
            pin.col != pb.col_lo
                && pin.col != pb.col_hi
                && pin.row != pb.row_lo
                && pin.row != pb.row_hi
        });
        assert!(interior, "scatter produced only boundary pins");
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
    fn improve_slowest_never_regresses_the_floor() {
        let device = Device::xcku5p_like();
        let toy = models::toy();
        let cfg = FlowConfig::new().with_seeds([1]);
        let (mut db, reports) = build_component_db(&toy, &device, &cfg).unwrap();
        let floor_before = reports
            .iter()
            .map(|r| r.fmax_mhz)
            .fold(f64::INFINITY, f64::min);
        let improvements = improve_slowest(&mut db, &toy, &device, &cfg, 2).unwrap();
        let floor_after = toy
            .components(Granularity::Layer)
            .unwrap()
            .iter()
            .map(|c| db.get(&c.signature(&toy)).unwrap().meta.fmax_mhz)
            .fold(f64::INFINITY, f64::min);
        assert!(
            floor_after >= floor_before,
            "floor regressed: {floor_before} -> {floor_after}"
        );
        for imp in &improvements {
            assert!(imp.fmax_mhz > floor_before);
        }
    }

    #[test]
    fn improve_slowest_errors_on_unknown_network() {
        let device = Device::xcku5p_like();
        let toy = models::toy();
        let mut empty = ComponentDb::new();
        let cfg = FlowConfig::new().with_seeds([1]);
        assert!(matches!(
            improve_slowest(&mut empty, &toy, &device, &cfg, 1),
            Err(FlowError::ComponentUnsatisfiable { .. })
        ));
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
