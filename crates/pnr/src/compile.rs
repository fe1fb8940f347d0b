//! The phased implementation flow: `opt_design` → `place_design` →
//! `phys_opt_design` → `route_design`, each phase wall-clock timed.
//!
//! These measured times are the productivity metric of the paper's Fig. 1a
//! and Fig. 6 — the baseline pays for all four phases on the whole design,
//! the pre-implemented flow only for inter-component routing.

use crate::place::{place_module_obs, PlaceOptions, PlaceStats};
use crate::power::{estimate, PowerReport};
use crate::route::{route_into, CongestionMap, RouteOptions, RouteStats, Target};
use crate::timing::{sta_module, TimingGraph, TimingReport};
use crate::PnrError;
use pi_fabric::TileCoord;
use pi_fabric::{Device, ResourceCount};
use pi_netlist::{CellId, Design, Module, NetView};
use pi_obs::Obs;
use std::time::{Duration, Instant};

/// Wall-clock duration of each phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimes {
    pub opt_design: Duration,
    pub place_design: Duration,
    pub phys_opt_design: Duration,
    pub route_design: Duration,
}

impl PhaseTimes {
    pub fn total(&self) -> Duration {
        self.opt_design + self.place_design + self.phys_opt_design + self.route_design
    }
}

/// Everything a compile run reports.
#[derive(Debug, Clone)]
pub struct CompileReport {
    pub design_name: String,
    pub device_name: String,
    pub phases: PhaseTimes,
    pub timing: TimingReport,
    pub resources: ResourceCount,
    pub power: PowerReport,
    pub place_stats: PlaceStats,
    pub route_stats: RouteStats,
    /// Wirelength of every routed net in the design, locked and new —
    /// `route_stats.wirelength` only counts nets routed in this run.
    pub total_wirelength: u64,
}

/// Options for a full compile.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileOptions {
    pub place: PlaceOptions,
    pub route: RouteOptions,
    /// phys_opt passes over the critical path (0 disables).
    pub phys_opt_passes: usize,
}

impl CompileOptions {
    pub fn with_seed(seed: u64) -> Self {
        CompileOptions {
            place: PlaceOptions {
                seed,
                ..Default::default()
            },
            route: RouteOptions::default(),
            phys_opt_passes: 2,
        }
    }
}

/// Full implementation of one module (the monolithic baseline path, and the
/// per-component OOC path). Each phase runs inside a span under
/// `pnr::compile`, and every phys-opt pass emits the critical path it
/// started from (`pnr::timing`).
pub fn compile_flat_obs(
    module: &mut Module,
    device: &Device,
    opts: &CompileOptions,
    obs: &Obs,
) -> Result<CompileReport, PnrError> {
    let phases = obs.scoped("pnr::compile").with_seed(opts.place.seed);
    let timing_obs = obs.scoped("pnr::timing").with_seed(opts.place.seed);

    // opt_design: structural cleanup/verification sweep.
    let t0 = Instant::now();
    let span = phases.span("opt_design");
    module.validate()?;
    let resources = module.resources();
    span.end();
    let opt_time = t0.elapsed();

    // place_design.
    let t1 = Instant::now();
    let span = phases.span("place_design");
    let place_stats = place_module_obs(module, device, &opts.place, obs)?;
    span.end();
    let place_time = t1.elapsed();

    // phys_opt_design: greedy relocation of critical-path cells.
    let t2 = Instant::now();
    let span = phases.span_with(
        "phys_opt_design",
        &[("passes", opts.phys_opt_passes.into())],
    );
    for pass in 0..opts.phys_opt_passes {
        let (improved, before) = phys_opt_pass(module, device)?;
        if timing_obs.enabled() {
            timing_obs.point(
                "phys_opt_pass",
                &[
                    ("pass", pass.into()),
                    ("critical_path_ps", before.critical_path_ps.into()),
                    ("fmax_mhz", before.fmax_mhz.into()),
                    ("path_cells", before.worst_path.len().into()),
                    ("improved", improved.into()),
                ],
            );
        }
        if !improved {
            break;
        }
    }
    span.end();
    let phys_opt_time = t2.elapsed();

    // route_design.
    let t3 = Instant::now();
    let span = phases.span("route_design");
    let routed = route_into(Target::Module(module), device, &opts.route, obs)?;
    span.end();
    let route_time = t3.elapsed();

    let phases = PhaseTimes {
        opt_design: opt_time,
        place_design: place_time,
        phys_opt_design: phys_opt_time,
        route_design: route_time,
    };
    let netlist = (module.name.as_str(), (&*module).into(), resources);
    report_routed(netlist, device, phases, place_stats, routed, &timing_obs)
}

/// The tail both compile paths share: final congestion-aware timing on the
/// routing run's own graph (one `final_timing` point), wirelength of every
/// stored route — locked and new; `route_stats.wirelength` only counts
/// this run's — and power.
fn report_routed(
    (name, view, resources): (&str, NetView<'_>, ResourceCount),
    device: &Device,
    phases: PhaseTimes,
    place_stats: PlaceStats,
    (route_stats, congestion, graph): (RouteStats, CongestionMap, TimingGraph),
    timing_obs: &Obs,
) -> Result<CompileReport, PnrError> {
    let timing = graph.report(view, device, Some(&congestion))?;
    if timing_obs.enabled() {
        timing_obs.point(
            "final_timing",
            &[
                ("critical_path_ps", timing.critical_path_ps.into()),
                ("fmax_mhz", timing.fmax_mhz.into()),
            ],
        );
    }
    let routes = view.nets().filter_map(|n| n.route());
    let total_wirelength: u64 = routes.map(|r| r.tiles.len() as u64).sum();
    let power = estimate(&resources, total_wirelength, timing.fmax_mhz);
    Ok(CompileReport {
        design_name: name.to_string(),
        device_name: device.name().to_string(),
        phases,
        timing,
        resources,
        power,
        place_stats,
        route_stats,
        total_wirelength,
    })
}

/// Final inter-component routing + analysis of an assembled design: the only
/// implementation work the pre-implemented flow leaves for the backend.
/// Telemetry as in [`compile_flat_obs`].
pub fn route_assembled_obs(
    design: &mut Design,
    device: &Device,
    opts: &RouteOptions,
    obs: &Obs,
) -> Result<CompileReport, PnrError> {
    let phases = obs.scoped("pnr::compile");
    let timing_obs = obs.scoped("pnr::timing");

    let t0 = Instant::now();
    let span = phases.span("opt_design");
    design.validate()?;
    let resources = design.resources();
    span.end();
    let opt_time = t0.elapsed();

    let t1 = Instant::now();
    let span = phases.span("route_design");
    let routed = route_into(Target::Design(design), device, opts, obs)?;
    span.end();
    let route_time = t1.elapsed();

    let phases = PhaseTimes {
        opt_design: opt_time,
        route_design: route_time,
        ..PhaseTimes::default()
    };
    let netlist = (design.name.as_str(), (&*design).into(), resources);
    report_routed(
        netlist,
        device,
        phases,
        PlaceStats::default(),
        routed,
        &timing_obs,
    )
}

/// One phys_opt pass: try to shorten the wires feeding the worst path by
/// moving its movable cells toward the centroid of their neighbours.
/// Returns whether anything improved, plus the timing report the pass
/// started from (the critical path it worked on).
fn phys_opt_pass(module: &mut Module, device: &Device) -> Result<(bool, TimingReport), PnrError> {
    let report = sta_module(module, device, None)?;
    if report.worst_path.len() < 2 {
        return Ok((false, report));
    }
    // Map path names back to cell indices.
    let mut path_cells: Vec<usize> = Vec::new();
    for name in &report.worst_path {
        if let Some(i) = module.cells().iter().position(|c| &c.name == name) {
            path_cells.push(i);
        }
    }
    // Occupancy of all placed cells.
    let mut occupied: std::collections::HashMap<TileCoord, usize> = module
        .cells()
        .iter()
        .enumerate()
        .filter_map(|(i, c)| c.placement.map(|p| (p, i)))
        .collect();

    // Neighbour coordinates per cell on the path (from its nets).
    let mut improved = false;
    for &ci in &path_cells {
        if module.cells()[ci].fixed {
            continue;
        }
        let Some(cur) = module.cells()[ci].placement else {
            continue;
        };
        let kind = module.cells()[ci].kind.site();
        // Gather this cell's net neighbours.
        let mut neighbours: Vec<TileCoord> = Vec::new();
        for net in module.nets() {
            if net.is_clock {
                continue;
            }
            let on_net = net
                .endpoints()
                .any(|e| matches!(e, pi_netlist::Endpoint::Cell(c) if c.index() == ci));
            if !on_net {
                continue;
            }
            for e in net.endpoints() {
                if let pi_netlist::Endpoint::Cell(c) = e {
                    if c.index() != ci {
                        if let Some(p) = module.cells()[c.index()].placement {
                            neighbours.push(p);
                        }
                    }
                }
            }
        }
        if neighbours.is_empty() {
            continue;
        }
        // Squared distance: unlike plain wirelength (which is constant
        // anywhere on the line between two neighbours — the plateau that
        // lets the annealer leave one long hop), it is minimized at the
        // centroid and therefore splits long hops evenly.
        let cost = |at: TileCoord| -> u64 {
            neighbours
                .iter()
                .map(|n| {
                    let d = u64::from(n.manhattan(&at));
                    d * d
                })
                .sum()
        };
        let cur_cost = cost(cur);
        // Try free same-kind sites around the neighbour centroid (a direct
        // jump) and around the current position (local slide).
        let centroid = TileCoord::new(
            (neighbours.iter().map(|n| u64::from(n.col)).sum::<u64>() / neighbours.len() as u64)
                as u16,
            (neighbours.iter().map(|n| u64::from(n.row)).sum::<u64>() / neighbours.len() as u64)
                as u16,
        );
        let mut best: Option<(u64, TileCoord)> = None;
        for center in [centroid, cur] {
            for dc in -8i32..=8 {
                for dr in -8i32..=8 {
                    let Some(cand) = center.translated(dc, dr) else {
                        continue;
                    };
                    if cand == cur || !device.in_bounds(cand) || occupied.contains_key(&cand) {
                        continue;
                    }
                    if device.tile_kind(cand)?.site() != Some(kind) {
                        continue;
                    }
                    let c = cost(cand);
                    if c < cur_cost && best.map(|(bc, _)| c < bc).unwrap_or(true) {
                        best = Some((c, cand));
                    }
                }
            }
        }
        if let Some((_, target)) = best {
            occupied.remove(&cur);
            occupied.insert(target, ci);
            module.set_placement(CellId(ci as u32), target)?;
            improved = true;
        }
    }
    Ok((improved, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::PlaceOptions;
    use pi_netlist::{Cell, CellKind, Endpoint, ModuleBuilder, StreamRole};

    fn comb_chain(n: usize) -> Module {
        let mut b = ModuleBuilder::new("cc");
        let din = b.input("din", StreamRole::Source, 16);
        let dout = b.output("dout", StreamRole::Sink, 16);
        let head = b.cell(Cell::new("head", CellKind::full_slice()));
        b.connect("in", Endpoint::Port(din), [Endpoint::Cell(head)]);
        let mut prev = head;
        for i in 0..n {
            let c = b.cell(
                Cell::new(format!("k{i}"), CellKind::full_slice())
                    .combinational()
                    .with_delay_ps(250),
            );
            b.connect(format!("n{i}"), Endpoint::Cell(prev), [Endpoint::Cell(c)]);
            prev = c;
        }
        let tail = b.cell(Cell::new("tail", CellKind::full_slice()));
        b.connect("nt", Endpoint::Cell(prev), [Endpoint::Cell(tail)]);
        b.connect("out", Endpoint::Cell(tail), [Endpoint::Port(dout)]);
        b.finish().unwrap()
    }

    #[test]
    fn full_compile_produces_complete_report() {
        let device = Device::test_part();
        let mut m = comb_chain(4);
        let report =
            compile_flat_obs(&mut m, &device, &CompileOptions::with_seed(5), &Obs::null()).unwrap();
        assert!(report.timing.fmax_mhz > 50.0);
        assert!(report.route_stats.overused_tiles == 0);
        assert!(report.power.total_mw() > 0.0);
        assert!(report.phases.total() > Duration::ZERO);
        assert!(m.fully_placed());
        assert!(m.fully_routed());
    }

    #[test]
    fn phys_opt_does_not_hurt_fmax() {
        let device = Device::test_part();
        let mut a = comb_chain(6);
        let mut b_m = comb_chain(6);
        let no_opt = CompileOptions {
            place: PlaceOptions {
                seed: 9,
                effort: 0.3,
                region: None,
            },
            route: RouteOptions::default(),
            phys_opt_passes: 0,
        };
        let with_opt = CompileOptions {
            phys_opt_passes: 4,
            ..no_opt
        };
        let ra = compile_flat_obs(&mut a, &device, &no_opt, &Obs::null()).unwrap();
        let rb = compile_flat_obs(&mut b_m, &device, &with_opt, &Obs::null()).unwrap();
        assert!(rb.timing.fmax_mhz >= ra.timing.fmax_mhz * 0.99);
    }

    #[test]
    fn assembled_routing_reports_only_route_phase() {
        let device = Device::test_part();
        let mut m = comb_chain(3);
        let _ =
            compile_flat_obs(&mut m, &device, &CompileOptions::with_seed(2), &Obs::null()).unwrap();
        m.lock();
        let mut d = Design::new("asm", "test-part", pi_netlist::DesignKind::Assembled);
        d.add_instance("a", m);
        let report =
            route_assembled_obs(&mut d, &device, &RouteOptions::default(), &Obs::null()).unwrap();
        assert_eq!(report.phases.place_design, Duration::ZERO);
        assert!(report.timing.fmax_mhz > 50.0);
    }
}
