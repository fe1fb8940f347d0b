//! Design-rule checks for assembled designs and for the checkpoints they
//! are assembled from — the flow's one legality verdict.
//!
//! Composition has many moving parts (relocation, overlap-free component
//! placement, partition pins, locked internals); this module verifies the
//! result *physically*: every cell on a legal site, no two cells sharing a
//! site across instances, every instance inside its pblock, partition pins
//! on pblock boundaries, routes within the grid and within the device's
//! track capacity, and locked modules intact.
//!
//! [`check_design`] is the *single* implementation of the physical checks
//! and the only judge of legality: both flows — `run_pre_implemented_flow`
//! and `run_baseline_flow` — call it unconditionally and any [`Violation`]
//! is `FlowError::DrcFailed`. The `pi-lint` pass manager never calls it;
//! it *folds* a verdict it is handed into codes `PL0310`–`PL0319`
//! (`pi_lint::checkpoint::violation_code`), so no lint policy can waive a
//! violation. The route checks read every net through
//! [`pi_netlist::NetView`] — the walk the router routed on — and skip the
//! per-tile walk of an instance whose route footprint
//! ([`pi_netlist::RouteFootprint`]) lies on the device. The capacity check
//! judges [`pi_netlist::NetView::occupancy`], the count the router seeds
//! from, against [`Device::route_capacity`].
//!
//! [`check_checkpoint`] is the same judge for one checkpoint: its module as
//! a one-instance assembled design at its stored position, plus the
//! envelope contracts only a checkpoint has (pblock, partition pins,
//! clock, device, metadata) and the module judge's verdict on its
//! netlist. The function-optimization sweep admits a seed only when it
//! passes, and `pi_lint` folds this verdict too (`PL0303`–`PL0307`, and
//! the netlist defects as their `PL01xx` codes).
//!
//! Site ownership is a dense per-tile grid of (instance, cell) indices, so
//! the check over the locked interiors allocates one vector and formats no
//! name: a hierarchical `instance/cell` tag is built only for a
//! `SiteConflict` it reports.

use crate::StitchError;
use pi_fabric::{Device, Pblock, TileCoord};
use pi_netlist::{
    Checkpoint, Design, DesignKind, ModuleDefect, NetView, PlacedNet, Slot, StreamRole,
};
use std::collections::HashMap;

/// One DRC violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A cell has no placement.
    UnplacedCell { instance: String, cell: String },
    /// A cell sits on a tile whose site kind does not match.
    WrongSiteKind {
        instance: String,
        cell: String,
        at: TileCoord,
    },
    /// Two cells (possibly from different instances) share a site.
    SiteConflict { a: String, b: String, at: TileCoord },
    /// A cell lies outside its instance's pblock.
    OutsidePblock {
        instance: String,
        cell: String,
        at: TileCoord,
    },
    /// Instance pblocks overlap.
    PblockOverlap { a: String, b: String },
    /// A partition pin lies off its pblock boundary ring.
    PartpinOffPblock {
        instance: String,
        port: String,
        at: TileCoord,
    },
    /// A route visits a tile outside the device.
    RouteOffGrid { net: String, at: TileCoord },
    /// An instance that should be locked is not.
    NotLocked { instance: String },
    /// A non-clock net is unrouted.
    Unrouted { net: String },
    /// More routes occupy a tile than the device has wires per tile.
    TileOverCapacity {
        at: TileCoord,
        routes: u16,
        capacity: u16,
    },
    /// A checkpoint's module pblock is missing or is not its envelope's.
    PblockMismatch {
        instance: String,
        module: Option<Pblock>,
        envelope: Pblock,
    },
    /// A checkpoint port has no partition pin.
    NoPartpin { instance: String, port: String },
    /// A checkpoint has no clock port, or its clock is not pre-routed.
    ClockNotPrerouted { instance: String, clock_port: bool },
    /// A checkpoint's envelope names another device.
    DeviceMismatch {
        instance: String,
        envelope: String,
        device: String,
    },
    /// A checkpoint's envelope metadata disagrees with its module, or its
    /// Fmax is not a positive finite number.
    MetaMismatch { instance: String, detail: String },
    /// A checkpoint's module fails the module judge
    /// ([`pi_netlist::Module::defects`]).
    ModuleDefect {
        instance: String,
        defect: ModuleDefect,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::UnplacedCell { instance, cell } => {
                write!(f, "unplaced cell {instance}/{cell}")
            }
            Violation::WrongSiteKind { instance, cell, at } => {
                write!(f, "cell {instance}/{cell} on wrong site kind at {at}")
            }
            Violation::SiteConflict { a, b, at } => {
                write!(f, "site conflict at {at}: {a} vs {b}")
            }
            Violation::OutsidePblock { instance, cell, at } => {
                write!(f, "cell {instance}/{cell} at {at} outside its pblock")
            }
            Violation::PblockOverlap { a, b } => write!(f, "pblocks of {a} and {b} overlap"),
            Violation::PartpinOffPblock { instance, port, at } => {
                write!(
                    f,
                    "partpin {instance}/{port} at {at} off the pblock boundary"
                )
            }
            Violation::RouteOffGrid { net, at } => write!(f, "route of {net} off grid at {at}"),
            Violation::NotLocked { instance } => write!(f, "instance {instance} not locked"),
            Violation::Unrouted { net } => write!(f, "net {net} unrouted"),
            Violation::TileOverCapacity {
                at,
                routes,
                capacity,
            } => write!(f, "{routes} routes occupy tile {at}, capacity {capacity}"),
            Violation::PblockMismatch {
                instance,
                module,
                envelope,
            } => write!(
                f,
                "module pblock {module:?} of {instance} differs from envelope pblock {envelope:?}"
            ),
            Violation::NoPartpin { instance, port } => {
                write!(f, "port {instance}/{port} has no partition pin")
            }
            Violation::ClockNotPrerouted {
                instance,
                clock_port: false,
            } => write!(f, "checkpoint {instance} has no clock port"),
            Violation::ClockNotPrerouted { instance, .. } => {
                write!(f, "clock tree of {instance} is not pre-routed")
            }
            Violation::DeviceMismatch {
                instance,
                envelope,
                device,
            } => write!(
                f,
                "checkpoint {instance} targets device `{envelope}` but the flow runs on `{device}`"
            ),
            Violation::MetaMismatch { instance, detail } => {
                write!(f, "envelope of {instance}: {detail}")
            }
            Violation::ModuleDefect { instance, defect } => {
                write!(f, "netlist of {instance}: {}", defect.message)
            }
        }
    }
}

/// An (instance, cell) index pair: who holds a site.
type Owner = (u32, u32);

/// Run every check; returns all violations found (empty = clean).
pub fn check_design(design: &Design, device: &Device) -> Result<Vec<Violation>, StitchError> {
    let mut violations = Vec::new();
    // The cell that last claimed each site: a dense column-major grid for
    // on-grid tiles, a map for the off-grid ones only a corrupt design
    // has. Names are formatted only when a conflict is reported.
    let rows = usize::from(device.rows());
    let mut site_owner: Vec<Option<Owner>> = vec![None; usize::from(device.cols()) * rows];
    let mut off_grid_owner: HashMap<TileCoord, Owner> = HashMap::new();
    let tag = |(inst, cell): Owner| {
        let inst = &design.instances()[inst as usize];
        format!("{}/{}", inst.name, inst.module.cells()[cell as usize].name)
    };

    for (ii, inst) in design.instances().iter().enumerate() {
        if design.kind == DesignKind::Assembled && !inst.module.is_locked() {
            violations.push(Violation::NotLocked {
                instance: inst.name.clone(),
            });
        }
        let pblock = inst.module.pblock;
        for (ci, cell) in inst.module.cells().iter().enumerate() {
            let Some(at) = cell.placement else {
                violations.push(Violation::UnplacedCell {
                    instance: inst.name.clone(),
                    cell: cell.name.clone(),
                });
                continue;
            };
            // Site kind legality.
            match device.site_at(at) {
                Ok(Some(site)) if site == cell.kind.site() => {}
                _ => violations.push(Violation::WrongSiteKind {
                    instance: inst.name.clone(),
                    cell: cell.name.clone(),
                    at,
                }),
            }
            // Exclusive occupancy across ALL instances.
            let owner = (ii as u32, ci as u32);
            let prev = if device.in_bounds(at) {
                let site = usize::from(at.col) * rows + usize::from(at.row);
                site_owner[site].replace(owner)
            } else {
                off_grid_owner.insert(at, owner)
            };
            if let Some(prev) = prev {
                violations.push(Violation::SiteConflict {
                    a: tag(prev),
                    b: tag(owner),
                    at,
                });
            }
            // Pblock containment.
            if let Some(pb) = pblock {
                if !pb.contains(at) {
                    violations.push(Violation::OutsidePblock {
                        instance: inst.name.clone(),
                        cell: cell.name.clone(),
                        at,
                    });
                }
            }
        }
        // Partition pins must sit on the pblock boundary ring.
        if let Some(pb) = pblock {
            for port in inst.module.ports() {
                if let Some(pin) = port.partpin {
                    if !pb.on_ring(pin) {
                        violations.push(Violation::PartpinOffPblock {
                            instance: inst.name.clone(),
                            port: port.name.clone(),
                            at: pin,
                        });
                    }
                }
            }
        }
    }

    // Pairwise pblock disjointness.
    let pbs: Vec<(&str, pi_fabric::Pblock)> = design
        .instances()
        .iter()
        .filter_map(|i| i.module.pblock.map(|pb| (i.name.as_str(), pb)))
        .collect();
    for i in 0..pbs.len() {
        for j in (i + 1)..pbs.len() {
            if pbs[i].1.overlaps(&pbs[j].1) {
                violations.push(Violation::PblockOverlap {
                    a: pbs[i].0.to_string(),
                    b: pbs[j].0.to_string(),
                });
            }
        }
    }

    // Every non-clock net, intra-instance then top, routed and on-grid.
    // An instance whose stored routes all lie on the device (its shared
    // route summary's extent, shifted) can only be unrouted: its tiles are
    // not walked.
    let view = NetView::from(design);
    let mut check_net = |net: PlacedNet| {
        let Some(route) = net.route() else {
            violations.push(Violation::Unrouted { net: net.path() });
            return;
        };
        for at in route.tiles().filter(|&t| !device.in_bounds(t)) {
            let net = net.path();
            violations.push(Violation::RouteOffGrid { net, at });
        }
    };
    for inst in 0..view.instance_count() {
        let footprint = view.footprint(inst);
        if footprint.on_device(device) {
            for &net in footprint.unrouted() {
                check_net(view.net(Slot::Intra {
                    inst,
                    net: net as usize,
                }));
            }
        } else {
            view.instance_nets(inst).for_each(&mut check_net);
        }
    }
    view.top_nets().for_each(check_net);

    // Track capacity, tile by tile in column-major order. A column's
    // maximum screens it first: almost every column is within capacity.
    let capacity = device.route_capacity();
    for (col, occupancy) in view.occupancy(device).chunks(rows).enumerate() {
        if occupancy.iter().fold(0, |m, &o| m.max(o)) > capacity {
            for (row, &routes) in occupancy.iter().enumerate() {
                if routes > capacity {
                    violations.push(Violation::TileOverCapacity {
                        at: TileCoord::new(col as u16, row as u16),
                        routes,
                        capacity,
                    });
                }
            }
        }
    }

    Ok(violations)
}

/// Judge one checkpoint: its module, named as itself, as a one-instance
/// assembled design at its stored position ([`check_design`], so every
/// physical rule applies, track capacity included), plus the envelope
/// contracts that make it relocatable and reusable and the module judge's
/// verdict on its netlist ([`pi_netlist::Module::defects`]). Returns every
/// violation found (empty = admissible).
pub fn check_checkpoint(
    checkpoint: &Checkpoint,
    device: &Device,
) -> Result<Vec<Violation>, StitchError> {
    let (meta, module) = (&checkpoint.meta, &checkpoint.module);
    let instance = || module.name.clone();
    let mut violations = Vec::new();
    if module.pblock != Some(meta.pblock) {
        violations.push(Violation::PblockMismatch {
            instance: instance(),
            module: module.pblock,
            envelope: meta.pblock,
        });
    }
    for port in module.ports().iter().filter(|p| p.partpin.is_none()) {
        violations.push(Violation::NoPartpin {
            instance: instance(),
            port: port.name.clone(),
        });
    }
    let clock_port = module.ports_with_role(StreamRole::Clock).next().is_some();
    if !clock_port || !module.clock_prerouted {
        violations.push(Violation::ClockNotPrerouted {
            instance: instance(),
            clock_port,
        });
    }
    if meta.device != device.name() {
        violations.push(Violation::DeviceMismatch {
            instance: instance(),
            envelope: meta.device.clone(),
            device: device.name().to_string(),
        });
    }
    if meta.resources != module.resources() {
        violations.push(Violation::MetaMismatch {
            instance: instance(),
            detail: format!(
                "resources {:?} differ from the module's {:?}",
                meta.resources,
                module.resources()
            ),
        });
    }
    if !(meta.fmax_mhz.is_finite() && meta.fmax_mhz > 0.0) {
        violations.push(Violation::MetaMismatch {
            instance: instance(),
            detail: format!("Fmax {} MHz is not positive", meta.fmax_mhz),
        });
    }
    for defect in module.defects() {
        let instance = instance();
        violations.push(Violation::ModuleDefect { instance, defect });
    }
    let mut design = Design::new(&meta.signature, device.name(), DesignKind::Assembled);
    design.add_instance(instance(), module.clone());
    violations.extend(check_design(&design, device)?);
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::{compose_obs, ComposeOptions};
    use crate::db::ComponentDb;
    use pi_cnn::models;
    use pi_fabric::Pblock;
    use pi_netlist::{CheckpointMeta, StreamRole};
    use pi_obs::Obs;
    use pi_synth::{synth_component, SynthOptions};

    /// The same database builder the compose tests use.
    fn toy_db(device: &Device, network: &pi_cnn::Network) -> ComponentDb {
        let comps = network
            .components(pi_cnn::graph::Granularity::Layer)
            .unwrap();
        let mut db = ComponentDb::new();
        for comp in &comps {
            let mut m = synth_component(network, comp, &SynthOptions::lenet_like()).unwrap();
            let pb = Pblock::new(1, 16, 0, 59);
            m.pblock = Some(pb);
            pi_pnr::place_module_obs(
                &mut m,
                device,
                &pi_pnr::PlaceOptions {
                    seed: 7,
                    effort: 0.5,
                    region: Some(pb),
                },
                &Obs::null(),
            )
            .unwrap();
            let n_ports = m.ports().len();
            {
                let ports = m.ports_mut().unwrap();
                for (i, port) in ports.iter_mut().enumerate() {
                    let row = (i * 59 / n_ports.max(1)) as u16;
                    port.partpin = Some(TileCoord::new(
                        if port.role == StreamRole::Source || port.role == StreamRole::Clock {
                            1
                        } else {
                            16
                        },
                        row,
                    ));
                }
            }
            let _ = pi_pnr::route_module_obs(
                &mut m,
                device,
                &pi_pnr::RouteOptions::default(),
                &Obs::null(),
            )
            .unwrap();
            m.lock();
            db.insert(pi_netlist::Checkpoint {
                meta: CheckpointMeta {
                    signature: comp.signature(network),
                    fmax_mhz: 500.0,
                    resources: m.resources(),
                    pblock: pb,
                    device: device.name().to_string(),
                    latency_cycles: 8,
                },
                module: m,
            });
        }
        db
    }

    #[test]
    fn composed_and_routed_design_is_clean() {
        let device = Device::xcku5p_like();
        let network = models::toy();
        let db = toy_db(&device, &network);
        let (mut design, _) = compose_obs(
            &network,
            &db,
            &device,
            &ComposeOptions::default(),
            &Obs::null(),
        )
        .unwrap();
        let _ = pi_pnr::route_design_obs(
            &mut design,
            &device,
            &pi_pnr::RouteOptions::default(),
            &Obs::null(),
        )
        .unwrap();
        let violations = check_design(&design, &device).unwrap();
        assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn unrouted_top_nets_are_flagged() {
        let device = Device::xcku5p_like();
        let network = models::toy();
        let db = toy_db(&device, &network);
        let (design, _) = compose_obs(
            &network,
            &db,
            &device,
            &ComposeOptions::default(),
            &Obs::null(),
        )
        .unwrap();
        let violations = check_design(&design, &device).unwrap();
        let unrouted = violations
            .iter()
            .filter(|v| matches!(v, Violation::Unrouted { .. }))
            .count();
        assert_eq!(unrouted, design.top_nets().len());
    }

    #[test]
    fn deliberate_overlap_is_caught() {
        let device = Device::xcku5p_like();
        let network = models::toy();
        let db = toy_db(&device, &network);
        let (mut design, _) = compose_obs(
            &network,
            &db,
            &device,
            &ComposeOptions::default(),
            &Obs::null(),
        )
        .unwrap();
        let _ = pi_pnr::route_design_obs(
            &mut design,
            &device,
            &pi_pnr::RouteOptions::default(),
            &Obs::null(),
        )
        .unwrap();
        // Clone instance 0's module over instance 1: pblocks and sites now
        // collide.
        let clone = design.instances()[0].module.clone();
        design.instances_mut()[1].module = clone;
        let violations = check_design(&design, &device).unwrap();
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::PblockOverlap { .. })));
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::SiteConflict { .. })));
    }

    #[test]
    fn partpin_off_boundary_is_caught() {
        let device = Device::xcku5p_like();
        let network = models::toy();
        let db = toy_db(&device, &network);
        let (mut design, _) = compose_obs(
            &network,
            &db,
            &device,
            &ComposeOptions::default(),
            &Obs::null(),
        )
        .unwrap();
        let _ = pi_pnr::route_design_obs(
            &mut design,
            &device,
            &pi_pnr::RouteOptions::default(),
            &Obs::null(),
        )
        .unwrap();
        // Force one partpin into the pblock interior. The module is locked,
        // so build a modified copy.
        let mut m = design.instances()[0].module.clone();
        let pb = m.pblock.expect("has pblock");
        let interior = TileCoord::new(pb.col_lo + 2, pb.row_lo + 2);
        // Unlock by rebuilding a shallow copy with locked=false is not part
        // of the API; emulate an upstream bug by deserializing and editing.
        let mut json: serde_json::Value =
            serde_json::from_str(&serde_json::to_string(&m).unwrap()).unwrap();
        json["locked"] = serde_json::Value::Bool(false);
        m = serde_json::from_value(json).unwrap();
        m.ports_mut().unwrap()[0].partpin = Some(interior);
        m.lock();
        design.instances_mut()[0].module = m;
        let violations = check_design(&design, &device).unwrap();
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::PartpinOffPblock { .. })));
    }
}
