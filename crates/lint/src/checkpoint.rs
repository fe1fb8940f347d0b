//! Checkpoint and component-database lints (`PL03xx`), plus the fold of
//! [`pi_stitch::Violation`] physical DRC results into diagnostics
//! (`PL031x`).
//!
//! A pre-implemented flow lives or dies by its checkpoint contracts: a
//! component can only be relocated and stitched if its internals are
//! locked, its placement stays inside the envelope pblock, its stream
//! ports sit on the pblock boundary ring, and its clock tree is already
//! routed. These passes verify each `.dcp` envelope against exactly
//! those contracts, before composition ever runs.

use crate::diag::Diagnostic;
use pi_cnn::graph::{Component, Granularity};
use pi_cnn::{cycles, Network};
use pi_fabric::Device;
use pi_netlist::Checkpoint;
use pi_stitch::{ComponentDb, Violation};

/// Stable code for a folded physical DRC violation.
pub fn violation_code(v: &Violation) -> &'static str {
    match v {
        Violation::UnplacedCell { .. } => "PL0310",
        Violation::WrongSiteKind { .. } => "PL0311",
        Violation::SiteConflict { .. } => "PL0312",
        Violation::OutsidePblock { .. } => "PL0313",
        Violation::PblockOverlap { .. } => "PL0314",
        Violation::PartpinOffPblock { .. } => "PL0315",
        Violation::RouteOffGrid { .. } => "PL0316",
        Violation::NotLocked { .. } => "PL0317",
        Violation::Unrouted { .. } => "PL0318",
    }
}

/// Fold one physical DRC violation into a diagnostic. The origin mirrors
/// the violation's anchor so waivers can target an instance, net or port.
pub fn diagnose_violation(base: &str, v: &Violation) -> Diagnostic {
    let origin = match v {
        Violation::UnplacedCell { instance, cell }
        | Violation::WrongSiteKind { instance, cell, .. }
        | Violation::OutsidePblock { instance, cell, .. } => {
            format!("{base}/inst:{instance}/cell:{cell}")
        }
        Violation::SiteConflict { a, .. } => format!("{base}/inst:{a}"),
        Violation::PblockOverlap { a, b } => format!("{base}/inst:{a}+{b}"),
        Violation::PartpinOffPblock { instance, port, .. } => {
            format!("{base}/inst:{instance}/port:{port}")
        }
        Violation::RouteOffGrid { net, .. } | Violation::Unrouted { net } => {
            format!("{base}/net:{net}")
        }
        Violation::NotLocked { instance } => format!("{base}/inst:{instance}"),
    };
    Diagnostic::new(violation_code(v), origin, v.to_string())
}

/// Run every envelope-contract lint on one checkpoint. `device`, when
/// given, is cross-checked against the envelope's recorded device.
pub fn lint_checkpoint(checkpoint: &Checkpoint, device: Option<&Device>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let meta = &checkpoint.meta;
    let module = &checkpoint.module;
    let base = format!("checkpoint:{}", meta.signature);

    // PL0302: reusable checkpoints must be frozen.
    if !module.locked {
        out.push(Diagnostic::new(
            "PL0302",
            base.clone(),
            "checkpointed module is not locked",
        ));
    }

    // PL0303: envelope pblock contract.
    match module.pblock {
        None => out.push(Diagnostic::new(
            "PL0303",
            format!("{base}/pblock"),
            "module has no pblock but the envelope promises one",
        )),
        Some(pb) if pb != meta.pblock => out.push(Diagnostic::new(
            "PL0303",
            format!("{base}/pblock"),
            format!(
                "module pblock {:?} differs from envelope pblock {:?}",
                pb, meta.pblock
            ),
        )),
        Some(_) => {}
    }
    let strays = module
        .cells()
        .iter()
        .filter(|c| c.placement.is_some_and(|at| !meta.pblock.contains(at)))
        .count();
    if strays > 0 {
        out.push(Diagnostic::new(
            "PL0303",
            format!("{base}/placement"),
            format!("{strays} placed cell(s) outside the envelope pblock"),
        ));
    }

    // PL0304: stream ports must carry partition pins on the pblock
    // boundary ring — that is what makes relocation + stitching legal.
    for port in module.ports() {
        let origin = format!("{base}/port:{}", port.name);
        match port.partpin {
            None => out.push(Diagnostic::new(
                "PL0304",
                origin,
                format!("port `{}` has no partition pin", port.name),
            )),
            Some(pin) => {
                if !meta.pblock.on_ring(pin) {
                    out.push(Diagnostic::new(
                        "PL0304",
                        origin,
                        format!(
                            "partition pin of `{}` at {pin} is off the pblock boundary ring",
                            port.name
                        ),
                    ));
                }
            }
        }
    }

    // PL0305: clock contract — a clock port exists and the tree is
    // pre-routed (the flow's skew guarantee across relocated components).
    let has_clock = module
        .ports_with_role(pi_netlist::StreamRole::Clock)
        .next()
        .is_some();
    if !has_clock {
        out.push(Diagnostic::new(
            "PL0305",
            format!("{base}/clock"),
            "checkpoint has no clock port",
        ));
    }
    if !module.clock_prerouted {
        out.push(Diagnostic::new(
            "PL0305",
            format!("{base}/clock"),
            "clock tree is not pre-routed",
        ));
    }

    // PL0306: the envelope's device must match the device we lint for.
    if let Some(dev) = device {
        if meta.device != dev.name() {
            out.push(Diagnostic::new(
                "PL0306",
                format!("{base}/device"),
                format!(
                    "envelope targets device `{}` but the flow runs on `{}`",
                    meta.device,
                    dev.name()
                ),
            ));
        }
    }

    // PL0307: envelope metadata must agree with the module it wraps.
    if module.resources() != meta.resources {
        out.push(Diagnostic::new(
            "PL0307",
            format!("{base}/resources"),
            format!(
                "envelope resources {:?} differ from module resources {:?}",
                meta.resources,
                module.resources()
            ),
        ));
    }
    if !meta.fmax_mhz.is_finite() || meta.fmax_mhz <= 0.0 {
        out.push(Diagnostic::new(
            "PL0307",
            format!("{base}/fmax"),
            format!("envelope Fmax {} MHz is not positive", meta.fmax_mhz),
        ));
    }

    // PL0308: a reusable checkpoint is fully implemented by definition.
    if !module.fully_placed() {
        out.push(Diagnostic::new(
            "PL0308",
            base.clone(),
            "module is not fully placed",
        ));
    }
    if !module.fully_routed() {
        out.push(Diagnostic::new(
            "PL0308",
            base.clone(),
            "module is not fully routed",
        ));
    }
    out
}

/// Cross-checkpoint consistency: every envelope in a database must name
/// the same device (PL0306) — mixing parts makes relocation meaningless.
pub fn lint_db_consistency(db: &ComponentDb) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut first: Option<(&str, &str)> = None;
    for cp in db.checkpoints() {
        match first {
            None => first = Some((cp.meta.signature.as_str(), cp.meta.device.as_str())),
            Some((sig0, dev0)) => {
                if cp.meta.device != dev0 {
                    out.push(Diagnostic::new(
                        "PL0306",
                        format!("checkpoint:{}/device", cp.meta.signature),
                        format!(
                            "device `{}` disagrees with `{}` (from `{sig0}`)",
                            cp.meta.device, dev0
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// PL0301: every component the network needs must have a checkpoint.
/// PL0307: and that checkpoint's measured `latency_cycles` / DSP count
/// must be what the rate model ([`pi_cnn::cycles`]) says of the component
/// it serves — the flow sizes FIFOs and prints latency from the model, so
/// a checkpoint that disagrees would be stitched under numbers that are
/// not its own.
pub fn lint_db_coverage(
    network: &Network,
    granularity: Granularity,
    db: &ComponentDb,
) -> Vec<Diagnostic> {
    let Ok(components) = network.components(granularity) else {
        // Graph-level lints already explain an unpartitionable network.
        return Vec::new();
    };
    let Ok(rates) = cycles::component_rates(network, &components) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (c, rate) in components.iter().zip(&rates) {
        let sig = c.signature(network);
        let Some(cp) = db.get(&sig) else {
            out.push(missing_component(&network.name, c, &sig));
            continue;
        };
        for (what, measured, modelled) in [
            ("latency_cycles", cp.meta.latency_cycles, rate.depth_cycles),
            ("dsps", cp.meta.resources.dsps, rate.dsps),
        ] {
            if measured != modelled {
                out.push(Diagnostic::new(
                    "PL0307",
                    format!("checkpoint:{sig}/{what}"),
                    format!(
                        "envelope {what} {measured} differs from the rate model's \
                         {modelled} for component `{}` of network `{}`",
                        c.name, network.name
                    ),
                ));
            }
        }
    }
    out
}

fn missing_component(network: &str, c: &Component, sig: &str) -> Diagnostic {
    Diagnostic::new(
        "PL0301",
        format!("network:{network}/component:{}", c.name),
        format!(
            "component `{}` (signature `{sig}`) has no checkpoint in the database",
            c.name
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::LintConfig;
    use crate::report::LintReport;
    use pi_fabric::TileCoord;

    fn codes_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn violation_fold_covers_every_variant() {
        let at = TileCoord::new(1, 2);
        let cases = vec![
            Violation::UnplacedCell {
                instance: "i".into(),
                cell: "c".into(),
            },
            Violation::WrongSiteKind {
                instance: "i".into(),
                cell: "c".into(),
                at,
            },
            Violation::SiteConflict {
                a: "a".into(),
                b: "b".into(),
                at,
            },
            Violation::OutsidePblock {
                instance: "i".into(),
                cell: "c".into(),
                at,
            },
            Violation::PblockOverlap {
                a: "a".into(),
                b: "b".into(),
            },
            Violation::PartpinOffPblock {
                instance: "i".into(),
                port: "p".into(),
                at,
            },
            Violation::RouteOffGrid {
                net: "n".into(),
                at,
            },
            Violation::NotLocked {
                instance: "i".into(),
            },
            Violation::Unrouted { net: "n".into() },
        ];
        let diags: Vec<Diagnostic> = cases
            .iter()
            .map(|v| diagnose_violation("design:d", v))
            .collect();
        let codes = codes_of(&diags);
        let expect = vec![
            "PL0310", "PL0311", "PL0312", "PL0313", "PL0314", "PL0315", "PL0316", "PL0317",
            "PL0318",
        ];
        assert_eq!(codes, expect, "one distinct code per variant");
        // Every fold is an error by default.
        let report = LintReport::from_raw(diags, &LintConfig::new());
        assert_eq!(report.errors(), 9);
    }
}
