//! Checkpoint and component-database lints (`PL03xx`): the fold of
//! [`pi_stitch::Violation`] verdicts into diagnostics, plus the database's
//! coverage of a network.
//!
//! A pre-implemented flow lives or dies by its checkpoint contracts: a
//! component can only be relocated and stitched if its internals are
//! locked, its placement stays inside the envelope pblock, its stream
//! ports sit on the pblock boundary ring, and its clock tree is already
//! routed. [`pi_stitch::check_checkpoint`] decides those contracts, as
//! [`pi_stitch::check_design`] decides a design's; this module only prints
//! the verdict, so no lint level or waiver can admit what the judge
//! rejects.

use crate::diag::Diagnostic;
use pi_cnn::graph::{Component, Granularity};
use pi_cnn::{cycles, Network};
use pi_fabric::Device;
use pi_netlist::Checkpoint;
use pi_stitch::{check_checkpoint, ComponentDb, StitchError, Violation};

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
        Violation::TileOverCapacity { .. } => "PL0319",
        Violation::PblockMismatch { .. } => "PL0303",
        Violation::NoPartpin { .. } => "PL0304",
        Violation::ClockNotPrerouted { .. } => "PL0305",
        Violation::DeviceMismatch { .. } => "PL0306",
        Violation::MetaMismatch { .. } => "PL0307",
        Violation::ModuleDefect { defect, .. } => crate::netlist::defect_code(defect.kind),
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
        Violation::PartpinOffPblock { instance, port, .. }
        | Violation::NoPartpin { instance, port } => {
            format!("{base}/inst:{instance}/port:{port}")
        }
        Violation::RouteOffGrid { net, .. } | Violation::Unrouted { net } => {
            format!("{base}/net:{net}")
        }
        Violation::NotLocked { instance } => format!("{base}/inst:{instance}"),
        Violation::TileOverCapacity { at, .. } => format!("{base}/tile:{at}"),
        Violation::PblockMismatch { instance, .. } => format!("{base}/inst:{instance}/pblock"),
        Violation::ClockNotPrerouted { instance, .. } => format!("{base}/inst:{instance}/clock"),
        Violation::DeviceMismatch { instance, .. } => format!("{base}/inst:{instance}/device"),
        Violation::MetaMismatch { instance, .. } => format!("{base}/inst:{instance}/meta"),
        // Where the netlist pass anchors the checkpoint's module.
        Violation::ModuleDefect { defect, .. } => format!("{base}/module/{}", defect.at),
    };
    Diagnostic::new(violation_code(v), origin, v.to_string())
}

/// The checkpoint judge's verdict ([`check_checkpoint`]) on one
/// checkpoint, folded through [`violation_code`]: the envelope contracts
/// print as `PL0303`–`PL0307`, the physical rules as `PL0310`–`PL0319`
/// and the module judge's defects as their `PL01xx` codes.
pub fn lint_checkpoint(
    checkpoint: &Checkpoint,
    device: &Device,
) -> Result<Vec<Diagnostic>, StitchError> {
    let base = format!("checkpoint:{}", checkpoint.meta.signature);
    let verdict = check_checkpoint(checkpoint, device)?;
    Ok(verdict
        .iter()
        .map(|v| diagnose_violation(&base, v))
        .collect())
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
            Violation::TileOverCapacity {
                at,
                routes: 65,
                capacity: 64,
            },
            Violation::PblockMismatch {
                instance: "i".into(),
                module: None,
                envelope: pi_fabric::Pblock::new(1, 16, 0, 7),
            },
            Violation::NoPartpin {
                instance: "i".into(),
                port: "p".into(),
            },
            Violation::ClockNotPrerouted {
                instance: "i".into(),
                clock_port: true,
            },
            Violation::DeviceMismatch {
                instance: "i".into(),
                envelope: "a".into(),
                device: "b".into(),
            },
            Violation::MetaMismatch {
                instance: "i".into(),
                detail: "d".into(),
            },
        ];
        let diags: Vec<Diagnostic> = cases
            .iter()
            .map(|v| diagnose_violation("design:d", v))
            .collect();
        let codes = codes_of(&diags);
        let expect = vec![
            "PL0310", "PL0311", "PL0312", "PL0313", "PL0314", "PL0315", "PL0316", "PL0317",
            "PL0318", "PL0319", "PL0303", "PL0304", "PL0305", "PL0306", "PL0307",
        ];
        assert_eq!(codes, expect, "one distinct code per variant");
        // Every fold is an error by default.
        let report = LintReport::from_raw(diags, &LintConfig::new());
        assert_eq!(report.errors(), 15);
    }
}
