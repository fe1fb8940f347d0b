//! Netlist-structure lints (`PL01xx`) over [`pi_netlist::Module`] and
//! [`pi_netlist::Design`].
//!
//! The deny-level codes compute nothing of their own: `PL0101`, `PL0104`,
//! `PL0105` and `PL0108` are a fold of the module judge's verdict
//! ([`Module::defects`], [`Design::defects`], which every flow entry
//! enforces) through the one [`defect_code`] map, so no level or waiver
//! can admit a netlist the flow refuses. Only the advisories are derived
//! here: an input port that feeds nothing, a floating output, dead logic
//! and fan-out hotspots (`PL0102`, `PL0103`, `PL0106`, `PL0107`). Both are
//! pure structure — no device or timing knowledge — so the passes run in
//! microseconds even on the VGG-scale modules the synthesizer emits.

use crate::diag::Diagnostic;
use pi_netlist::{sample_names, Direction, Endpoint, Module, ModuleDefect, ModuleDefectKind};

/// Stable code for a class of module-judge defect.
pub fn defect_code(kind: ModuleDefectKind) -> &'static str {
    match kind {
        ModuleDefectKind::MultiDriven => "PL0101",
        ModuleDefectKind::WidthMismatch => "PL0104",
        ModuleDefectKind::CombinationalLoop => "PL0105",
        ModuleDefectKind::DanglingRef
        | ModuleDefectKind::Sinkless
        | ModuleDefectKind::Direction
        | ModuleDefectKind::FanIn
        | ModuleDefectKind::FanOut => "PL0108",
    }
}

/// Fold the module or design judge's defects into diagnostics anchored
/// under `base`.
pub(crate) fn fold_defects(base: &str, defects: Vec<ModuleDefect>) -> Vec<Diagnostic> {
    defects
        .into_iter()
        .map(|d| Diagnostic::new(defect_code(d.kind), format!("{base}/{}", d.at), d.message))
        .collect()
}

/// The warn-level module lints: `PL0102`, `PL0103`, `PL0106`, `PL0107`.
/// An endpoint naming a missing cell or port (the judge's `PL0108`) is
/// skipped.
pub(crate) fn module_advisories(base: &str, module: &Module) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    port_drive_lints(base, module, &mut out);
    unreachable_cell_lints(base, module, &mut out);
    fanout_lints(base, module, &mut out);
    out
}

/// PL0102 / PL0103: inside a module an *input* port is a signal source
/// that should drive at least one net, and an *output* port a signal sink
/// that should be sunk by one (several is the judge's `PL0101`).
fn port_drive_lints(base: &str, module: &Module, out: &mut Vec<Diagnostic>) {
    let mut used = vec![false; module.ports().len()];
    let mut mark = |e: Endpoint, dir: Direction| {
        if let Endpoint::Port(p) = e {
            if module
                .ports()
                .get(p.index())
                .is_some_and(|port| port.dir == dir)
            {
                used[p.index()] = true;
            }
        }
    };
    for net in module.nets() {
        mark(net.source, Direction::Input);
        for &sink in &net.sinks {
            mark(sink, Direction::Output);
        }
    }
    for (port, _) in module.ports().iter().zip(&used).filter(|(_, &u)| !u) {
        let (code, message) = match port.dir {
            Direction::Input => (
                "PL0102",
                format!("input port `{}` drives no net", port.name),
            ),
            Direction::Output => (
                "PL0103",
                format!("output port `{}` is driven by no net", port.name),
            ),
        };
        out.push(Diagnostic::new(
            code,
            format!("{base}/port:{}", port.name),
            message,
        ));
    }
}

/// PL0106: cells with no connectivity path to any port. Treats each net
/// as an undirected hyperedge and floods from every port-touching net;
/// whatever stays unmarked can be deleted without changing any port's
/// behaviour. One aggregated diagnostic per module to avoid a flood.
fn unreachable_cell_lints(base: &str, module: &Module, out: &mut Vec<Diagnostic>) {
    if module.ports().is_empty() || module.cells().is_empty() {
        return;
    }
    let mut cell_nets: Vec<Vec<usize>> = vec![Vec::new(); module.cells().len()];
    let mut worklist: Vec<usize> = Vec::new();
    let mut net_seen = vec![false; module.nets().len()];
    for (ni, net) in module.nets().iter().enumerate() {
        let mut touches_port = false;
        for e in net.endpoints() {
            match e {
                Endpoint::Cell(c) => {
                    if let Some(nets) = cell_nets.get_mut(c.index()) {
                        nets.push(ni);
                    }
                }
                Endpoint::Port(_) => touches_port = true,
            }
        }
        if touches_port {
            net_seen[ni] = true;
            worklist.push(ni);
        }
    }
    let mut cell_seen = vec![false; module.cells().len()];
    while let Some(ni) = worklist.pop() {
        for e in module.nets()[ni].endpoints() {
            let Endpoint::Cell(c) = e else { continue };
            if cell_seen.get(c.index()).is_none_or(|&seen| seen) {
                continue;
            }
            cell_seen[c.index()] = true;
            for &next in &cell_nets[c.index()] {
                if !net_seen[next] {
                    net_seen[next] = true;
                    worklist.push(next);
                }
            }
        }
    }
    let dead: Vec<String> = module
        .cells()
        .iter()
        .enumerate()
        .filter(|(i, _)| !cell_seen[*i])
        .map(|(_, c)| c.name.to_string())
        .collect();
    if !dead.is_empty() {
        out.push(Diagnostic::new(
            "PL0106",
            format!("{base}/cells"),
            format!(
                "{} cell(s) unreachable from any port (dead logic): {}",
                dead.len(),
                sample_names(&dead)
            ),
        ));
    }
}

/// Endpoint count above which `PL0107` calls a net a fan-out hotspot.
const FANOUT_THRESHOLD: usize = 64;

/// PL0107: fan-out hotspots — nets whose endpoint count exceeds
/// [`FANOUT_THRESHOLD`] and would need replication or extra pipelining
/// in a real device.
fn fanout_lints(base: &str, module: &Module, out: &mut Vec<Diagnostic>) {
    for net in module.nets() {
        if net.is_clock {
            continue; // clock trees use dedicated routing; fan-out is free
        }
        if net.degree() > FANOUT_THRESHOLD {
            out.push(Diagnostic::new(
                "PL0107",
                format!("{base}/net:{}", net.name),
                format!(
                    "net `{}` has fan-out {} (threshold {FANOUT_THRESHOLD})",
                    net.name,
                    net.degree(),
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_netlist::{Cell, CellKind, ModuleBuilder, StreamRole};

    fn reg(b: &mut ModuleBuilder, name: &str) -> pi_netlist::CellId {
        b.cell(Cell::new(name, CellKind::full_slice()))
    }

    fn comb(b: &mut ModuleBuilder, name: &str) -> pi_netlist::CellId {
        b.cell(Cell::new(name, CellKind::full_slice()).combinational())
    }

    /// Every module-level netlist lint: the module judge's verdict, then
    /// the advisories.
    fn lint_module(origin_base: &str, module: &Module) -> Vec<Diagnostic> {
        let mut out = fold_defects(origin_base, module.defects());
        out.extend(module_advisories(origin_base, module));
        out
    }

    fn codes_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_module_lints_clean() {
        let mut b = ModuleBuilder::new("m");
        let din = b.input("din", StreamRole::Source, 8);
        let dout = b.output("dout", StreamRole::Sink, 8);
        let a = reg(&mut b, "a");
        let c = comb(&mut b, "c");
        b.connect("n_in", Endpoint::Port(din), [Endpoint::Cell(a)]);
        b.connect("n_mid", Endpoint::Cell(a), [Endpoint::Cell(c)]);
        b.connect("n_out", Endpoint::Cell(c), [Endpoint::Port(dout)]);
        let m = b.finish().unwrap();
        assert!(lint_module("module:m", &m).is_empty());
    }

    #[test]
    fn detects_dangling_input() {
        let mut b = ModuleBuilder::new("m");
        let _din = b.input("din", StreamRole::Source, 8);
        let dout = b.output("dout", StreamRole::Sink, 8);
        let a = reg(&mut b, "a");
        let c = reg(&mut b, "c");
        b.connect("n0", Endpoint::Cell(a), [Endpoint::Cell(c)]);
        b.connect("n1", Endpoint::Cell(c), [Endpoint::Port(dout)]);
        let m = b.finish().unwrap();
        let codes = codes_of(&lint_module("module:m", &m));
        assert_eq!(codes, ["PL0102"]);
    }

    #[test]
    fn detects_floating_output() {
        let mut b = ModuleBuilder::new("m");
        let din = b.input("din", StreamRole::Source, 8);
        let _dout = b.output("dout", StreamRole::Sink, 8);
        let a = reg(&mut b, "a");
        let c = reg(&mut b, "c");
        b.connect("n0", Endpoint::Port(din), [Endpoint::Cell(a)]);
        b.connect("n1", Endpoint::Cell(a), [Endpoint::Cell(c)]);
        let m = b.finish().unwrap();
        let codes = codes_of(&lint_module("module:m", &m));
        assert!(codes.contains(&"PL0103"), "{codes:?}");
    }

    #[test]
    fn deny_codes_are_the_module_judge_folded() {
        // din -> x -> y -> dout, then y also feeds x (a loop through two
        // unregistered cells) and x also drives dout (multi-driven).
        let mut b = ModuleBuilder::new("lp");
        let din = b.input("din", StreamRole::Source, 8);
        let dout = b.output("dout", StreamRole::Sink, 8);
        let x = comb(&mut b, "x");
        let y = comb(&mut b, "y");
        b.connect("n0", Endpoint::Port(din), [Endpoint::Cell(x)]);
        b.connect("n1", Endpoint::Cell(x), [Endpoint::Cell(y)]);
        b.connect("n2", Endpoint::Cell(y), [Endpoint::Port(dout)]);
        let mut m = b.finish().unwrap();
        assert!(lint_module("module:lp", &m).is_empty());
        let nets = m.nets_mut().unwrap();
        nets[2].sinks.push(Endpoint::Cell(x));
        nets[1].sinks.push(Endpoint::Port(dout));
        let diags = lint_module("module:lp", &m);
        let got: Vec<(&str, &str)> = diags.iter().map(|d| (d.code, d.origin.as_str())).collect();
        assert_eq!(
            got,
            [
                ("PL0101", "module:lp/port:dout"),
                ("PL0105", "module:lp/cell:x"),
            ]
        );
        assert!(diags[1].message.contains("2 cell(s): x, y"), "{diags:?}");
    }

    #[test]
    fn detects_unreachable_cells_aggregated() {
        let mut b = ModuleBuilder::new("m");
        let din = b.input("din", StreamRole::Source, 8);
        let dout = b.output("dout", StreamRole::Sink, 8);
        let a = reg(&mut b, "a");
        b.connect("n0", Endpoint::Port(din), [Endpoint::Cell(a)]);
        b.connect("n1", Endpoint::Cell(a), [Endpoint::Port(dout)]);
        // Island: u -> v, disconnected from every port.
        let u = reg(&mut b, "u");
        let v = reg(&mut b, "v");
        b.connect("n2", Endpoint::Cell(u), [Endpoint::Cell(v)]);
        let m = b.finish().unwrap();
        let diags = lint_module("module:m", &m);
        let dead: Vec<_> = diags.iter().filter(|d| d.code == "PL0106").collect();
        assert_eq!(dead.len(), 1, "one aggregated diagnostic: {diags:?}");
        assert!(dead[0].message.contains("2 cell(s)"));
    }

    #[test]
    fn fanout_hotspot_trips_above_the_threshold() {
        // A net's degree is its driver plus its sinks: 65 sinks is the
        // first fan-out past the 64-endpoint threshold, 63 sinks sits on it.
        let wide_net = |sinks: usize| {
            let mut b = ModuleBuilder::new("m");
            let din = b.input("din", StreamRole::Source, 8);
            let dout = b.output("dout", StreamRole::Sink, 8);
            let cells: Vec<_> = (0..sinks).map(|i| reg(&mut b, &format!("c{i}"))).collect();
            let sinks: Vec<_> = cells.iter().map(|&c| Endpoint::Cell(c)).collect();
            b.connect("wide", Endpoint::Port(din), sinks.clone());
            // The fanned-out cells chain into dout.
            for (i, pair) in sinks.windows(2).enumerate() {
                b.connect(format!("o{i}"), pair[0], [pair[1]]);
            }
            b.connect("out", sinks[sinks.len() - 1], [Endpoint::Port(dout)]);
            b.finish().unwrap()
        };
        let codes = codes_of(&lint_module("module:m", &wide_net(65)));
        assert!(codes.contains(&"PL0107"), "{codes:?}");
        let codes = codes_of(&lint_module("module:m", &wide_net(63)));
        assert!(!codes.contains(&"PL0107"), "{codes:?}");
    }
}
