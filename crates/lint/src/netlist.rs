//! Netlist-structure lints (`PL01xx`) over [`pi_netlist::Module`] and
//! the top level of a [`pi_netlist::Design`].
//!
//! These catch what `Module::validate` deliberately tolerates: a
//! multi-driven output port, an input port that feeds nothing, a
//! floating output, endpoint width disagreements, combinational cycles
//! and dead logic. Everything here is pure structure — no device or
//! timing knowledge — so the passes run in microseconds even on the
//! VGG-scale modules the synthesizer emits.

use crate::diag::Diagnostic;
use pi_netlist::{Design, Direction, Endpoint, Module};
use std::collections::BTreeMap;

/// How many element names an aggregated diagnostic spells out before
/// eliding the rest.
const NAME_SAMPLE: usize = 4;

fn sample_names(names: &[String]) -> String {
    let shown: Vec<&str> = names.iter().take(NAME_SAMPLE).map(String::as_str).collect();
    if names.len() > NAME_SAMPLE {
        format!("{}, ...", shown.join(", "))
    } else {
        shown.join(", ")
    }
}

/// Run every module-level netlist lint. `origin_base` anchors the
/// diagnostics, e.g. `module:conv1` or `db:conv_k5.../module`.
pub fn lint_module(origin_base: &str, module: &Module) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    port_drive_lints(origin_base, module, &mut out);
    width_lints(origin_base, module, &mut out);
    combinational_loop_lints(origin_base, module, &mut out);
    unreachable_cell_lints(origin_base, module, &mut out);
    fanout_lints(origin_base, module, &mut out);
    out
}

/// PL0101 / PL0102 / PL0103: per-port drive and sink multiplicity.
///
/// Inside a module an *input* port is a signal source (it should drive
/// at least one net) and an *output* port is a signal sink (it should be
/// sunk by exactly one net — two nets merging onto one output is a
/// short).
fn port_drive_lints(base: &str, module: &Module, out: &mut Vec<Diagnostic>) {
    let mut sources = vec![0usize; module.ports().len()];
    let mut sinks = vec![0usize; module.ports().len()];
    for net in module.nets() {
        if let Endpoint::Port(p) = net.source {
            sources[p.index()] += 1;
        }
        for s in &net.sinks {
            if let Endpoint::Port(p) = s {
                sinks[p.index()] += 1;
            }
        }
    }
    for (i, port) in module.ports().iter().enumerate() {
        let origin = format!("{base}/port:{}", port.name);
        match port.dir {
            Direction::Input => {
                if sources[i] == 0 {
                    out.push(Diagnostic::new(
                        "PL0102",
                        origin,
                        format!("input port `{}` drives no net", port.name),
                    ));
                }
            }
            Direction::Output => {
                if sinks[i] == 0 {
                    out.push(Diagnostic::new(
                        "PL0103",
                        origin,
                        format!("output port `{}` is driven by no net", port.name),
                    ));
                } else if sinks[i] > 1 {
                    out.push(Diagnostic::new(
                        "PL0101",
                        origin,
                        format!(
                            "output port `{}` is driven by {} nets (multi-driven)",
                            port.name, sinks[i]
                        ),
                    ));
                }
            }
        }
    }
}

/// PL0104: endpoint width consistency. Cell pins carry no widths in this
/// model, so the check is confined to nets that connect ports to ports —
/// exactly the feed-through paths whose widths must agree.
fn width_lints(base: &str, module: &Module, out: &mut Vec<Diagnostic>) {
    for net in module.nets() {
        let Endpoint::Port(src) = net.source else {
            continue;
        };
        let src_port = module.port(src);
        for sink in &net.sinks {
            let Endpoint::Port(dst) = sink else { continue };
            let dst_port = module.port(*dst);
            if src_port.width != dst_port.width {
                out.push(Diagnostic::new(
                    "PL0104",
                    format!("{base}/net:{}", net.name),
                    format!(
                        "net `{}` connects port `{}` (width {}) to port `{}` (width {})",
                        net.name, src_port.name, src_port.width, dst_port.name, dst_port.width
                    ),
                ));
            }
        }
    }
}

/// PL0105: combinational loops. Builds the cell→cell edge list induced
/// on unregistered cells only, then runs an iterative Tarjan SCC; any
/// SCC of size > 1 (or a self-loop) is a loop. Plain combinational
/// *chains* — which the synthesizer legitimately emits — have trivial
/// SCCs and stay clean.
fn combinational_loop_lints(base: &str, module: &Module, out: &mut Vec<Diagnostic>) {
    let n = module.cells().len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut self_loop = vec![false; n];
    for net in module.nets() {
        let Endpoint::Cell(src) = net.source else {
            continue;
        };
        if module.cell(src).registered {
            continue;
        }
        for sink in &net.sinks {
            let Endpoint::Cell(dst) = sink else { continue };
            if module.cell(*dst).registered {
                continue;
            }
            if src == *dst {
                self_loop[src.index()] = true;
            } else {
                adj[src.index()].push(dst.index());
            }
        }
    }

    for scc in tarjan_sccs(&adj) {
        let looped = scc.len() > 1 || self_loop[scc[0]];
        if !looped {
            continue;
        }
        let mut names: Vec<String> = scc
            .iter()
            .map(|&c| module.cells()[c].name.clone())
            .collect();
        names.sort();
        out.push(Diagnostic::new(
            "PL0105",
            format!("{base}/cell:{}", names[0]),
            format!(
                "combinational loop through {} cell(s): {}",
                scc.len(),
                sample_names(&names)
            ),
        ));
    }
}

/// Iterative Tarjan strongly-connected components. Returns each SCC as a
/// sorted list of node indices; singleton SCCs are included (callers
/// filter). Iterative because synthesized FC modules can be deep enough
/// to overflow a recursive walk.
fn tarjan_sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    const UNSET: usize = usize::MAX;
    let n = adj.len();
    let (mut index, mut low) = (vec![UNSET; n], vec![0usize; n]);
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    let mut counter = 0usize;
    // (node, next-edge-cursor) frames replace recursion.
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for start in 0..n {
        if index[start] != UNSET {
            continue;
        }
        frames.push((start, 0));
        index[start] = counter;
        low[start] = counter;
        counter += 1;
        stack.push(start);
        on_stack[start] = true;

        while let Some(&(v, cursor)) = frames.last() {
            if cursor < adj[v].len() {
                frames.last_mut().expect("frame exists").1 += 1;
                let w = adj[v][cursor];
                if index[w] == UNSET {
                    index[w] = counter;
                    low[w] = counter;
                    counter += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack non-empty");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
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
                Endpoint::Cell(c) => cell_nets[c.index()].push(ni),
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
            if cell_seen[c.index()] {
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
        .map(|(_, c)| c.name.clone())
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

/// Top-level design structure lints: PL0101 for instance input ports
/// driven by more than one top net, PL0104 for top-net width mismatches
/// against their endpoint ports. Per-instance module internals are
/// linted separately (the engine fans those out in parallel).
pub fn lint_design_structure(design: &Design) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let base = format!("design:{}", design.name);
    // (instance, port) -> number of top nets sinking it; BTreeMap for
    // deterministic iteration order.
    let mut sink_count: BTreeMap<(u32, u32), usize> = BTreeMap::new();
    for net in design.top_nets() {
        let (src_inst, src_port) = net.source;
        let src = design.instance(src_inst).module.port(src_port);
        if net.width != src.width {
            out.push(Diagnostic::new(
                "PL0104",
                format!("{base}/net:{}", net.name),
                format!(
                    "top net `{}` (width {}) driven by port `{}` of width {}",
                    net.name, net.width, src.name, src.width
                ),
            ));
        }
        for &(inst, port) in &net.sinks {
            *sink_count.entry((inst.0, port.0)).or_insert(0) += 1;
            let dst = design.instance(inst).module.port(port);
            if net.width != dst.width {
                out.push(Diagnostic::new(
                    "PL0104",
                    format!("{base}/net:{}", net.name),
                    format!(
                        "top net `{}` (width {}) sinks port `{}` of width {}",
                        net.name, net.width, dst.name, dst.width
                    ),
                ));
            }
        }
    }
    for ((inst, port), n) in sink_count {
        if n > 1 {
            let inst_id = pi_netlist::InstId(inst);
            let instance = design.instance(inst_id);
            let pname = &instance.module.port(pi_netlist::PortId(port)).name;
            out.push(Diagnostic::new(
                "PL0101",
                format!("{base}/inst:{}/port:{}", instance.name, pname),
                format!(
                    "input port `{}` of instance `{}` is driven by {} top nets",
                    pname, instance.name, n
                ),
            ));
        }
    }
    out
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
    fn detects_dangling_input_and_multidriven_output() {
        let mut b = ModuleBuilder::new("m");
        let _din = b.input("din", StreamRole::Source, 8);
        let dout = b.output("dout", StreamRole::Sink, 8);
        let a = reg(&mut b, "a");
        let c = reg(&mut b, "c");
        b.connect(
            "n0",
            Endpoint::Cell(a),
            [Endpoint::Cell(c), Endpoint::Port(dout)],
        );
        b.connect("n1", Endpoint::Cell(c), [Endpoint::Port(dout)]);
        let m = b.finish().unwrap();
        let codes = codes_of(&lint_module("module:m", &m));
        assert!(codes.contains(&"PL0101"), "multi-driven dout: {codes:?}");
        assert!(codes.contains(&"PL0102"), "dangling din: {codes:?}");
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
    fn detects_width_mismatch_on_port_to_port_net() {
        let mut b = ModuleBuilder::new("m");
        let din = b.input("din", StreamRole::Source, 8);
        let dout = b.output("dout", StreamRole::Sink, 16);
        b.connect("thru", Endpoint::Port(din), [Endpoint::Port(dout)]);
        let m = b.finish().unwrap();
        let codes = codes_of(&lint_module("module:m", &m));
        assert!(codes.contains(&"PL0104"), "{codes:?}");
    }

    #[test]
    fn detects_combinational_loop_but_not_chain() {
        // Chain: x -> y (both combinational) — legal.
        let mut b = ModuleBuilder::new("chain");
        let din = b.input("din", StreamRole::Source, 8);
        let dout = b.output("dout", StreamRole::Sink, 8);
        let x = comb(&mut b, "x");
        let y = comb(&mut b, "y");
        b.connect("n0", Endpoint::Port(din), [Endpoint::Cell(x)]);
        b.connect("n1", Endpoint::Cell(x), [Endpoint::Cell(y)]);
        b.connect("n2", Endpoint::Cell(y), [Endpoint::Port(dout)]);
        let m = b.finish().unwrap();
        let codes = codes_of(&lint_module("module:chain", &m));
        assert!(!codes.contains(&"PL0105"), "chain is not a loop: {codes:?}");

        // Loop: x -> y -> x.
        let mut b = ModuleBuilder::new("lp");
        let din = b.input("din", StreamRole::Source, 8);
        let dout = b.output("dout", StreamRole::Sink, 8);
        let x = comb(&mut b, "x");
        let y = comb(&mut b, "y");
        b.connect("n0", Endpoint::Port(din), [Endpoint::Cell(x)]);
        b.connect("n1", Endpoint::Cell(x), [Endpoint::Cell(y)]);
        b.connect(
            "n2",
            Endpoint::Cell(y),
            [Endpoint::Cell(x), Endpoint::Port(dout)],
        );
        let m = b.finish().unwrap();
        let diags = lint_module("module:lp", &m);
        let loops: Vec<_> = diags.iter().filter(|d| d.code == "PL0105").collect();
        assert_eq!(loops.len(), 1, "{diags:?}");
        assert!(loops[0].message.contains("2 cell(s)"));
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
            b.connect("wide", Endpoint::Port(din), sinks);
            for (i, &c) in cells.iter().enumerate() {
                b.connect(format!("o{i}"), Endpoint::Cell(c), [Endpoint::Port(dout)]);
            }
            b.finish().unwrap()
        };
        let codes = codes_of(&lint_module("module:m", &wide_net(65)));
        assert!(codes.contains(&"PL0107"), "{codes:?}");
        let codes = codes_of(&lint_module("module:m", &wide_net(63)));
        assert!(!codes.contains(&"PL0107"), "{codes:?}");
    }
}
