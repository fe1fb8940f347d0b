//! The module judge: every structural rule a netlist must keep to enter
//! the flow, decided in one collecting pass.
//!
//! [`Module::defects`] is the only verdict on a module's netlist and
//! [`Design::defects`] adds a design's top nets to its instances'. An
//! empty list is the only verdict under which a netlist may be
//! implemented: [`Module::validate`] (so [`crate::ModuleBuilder::finish`])
//! and [`Design::validate`] fail on the first defect, the checkpoint judge
//! (`pi_stitch::check_checkpoint`) reports each one as a violation, and
//! `pi-lint` prints the list as `PL0101`, `PL0104`, `PL0105` and `PL0108`.
//! The judge emits no telemetry.
//!
//! A locked module's verdict is kept on its shared net storage
//! (`Module::locked_verdict`), so [`Design::defects`] judges each locked
//! checkpoint clean once, not once per instance and per call.

use crate::cell::CELL_FANOUT_BUDGET;
use crate::design::{Design, InstId};
use crate::module::Module;
use crate::net::Endpoint;
use crate::port::{Direction, PortId};
use crate::NetlistError;
use std::collections::BTreeMap;
use ModuleDefectKind as Kind;

/// One defect of a module or design netlist, as [`Module::defects`] and
/// [`Design::defects`] report it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleDefect {
    pub kind: ModuleDefectKind,
    /// Where the defect sits, relative to its module or design:
    /// `net:NAME`, `port:NAME` or `cell:NAME`, under `inst:NAME/` for an
    /// instance's module.
    pub at: String,
    pub message: String,
}

/// The classes of [`ModuleDefect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModuleDefectKind {
    /// A net names a cell or port the module does not have, or a top net
    /// an instance or port the design does not have.
    DanglingRef,
    /// A net with no sinks.
    Sinkless,
    /// A net driven by an output port or sinking into an input port.
    Direction,
    /// An output port sunk by several nets, or an instance input port by
    /// several top nets.
    MultiDriven,
    /// A port-to-port net, or a top net, whose endpoint widths disagree.
    WidthMismatch,
    /// A cycle through unregistered cells.
    CombinationalLoop,
    /// A cell takes more input nets than its pins have inputs
    /// ([`crate::CellKind::fanin_budget`]).
    FanIn,
    /// A cell drives more nets than [`CELL_FANOUT_BUDGET`].
    FanOut,
}

/// `Ok` exactly when `defects` is empty, else its first defect as an
/// error naming `owner`, the module or design it is a defect of.
fn verdict(owner: &str, defects: Vec<ModuleDefect>) -> Result<(), NetlistError> {
    let Some(d) = defects.into_iter().next() else {
        return Ok(());
    };
    let message = format!("{owner}/{}: {}", d.at, d.message);
    Err(match d.kind {
        Kind::DanglingRef => NetlistError::DanglingRef(message),
        _ => NetlistError::BadNet(message),
    })
}

/// How many names a message spells out before eliding the rest.
const NAME_SAMPLE: usize = 4;

/// `names` joined for a message, elided past the first few.
pub fn sample_names(names: &[String]) -> String {
    let mut shown = names[..names.len().min(NAME_SAMPLE)].join(", ");
    if names.len() > NAME_SAMPLE {
        shown.push_str(", ...");
    }
    shown
}

impl Module {
    /// The module judge: every defect of the netlist, in one pass and
    /// without stopping at the first — nets naming a missing cell or
    /// port, nets with no sinks, nets against a port's direction, output
    /// ports sunk by several nets, port-to-port width mismatches,
    /// combinational loops, and cells past their pin budgets.
    pub fn defects(&self) -> Vec<ModuleDefect> {
        let (cells, ports) = (self.cells(), self.ports());
        let mut out = Vec::new();
        let mut push = |kind, at, message| out.push(ModuleDefect { kind, at, message });
        let mut port_sinks = vec![0usize; ports.len()];
        let (mut fanin, mut fanout) = (vec![0usize; cells.len()], vec![0usize; cells.len()]);
        // Net edges between two unregistered cells: the only ones a
        // combinational loop can run along.
        let mut comb_edges: Vec<(u32, u32)> = Vec::new();
        for net in self.nets() {
            let (at, name) = (|| format!("net:{}", net.name), &net.name);
            if net.sinks.is_empty() {
                push(Kind::Sinkless, at(), format!("net `{name}` has no sinks"));
            }
            let mut dangling = false;
            for e in net.endpoints() {
                let m = match e {
                    Endpoint::Cell(c) if c.index() >= cells.len() => format!("cell {}", c.0),
                    Endpoint::Port(p) if p.index() >= ports.len() => format!("port {}", p.0),
                    _ => continue,
                };
                dangling = true;
                let m = format!("net `{name}` references missing {m}");
                push(Kind::DanglingRef, at(), m);
            }
            if dangling {
                continue;
            }
            let comb_source = match net.source {
                Endpoint::Port(p) => {
                    let port = &ports[p.index()];
                    if port.dir == Direction::Output {
                        let m = format!("net `{name}` is driven by output port `{}`", port.name);
                        push(Kind::Direction, at(), m);
                    }
                    None
                }
                Endpoint::Cell(c) => {
                    fanout[c.index()] += 1;
                    (!cells[c.index()].registered).then_some(c.0)
                }
            };
            for &sink in &net.sinks {
                match sink {
                    Endpoint::Port(p) if ports[p.index()].dir == Direction::Input => {
                        let m = format!(
                            "net `{name}` sinks into input port `{}`",
                            ports[p.index()].name
                        );
                        push(Kind::Direction, at(), m);
                    }
                    Endpoint::Port(p) => {
                        port_sinks[p.index()] += 1;
                        let (Endpoint::Port(src), dst) = (net.source, &ports[p.index()]) else {
                            continue;
                        };
                        let src = &ports[src.index()];
                        if src.width != dst.width {
                            let (s, d) = (&src.name, &dst.name);
                            let m = format!(
                                "net `{name}` connects port `{s}` (width {}) to port `{d}` (width {})",
                                src.width, dst.width
                            );
                            push(Kind::WidthMismatch, at(), m);
                        }
                    }
                    Endpoint::Cell(c) => {
                        fanin[c.index()] += 1;
                        if let Some(src) = comb_source.filter(|_| !cells[c.index()].registered) {
                            comb_edges.push((src, c.0));
                        }
                    }
                }
            }
        }
        for (port, &n) in ports.iter().zip(&port_sinks).filter(|(_, &n)| n > 1) {
            let name = &port.name;
            let m = format!("output port `{name}` is driven by {n} nets (multi-driven)");
            push(Kind::MultiDriven, format!("port:{name}"), m);
        }
        for ((cell, &takes), &drives) in cells.iter().zip(&fanin).zip(&fanout) {
            let (at, name) = (|| format!("cell:{}", cell.name), &cell.name);
            if let Some(budget) = cell.kind.fanin_budget().filter(|&b| takes > b) {
                let m =
                    format!("cell `{name}` takes {takes} input nets, over its {budget} LUT inputs");
                push(Kind::FanIn, at(), m);
            }
            if drives > CELL_FANOUT_BUDGET {
                let budget = CELL_FANOUT_BUDGET;
                let m = format!("cell `{name}` drives {drives} nets, over its budget of {budget}");
                push(Kind::FanOut, at(), m);
            }
        }
        let name_of = |c: u32| cells[c as usize].name.to_string();
        for scc in combinational_loops(comb_edges) {
            let mut names: Vec<String> = scc.into_iter().map(name_of).collect();
            names.sort();
            let (n, sample) = (names.len(), sample_names(&names));
            let m = format!("combinational loop through {n} cell(s): {sample}");
            push(Kind::CombinationalLoop, format!("cell:{}", names[0]), m);
        }
        out
    }

    /// The module judge's verdict: `Ok` exactly when [`Module::defects`]
    /// is empty, else its first defect.
    pub fn validate(&self) -> Result<(), NetlistError> {
        verdict(&self.name, self.defects())
    }
}

impl Design {
    /// The design judge: every instance's [`Module::defects`] (anchored
    /// under `inst:NAME/`), then the top nets' — endpoints naming a
    /// missing instance or port, instance input ports driven by several
    /// top nets, and top nets whose width is not their ports'. A locked
    /// instance whose storage already holds a clean verdict is not judged
    /// again; every other instance is, and its verdict is kept if locked.
    pub fn defects(&self) -> Vec<ModuleDefect> {
        let mut out = Vec::new();
        for inst in self.instances() {
            let verdict = inst.module.locked_verdict();
            if verdict.and_then(|v| v.get()) == Some(&true) {
                continue;
            }
            let defects = inst.module.defects();
            if let Some(v) = verdict {
                // A racing judge of the same storage sets the same value.
                let _ = v.set(defects.is_empty());
            }
            out.extend(defects.into_iter().map(|mut d| {
                d.at = format!("inst:{}/{}", inst.name, d.at);
                d
            }));
        }
        let mut push = |kind, at, message| out.push(ModuleDefect { kind, at, message });
        let port = |(inst, port): (InstId, PortId)| {
            let mi = self.instances().get(inst.index())?;
            Some((mi, mi.module.ports().get(port.index())?))
        };
        // (instance, port) -> top nets sinking it, in a deterministic order.
        let mut drivers: BTreeMap<(InstId, PortId), usize> = BTreeMap::new();
        for net in self.top_nets() {
            let (at, name, width) = (|| format!("net:{}", net.name), &net.name, net.width);
            if !net.endpoints().all(|e| port(e).is_some()) {
                let m = format!("top net `{name}` references a missing instance or port");
                push(Kind::DanglingRef, at(), m);
                continue;
            }
            let ends = net
                .endpoints()
                .map(|e| port(e).expect("a checked endpoint").1);
            for (i, p) in ends.enumerate().filter(|(_, p)| p.width != width) {
                let what = if i == 0 { "driven by" } else { "sinks" };
                let (p, w) = (&p.name, p.width);
                let m = format!("top net `{name}` (width {width}) {what} port `{p}` of width {w}");
                push(Kind::WidthMismatch, at(), m);
            }
            for &sink in &net.sinks {
                *drivers.entry(sink).or_insert(0) += 1;
            }
        }
        for (sink, n) in drivers.into_iter().filter(|&(_, n)| n > 1) {
            let (inst, dst) = port(sink).expect("a checked sink");
            let (i, p) = (&inst.name, &dst.name);
            let m = format!("input port `{p}` of instance `{i}` is driven by {n} top nets");
            push(Kind::MultiDriven, format!("inst:{i}/port:{p}"), m);
        }
        out
    }

    /// The design judge's verdict: `Ok` exactly when [`Design::defects`]
    /// is empty, else its first defect.
    pub fn validate(&self) -> Result<(), NetlistError> {
        verdict(&self.name, self.defects())
    }
}

/// The cycles of a graph given as directed edges between cell indices:
/// each strongly connected component of more than one cell, or of one
/// cell with an edge to itself, as a list of its cells. An iterative
/// Tarjan over the cells the edges touch, so a deep chain cannot
/// overflow the stack and a module with few unregistered cells costs
/// little.
fn combinational_loops(mut edges: Vec<(u32, u32)>) -> Vec<Vec<u32>> {
    const UNSET: usize = usize::MAX;
    // Dense node numbers for the touched cells; a node's successors are a
    // run of the sorted edge list.
    let mut nodes: Vec<u32> = edges.iter().flat_map(|&(a, b)| [a, b]).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let dense = |c: u32| nodes.binary_search(&c).expect("a touched cell");
    edges.sort_unstable();
    edges.dedup();
    let edges: Vec<(usize, usize)> = edges.iter().map(|&(a, b)| (dense(a), dense(b))).collect();
    let succ =
        |v: usize| &edges[edges.partition_point(|e| e.0 < v)..edges.partition_point(|e| e.0 <= v)];

    let n = nodes.len();
    let (mut index, mut low, mut on_stack) = (vec![UNSET; n], vec![0; n], vec![false; n]);
    let (mut stack, mut loops, mut counter) = (Vec::new(), Vec::new(), 0);
    // (node, next-successor cursor) frames replace recursion; a node is
    // numbered when its frame is first seen.
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] == UNSET {
            frames.push((start, 0));
        }
        while let Some(&(v, cursor)) = frames.last() {
            if cursor == 0 {
                (index[v], low[v], on_stack[v]) = (counter, counter, true);
                counter += 1;
                stack.push(v);
            }
            if let Some(&(_, w)) = succ(v).get(cursor) {
                frames.last_mut().expect("frame exists").1 += 1;
                if index[w] == UNSET {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                let root = stack.iter().rposition(|&w| w == v);
                let scc = stack.split_off(root.expect("v is on the stack"));
                for &w in &scc {
                    on_stack[w] = false;
                }
                if scc.len() > 1 || succ(v).iter().any(|&(_, w)| w == v) {
                    loops.push(scc.iter().map(|&w| nodes[w]).collect());
                }
            }
        }
    }
    loops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Cell, CellKind};
    use crate::module::ModuleBuilder;
    use crate::port::StreamRole;
    use crate::DesignKind;

    fn kinds(m: &Module) -> Vec<ModuleDefectKind> {
        m.defects().iter().map(|d| d.kind).collect()
    }

    /// `din -> a -> b -> dout`, with `a` and `b` unregistered when `comb`.
    fn chain(comb: bool) -> Module {
        let mut b = ModuleBuilder::new("m");
        let din = b.input("din", StreamRole::Source, 8);
        let dout = b.output("dout", StreamRole::Sink, 8);
        let mut cell = |name: &str| {
            let c = Cell::new(name, CellKind::full_slice());
            b.cell(if comb { c.combinational() } else { c })
        };
        let (x, y) = (cell("a"), cell("b"));
        b.connect("n_in", Endpoint::Port(din), [Endpoint::Cell(x)]);
        b.connect("n_mid", Endpoint::Cell(x), [Endpoint::Cell(y)]);
        b.connect("n_out", Endpoint::Cell(y), [Endpoint::Port(dout)]);
        b.finish().unwrap()
    }

    #[test]
    fn a_combinational_chain_is_legal_and_a_loop_is_not() {
        let mut m = chain(true);
        assert!(m.defects().is_empty());
        m.nets_mut().unwrap()[2]
            .sinks
            .push(Endpoint::Cell(crate::CellId(0)));
        let d = m.defects();
        assert_eq!(kinds(&m), [ModuleDefectKind::CombinationalLoop]);
        assert_eq!(d[0].at, "cell:a");
        assert!(d[0].message.contains("2 cell(s): a, b"), "{}", d[0].message);
        // Registered cells break the cycle.
        let mut m = chain(false);
        m.nets_mut().unwrap()[2]
            .sinks
            .push(Endpoint::Cell(crate::CellId(0)));
        assert!(m.defects().is_empty());
        // A cell feeding itself is a loop of one.
        let mut m = chain(true);
        m.nets_mut().unwrap()[1]
            .sinks
            .push(Endpoint::Cell(crate::CellId(0)));
        assert_eq!(kinds(&m), [ModuleDefectKind::CombinationalLoop]);
    }

    #[test]
    fn every_defect_is_collected_and_validate_returns_the_first() {
        let mut m = chain(false);
        {
            let nets = m.nets_mut().unwrap();
            nets[0].sinks.push(Endpoint::Port(PortId(1)));
            nets[1].sinks.push(Endpoint::Cell(crate::CellId(9)));
            nets[2].sinks.clear();
        }
        m.ports_mut().unwrap()[1].width = 16;
        assert_eq!(
            kinds(&m),
            [
                ModuleDefectKind::WidthMismatch,
                ModuleDefectKind::DanglingRef,
                ModuleDefectKind::Sinkless,
            ]
        );
        let err = m.validate().unwrap_err().to_string();
        assert!(
            err.contains("m/net:n_in: net `n_in` connects port `din`"),
            "{err}"
        );
    }

    #[test]
    fn pin_budgets_bound_fan_in_and_fan_out() {
        let wide = |sources: usize, sinks: usize| {
            let mut b = ModuleBuilder::new("w");
            let hub = b.cell(Cell::new("hub", CellKind::Slice { luts: 2, ffs: 4 }));
            for i in 0..sources {
                let c = b.cell(Cell::new(format!("s{i}"), CellKind::Dsp));
                b.connect(format!("i{i}"), Endpoint::Cell(c), [Endpoint::Cell(hub)]);
            }
            for i in 0..sinks {
                let c = b.cell(Cell::new(format!("t{i}"), CellKind::Dsp));
                b.connect(format!("o{i}"), Endpoint::Cell(hub), [Endpoint::Cell(c)]);
            }
            b
        };
        assert!(wide(12, CELL_FANOUT_BUDGET).finish().is_ok());
        let err = wide(13, 0).finish().unwrap_err().to_string();
        assert!(err.contains("takes 13 input nets, over its 12"), "{err}");
        let err = wide(0, CELL_FANOUT_BUDGET + 1)
            .finish()
            .unwrap_err()
            .to_string();
        assert!(err.contains("drives 225 nets"), "{err}");
    }

    /// A locked checkpoint keeps its verdict on its shared storage: a
    /// defective one fails the design judge with the same message on
    /// every call and through a moved copy, and a clean one is judged
    /// once.
    #[test]
    fn a_locked_instance_is_judged_once_and_a_defect_every_time() {
        let mut clean = chain(false);
        clean.lock();
        // `dout` sunk by a second net, written through the serde envelope:
        // the only way to a locked module the builder never judged.
        let mut json: serde_json::Value =
            serde_json::from_str(&serde_json::to_string(&clean).unwrap()).unwrap();
        let serde_json::Value::Seq(nets) = &mut json["nets"] else {
            unreachable!("nets serialize as a list")
        };
        nets.push(nets[2].clone());
        let bad: Module = serde_json::from_value(json).unwrap();
        assert!(bad.is_locked());

        let mut d = Design::new("d", "test-part", DesignKind::Assembled);
        d.add_instance("a", clean.clone());
        d.add_instance("b", bad.clone());
        let want = "malformed net: d/inst:b/port:dout: \
                    output port `dout` is driven by 2 nets (multi-driven)";
        for call in ["first", "repeat"] {
            let err = d.validate().unwrap_err().to_string();
            assert_eq!(err, want, "{call} call");
        }
        assert_eq!(clean.locked_verdict().unwrap().get(), Some(&true));
        assert_eq!(bad.locked_verdict().unwrap().get(), Some(&false));
        let mut moved = Design::new("d", "test-part", DesignKind::Assembled);
        moved.add_instance("a", clean.translated(3, 4).unwrap());
        moved.add_instance("b", bad.translated(3, 4).unwrap());
        assert_eq!(moved.validate().unwrap_err().to_string(), want);
        assert_eq!(moved.defects(), d.defects());
    }

    #[test]
    fn a_design_judges_its_instances_and_its_top_nets() {
        let mut d = Design::new("d", "test-part", DesignKind::Assembled);
        let a = d.add_instance("a", chain(false));
        let b = d.add_instance("b", chain(false));
        let (out_a, in_b) = (PortId(1), PortId(0));
        d.connect_top("l0", (a, out_a), vec![(b, in_b)], 8).unwrap();
        assert!(d.validate().is_ok());
        d.connect_top("l1", (a, out_a), vec![(b, in_b)], 4).unwrap();
        d.instances_mut()[0].module.nets_mut().unwrap()[2]
            .sinks
            .clear();
        let got: Vec<(ModuleDefectKind, String)> =
            d.defects().into_iter().map(|d| (d.kind, d.at)).collect();
        assert_eq!(
            got,
            [
                (ModuleDefectKind::Sinkless, "inst:a/net:n_out".to_string()),
                (ModuleDefectKind::WidthMismatch, "net:l1".to_string()),
                (ModuleDefectKind::WidthMismatch, "net:l1".to_string()),
                (ModuleDefectKind::MultiDriven, "inst:b/port:din".to_string()),
            ]
        );
        assert!(d
            .validate()
            .unwrap_err()
            .to_string()
            .contains("d/inst:a/net:n_out"));
    }
}
