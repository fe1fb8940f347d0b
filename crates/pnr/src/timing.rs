//! Static timing analysis.
//!
//! The timing graph has one node per cell plus one transparent node per
//! module port (ports model partition pins: they anchor wires but add no
//! logic). Paths launch at registered cells (clock-to-q), accumulate wire
//! and combinational-cell delays, and capture at the next registered cell
//! (setup). The longest such path sets Fmax.
//!
//! For OOC modules, input ports with no fanin launch with a standard
//! interface allowance — the assumption HD.CLK_SRC-style OOC analysis makes
//! about the not-yet-present upstream register.
//!
//! There is one graph, `TimingGraph`, built over a
//! [`pi_netlist::NetView`]: a module is the one-instance case of a design,
//! so [`sta_module`], [`sta_design`] and a compile run's final report all
//! analyze the same graph. Routing reads no timing: a wire is charged by its
//! endpoints' distance and the congestion map around them, never by the
//! route's tiles, so the compile tail times a routed netlist once, against
//! the routing run's final congestion map.
//!
//! The graph is nameless: a node is an index in walk order (per instance,
//! its cells then its ports), and names are resolved through the view only
//! for the reported paths and a combinational-loop error. Adjacency is CSR
//! in edge order and the capture table is dense, so an analysis fills a
//! few flat vectors and hashes nothing.
//!
//! An instance's edges are its module's [`Module::connections`], kept on
//! the checkpoint's shared net storage and mapped through the instance's
//! first cell and port nodes; only the top nets are walked net by net.
//! So timing an assembled design walks no locked instance's nets, and a
//! second analysis of the same design, or of a design sharing its
//! checkpoints, builds the same graph from the same storage.

use crate::delay;
use crate::route::CongestionMap;
use crate::PnrError;
use pi_fabric::{Device, TileCoord};
use pi_netlist::{Design, Endpoint, Module, NetView};

/// Launch allowance for paths entering an OOC module boundary, picoseconds.
const IO_LAUNCH_PS: f64 = 150.0;

/// The result of a timing run.
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// Worst register-to-register (or boundary-to-register) path, ps.
    pub critical_path_ps: f64,
    /// 1 / critical path.
    pub fmax_mhz: f64,
    /// Names along the worst path, launch to capture.
    pub worst_path: Vec<String>,
    /// The worst `K` capture events, most critical first (standard
    /// multi-path timing report; the worst entry equals the critical path).
    pub top_paths: Vec<PathSummary>,
    /// Nodes in the analyzed graph.
    pub nodes: usize,
    /// Timing edges in the analyzed graph.
    pub edges: usize,
}

/// One entry of the multi-path report.
#[derive(Debug, Clone)]
pub struct PathSummary {
    /// Total path delay, ps.
    pub path_ps: f64,
    /// Slack against the critical path (0 for the worst path).
    pub slack_ps: f64,
    /// Name of the capturing element.
    pub endpoint: String,
    /// Name of the element driving the final hop.
    pub through: String,
}

/// How many capture events the multi-path report keeps.
const TOP_PATHS: usize = 8;

/// No node: an unset predecessor, a path launched at the boundary.
const NONE: u32 = u32::MAX;

#[derive(Clone)]
struct TNode {
    /// Combinational propagation delay (applies to unregistered nodes).
    comb_delay_ps: f64,
    registered: bool,
    clk2q_ps: f64,
    coord: Option<TileCoord>,
}

/// The timing graph of everything a view covers: per instance one node per
/// cell then one per port, and one edge per (driver, sink) pair of every
/// non-clock net, instance by instance in net order, top nets last.
///
/// Placements are all it reads; a method that needs a name takes the view
/// the graph was built from.
struct TimingGraph {
    nodes: Vec<TNode>,
    /// Per instance: index of its first cell node and of its first port
    /// node.
    bases: Vec<(usize, usize)>,
    /// CSR adjacency by source node, each node's out-edges in edge order:
    /// node `i`'s edges are `out[out_start[i]..out_start[i + 1]]`, each a
    /// (sink node, pipeline stages the wire is broken into).
    out_start: Vec<u32>,
    out: Vec<(u32, u32)>,
    /// Per node: edges into it when it is combinational (registered nodes
    /// capture, so their fanin never gates propagation), else 0.
    fanin: Vec<u32>,
}

/// What one forward pass leaves behind.
struct Forward {
    /// Worst predecessor per node ([`NONE`] = none).
    pred: Vec<u32>,
    /// Per capture endpoint its worst path: (ps, driver of the final hop).
    worst_at: Vec<Option<(f64, u32)>>,
    /// Critical path, ps, and where it captures.
    critical: f64,
    critical_end: u32,
}

impl TimingGraph {
    fn build(view: NetView<'_>) -> TimingGraph {
        let modules = (0..view.instance_count()).map(|inst| view.module(inst));
        let node_count = modules.clone().map(|m| m.cells().len() + m.ports().len());
        let top_edges = view.top_nets().map(|net| net.endpoints().count() - 1);
        let edge_count = modules.clone().map(|m| m.connections().len());
        let mut nodes = Vec::with_capacity(node_count.sum());
        let mut edges: Vec<(u32, u32, u32)> =
            Vec::with_capacity(edge_count.sum::<usize>() + top_edges.sum::<usize>());
        let mut bases = Vec::with_capacity(view.instance_count());
        for module in modules {
            let cell_base = nodes.len();
            nodes.extend(module.cells().iter().map(|cell| TNode {
                comb_delay_ps: delay::comb_delay_ps(cell.delay_ps),
                registered: cell.registered,
                clk2q_ps: f64::from(delay::clk_to_q_ps(cell.kind)),
                coord: cell.placement,
            }));
            let port_base = nodes.len();
            nodes.extend(module.ports().iter().map(|port| TNode {
                comb_delay_ps: 0.0,
                registered: false, // transparent: a partition pin, not a register
                clk2q_ps: 0.0,
                coord: port.partpin,
            }));
            let base = (cell_base, port_base);
            let pairs = module.connections().iter();
            edges.extend(pairs.map(|&(src, sink)| (node(base, src), node(base, sink), 1)));
            bases.push(base);
        }
        for net in view.top_nets() {
            let mut ends = net.endpoints().map(|(inst, e)| node(bases[inst], e));
            let src = ends.next().expect("a net has a driver");
            let stages = net.pipeline_stages();
            edges.extend(ends.map(|sink| (src, sink, stages)));
        }
        // Counting sort by source, stable, so each node's out-edges keep
        // edge order (the order every pass visits them in).
        let n = nodes.len();
        let mut out_start = vec![0u32; n + 1];
        let mut fanin = vec![0u32; n];
        for &(s, t, _) in &edges {
            out_start[s as usize + 1] += 1;
            if !nodes[t as usize].registered {
                fanin[t as usize] += 1;
            }
        }
        for i in 0..n {
            out_start[i + 1] += out_start[i];
        }
        let mut next = out_start.clone();
        let mut out = vec![(0, 0); edges.len()];
        for &(s, t, stages) in &edges {
            let at = &mut next[s as usize];
            out[*at as usize] = (t, stages);
            *at += 1;
        }
        TimingGraph {
            nodes,
            bases,
            out_start,
            out,
            fanin,
        }
    }

    /// Node `i`'s out-edges, as a range of CSR slots.
    fn fanout(&self, i: usize) -> std::ops::Range<usize> {
        self.out_start[i] as usize..self.out_start[i + 1] as usize
    }

    /// Forward arrival pass (Kahn). `Err` carries a node on a
    /// combinational loop, if one can be named.
    fn forward(
        &self,
        device: &Device,
        congestion: Option<&CongestionMap>,
    ) -> Result<Forward, Option<u32>> {
        let n = self.nodes.len();
        let mut wire = Vec::with_capacity(self.out.len());
        for (s, node) in self.nodes.iter().enumerate() {
            wire.extend(self.out[self.fanout(s)].iter().map(|&(t, stages)| {
                let sink = self.nodes[t as usize].coord;
                edge_wire_ps(device, node.coord, sink, congestion, stages)
            }));
        }
        let fanin = &self.fanin;

        // Arrival at a node's *output*: for registered nodes this is
        // clk2q; for combinational nodes it accumulates. Combinational
        // nodes with no fanin launch with the OOC interface allowance.
        let mut arrival: Vec<f64> = self
            .nodes
            .iter()
            .zip(fanin)
            .map(|(node, &fanin)| {
                if node.registered {
                    node.clk2q_ps
                } else if fanin == 0 {
                    IO_LAUNCH_PS + node.comb_delay_ps
                } else {
                    f64::NEG_INFINITY
                }
            })
            .collect();
        let mut pred: Vec<u32> = vec![NONE; n];

        // Kahn's algorithm over combinational sinks.
        let mut ready: Vec<u32> = (0..n as u32)
            .filter(|&i| self.nodes[i as usize].registered || fanin[i as usize] == 0)
            .collect();
        let mut remaining = fanin.clone();
        let mut processed = 0usize;
        let total_comb = (0..n)
            .filter(|&i| !self.nodes[i].registered && fanin[i] > 0)
            .count();

        let mut critical = 0.0f64;
        let mut critical_end = NONE;
        // One slot per *endpoint*: a register captures many paths but
        // reports its worst.
        let mut worst_at: Vec<Option<(f64, u32)>> = vec![None; n];

        while let Some(node) = ready.pop() {
            let i = node as usize;
            let out_arr = arrival[i];
            let edges = self.fanout(i);
            for (&(t, _), &wire) in self.out[edges.clone()].iter().zip(&wire[edges.clone()]) {
                let ti = t as usize;
                let sink = &self.nodes[ti];
                let at_input = out_arr + wire;
                if sink.registered {
                    // Path captures here.
                    let path = at_input + f64::from(delay::SETUP_PS);
                    let slot = worst_at[ti].get_or_insert((f64::NEG_INFINITY, NONE));
                    if path > slot.0 {
                        *slot = (path, node);
                    }
                    if path > critical {
                        critical = path;
                        critical_end = t;
                        pred[ti] = node;
                    }
                } else {
                    let through = at_input + sink.comb_delay_ps;
                    if through > arrival[ti] {
                        arrival[ti] = through;
                        pred[ti] = node;
                    }
                    remaining[ti] -= 1;
                    if remaining[ti] == 0 {
                        processed += 1;
                        ready.push(t);
                    }
                }
            }
            // Combinational endpoints with no fanout also capture (module
            // outputs): charge setup at the boundary.
            if !self.nodes[i].registered && edges.is_empty() {
                let path = out_arr + f64::from(delay::SETUP_PS);
                let slot = worst_at[i].get_or_insert((f64::NEG_INFINITY, NONE));
                if path > slot.0 {
                    *slot = (path, pred[i]);
                }
                if path > critical {
                    critical = path;
                    critical_end = node;
                }
            }
        }

        if processed < total_comb {
            // Some combinational node never became ready: a cycle.
            let stuck = (0..n).find(|&i| !self.nodes[i].registered && remaining[i] > 0);
            return Err(stuck.map(|i| i as u32));
        }
        Ok(Forward {
            pred,
            worst_at,
            // Floors: even an empty design runs at the clock network's
            // limit.
            critical: critical.max(500.0),
            critical_end,
        })
    }

    /// The full report: critical path, worst path and the multi-path
    /// report, names resolved through `view`.
    fn report(
        &self,
        view: NetView<'_>,
        device: &Device,
        congestion: Option<&CongestionMap>,
    ) -> Result<TimingReport, PnrError> {
        let f = self
            .forward(device, congestion)
            .map_err(|stuck| self.loop_error(view, stuck))?;

        // Reconstruct the worst path, back to its launch: the first
        // registered node after the endpoint. A register's `pred` names a
        // path it captured, not one it launched.
        let mut worst_path = Vec::new();
        let mut cur = f.critical_end;
        while cur != NONE && worst_path.len() < 64 {
            worst_path.push(self.name(view, cur));
            if worst_path.len() > 1 && self.nodes[cur as usize].registered {
                break;
            }
            cur = f.pred[cur as usize];
        }
        worst_path.reverse();

        // Multi-path report: the worst TOP_PATHS endpoints, by decreasing
        // path delay, ties by node. The order is total, so selecting the
        // first TOP_PATHS before sorting them ranks exactly as a full sort.
        let mut events: Vec<(f64, u32, u32)> = f
            .worst_at
            .iter()
            .enumerate()
            .filter_map(|(end, w)| w.map(|(ps, via)| (ps, end as u32, via)))
            .collect();
        let rank = |a: &(f64, u32, u32), b: &(f64, u32, u32)| {
            b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1))
        };
        if events.len() > TOP_PATHS {
            events.select_nth_unstable_by(TOP_PATHS - 1, rank);
            events.truncate(TOP_PATHS);
        }
        events.sort_by(rank);

        let critical = f.critical;
        let top_paths = events
            .into_iter()
            .map(|(ps, end, via)| PathSummary {
                path_ps: ps,
                slack_ps: critical - ps,
                endpoint: self.name(view, end),
                through: if via == NONE {
                    "<boundary>".to_string()
                } else {
                    self.name(view, via)
                },
            })
            .collect();
        Ok(TimingReport {
            critical_path_ps: critical,
            fmax_mhz: 1.0e6 / critical,
            worst_path,
            top_paths,
            nodes: self.nodes.len(),
            edges: self.out.len(),
        })
    }

    /// Hierarchical name of `node`: the instance prefix, then the cell or
    /// port name.
    fn name(&self, view: NetView<'_>, node: u32) -> String {
        let node = node as usize;
        // The last instance starting at or before `node` owns it (an
        // instance without cells or ports starts where the next one does).
        let inst = self
            .bases
            .partition_point(|&(cell_base, _)| cell_base <= node)
            - 1;
        let (cell_base, port_base) = self.bases[inst];
        let module = view.module(inst);
        let local: &str = if node < port_base {
            &module.cells()[node - cell_base].name
        } else {
            &module.ports()[node - port_base].name
        };
        [view.prefix(inst).as_str(), local].concat()
    }

    fn loop_error(&self, view: NetView<'_>, stuck: Option<u32>) -> PnrError {
        let name = stuck.map_or_else(|| "<unknown>".to_string(), |n| self.name(view, n));
        PnrError::CombinationalLoop(name)
    }
}

/// The graph node of an endpoint of the instance whose first cell node
/// and first port node are `base`.
fn node((cell_base, port_base): (usize, usize), e: Endpoint) -> u32 {
    match e {
        Endpoint::Cell(c) => (cell_base + c.index()) as u32,
        Endpoint::Port(p) => (port_base + p.index()) as u32,
    }
}

/// Wire delay of one timing edge.
fn edge_wire_ps(
    device: &Device,
    a: Option<TileCoord>,
    b: Option<TileCoord>,
    congestion: Option<&CongestionMap>,
    stages: u32,
) -> f64 {
    let raw = match (a, b) {
        (Some(a), Some(b)) => {
            let cong = congestion.map(|m| m.span_fraction(a, b)).unwrap_or(0.0);
            delay::wire_delay_ps(device, a, b, cong)
        }
        // One endpoint not physically located (e.g. unplanned port): charge
        // only the base wire.
        _ => delay::WIRE_BASE_PS,
    };
    if stages <= 1 {
        raw
    } else {
        // A pipelined wire is `stages` register-to-register segments; the
        // worst segment carries its share of the wire plus a register hop.
        raw / f64::from(stages) + f64::from(delay::SETUP_PS) + 100.0
    }
}

/// STA over everything a view covers.
pub(crate) fn sta(
    view: NetView<'_>,
    device: &Device,
    congestion: Option<&CongestionMap>,
) -> Result<TimingReport, PnrError> {
    TimingGraph::build(view).report(view, device, congestion)
}

/// STA over a single module (OOC component analysis).
pub fn sta_module(
    module: &Module,
    device: &Device,
    congestion: Option<&CongestionMap>,
) -> Result<TimingReport, PnrError> {
    sta(module.into(), device, congestion)
}

/// STA over an assembled design: all instances plus the inter-component
/// nets. Inter-component hops go driver cell → output partition pin →
/// input partition pin → sink cell, which is exactly where badly planned
/// ports hurt (the paper's port-planning discussion).
pub fn sta_design(
    design: &Design,
    device: &Device,
    congestion: Option<&CongestionMap>,
) -> Result<TimingReport, PnrError> {
    sta(design.into(), device, congestion)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_netlist::{Cell, CellKind, ModuleBuilder, StreamRole};
    use pi_obs::Obs;

    /// reg -> comb -> comb -> reg, placed with unit spacing.
    fn pipeline(comb_delay: u32, spacing: u16) -> Module {
        let mut b = ModuleBuilder::new("p");
        let din = b.input("din", StreamRole::Source, 16);
        let dout = b.output("dout", StreamRole::Sink, 16);
        let a = b.cell(Cell::new("a", CellKind::full_slice()));
        let c1 = b.cell(
            Cell::new("c1", CellKind::full_slice())
                .combinational()
                .with_delay_ps(comb_delay),
        );
        let c2 = b.cell(
            Cell::new("c2", CellKind::full_slice())
                .combinational()
                .with_delay_ps(comb_delay),
        );
        let z = b.cell(Cell::new("z", CellKind::full_slice()));
        b.connect("i", Endpoint::Port(din), [Endpoint::Cell(a)]);
        b.connect("n1", Endpoint::Cell(a), [Endpoint::Cell(c1)]);
        b.connect("n2", Endpoint::Cell(c1), [Endpoint::Cell(c2)]);
        b.connect("n3", Endpoint::Cell(c2), [Endpoint::Cell(z)]);
        b.connect("o", Endpoint::Cell(z), [Endpoint::Port(dout)]);
        let mut m = b.finish().unwrap();
        for (i, id) in [a, c1, c2, z].into_iter().enumerate() {
            m.set_placement(id, TileCoord::new(1 + (i as u16) * spacing, 1))
                .unwrap();
        }
        m
    }

    #[test]
    fn critical_path_matches_hand_computation() {
        let device = Device::test_part();
        let m = pipeline(250, 1);
        let r = sta_module(&m, &device, None).unwrap();
        // launch a (100) + 3 hops of wire (120+32) + c1 (250) + c2 (250)
        // + setup (60)
        let expected = 100.0 + 3.0 * 152.0 + 500.0 + 60.0;
        assert!(
            (r.critical_path_ps - expected).abs() < 1e-6,
            "got {} want {}",
            r.critical_path_ps,
            expected
        );
        assert!((r.fmax_mhz - 1.0e6 / expected).abs() < 1e-6);
    }

    #[test]
    fn stretching_wires_lowers_fmax() {
        let device = Device::test_part();
        let tight = sta_module(&pipeline(250, 1), &device, None).unwrap();
        let loose = sta_module(&pipeline(250, 8), &device, None).unwrap();
        assert!(loose.fmax_mhz < tight.fmax_mhz);
    }

    #[test]
    fn top_paths_are_sorted_and_anchored_at_the_critical_path() {
        let device = Device::test_part();
        let r = sta_module(&pipeline(250, 1), &device, None).unwrap();
        assert!(!r.top_paths.is_empty());
        // Worst entry matches the critical path with zero slack.
        assert!((r.top_paths[0].path_ps - r.critical_path_ps).abs() < 1e-9);
        assert!(r.top_paths[0].slack_ps.abs() < 1e-9);
        // Sorted by decreasing path delay, one entry per endpoint.
        for w in r.top_paths.windows(2) {
            assert!(w[0].path_ps >= w[1].path_ps);
        }
        let mut endpoints: Vec<&str> = r.top_paths.iter().map(|p| p.endpoint.as_str()).collect();
        endpoints.sort_unstable();
        endpoints.dedup();
        assert_eq!(endpoints.len(), r.top_paths.len());
    }

    #[test]
    fn worst_path_is_reported() {
        let device = Device::test_part();
        let r = sta_module(&pipeline(250, 1), &device, None).unwrap();
        assert!(r.worst_path.len() >= 3);
        assert!(r.worst_path.iter().any(|n| n == "c2" || n == "c1"));
    }

    /// The worst path starts at its launch register, even when that
    /// register captured an earlier critical path: r1 is popped first, so
    /// r1 -> r2 is critical until r2 -> r3 (7 tiles) overtakes it.
    #[test]
    fn worst_path_stops_at_its_launch_register() {
        let mut b = ModuleBuilder::new("chain");
        let r3 = b.cell(Cell::new("r3", CellKind::full_slice()));
        let r2 = b.cell(Cell::new("r2", CellKind::full_slice()));
        let r1 = b.cell(Cell::new("r1", CellKind::full_slice()));
        b.connect("a", Endpoint::Cell(r1), [Endpoint::Cell(r2)]);
        b.connect("b", Endpoint::Cell(r2), [Endpoint::Cell(r3)]);
        let mut m = b.finish().unwrap();
        for (id, col) in [(r1, 1), (r2, 2), (r3, 9)] {
            m.set_placement(id, TileCoord::new(col, 1)).unwrap();
        }
        let r = sta_module(&m, &Device::test_part(), None).unwrap();
        // clk2q (100) + 7 tiles of wire (120 + 7 * 32) + setup (60).
        assert!((r.critical_path_ps - 504.0).abs() < 1e-9, "{r:?}");
        assert_eq!(r.worst_path, ["r2", "r3"]);
    }

    /// The graph's edges come from the module's shared connections: a
    /// rewire through `nets_mut` after an analysis reaches the next one,
    /// and a clone that shared the storage before the write keeps its own.
    #[test]
    fn a_rewire_after_an_analysis_reaches_the_next_one() {
        let device = Device::test_part();
        let mut m = pipeline(250, 1);
        let shared = m.clone();
        let before = sta_module(&m, &device, None).unwrap();
        assert_eq!(before.edges, 5);
        // a also feeds z directly.
        m.nets_mut().unwrap()[1]
            .sinks
            .push(Endpoint::Cell(pi_netlist::CellId(3)));
        let after = sta_module(&m, &device, None).unwrap();
        assert_eq!(after.edges, 6);
        let again = sta_module(&shared, &device, None).unwrap();
        assert_eq!(format!("{again:?}"), format!("{before:?}"));
    }

    #[test]
    fn combinational_loop_is_detected() {
        let mut b = ModuleBuilder::new("loop");
        let din = b.input("din", StreamRole::Source, 1);
        let dout = b.output("dout", StreamRole::Sink, 1);
        let a = b.cell(Cell::new("a", CellKind::full_slice()).combinational());
        let c = b.cell(Cell::new("c", CellKind::full_slice()).combinational());
        b.connect("i", Endpoint::Port(din), [Endpoint::Cell(a)]);
        b.connect("f", Endpoint::Cell(a), [Endpoint::Cell(c)]);
        b.connect("o", Endpoint::Cell(c), [Endpoint::Port(dout)]);
        let mut m = b.finish().unwrap();
        // c also feeds a back: a loop the module judge refuses at `finish`,
        // written in afterwards so the STA meets it.
        m.nets_mut().unwrap()[2].sinks.push(Endpoint::Cell(a));
        m.set_placement(pi_netlist::CellId(0), TileCoord::new(1, 1))
            .unwrap();
        m.set_placement(pi_netlist::CellId(1), TileCoord::new(1, 2))
            .unwrap();
        let device = Device::test_part();
        match sta_module(&m, &device, None) {
            Err(PnrError::CombinationalLoop(_)) => {}
            other => panic!("expected loop error, got {other:?}"),
        }
    }

    #[test]
    fn design_sta_crosses_component_boundaries() {
        let device = Device::test_part();
        // Two single-cell modules linked by a top net between partpins.
        let make = |name: &str, col: u16, pp: TileCoord| {
            let mut b = ModuleBuilder::new(name);
            let din = b.input("din", StreamRole::Source, 16);
            let dout = b.output("dout", StreamRole::Sink, 16);
            let c = b.cell(Cell::new("c", CellKind::full_slice()));
            b.connect("i", Endpoint::Port(din), [Endpoint::Cell(c)]);
            b.connect("o", Endpoint::Cell(c), [Endpoint::Port(dout)]);
            let mut m = b.finish().unwrap();
            m.set_placement(pi_netlist::CellId(0), TileCoord::new(col, 1))
                .unwrap();
            m.ports_mut().unwrap()[din.index()].partpin = Some(pp);
            m.ports_mut().unwrap()[dout.index()].partpin = Some(pp);
            m
        };
        let mut d = Design::new("d", "test-part", pi_netlist::DesignKind::Assembled);
        let a = d.add_instance("a", make("a", 1, TileCoord::new(2, 1)));
        let bb = d.add_instance("b", make("b", 10, TileCoord::new(9, 1)));
        let (pa, _) = d.instance(a).module.port_by_name("dout").unwrap();
        let (pb, _) = d.instance(bb).module.port_by_name("din").unwrap();
        d.connect_top("link", (a, pa), vec![(bb, pb)], 16).unwrap();
        let near = sta_design(&d, &device, None).unwrap();

        // Move b's partpin far away: the boundary wire lengthens, Fmax drops.
        let mut d2 = d.clone();
        d2.instances_mut()[1].module.ports_mut().unwrap()[pb.index()].partpin =
            Some(TileCoord::new(30, 18));
        let far = sta_design(&d2, &device, None).unwrap();
        assert!(far.fmax_mhz < near.fmax_mhz);
    }

    #[test]
    fn pipelined_top_nets_shorten_the_worst_hop() {
        let device = Device::test_part();
        let make = |name: &str, col: u16, pp: TileCoord| {
            let mut b = ModuleBuilder::new(name);
            let din = b.input("din", StreamRole::Source, 16);
            let dout = b.output("dout", StreamRole::Sink, 16);
            let c = b.cell(Cell::new("c", CellKind::full_slice()));
            b.connect("i", Endpoint::Port(din), [Endpoint::Cell(c)]);
            b.connect("o", Endpoint::Cell(c), [Endpoint::Port(dout)]);
            let mut m = b.finish().unwrap();
            m.set_placement(pi_netlist::CellId(0), TileCoord::new(col, 1))
                .unwrap();
            m.ports_mut().unwrap()[din.index()].partpin = Some(pp);
            m.ports_mut().unwrap()[dout.index()].partpin = Some(pp);
            m
        };
        let mut d = Design::new("d", "test-part", pi_netlist::DesignKind::Assembled);
        let a = d.add_instance("a", make("a", 1, TileCoord::new(1, 1)));
        let bb = d.add_instance("b", make("b", 30, TileCoord::new(30, 38)));
        let (pa, _) = d.instance(a).module.port_by_name("dout").unwrap();
        let (pb, _) = d.instance(bb).module.port_by_name("din").unwrap();
        d.connect_top("long", (a, pa), vec![(bb, pb)], 16).unwrap();
        let raw = sta_design(&d, &device, None).unwrap();
        d.top_nets_mut()[0].pipeline_stages = 4;
        let piped = sta_design(&d, &device, None).unwrap();
        assert!(
            piped.fmax_mhz > raw.fmax_mhz * 1.5,
            "pipelining gained too little: {} -> {}",
            raw.fmax_mhz,
            piped.fmax_mhz
        );
    }

    #[test]
    fn congestion_lowers_fmax() {
        // Same placed module, timed with and without a saturated congestion
        // map around its wires.
        let device = Device::test_part();
        let m = pipeline(250, 2);
        let clean = sta_module(&m, &device, None).unwrap();
        // Build a saturated congestion map by routing a module through the
        // same area on a capacity-1 variant of the part.
        let mut routed = m.clone();
        let (_, map) = crate::route::route_module_obs(
            &mut routed,
            &device.clone().with_route_capacity("test-part-cap1", 1),
            &crate::route::RouteOptions { max_iters: 1 },
            &Obs::null(),
        )
        .unwrap();
        let congested = sta_module(&m, &device, Some(&map)).unwrap();
        assert!(congested.fmax_mhz <= clean.fmax_mhz);
    }

    #[test]
    fn empty_design_hits_clock_floor() {
        let device = Device::test_part();
        let mut b = ModuleBuilder::new("e");
        let din = b.input("din", StreamRole::Source, 1);
        let dout = b.output("dout", StreamRole::Sink, 1);
        let c = b.cell(Cell::new("c", CellKind::full_slice()));
        b.connect("i", Endpoint::Port(din), [Endpoint::Cell(c)]);
        b.connect("o", Endpoint::Cell(c), [Endpoint::Port(dout)]);
        let m = b.finish().unwrap();
        let r = sta_module(&m, &device, None).unwrap();
        assert!(r.fmax_mhz <= 2000.0);
    }
}
