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
//! There is one graph builder ([`TGraph::build`]) over a
//! [`pi_netlist::NetView`]: a module is the one-instance case of a design,
//! so [`sta_module`], [`sta_design`] and the router's per-net slack feed
//! ([`SlackFeed`]) all analyze the same graph. Only the congestion map
//! changes between analyses of one placement, so the router builds the
//! graph once per run and re-analyzes it every negotiation iteration.

use crate::delay;
use crate::route::CongestionMap;
use crate::PnrError;
use pi_fabric::{Device, TileCoord};
use pi_netlist::{Design, Endpoint, Module, NetView, PlacedNet, Slot};

/// Launch allowance for paths entering an OOC module boundary, picoseconds.
const IO_LAUNCH_PS: f64 = 150.0;

/// Slack is reported against a 5 %-tightened target clock
/// (`critical_path_ps * 0.95`), not the achieved period. Against the
/// achieved period the worst path would always read exactly zero slack and
/// no net would ever be "critical"; tightening the target makes the whole
/// near-critical cone read negative, giving downstream consumers — the
/// router's criticality ordering — a non-empty critical set to act on.
const CRIT_TARGET_RATIO: f64 = 0.95;

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

#[derive(Clone)]
struct TNode {
    name: String,
    /// Combinational propagation delay (applies to unregistered nodes).
    comb_delay_ps: f64,
    registered: bool,
    clk2q_ps: f64,
    coord: Option<TileCoord>,
}

struct TGraph {
    nodes: Vec<TNode>,
    /// (source node, sink node, pipeline stages the wire is broken into)
    edges: Vec<(u32, u32, u32)>,
    /// Per instance: index of its first cell node and of its first port
    /// node.
    bases: Vec<(usize, usize)>,
}

impl TGraph {
    /// The timing graph of everything `view` covers: per instance one
    /// node per cell then one per port, and one edge per (driver, sink)
    /// pair of every non-clock net, intra nets first, top nets last.
    fn build(view: NetView<'_>) -> TGraph {
        let mut g = TGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            bases: Vec::new(),
        };
        for inst in 0..view.instance_count() {
            let (module, prefix) = (view.module(inst), view.prefix(inst));
            let cell_base = g.nodes.len();
            for cell in module.cells() {
                g.nodes.push(TNode {
                    name: [&prefix, cell.name.as_str()].concat(),
                    comb_delay_ps: delay::comb_delay_ps(cell.delay_ps),
                    registered: cell.registered,
                    clk2q_ps: f64::from(delay::clk_to_q_ps(cell.kind)),
                    coord: cell.placement,
                });
            }
            let port_base = g.nodes.len();
            for port in module.ports() {
                g.nodes.push(TNode {
                    name: [&prefix, port.name.as_str()].concat(),
                    comb_delay_ps: 0.0,
                    registered: false, // transparent: a partition pin, not a register
                    clk2q_ps: 0.0,
                    coord: port.partpin,
                });
            }
            g.bases.push((cell_base, port_base));
        }
        for net in view.nets() {
            let mut nodes = net_nodes(&g.bases, net);
            let src = nodes.next().expect("a net has a driver");
            let stages = net.pipeline_stages();
            g.edges.extend(nodes.map(|sink| (src, sink, stages)));
        }
        g
    }
}

/// The graph nodes of a net's endpoints, driver first, given each
/// instance's (first cell node, first port node).
fn net_nodes<'a>(
    bases: &'a [(usize, usize)],
    net: PlacedNet<'a>,
) -> impl Iterator<Item = u32> + 'a {
    net.endpoints().map(|(inst, e)| {
        let (cell_base, port_base) = bases[inst];
        match e {
            Endpoint::Cell(c) => (cell_base + c.index()) as u32,
            Endpoint::Port(p) => (port_base + p.index()) as u32,
        }
    })
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

/// Forward arrival pass (Kahn) plus backward required-time pass. Returns
/// the report and the per-node *output* slack against the tightened target
/// clock (see [`CRIT_TARGET_RATIO`]): `required_out - arrival`, `+inf` for
/// unconstrained nodes. The node index space matches [`TGraph::nodes`].
fn analyze_full(
    graph: &TGraph,
    device: &Device,
    congestion: Option<&CongestionMap>,
) -> Result<(TimingReport, Vec<f64>), PnrError> {
    let n = graph.nodes.len();
    // Adjacency.
    let mut out_edges: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    let mut fanin_count = vec![0u32; n];
    let mut has_fanout = vec![false; n];
    for &(s, t, stages) in &graph.edges {
        let wire = edge_wire_ps(
            device,
            graph.nodes[s as usize].coord,
            graph.nodes[t as usize].coord,
            congestion,
            stages,
        );
        out_edges[s as usize].push((t, wire));
        has_fanout[s as usize] = true;
        if !graph.nodes[t as usize].registered {
            fanin_count[t as usize] += 1;
        }
    }

    // Arrival at a node's *output*: for registered nodes this is clk2q; for
    // combinational nodes it accumulates. Combinational nodes with no fanin
    // launch with the OOC interface allowance.
    let mut arrival: Vec<f64> = graph
        .nodes
        .iter()
        .enumerate()
        .map(|(i, node)| {
            if node.registered {
                node.clk2q_ps
            } else if fanin_count[i] == 0 {
                IO_LAUNCH_PS + node.comb_delay_ps
            } else {
                f64::NEG_INFINITY
            }
        })
        .collect();
    let mut pred: Vec<u32> = vec![u32::MAX; n];

    // Kahn's algorithm over combinational sinks.
    let mut ready: Vec<u32> = (0..n as u32)
        .filter(|&i| {
            let node = &graph.nodes[i as usize];
            node.registered || fanin_count[i as usize] == 0
        })
        .collect();
    let mut remaining = vec![0u32; n];
    remaining.copy_from_slice(&fanin_count);
    let mut processed = 0usize;
    let total_comb = (0..n)
        .filter(|&i| !graph.nodes[i].registered && fanin_count[i] > 0)
        .count();

    let mut critical = 0.0f64;
    let mut critical_end = u32::MAX;
    // (path ps, capture node, driver node) for the multi-path report. One
    // slot per *endpoint*: a register captures many paths but reports its
    // worst.
    let mut worst_at: std::collections::HashMap<u32, (f64, u32)> = std::collections::HashMap::new();
    // Pop order is a valid topological order of every processed node
    // (a node only becomes ready once all its fanins have been popped);
    // reversed, it drives the backward required-time pass.
    let mut pop_order: Vec<u32> = Vec::with_capacity(n);

    while let Some(node) = ready.pop() {
        pop_order.push(node);
        let i = node as usize;
        let out_arr = arrival[i];
        for &(t, wire) in &out_edges[i] {
            let ti = t as usize;
            let sink = &graph.nodes[ti];
            let at_input = out_arr + wire;
            if sink.registered {
                // Path captures here.
                let path = at_input + f64::from(delay::SETUP_PS);
                let slot = worst_at.entry(t).or_insert((f64::NEG_INFINITY, u32::MAX));
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
        if !graph.nodes[i].registered && !has_fanout[i] {
            let path = out_arr + f64::from(delay::SETUP_PS);
            let slot = worst_at
                .entry(node)
                .or_insert((f64::NEG_INFINITY, u32::MAX));
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
        let stuck = (0..n)
            .find(|&i| !graph.nodes[i].registered && remaining[i] > 0 && fanin_count[i] > 0)
            .map(|i| graph.nodes[i].name.clone())
            .unwrap_or_else(|| "<unknown>".to_string());
        return Err(PnrError::CombinationalLoop(stuck));
    }

    // Reconstruct the worst path.
    let mut worst_path = Vec::new();
    let mut cur = critical_end;
    let mut guard = 0;
    while cur != u32::MAX && guard < 64 {
        worst_path.push(graph.nodes[cur as usize].name.clone());
        cur = pred[cur as usize];
        guard += 1;
    }
    worst_path.reverse();

    // Multi-path report: the worst TOP_PATHS endpoints.
    let mut events: Vec<(f64, u32, u32)> = worst_at
        .into_iter()
        .map(|(end, (ps, via))| (ps, end, via))
        .collect();
    events.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    events.truncate(TOP_PATHS);

    // Floors: even an empty design runs at the clock network's limit.
    let critical = critical.max(500.0);

    // Backward required-time pass against the tightened target clock.
    // Reverse pop order guarantees a combinational sink's requirement is
    // final before any of its fanins is visited; registered sinks need no
    // requirement of their own (capture is `target - setup` directly).
    let target = critical * CRIT_TARGET_RATIO;
    let setup = f64::from(delay::SETUP_PS);
    let mut required: Vec<f64> = vec![f64::INFINITY; n];
    for &node in pop_order.iter().rev() {
        let i = node as usize;
        let mut req = f64::INFINITY;
        for &(t, wire) in &out_edges[i] {
            let ti = t as usize;
            let cand = if graph.nodes[ti].registered {
                target - setup - wire
            } else {
                required[ti] - graph.nodes[ti].comb_delay_ps - wire
            };
            req = req.min(cand);
        }
        if !graph.nodes[i].registered && !has_fanout[i] {
            req = req.min(target - setup);
        }
        required[i] = req;
    }
    let slacks: Vec<f64> = (0..n)
        .map(|i| {
            if arrival[i] == f64::NEG_INFINITY || required[i] == f64::INFINITY {
                f64::INFINITY
            } else {
                required[i] - arrival[i]
            }
        })
        .collect();

    let top_paths = events
        .into_iter()
        .map(|(ps, end, via)| PathSummary {
            path_ps: ps,
            slack_ps: critical - ps,
            endpoint: graph.nodes[end as usize].name.clone(),
            through: if via == u32::MAX {
                "<boundary>".to_string()
            } else {
                graph.nodes[via as usize].name.clone()
            },
        })
        .collect();
    Ok((
        TimingReport {
            critical_path_ps: critical,
            fmax_mhz: 1.0e6 / critical,
            worst_path,
            top_paths,
            nodes: n,
            edges: graph.edges.len(),
        },
        slacks,
    ))
}

/// The router's slack-ordering feed: the timing graph of a view, built
/// once, re-analyzed against each iteration's congestion map. It needs only
/// placements, not routes, so it is valid mid-negotiation.
pub(crate) struct SlackFeed<'a> {
    view: NetView<'a>,
    graph: TGraph,
}

impl<'a> SlackFeed<'a> {
    pub(crate) fn new(view: NetView<'a>) -> Self {
        SlackFeed {
            view,
            graph: TGraph::build(view),
        }
    }

    /// Per-net slack of the nets in `slots` (worst output slack across the
    /// net's endpoints) against the tightened target clock, plus that
    /// target (ps). Negative slack marks the near-critical cone (see
    /// [`CRIT_TARGET_RATIO`]).
    pub(crate) fn net_slacks(
        &self,
        slots: impl Iterator<Item = Slot>,
        device: &Device,
        congestion: Option<&CongestionMap>,
    ) -> Result<(Vec<f64>, f64), PnrError> {
        let (report, node_slacks) = analyze_full(&self.graph, device, congestion)?;
        let target = report.critical_path_ps * CRIT_TARGET_RATIO;
        let slacks = slots
            .map(|slot| {
                let nodes = net_nodes(&self.graph.bases, self.view.net(slot));
                nodes.fold(f64::INFINITY, |s, n| s.min(node_slacks[n as usize]))
            })
            .collect();
        Ok((slacks, target))
    }
}

/// STA over everything a view covers.
pub(crate) fn sta(
    view: NetView<'_>,
    device: &Device,
    congestion: Option<&CongestionMap>,
) -> Result<TimingReport, PnrError> {
    analyze_full(&TGraph::build(view), device, congestion).map(|(report, _)| report)
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

    #[test]
    fn combinational_loop_is_detected() {
        let mut b = ModuleBuilder::new("loop");
        let din = b.input("din", StreamRole::Source, 1);
        let dout = b.output("dout", StreamRole::Sink, 1);
        let a = b.cell(Cell::new("a", CellKind::full_slice()).combinational());
        let c = b.cell(Cell::new("c", CellKind::full_slice()).combinational());
        b.connect("i", Endpoint::Port(din), [Endpoint::Cell(a)]);
        b.connect("f", Endpoint::Cell(a), [Endpoint::Cell(c)]);
        b.connect("g", Endpoint::Cell(c), [Endpoint::Cell(a)]);
        b.connect("o", Endpoint::Cell(c), [Endpoint::Port(dout)]);
        let mut m = b.finish().unwrap();
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
        // same area with capacity 1 and seeding heavy occupancy.
        let mut routed = m.clone();
        let (_, map) = crate::route::route_module_obs(
            &mut routed,
            &device,
            &crate::route::RouteOptions {
                max_iters: 1,
                capacity: 1,
            },
            &Obs::null(),
        )
        .unwrap();
        let congested = sta_module(&m, &device, Some(&map)).unwrap();
        assert!(congested.fmax_mhz <= clean.fmax_mhz);
    }

    #[test]
    fn net_slacks_mark_the_critical_cone_negative() {
        let device = Device::test_part();
        let m = pipeline(250, 1);
        let slots: Vec<Slot> = NetView::from(&m).nets().map(|n| n.slot()).collect();
        assert_eq!(slots.len(), m.nets().len());
        let feed = SlackFeed::new((&m).into());
        let (slacks, target) = feed
            .net_slacks(slots.iter().copied(), &device, None)
            .unwrap();
        let report = sta_module(&m, &device, None).unwrap();
        assert!((target - report.critical_path_ps * CRIT_TARGET_RATIO).abs() < 1e-9);
        // The critical chain runs through every data net, so against the
        // tightened target the worst nets must read negative.
        let worst = slacks.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(worst < 0.0, "no negative slack in {slacks:?}");
        // Worst slack equals target minus the achieved critical path.
        assert!(
            (worst - (target - report.critical_path_ps)).abs() < 1e-6,
            "worst {worst} vs target {target} critical {}",
            report.critical_path_ps
        );
        // Every slack is finite or +inf, never NaN.
        assert!(slacks.iter().all(|s| !s.is_nan()));
    }

    #[test]
    fn design_net_slacks_cover_instances_and_top_nets() {
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
        let a = d.add_instance("a", make("a", 1, TileCoord::new(2, 1)));
        let bb = d.add_instance("b", make("b", 10, TileCoord::new(9, 1)));
        let (pa, _) = d.instance(a).module.port_by_name("dout").unwrap();
        let (pb, _) = d.instance(bb).module.port_by_name("din").unwrap();
        d.connect_top("link", (a, pa), vec![(bb, pb)], 16).unwrap();
        // Two nets per instance plus the link, the top net last.
        let slots: Vec<Slot> = NetView::from(&d).nets().map(|n| n.slot()).collect();
        assert_eq!(slots.len(), 5);
        assert_eq!(slots[4], Slot::Top { net: 0 });
        let feed = SlackFeed::new((&d).into());
        let (slacks, target) = feed
            .net_slacks(slots.iter().copied(), &device, None)
            .unwrap();
        assert_eq!(slacks.len(), slots.len());
        assert!(target > 0.0);
        let worst = slacks.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(worst < 0.0, "tightened target must leave a critical cone");
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
