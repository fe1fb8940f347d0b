//! Network data-flow graphs, fusion into components, and workload statistics.

use crate::layer::{Layer, PoolKind, Shape};
use crate::CnnError;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Index of a node in a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One node of the network DFG.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Node {
    pub name: String,
    pub layer: Layer,
}

/// A CNN expressed as a data-flow graph. The paper's networks are chains,
/// but edges are explicit so branching topologies parse and traverse the
/// same way.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Network {
    pub name: String,
    nodes: Vec<Node>,
    edges: Vec<(NodeId, NodeId)>,
}

impl Network {
    pub fn new(name: impl Into<String>) -> Self {
        Network {
            name: name.into(),
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Add a node, returning its id.
    pub fn add_node(&mut self, name: impl Into<String>, layer: Layer) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            name: name.into(),
            layer,
        });
        id
    }

    /// Add a producer→consumer edge.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        self.edges.push((from, to));
    }

    /// Chain-building helper: add a node wired after the last added node.
    pub fn push_layer(&mut self, name: impl Into<String>, layer: Layer) -> NodeId {
        let id = self.add_node(name, layer);
        if id.0 > 0 {
            self.add_edge(NodeId(id.0 - 1), id);
        }
        id
    }

    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// Successors of a node.
    pub fn successors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.edges
            .iter()
            .filter(move |(f, _)| *f == id)
            .map(|(_, t)| *t)
    }

    /// Predecessors of a node.
    pub fn predecessors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.edges
            .iter()
            .filter(move |(_, t)| *t == id)
            .map(|(f, _)| *f)
    }

    /// The unique input node.
    pub fn input(&self) -> Result<NodeId, CnnError> {
        let mut inputs = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.layer, Layer::Input(_)))
            .map(|(i, _)| NodeId(i as u32));
        let first = inputs
            .next()
            .ok_or_else(|| CnnError::BadGraph("no input layer".to_string()))?;
        if inputs.next().is_some() {
            return Err(CnnError::BadGraph("multiple input layers".to_string()));
        }
        Ok(first)
    }

    /// Breadth-first traversal order from the input — the traversal the
    /// paper's Algorithm 1 uses (CNN DFGs are deeper than wide, BFS
    /// discovers components level by level).
    pub fn bfs(&self) -> Result<Vec<NodeId>, CnnError> {
        let root = self.input()?;
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = VecDeque::new();
        seen[root.index()] = true;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for w in self.successors(v) {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    queue.push_back(w);
                }
            }
        }
        if order.len() != self.nodes.len() {
            return Err(CnnError::BadGraph(format!(
                "{} nodes unreachable from input",
                self.nodes.len() - order.len()
            )));
        }
        Ok(order)
    }

    /// Deterministic topological order (Kahn's algorithm, smallest ready
    /// node id first). Unlike [`Network::bfs`], every predecessor of a node
    /// appears before the node itself, which branching topologies need for
    /// shape propagation — BFS can reach a join through its short branch
    /// before the long branch has been computed. On chains the two orders
    /// coincide.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, CnnError> {
        let mut indeg = vec![0usize; self.nodes.len()];
        for (_, t) in &self.edges {
            indeg[t.index()] += 1;
        }
        let mut ready: BinaryHeap<Reverse<u32>> = indeg
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| Reverse(i as u32))
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(Reverse(i)) = ready.pop() {
            let id = NodeId(i);
            order.push(id);
            for s in self.successors(id) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    ready.push(Reverse(s.0));
                }
            }
        }
        if order.len() != self.nodes.len() {
            return Err(CnnError::BadGraph(format!(
                "{} nodes trapped in a dependency cycle",
                self.nodes.len() - order.len()
            )));
        }
        Ok(order)
    }

    /// Input shape of every node, propagated from the network input.
    /// For multi-predecessor nodes the first predecessor's output is used
    /// (joins are shape-preserving; pi-lint PL0201 flags disagreement).
    pub fn input_shapes(&self) -> Result<Vec<Shape>, CnnError> {
        self.bfs()?; // reachability + unique-input validation
        let order = self.topo_order()?;
        let mut out_shapes: Vec<Option<Shape>> = vec![None; self.nodes.len()];
        let mut in_shapes: Vec<Option<Shape>> = vec![None; self.nodes.len()];
        for id in order {
            let input = match self.predecessors(id).next() {
                Some(p) => out_shapes[p.index()].ok_or_else(|| {
                    CnnError::BadGraph(format!(
                        "node {} visited before predecessor (cycle?)",
                        self.node(id).name
                    ))
                })?,
                // The input node feeds itself its declared shape.
                None => match self.node(id).layer {
                    Layer::Input(s) => s,
                    _ => {
                        return Err(CnnError::BadGraph(format!(
                            "non-input node {} has no predecessor",
                            self.node(id).name
                        )))
                    }
                },
            };
            in_shapes[id.index()] = Some(input);
            out_shapes[id.index()] = Some(self.node(id).layer.output_shape(input)?);
        }
        Ok(in_shapes.into_iter().map(|s| s.unwrap()).collect())
    }

    /// Output shape of the final node; for a chain, the network output. The
    /// last node in topological order is always a sink, even when branches
    /// rejoin.
    pub fn output_shape(&self) -> Result<Shape, CnnError> {
        let shapes = self.input_shapes()?;
        let last = self
            .topo_order()?
            .into_iter()
            .last()
            .ok_or_else(|| CnnError::BadGraph("empty network".to_string()))?;
        self.node(last).layer.output_shape(shapes[last.index()])
    }

    /// Workload statistics (Table I of the paper).
    pub fn stats(&self) -> Result<NetworkStats, CnnError> {
        let shapes = self.input_shapes()?;
        let mut s = NetworkStats::default();
        for (i, node) in self.nodes.iter().enumerate() {
            let input = shapes[i];
            match node.layer {
                Layer::Conv(_) => {
                    s.conv_layers += 1;
                    s.conv_weights += node.layer.weights(input);
                    s.conv_macs += node.layer.macs(input)?;
                }
                Layer::Fc(_) => {
                    s.fc_layers += 1;
                    s.fc_weights += node.layer.weights(input);
                    s.fc_macs += node.layer.macs(input)?;
                }
                _ => {}
            }
        }
        Ok(s)
    }

    /// Partition the network into components per the paper's rule:
    /// consecutive nodes are pre-implemented as one component when the data
    /// movement between them requires no memory controller. Element-wise
    /// layers (ReLU) always fuse into the producing component; with
    /// [`Granularity::Block`], consecutive convolutions also fuse (the
    /// granularity the paper uses for VGG's conv blocks).
    ///
    /// Fusion is adjacency-aware so branching topologies partition
    /// correctly: a node joins its predecessor's component only when it is
    /// that predecessor's sole consumer and the predecessor is the current
    /// tail of its component. On a chain this reduces to the original
    /// consecutive-layer rule, so existing signatures (and therefore
    /// database cache keys) are unchanged. Joins and fanout points always
    /// start a fresh component. Components are emitted in topological
    /// order, so every producer component precedes its consumers.
    pub fn components(&self, granularity: Granularity) -> Result<Vec<Component>, CnnError> {
        let shapes = self.input_shapes()?;
        let order = self.topo_order()?;
        let mut components: Vec<Component> = Vec::new();
        // Component index each node landed in (None for the input node).
        let mut comp_of: Vec<Option<usize>> = vec![None; self.nodes.len()];

        for id in order {
            let node = self.node(id);
            if matches!(node.layer, Layer::Input(_)) {
                continue;
            }
            let input_shape = shapes[id.index()];
            let output_shape = node.layer.output_shape(input_shape)?;
            let preds: Vec<NodeId> = self.predecessors(id).collect();
            let target = match preds.as_slice() {
                // Single producer whose only consumer is this node: the wire
                // between them carries the whole stream, so fusion needs no
                // memory controller.
                [p] if self.successors(*p).count() == 1 => {
                    comp_of[p.index()].filter(|&ci| {
                        let c = &components[ci];
                        c.nodes.last() == Some(p)
                            && match node.layer {
                                // ReLU streams element-wise.
                                Layer::Relu => true,
                                // Block granularity: conv directly following
                                // conv keeps streaming through the same CLE
                                // chain.
                                Layer::Conv(_) => {
                                    granularity == Granularity::Block && c.kind_tag == "conv"
                                }
                                _ => false,
                            }
                    })
                }
                _ => None,
            };
            match target {
                Some(ci) => {
                    let c = &mut components[ci];
                    c.nodes.push(id);
                    c.output_shape = output_shape;
                    c.name.push('+');
                    c.name.push_str(&node.name);
                    comp_of[id.index()] = Some(ci);
                }
                None => {
                    comp_of[id.index()] = Some(components.len());
                    components.push(Component {
                        name: node.name.clone(),
                        kind_tag: node.layer.kind_tag().to_string(),
                        nodes: vec![id],
                        input_shape,
                        output_shape,
                    });
                }
            }
        }
        if components.is_empty() {
            return Err(CnnError::BadGraph(
                "network has no compute layers".to_string(),
            ));
        }
        Ok(components)
    }

    /// The component graph: one [`ComponentEdge`] per distinct pair of
    /// `components` (as returned by [`Network::components`]) joined by a
    /// network edge, in network-edge order. This is the single derivation
    /// the stitcher wires top-level nets from, the rate model sizes link
    /// FIFOs over and the dataflow lint checks them over.
    pub fn component_edges(&self, components: &[Component]) -> Vec<ComponentEdge> {
        let mut node_to_comp = HashMap::new();
        for (ci, comp) in components.iter().enumerate() {
            for node in &comp.nodes {
                node_to_comp.insert(*node, ci);
            }
        }
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for (a, b) in &self.edges {
            match (node_to_comp.get(a), node_to_comp.get(b)) {
                (Some(&ca), Some(&cb)) if ca != cb && !pairs.contains(&(ca, cb)) => {
                    pairs.push((ca, cb));
                }
                _ => {}
            }
        }
        pairs
            .iter()
            .map(|&(source, sink)| ComponentEdge {
                source,
                sink,
                operand: pairs
                    .iter()
                    .filter(|&&(a, b)| b == sink && a < source)
                    .count(),
            })
            .collect()
    }

    /// Basic structural validation.
    pub fn validate(&self) -> Result<(), CnnError> {
        for (f, t) in &self.edges {
            if f.index() >= self.nodes.len() || t.index() >= self.nodes.len() {
                return Err(CnnError::BadGraph(
                    "edge references missing node".to_string(),
                ));
            }
        }
        self.bfs().map(|_| ())
    }
}

/// Component-extraction granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum Granularity {
    /// One component per non-elementwise layer (LeNet in the paper:
    /// conv1 / pool1+relu1 / conv2 / pool2+relu / fc1 / fc2).
    Layer,
    /// Consecutive convolutions additionally fuse (VGG in the paper: each
    /// conv block is one component → 12 components for VGG-16).
    Block,
}

/// A fused group of layers that will be pre-implemented as one module.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Component {
    pub name: String,
    /// Kind of the leading layer ("conv", "pool", "fc").
    pub kind_tag: String,
    pub nodes: Vec<NodeId>,
    pub input_shape: Shape,
    pub output_shape: Shape,
}

impl Component {
    /// The database-matching signature: layer kinds + parameters + input
    /// shape, everything that determines the hardware.
    pub fn signature(&self, network: &Network) -> String {
        let mut sig = String::new();
        for (i, id) in self.nodes.iter().enumerate() {
            if i > 0 {
                sig.push('+');
            }
            match network.node(*id).layer {
                Layer::Conv(p) => {
                    sig.push_str(&format!(
                        "conv_k{}s{}p{}co{}",
                        p.kernel, p.stride, p.padding, p.out_channels
                    ));
                }
                // Max pooling keeps the historical spelling so signatures of
                // pre-existing networks (and their cached checkpoints) are
                // stable; average pooling is new hardware and gets its own.
                Layer::Pool(p) => match p.kind {
                    PoolKind::Max => sig.push_str(&format!("pool_w{}s{}", p.window, p.stride)),
                    PoolKind::Average => sig.push_str(&format!("apool_w{}s{}", p.window, p.stride)),
                },
                Layer::Relu => sig.push_str("relu"),
                Layer::Fc(p) => sig.push_str(&format!("fc_o{}", p.out_features)),
                Layer::Input(_) => sig.push_str("input"),
                Layer::Eltwise(op) => sig.push_str(Layer::Eltwise(op).kind_tag()),
            }
        }
        format!(
            "{}__in{}x{}x{}",
            sig, self.input_shape.channels, self.input_shape.height, self.input_shape.width
        )
    }
}

/// One stream link of the component graph: component `source` feeds
/// component `sink` (indices into the [`Network::components`] order, which
/// is also composition's instance order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComponentEdge {
    pub source: usize,
    pub sink: usize,
    /// Rank of `source` among the sink's producers, ordered by component
    /// index — the deterministic operand assignment of a join.
    pub operand: usize,
}

impl ComponentEdge {
    /// The sink's input port this link drives: `din`, or `din2` for a
    /// join's second operand. `None` past that — components accept at most
    /// two input streams.
    pub fn port(&self) -> Option<&'static str> {
        match self.operand {
            0 => Some("din"),
            1 => Some("din2"),
            _ => None,
        }
    }
}

/// Workload statistics in the shape of the paper's Table I.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkStats {
    pub conv_layers: u32,
    pub conv_weights: u64,
    pub conv_macs: u64,
    pub fc_layers: u32,
    pub fc_weights: u64,
    pub fc_macs: u64,
}

impl NetworkStats {
    pub fn total_weights(&self) -> u64 {
        self.conv_weights + self.fc_weights
    }

    pub fn total_macs(&self) -> u64 {
        self.conv_macs + self.fc_macs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{ConvParams, FcParams, PoolParams};

    fn mini_net() -> Network {
        let mut n = Network::new("mini");
        n.push_layer("in", Layer::Input(Shape::new(1, 8, 8)));
        n.push_layer(
            "c1",
            Layer::Conv(ConvParams {
                kernel: 3,
                stride: 1,
                padding: 0,
                out_channels: 2,
            }),
        );
        n.push_layer("p1", Layer::Pool(PoolParams::max(2, 2)));
        n.push_layer("r1", Layer::Relu);
        n.push_layer("f1", Layer::Fc(FcParams { out_features: 4 }));
        n
    }

    #[test]
    fn bfs_visits_chain_in_order() {
        let n = mini_net();
        let order = n.bfs().unwrap();
        assert_eq!(order.len(), 5);
        assert_eq!(order[0], NodeId(0));
        assert_eq!(order[4], NodeId(4));
    }

    #[test]
    fn shapes_propagate() {
        let n = mini_net();
        let shapes = n.input_shapes().unwrap();
        assert_eq!(shapes[1], Shape::new(1, 8, 8));
        assert_eq!(shapes[2], Shape::new(2, 6, 6));
        assert_eq!(shapes[3], Shape::new(2, 3, 3));
        assert_eq!(n.output_shape().unwrap(), Shape::new(4, 1, 1));
    }

    #[test]
    fn component_fusion_layer_granularity() {
        let n = mini_net();
        let comps = n.components(Granularity::Layer).unwrap();
        // conv1 / pool+relu / fc
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0].name, "c1");
        assert_eq!(comps[1].name, "p1+r1");
        assert_eq!(comps[1].nodes.len(), 2);
        assert_eq!(comps[2].name, "f1");
        assert_eq!(comps[1].output_shape, Shape::new(2, 3, 3));
    }

    #[test]
    fn block_granularity_fuses_conv_runs() {
        let mut n = Network::new("blocky");
        n.push_layer("in", Layer::Input(Shape::new(1, 16, 16)));
        let conv = |o| {
            Layer::Conv(ConvParams {
                kernel: 3,
                stride: 1,
                padding: 1,
                out_channels: o,
            })
        };
        n.push_layer("c1", conv(4));
        n.push_layer("r1", Layer::Relu);
        n.push_layer("c2", conv(4));
        n.push_layer("r2", Layer::Relu);
        n.push_layer("p1", Layer::Pool(PoolParams::max(2, 2)));
        assert_eq!(n.components(Granularity::Layer).unwrap().len(), 3);
        let blocks = n.components(Granularity::Block).unwrap();
        assert_eq!(blocks.len(), 2); // c1+r1+c2+r2 / p1
        assert_eq!(blocks[0].nodes.len(), 4);
    }

    #[test]
    fn signatures_are_parameter_sensitive() {
        let n = mini_net();
        let comps = n.components(Granularity::Layer).unwrap();
        let sig = comps[0].signature(&n);
        assert!(sig.contains("conv_k3s1p0co2"));
        assert!(sig.ends_with("in1x8x8"));
        // Pool+relu fused signature mentions both.
        let sig1 = comps[1].signature(&n);
        assert!(sig1.contains("pool_w2s2+relu"));
    }

    #[test]
    fn component_edges_rank_a_joins_operands_by_producer_index() {
        let conv = Layer::Conv(ConvParams {
            kernel: 3,
            stride: 1,
            padding: 1,
            out_channels: 2,
        });
        let mut n = Network::new("fan");
        n.push_layer("in", Layer::Input(Shape::new(2, 8, 8)));
        let stem = n.push_layer("stem", conv);
        let join = n.add_node("join", Layer::Eltwise(crate::layer::EltwiseOp::Add));
        // Branches are wired to the join in reverse order: the operand rank
        // follows the component index, not the edge order.
        let branches: Vec<NodeId> = (0..3).map(|i| n.add_node(format!("b{i}"), conv)).collect();
        for &b in branches.iter().rev() {
            n.add_edge(stem, b);
            n.add_edge(b, join);
        }
        let comps = n.components(Granularity::Layer).unwrap();
        let index = |name: &str| comps.iter().position(|c| c.name == name).unwrap();
        let edges = n.component_edges(&comps);
        // stem -> b{0,1,2} -> join; the input node is no component.
        assert_eq!(edges.len(), 6);
        let mut into_join: Vec<_> = edges.iter().filter(|e| e.sink == index("join")).collect();
        assert_eq!(into_join[0].source, index("b2"), "network-edge order");
        into_join.sort_by_key(|e| e.source);
        let operands: Vec<_> = into_join.iter().map(|e| (e.operand, e.port())).collect();
        assert_eq!(operands, [(0, Some("din")), (1, Some("din2")), (2, None)]);
    }

    #[test]
    fn stats_sum_conv_and_fc() {
        let n = mini_net();
        let s = n.stats().unwrap();
        assert_eq!(s.conv_layers, 1);
        assert_eq!(s.fc_layers, 1);
        assert_eq!(s.conv_weights, 3 * 3 * 2 + 2);
        assert_eq!(s.fc_weights, (2 * 3 * 3) * 4 + 4);
        assert_eq!(s.total_macs(), s.conv_macs + s.fc_macs);
    }

    #[test]
    fn disconnected_and_inputless_graphs_are_rejected() {
        let mut n = Network::new("bad");
        n.add_node("a", Layer::Relu);
        assert!(n.bfs().is_err());

        let mut n2 = Network::new("bad2");
        n2.add_node("in", Layer::Input(Shape::new(1, 4, 4)));
        n2.add_node("orphan", Layer::Relu);
        assert!(n2.validate().is_err());
    }
}
