//! CNN dataflow-graph lints (`PL02xx`) over [`pi_cnn::Network`].
//!
//! These run *before* any synthesis: an inconsistent graph caught here
//! saves the full pre-implementation of every component downstream. The
//! pass does its own Kahn topological peel and shape propagation instead
//! of calling [`Network::input_shapes`], which aborts at the first
//! defect — a linter must keep going and report everything.

use crate::diag::Diagnostic;
use pi_cnn::cycles::TARGET_FRAME_CYCLES;
use pi_cnn::graph::Granularity;
use pi_cnn::{Layer, Network, NodeId, Shape};
use std::collections::BTreeMap;

/// Run every graph-level lint. `granularity` selects the component
/// partition used by the bandwidth/fusion lints (PL0206/PL0207).
pub fn lint_network(network: &Network, granularity: Granularity) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let base = format!("network:{}", network.name);
    input_lints(&base, network, &mut out);
    degenerate_layer_lints(&base, network, &mut out);
    let order = cycle_and_orphan_lints(&base, network, &mut out);
    shape_lints(&base, network, &order, &mut out);
    component_lints(&base, network, granularity, &mut out);
    out
}

fn node_origin(base: &str, network: &Network, id: NodeId) -> String {
    format!("{base}/node:{}", network.node(id).name)
}

/// PL0204: exactly one input layer, with no predecessors.
fn input_lints(base: &str, network: &Network, out: &mut Vec<Diagnostic>) {
    let inputs: Vec<NodeId> = (0..network.nodes().len() as u32)
        .map(NodeId)
        .filter(|&id| matches!(network.node(id).layer, Layer::Input(_)))
        .collect();
    match inputs.len() {
        0 => out.push(Diagnostic::new(
            "PL0204",
            format!("{base}/input"),
            "graph has no input layer",
        )),
        1 => {
            let id = inputs[0];
            if network.predecessors(id).next().is_some() {
                out.push(Diagnostic::new(
                    "PL0204",
                    node_origin(base, network, id),
                    format!("input layer `{}` has predecessors", network.node(id).name),
                ));
            }
        }
        n => out.push(Diagnostic::new(
            "PL0204",
            format!("{base}/input"),
            format!("graph has {n} input layers, expected exactly one"),
        )),
    }
}

/// PL0205: layer parameters that make the layer a no-op or division by
/// zero downstream.
fn degenerate_layer_lints(base: &str, network: &Network, out: &mut Vec<Diagnostic>) {
    for (i, node) in network.nodes().iter().enumerate() {
        let origin = node_origin(base, network, NodeId(i as u32));
        let defect = match &node.layer {
            Layer::Input(shape) => {
                if shape.elements() == 0 {
                    Some(format!("input shape {shape} has a zero dimension"))
                } else {
                    None
                }
            }
            Layer::Conv(p) => {
                if p.kernel == 0 || p.stride == 0 || p.out_channels == 0 {
                    Some(format!(
                        "conv kernel={} stride={} out_channels={} — all must be positive",
                        p.kernel, p.stride, p.out_channels
                    ))
                } else {
                    None
                }
            }
            Layer::Pool(p) => {
                if p.window == 0 || p.stride == 0 {
                    Some(format!(
                        "pool window={} stride={} — both must be positive",
                        p.window, p.stride
                    ))
                } else {
                    None
                }
            }
            Layer::Fc(p) => {
                if p.out_features == 0 {
                    Some("fc out_features=0".to_string())
                } else {
                    None
                }
            }
            Layer::Relu => None,
            Layer::Eltwise(_) => {
                let preds = network.predecessors(NodeId(i as u32)).count();
                if preds != 2 {
                    Some(format!(
                        "join `{}` has {} input stream(s) — element-wise joins \
                         need exactly 2",
                        node.name, preds
                    ))
                } else {
                    None
                }
            }
        };
        if let Some(msg) = defect {
            out.push(Diagnostic::new("PL0205", origin, msg));
        }
    }
}

/// PL0203 (cycles) and PL0202 (orphans) via one Kahn peel from the
/// in-degree-zero frontier. Returns the topological order of the acyclic
/// part, which the shape pass then propagates along.
fn cycle_and_orphan_lints(base: &str, network: &Network, out: &mut Vec<Diagnostic>) -> Vec<NodeId> {
    let n = network.nodes().len();
    let mut indeg = vec![0usize; n];
    for &(_, dst) in network.edges() {
        indeg[dst.0 as usize] += 1;
    }
    let mut frontier: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order: Vec<NodeId> = Vec::with_capacity(n);
    while let Some(i) = frontier.pop() {
        order.push(NodeId(i as u32));
        for succ in network.successors(NodeId(i as u32)) {
            let s = succ.0 as usize;
            indeg[s] -= 1;
            if indeg[s] == 0 {
                frontier.push(s);
            }
        }
    }
    if order.len() < n {
        // Whatever the peel could not reach sits on (or behind) a cycle.
        let mut stuck: Vec<String> = (0..n)
            .filter(|&i| indeg[i] > 0)
            .map(|i| network.node(NodeId(i as u32)).name.clone())
            .collect();
        stuck.sort();
        let shown: Vec<&str> = stuck.iter().take(4).map(String::as_str).collect();
        let suffix = if stuck.len() > 4 { ", ..." } else { "" };
        out.push(Diagnostic::new(
            "PL0203",
            format!("{base}/cycle"),
            format!(
                "dataflow graph has a cycle involving {} node(s): {}{}",
                stuck.len(),
                shown.join(", "),
                suffix
            ),
        ));
    }

    // Orphans: nodes not reachable from the input layer (if there is
    // exactly one — otherwise PL0204 already fired and reachability is
    // ill-defined).
    if let Ok(input) = network.input() {
        let mut seen = vec![false; n];
        let mut work = vec![input.0 as usize];
        seen[input.0 as usize] = true;
        while let Some(i) = work.pop() {
            for succ in network.successors(NodeId(i as u32)) {
                let s = succ.0 as usize;
                if !seen[s] {
                    seen[s] = true;
                    work.push(s);
                }
            }
        }
        for (i, reached) in seen.iter().enumerate().take(n) {
            if !reached {
                out.push(Diagnostic::new(
                    "PL0202",
                    node_origin(base, network, NodeId(i as u32)),
                    format!(
                        "node `{}` is unreachable from the input layer",
                        network.node(NodeId(i as u32)).name
                    ),
                ));
            }
        }
    }
    order
}

/// PL0201: shape propagation along the topological order. Each node's
/// input shape is taken from its predecessors; predecessors that
/// disagree are an interface mismatch (the flow would silently use the
/// first one), and a layer rejecting its input shape is reported with
/// the layer's own error text.
fn shape_lints(base: &str, network: &Network, order: &[NodeId], out: &mut Vec<Diagnostic>) {
    let mut shapes: BTreeMap<u32, Shape> = BTreeMap::new();
    for &id in order {
        let node = network.node(id);
        let input_shape = if let Layer::Input(s) = &node.layer {
            Some(*s)
        } else {
            let preds: Vec<NodeId> = network.predecessors(id).collect();
            let known: Vec<(&str, Shape)> = preds
                .iter()
                .filter_map(|p| {
                    shapes
                        .get(&p.0)
                        .map(|s| (network.node(*p).name.as_str(), *s))
                })
                .collect();
            if known.len() > 1 && known.iter().any(|(_, s)| *s != known[0].1) {
                let desc: Vec<String> =
                    known.iter().map(|(n, s)| format!("`{n}` -> {s}")).collect();
                out.push(Diagnostic::new(
                    "PL0201",
                    node_origin(base, network, id),
                    format!(
                        "predecessors of `{}` disagree on the interface shape: {}",
                        node.name,
                        desc.join(", ")
                    ),
                ));
            }
            known.first().map(|(_, s)| *s)
        };
        let Some(input_shape) = input_shape else {
            // No propagated shape (orphan or behind a defect already
            // reported) — nothing more to check here.
            continue;
        };
        match node.layer.output_shape(input_shape) {
            Ok(s) => {
                shapes.insert(id.0, s);
            }
            Err(e) => out.push(Diagnostic::new(
                "PL0201",
                node_origin(base, network, id),
                format!(
                    "layer `{}` rejects input shape {input_shape}: {e}",
                    node.name
                ),
            )),
        }
    }
}

/// PL0206 / PL0207: component-partition lints. Only meaningful when the
/// partition itself can be computed — otherwise earlier lints already
/// explain why.
fn component_lints(
    base: &str,
    network: &Network,
    granularity: Granularity,
    out: &mut Vec<Diagnostic>,
) {
    let Ok(components) = network.components(granularity) else {
        return;
    };
    for c in &components {
        let origin = format!("{base}/component:{}", c.name);
        // Every component boundary is a memory-controller round trip: the
        // input frame must stream through within the frame cycle budget
        // the synthesizer sizes every engine for.
        let elements = c.input_shape.elements();
        if elements > TARGET_FRAME_CYCLES {
            out.push(Diagnostic::new(
                "PL0206",
                origin.clone(),
                format!(
                    "component input tensor {} ({} elements) exceeds the \
                     per-frame cycle budget of {}",
                    c.input_shape, elements, TARGET_FRAME_CYCLES
                ),
            ));
        }
        // A bare element-wise component occupies a memory controller pair
        // for work that fuses into its producer for free.
        if network.node(c.nodes[0]).layer.is_elementwise() && c.nodes.len() == 1 {
            out.push(Diagnostic::new(
                "PL0207",
                origin,
                format!(
                    "component `{}` is a bare element-wise layer — fuse it \
                     into its producer instead of spending a memory controller",
                    c.name
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_cnn::{ConvParams, FcParams, PoolParams};

    fn codes_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    fn lint(net: &Network) -> Vec<Diagnostic> {
        lint_network(net, Granularity::Layer)
    }

    #[test]
    fn bundled_models_lint_clean() {
        for net in [
            pi_cnn::models::lenet5(),
            pi_cnn::models::vgg16(),
            pi_cnn::models::alexnet_like(),
        ] {
            let diags = lint(&net);
            assert!(diags.is_empty(), "{}: {diags:?}", net.name);
        }
    }

    #[test]
    fn detects_shape_mismatch() {
        let mut net = Network::new("bad");
        net.push_layer("in", Layer::Input(Shape::new(1, 4, 4)));
        // 9x9 kernel cannot fit a 4x4 input.
        net.push_layer(
            "c1",
            Layer::Conv(ConvParams {
                kernel: 9,
                stride: 1,
                padding: 0,
                out_channels: 2,
            }),
        );
        let diags = lint(&net);
        assert!(codes_of(&diags).contains(&"PL0201"), "{diags:?}");
    }

    #[test]
    fn detects_interface_disagreement() {
        let mut net = Network::new("fork");
        let input = net.add_node("in", Layer::Input(Shape::new(1, 8, 8)));
        let a = net.add_node("a", Layer::Pool(PoolParams::max(2, 2)));
        let b = net.add_node("b", Layer::Pool(PoolParams::max(4, 4)));
        let join = net.add_node("join", Layer::Relu);
        net.add_edge(input, a);
        net.add_edge(input, b);
        net.add_edge(a, join);
        net.add_edge(b, join);
        let diags = lint(&net);
        let shapes: Vec<_> = diags.iter().filter(|d| d.code == "PL0201").collect();
        assert_eq!(shapes.len(), 1, "{diags:?}");
        assert!(shapes[0].message.contains("disagree"));
    }

    #[test]
    fn detects_cycle_and_orphan() {
        let mut net = Network::new("weird");
        let input = net.add_node("in", Layer::Input(Shape::new(1, 8, 8)));
        let a = net.add_node("a", Layer::Relu);
        let b = net.add_node("b", Layer::Relu);
        net.add_edge(input, a);
        net.add_edge(a, b);
        net.add_edge(b, a); // cycle a <-> b
        let orphan = net.add_node("island", Layer::Relu);
        let _ = orphan;
        let diags = lint(&net);
        let codes = codes_of(&diags);
        assert!(codes.contains(&"PL0203"), "{diags:?}");
        assert!(codes.contains(&"PL0202"), "{diags:?}");
    }

    #[test]
    fn detects_input_misplacement_and_degenerate_params() {
        let mut net = Network::new("none");
        net.push_layer("fc", Layer::Fc(FcParams { out_features: 0 }));
        let diags = lint(&net);
        let codes = codes_of(&diags);
        assert!(codes.contains(&"PL0204"), "no input: {diags:?}");
        assert!(codes.contains(&"PL0205"), "fc out=0: {diags:?}");

        let mut two = Network::new("two");
        two.push_layer("in1", Layer::Input(Shape::new(1, 4, 4)));
        two.push_layer("in2", Layer::Input(Shape::new(1, 4, 4)));
        let codes = codes_of(&lint(&two));
        assert!(codes.contains(&"PL0204"), "{codes:?}");
    }

    #[test]
    fn oversized_boundary_tensor_exceeds_the_frame_budget() {
        // 64 x 510 x 510 = 16.6 M elements cross the conv -> pool boundary,
        // twice what an engine sized for TARGET_FRAME_CYCLES streams.
        let mut net = Network::new("wide");
        net.push_layer("in", Layer::Input(Shape::new(3, 512, 512)));
        net.push_layer(
            "c1",
            Layer::Conv(ConvParams {
                kernel: 3,
                stride: 1,
                padding: 0,
                out_channels: 64,
            }),
        );
        net.push_layer("p1", Layer::Pool(PoolParams::max(2, 2)));
        let diags = lint(&net);
        let over: Vec<_> = diags.iter().filter(|d| d.code == "PL0206").collect();
        assert_eq!(over.len(), 1, "{diags:?}");
        assert!(
            over[0].origin.ends_with("component:p1"),
            "{}",
            over[0].origin
        );
    }

    #[test]
    fn detects_bare_elementwise_component() {
        let mut net = Network::new("bare");
        net.push_layer("in", Layer::Input(Shape::new(1, 8, 8)));
        net.push_layer("act", Layer::Relu);
        net.push_layer("fc", Layer::Fc(FcParams { out_features: 10 }));
        let diags = lint(&net);
        assert!(codes_of(&diags).contains(&"PL0207"), "{diags:?}");
    }
}
