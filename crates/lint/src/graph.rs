//! CNN dataflow-graph lints (`PL02xx`) over [`pi_cnn::Network`].
//!
//! These run *before* any synthesis: an inconsistent graph caught here
//! saves the full pre-implementation of every component downstream. The
//! structural and shape codes, `PL0201`–`PL0205`, compute nothing of their
//! own: they are a fold of the network judge's verdict
//! ([`Network::defects`], which every flow entry enforces) through the one
//! [`defect_code`] map, so no level or waiver can admit a network the flow
//! refuses. Only the component advisories (`PL0206`, `PL0207`) are
//! derived here.

use crate::diag::Diagnostic;
use pi_cnn::cycles::TARGET_FRAME_CYCLES;
use pi_cnn::graph::Granularity;
use pi_cnn::{DefectKind, GraphDefect, Network};

/// Run every graph-level lint. `granularity` selects the component
/// partition used by the bandwidth/fusion lints (PL0206/PL0207).
pub fn lint_network(network: &Network, granularity: Granularity) -> Vec<Diagnostic> {
    let base = format!("network:{}", network.name);
    let mut out: Vec<Diagnostic> = network
        .defects()
        .iter()
        .map(|d| diagnose_defect(&base, network, d))
        .collect();
    component_lints(&base, network, granularity, &mut out);
    out
}

/// Stable code for a class of network-judge defect.
pub fn defect_code(kind: DefectKind) -> &'static str {
    match kind {
        DefectKind::OperandsDisagree | DefectKind::RejectsInput => "PL0201",
        DefectKind::MissingNode | DefectKind::Unreachable => "PL0202",
        DefectKind::Cycle => "PL0203",
        DefectKind::Input => "PL0204",
        DefectKind::Degenerate | DefectKind::Arity => "PL0205",
    }
}

/// Fold one network-judge defect into a diagnostic, anchored at its node
/// or, for a whole-graph defect, at the part of the graph it concerns.
fn diagnose_defect(base: &str, network: &Network, d: &GraphDefect) -> Diagnostic {
    let origin = match (d.node, d.kind) {
        (Some(id), _) => format!("{base}/node:{}", network.node(id).name),
        (None, DefectKind::Cycle) => format!("{base}/cycle"),
        (None, DefectKind::MissingNode) => format!("{base}/edges"),
        (None, _) => format!("{base}/input"),
    };
    Diagnostic::new(defect_code(d.kind), origin, d.message.clone())
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
    use pi_cnn::{ConvParams, FcParams, Layer, PoolParams, Shape};

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
