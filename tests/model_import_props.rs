//! Property tests over the `pi-model` descriptor frontend: any valid
//! descriptor round-trips byte-identically through the canonical writer
//! and imports to exactly the network it was rendered from; any of the
//! classic malformations (unknown op, dangling edge, declared-shape lie,
//! cycle) comes back as a located `CnnError::Import` — never a panic —
//! with every lenient-mode finding carrying a registered lint code.

use preimpl_cnn::cnn::{CnnError, ConvParams, EltwiseOp, FcParams, Layer, PoolParams, Shape};
use preimpl_cnn::model::json::{parse_json, render_json, to_json_descriptor, JsonModel};
use preimpl_cnn::model::{import, import_lenient, ModelFormat};
use preimpl_cnn::prelude::*;
use proptest::prelude::*;

/// One step of a generated architecture. Residual blocks exercise the
/// branching (join) paths; everything else walks the linear ones.
#[derive(Debug, Clone)]
enum Step {
    Conv { kernel: u32, out: u32 },
    Relu,
    Pool,
    Residual,
}

/// The vendored proptest stand-in has no `prop_oneof`; a selector index
/// mapped over candidate draws covers the same ground.
fn step_strategy() -> impl Strategy<Value = Step> {
    (0u8..4, 0usize..3, 1u32..7).prop_map(|(pick, k, out)| match pick {
        0 => Step::Conv {
            kernel: [1u32, 3, 5][k],
            out,
        },
        1 => Step::Relu,
        2 => Step::Pool,
        _ => Step::Residual,
    })
}

/// Build a valid network from the generated recipe. Convolutions use
/// same-padding so spatial sizes only move at pools (halving, gated on
/// the current size staying poolable), and residual branches preserve
/// channel counts so the join shapes always agree.
fn build_network(channels: u32, size_exp: u32, steps: &[Step], fc_out: u32) -> Network {
    let h = 1u32 << size_exp;
    let mut n = Network::new("prop-net");
    let mut tail = n.push_layer("input", Layer::Input(Shape::new(channels, h, h)));
    let mut cur_c = channels;
    let mut cur_h = h;
    let conv = |out: u32, kernel: u32| {
        Layer::Conv(ConvParams {
            kernel,
            stride: 1,
            padding: kernel / 2,
            out_channels: out,
        })
    };
    for (i, step) in steps.iter().enumerate() {
        match step {
            Step::Conv { kernel, out } => {
                tail = n.push_layer(format!("conv{i}"), conv(*out, *kernel));
                cur_c = *out;
            }
            Step::Relu => {
                tail = n.push_layer(format!("relu{i}"), Layer::Relu);
            }
            Step::Pool => {
                if cur_h >= 4 {
                    tail = n.push_layer(format!("pool{i}"), Layer::Pool(PoolParams::max(2, 2)));
                    cur_h /= 2;
                }
            }
            Step::Residual => {
                let ca = n.add_node(format!("res{i}a"), conv(cur_c, 3));
                n.add_edge(tail, ca);
                let ra = n.add_node(format!("res{i}r"), Layer::Relu);
                n.add_edge(ca, ra);
                let cb = n.add_node(format!("res{i}b"), conv(cur_c, 3));
                n.add_edge(ra, cb);
                let join = n.add_node(format!("res{i}add"), Layer::Eltwise(EltwiseOp::Add));
                n.add_edge(cb, join);
                n.add_edge(tail, join);
                tail = join;
            }
        }
    }
    let head = n.add_node(
        "fc_out",
        Layer::Fc(FcParams {
            out_features: fc_out,
        }),
    );
    n.add_edge(tail, head);
    n
}

fn network_strategy() -> impl Strategy<Value = Network> {
    (
        1u32..=3,
        3u32..=5,
        proptest::collection::vec(step_strategy(), 0..8),
        1u32..=16,
    )
        .prop_map(|(c, e, steps, fc)| build_network(c, e, &steps, fc))
}

/// The four malformations the importer must locate, applied to a parsed
/// descriptor AST.
fn mutate(model: &mut JsonModel, kind: u8, pick: usize) {
    let i = pick % model.nodes.len();
    match kind {
        0 => model.nodes[i].op = "Convolve".to_string(),
        1 => model.nodes[i].inputs[0] = "no_such_node".to_string(),
        2 => {
            let s = model.nodes[i].shape.expect("descriptor declares shapes");
            model.nodes[i].shape = Some(Shape::new(s.channels + 1, s.height, s.width));
        }
        _ => {
            // Point an early node at a later one: every generated node
            // feeds the chain downstream, so this always closes a cycle.
            let j = i + (pick / model.nodes.len()) % (model.nodes.len() - i);
            model.nodes[i].inputs[0] = model.nodes[j].name.clone();
        }
    }
}

proptest! {
    /// Valid descriptor → parse → re-render is byte-identical (the
    /// canonical writer is a fixed point of parse∘render).
    #[test]
    fn render_parse_render_is_byte_identical(net in network_strategy()) {
        let text = to_json_descriptor(&net).unwrap();
        let model = parse_json(&text).unwrap();
        prop_assert_eq!(render_json(&model), text);
    }

    /// Importing the rendered descriptor reproduces the source network
    /// exactly — same archdef, same shape table — with no findings.
    #[test]
    fn import_agrees_with_the_declared_network(net in network_strategy()) {
        let text = to_json_descriptor(&net).unwrap();
        let imp = import(&text, ModelFormat::Json).unwrap();
        prop_assert!(imp.findings.is_empty(), "{:?}", imp.findings);
        prop_assert_eq!(
            preimpl_cnn::cnn::archdef::to_archdef(&imp.network),
            preimpl_cnn::cnn::archdef::to_archdef(&net)
        );
        // Shape propagation over the import matches the declared shapes.
        let declared = parse_json(&text).unwrap();
        let shapes = imp.network.input_shapes().unwrap();
        for node in &declared.nodes {
            let id = imp.network.nodes().iter().position(|n| n.name == node.name).unwrap();
            let propagated = imp.network.nodes()[id].layer.output_shape(shapes[id]).unwrap();
            prop_assert_eq!(Some(propagated), node.shape, "{}", node.name);
        }
    }

    /// The dataflow analysis sizes exactly the links the stitcher wires:
    /// its edges are `Network::component_edges`, port for port.
    #[test]
    fn dataflow_analysis_covers_the_component_graph(net in network_strategy()) {
        for granularity in [Granularity::Layer, Granularity::Block] {
            let components = net.components(granularity).unwrap();
            let graph: Vec<_> = net
                .component_edges(&components)
                .iter()
                .map(|e| (e.source, e.sink, e.port()))
                .collect();
            let analyzed: Vec<_> = preimpl_cnn::lint::analyze_dataflow(&net, granularity)
                .edges
                .iter()
                .map(|e| (e.source, e.sink, Some(e.port)))
                .collect();
            prop_assert_eq!(graph, analyzed);
        }
    }

    /// Sizer vs. checker: the depths the flow installs under
    /// `fifo_autosize` (the rate model's forward sweep) are exactly what
    /// the lint's independent interval fixpoint computes, link for link.
    #[test]
    fn model_link_depths_equal_the_dataflow_analysis(net in network_strategy()) {
        for granularity in [Granularity::Layer, Granularity::Block] {
            let analysis = preimpl_cnn::lint::analyze_dataflow(&net, granularity);
            prop_assert!(!analysis.diverged && analysis.fallback.is_none(), "{analysis:?}");
            let sized = preimpl_cnn::cnn::cycles::link_min_depths(&net, granularity).unwrap();
            prop_assert_eq!(sized, analysis.depth_map());
        }
    }

    /// Malformed descriptors always come back as located import errors —
    /// never a panic — and lenient mode tags every finding with a code
    /// the lint registry resolves.
    #[test]
    fn malformed_descriptors_error_with_locations(
        net in network_strategy(),
        kind in 0u8..4,
        pick in 0usize..1000,
    ) {
        let mut model = parse_json(&to_json_descriptor(&net).unwrap()).unwrap();
        mutate(&mut model, kind, pick);
        let text = render_json(&model);
        match import(&text, ModelFormat::Json) {
            Err(CnnError::Import { loc, msg }) => {
                prop_assert!(!loc.is_empty(), "error without a location: {msg}");
            }
            Err(other) => prop_assert!(false, "unlocated error type: {other}"),
            Ok(_) => prop_assert!(false, "mutation {kind} imported cleanly"),
        }
        let (imported, findings) = import_lenient(&text, ModelFormat::Json);
        prop_assert!(imported.is_none());
        prop_assert!(!findings.is_empty());
        for f in &findings {
            prop_assert!(
                preimpl_cnn::lint::lookup(f.code).is_some(),
                "unregistered finding code {}",
                f.code
            );
        }
    }
}
