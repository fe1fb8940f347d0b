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

/// Name suffixes the canonical writer must escape: a quote, a backslash,
/// a newline, control characters below 0x20, non-ASCII text.
const AWKWARD: &[&str] = &[
    "\"q\"",
    "back\\slash",
    "new\nline\ttab\r",
    "ctl\u{1}\u{1f}",
    "ünï ☂ 配線",
    "\"\\\n\u{7}é",
];

/// Append `suffix` to every name in the descriptor (model, input, nodes
/// and every reference to them), keeping the graph intact.
fn rename_all(model: &mut JsonModel, suffix: &str) {
    let re = |s: &mut String| s.push_str(suffix);
    re(&mut model.name);
    re(&mut model.input_name);
    for node in &mut model.nodes {
        re(&mut node.name);
        node.inputs.iter_mut().for_each(re);
    }
    model.outputs.iter_mut().for_each(re);
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

    /// The same fixed point with names that need escaping: every string
    /// is written as `serde_json` writes it and parses back unchanged.
    #[test]
    fn awkward_names_render_parse_render(net in network_strategy(), pick in 0..AWKWARD.len()) {
        let mut model = parse_json(&to_json_descriptor(&net).unwrap()).unwrap();
        rename_all(&mut model, AWKWARD[pick]);
        let text = render_json(&model);
        let back = parse_json(&text).unwrap();
        prop_assert_eq!(&back, &model);
        prop_assert_eq!(render_json(&back), text);
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
    /// its edges are `Network::component_edges`, port for port. And every
    /// link is token-balanced by construction: it leaves the producer's
    /// last node and enters the consumer's first, so it carries the
    /// producer's output shape into the consumer's input shape.
    #[test]
    fn dataflow_analysis_covers_the_component_graph(net in network_strategy()) {
        for granularity in [Granularity::Layer, Granularity::Block] {
            let components = net.components(granularity).unwrap();
            let component_of = |id| components.iter().position(|c| c.nodes.contains(&id));
            for &(a, b) in net.edges() {
                if let (Some(ca), Some(cb)) = (component_of(a), component_of(b)) {
                    prop_assert!(
                        ca == cb
                            || (components[ca].nodes.last() == Some(&a)
                                && components[cb].nodes[0] == b),
                        "edge {:?} -> {:?} crosses {} -> {} off their ends",
                        a,
                        b,
                        &components[ca].name,
                        &components[cb].name
                    );
                }
            }
            let edges = net.component_edges(&components);
            for e in &edges {
                prop_assert_eq!(
                    components[e.source].output_shape,
                    components[e.sink].input_shape,
                    "{} -> {}",
                    &components[e.source].name,
                    &components[e.sink].name
                );
            }
            let graph: Vec<_> = edges
                .iter()
                .map(|e| (e.source, e.sink, e.port()))
                .collect();
            let analyzed: Vec<_> = preimpl_cnn::lint::analyze_dataflow(&net, granularity)
                .unwrap()
                .edges
                .iter()
                .map(|e| (e.source, e.sink, Some(e.port)))
                .collect();
            prop_assert_eq!(graph, analyzed);
        }
    }

    /// Sizer vs. reference: the minimum depths the flow sizes links from
    /// (the rate model's forward sweep) are exactly what the independent
    /// longest-path pass of `pi_lint::dataflow` computes, link for link.
    #[test]
    fn model_link_depths_equal_the_dataflow_analysis(net in network_strategy()) {
        for granularity in [Granularity::Layer, Granularity::Block] {
            let analysis = preimpl_cnn::lint::analyze_dataflow(&net, granularity).unwrap();
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Legal or error, in both arms: a design either flow hands back for a
    /// generated network passes the judge, and its router left no tile
    /// over capacity. At 16 wires per tile some networks route legally and
    /// some cannot, so both outcomes occur.
    #[test]
    fn both_flows_return_a_legal_design_or_an_error(net in network_strategy()) {
        use preimpl_cnn::stitch::check_design;
        let device = Device::xcku5p_like().with_route_capacity("xcku5p-like-cap16", 16);
        let cfg = FlowConfig::new()
            .with_seeds([1])
            .with_effort(0.5)
            .with_baseline_effort(0.5);
        let mut delivered = Vec::new();
        if let Ok((db, _)) = build_component_db(&net, &device, &cfg) {
            if let Ok((design, report)) = run_pre_implemented_flow(&net, &db, &device, &cfg) {
                delivered.push((design, report.compile));
            }
        }
        if let Ok((design, report)) = run_baseline_flow(&net, &device, &cfg) {
            delivered.push((design, report.compile));
        }
        for (design, compile) in delivered {
            prop_assert_eq!(check_design(&design, &device).unwrap(), vec![]);
            prop_assert_eq!(compile.route_stats.overused_tiles, 0);
        }
    }
}
