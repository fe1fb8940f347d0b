//! ONNX-style JSON op graphs.
//!
//! The descriptor is a named node list with explicit edges — the shape
//! exporters emit when walking an `onnx.GraphProto`:
//!
//! ```json
//! {
//!   "name": "resnet_small",
//!   "input": {"name": "input", "shape": [3, 32, 32]},
//!   "nodes": [
//!     {"name": "conv1", "op": "Conv", "inputs": ["input"],
//!      "attrs": {"kernel": 3, "out": 16, "pad": 1, "stride": 1},
//!      "shape": [16, 32, 32]},
//!     {"name": "add1", "op": "Add", "inputs": ["conv1b", "relu1"]}
//!   ],
//!   "outputs": ["fc1"]
//! }
//! ```
//!
//! Nodes are listed producers first, as ONNX lists a graph's nodes in
//! topological order: every input names the graph input or an earlier
//! node. The importer lowers the list in that one order and judges
//! nothing the network judge ([`Network::defects`]) decides — join
//! arity, fan-in, shapes and degenerate parameters reach the judge as
//! they do from an archdef. `shape` declares a node's expected output
//! tensor; once the judge accepts the graph, the importer cross-checks
//! it against the judge's propagation and rejects disagreements.
//! [`render_json`] is the canonical writer: fixed key
//! order, sorted attributes, two-space indent — `parse → render` is
//! byte-stable, which the property tests pin down.
//!
//! Unlike the flow's other JSON artifacts, neither direction is a derived
//! serde struct. The writer lays each node out on one line, which the
//! derived pretty printer cannot do, and the bundled `models/*.json`
//! bytes are hashed into `pi-serve` job IDs; only its strings go through
//! `serde_json`. The reader checks outside input, and its errors name the
//! JSON path of the defect (`nodes[3].attrs.kernel`).

use crate::Ctx;
use pi_cnn::{
    CnnError, ConvParams, EltwiseOp, FcParams, Layer, Network, NodeId, PoolParams, Shape,
};
use serde_json::Value;
use std::collections::HashMap;

/// Operators the importer understands, in suggestion order.
pub const SUPPORTED_OPS: &[&str] = &[
    "Conv",
    "BatchNormalization",
    "MaxPool",
    "AveragePool",
    "GlobalAveragePool",
    "Gemm",
    "Relu",
    "Add",
    "Mul",
    "Flatten",
];

/// One descriptor node, as declared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonNode {
    pub name: String,
    pub op: String,
    pub inputs: Vec<String>,
    /// Sorted by key (the canonical order).
    pub attrs: Vec<(String, u32)>,
    /// Declared output shape, if any.
    pub shape: Option<Shape>,
}

/// A parsed JSON descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonModel {
    pub name: String,
    pub input_name: String,
    pub input_shape: Shape,
    pub nodes: Vec<JsonNode>,
    pub outputs: Vec<String>,
}

fn err(loc: impl Into<String>, msg: impl Into<String>) -> CnnError {
    CnnError::Import {
        loc: loc.into(),
        msg: msg.into(),
    }
}

fn as_map<'a>(v: &'a Value, loc: &str) -> Result<&'a [(String, Value)], CnnError> {
    match v {
        Value::Map(m) => Ok(m),
        _ => Err(err(loc, "expected an object")),
    }
}

fn as_str<'a>(v: &'a Value, loc: &str) -> Result<&'a str, CnnError> {
    match v {
        Value::Str(s) => Ok(s),
        _ => Err(err(loc, "expected a string")),
    }
}

fn as_u32(v: &Value, loc: &str) -> Result<u32, CnnError> {
    match v {
        Value::U64(n) => u32::try_from(*n).map_err(|_| err(loc, "number out of range")),
        Value::I64(n) => u32::try_from(*n).map_err(|_| err(loc, "number out of range")),
        _ => Err(err(loc, "expected a non-negative integer")),
    }
}

fn as_shape(v: &Value, loc: &str) -> Result<Shape, CnnError> {
    let Value::Seq(xs) = v else {
        return Err(err(loc, "expected a [channels, height, width] array"));
    };
    if xs.len() != 3 {
        return Err(err(loc, format!("expected 3 dimensions, got {}", xs.len())));
    }
    let d = |i: usize| as_u32(&xs[i], &format!("{loc}[{i}]"));
    Ok(Shape::new(d(0)?, d(1)?, d(2)?))
}

fn as_str_list(v: &Value, loc: &str) -> Result<Vec<String>, CnnError> {
    let Value::Seq(xs) = v else {
        return Err(err(loc, "expected an array of node names"));
    };
    xs.iter()
        .enumerate()
        .map(|(i, x)| as_str(x, &format!("{loc}[{i}]")).map(String::from))
        .collect()
}

/// Reject unknown keys so typos surface as located errors instead of
/// silently ignored fields.
fn check_keys(m: &[(String, Value)], allowed: &[&str], loc: &str) -> Result<(), CnnError> {
    for (k, _) in m {
        if !allowed.contains(&k.as_str()) {
            return Err(err(
                format!("{loc}.{k}"),
                format!("unknown field (expected one of: {})", allowed.join(", ")),
            ));
        }
    }
    Ok(())
}

/// Parse descriptor text into the declared-form AST. Errors carry a JSON
/// field path (`nodes[3].attrs.kernel`).
pub fn parse_json(text: &str) -> Result<JsonModel, CnnError> {
    let root: Value = serde_json::from_str(text).map_err(|e| err("json", e.to_string()))?;
    let m = as_map(&root, "model")?;
    check_keys(m, &["name", "input", "nodes", "outputs"], "model")?;
    let name = as_str(
        root.get("name")
            .ok_or_else(|| err("model", "missing name"))?,
        "name",
    )?;

    let input = root
        .get("input")
        .ok_or_else(|| err("model", "missing input"))?;
    let im = as_map(input, "input")?;
    check_keys(im, &["name", "shape"], "input")?;
    let input_name = match input.get("name") {
        Some(v) => as_str(v, "input.name")?.to_string(),
        None => "input".to_string(),
    };
    let input_shape = as_shape(
        input
            .get("shape")
            .ok_or_else(|| err("input", "missing shape"))?,
        "input.shape",
    )?;

    let Some(Value::Seq(raw_nodes)) = root.get("nodes") else {
        return Err(err("model", "missing nodes array"));
    };
    let mut nodes = Vec::with_capacity(raw_nodes.len());
    for (i, rn) in raw_nodes.iter().enumerate() {
        let loc = format!("nodes[{i}]");
        let nm = as_map(rn, &loc)?;
        check_keys(nm, &["name", "op", "inputs", "attrs", "shape"], &loc)?;
        let get = |k: &str| rn.get(k).ok_or_else(|| err(&loc, format!("missing {k}")));
        let mut attrs: Vec<(String, u32)> = match rn.get("attrs") {
            None => Vec::new(),
            Some(a) => as_map(a, &format!("{loc}.attrs"))?
                .iter()
                .map(|(k, v)| Ok((k.clone(), as_u32(v, &format!("{loc}.attrs.{k}"))?)))
                .collect::<Result<_, CnnError>>()?,
        };
        attrs.sort_by(|(a, _), (b, _)| a.cmp(b));
        nodes.push(JsonNode {
            name: as_str(get("name")?, &format!("{loc}.name"))?.to_string(),
            op: as_str(get("op")?, &format!("{loc}.op"))?.to_string(),
            inputs: as_str_list(get("inputs")?, &format!("{loc}.inputs"))?,
            attrs,
            shape: match rn.get("shape") {
                None => None,
                Some(s) => Some(as_shape(s, &format!("{loc}.shape"))?),
            },
        });
    }

    let outputs = as_str_list(
        root.get("outputs")
            .ok_or_else(|| err("model", "missing outputs"))?,
        "outputs",
    )?;

    Ok(JsonModel {
        name: name.to_string(),
        input_name,
        input_shape,
        nodes,
        outputs,
    })
}

/// A JSON string literal, quotes included.
fn quoted(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

fn shape_list(s: Shape) -> String {
    format!("[{}, {}, {}]", s.channels, s.height, s.width)
}

/// Canonical writer: fixed key order, attrs sorted, two-space indent.
/// `render_json(parse_json(render_json(m)))` is byte-identical.
pub fn render_json(model: &JsonModel) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"name\": {},\n", quoted(&model.name)));
    out.push_str(&format!(
        "  \"input\": {{\"name\": {}, \"shape\": {}}},\n",
        quoted(&model.input_name),
        shape_list(model.input_shape)
    ));
    out.push_str("  \"nodes\": [\n");
    for (i, n) in model.nodes.iter().enumerate() {
        let inputs = n
            .inputs
            .iter()
            .map(|s| quoted(s))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{\"name\": {}, \"op\": {}, \"inputs\": [{inputs}]",
            quoted(&n.name),
            quoted(&n.op)
        ));
        if !n.attrs.is_empty() {
            let attrs = n
                .attrs
                .iter()
                .map(|(k, v)| format!("{}: {v}", quoted(k)))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(", \"attrs\": {{{attrs}}}"));
        }
        if let Some(s) = n.shape {
            out.push_str(&format!(", \"shape\": {}", shape_list(s)));
        }
        out.push('}');
        if i + 1 < model.nodes.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n");
    let outputs = model
        .outputs
        .iter()
        .map(|s| quoted(s))
        .collect::<Vec<_>>()
        .join(", ");
    out.push_str(&format!("  \"outputs\": [{outputs}]\n"));
    out.push_str("}\n");
    out
}

/// Lower the declared graph into a flow [`Network`], producers first:
/// nodes are added in declaration order, `BatchNormalization` folds into
/// its producing conv, `Flatten` dissolves into a rewire, and
/// `GlobalAveragePool` resolves against the network judge's shape
/// propagation. Lowering enforces the descriptor's own rules only; join
/// arity, fan-in, shapes and degenerate parameters are left to
/// [`Network::defects`], which judges the result as it judges an archdef.
/// Declared shapes are cross-checked once the judge accepts the graph.
pub(crate) fn to_network(model: &JsonModel, ctx: &mut Ctx) -> Result<Network, CnnError> {
    // Name table (the input participates).
    let mut index: HashMap<&str, usize> = HashMap::new();
    if model.nodes.iter().any(|n| n.name == model.input_name) {
        return Err(ctx.fatal(
            crate::MODEL_MALFORMED,
            "nodes",
            format!("node name {:?} collides with the input", model.input_name),
        ));
    }
    for (i, n) in model.nodes.iter().enumerate() {
        if index.insert(n.name.as_str(), i).is_some() {
            return Err(ctx.fatal(
                crate::MODEL_MALFORMED,
                format!("nodes[{i}].name"),
                format!("duplicate node name {:?}", n.name),
            ));
        }
    }

    // Resolve edges: an input is the graph input or a node declared
    // earlier (ONNX lists a graph's nodes in topological order, so no
    // descriptor edge can close a cycle). A name declared nowhere is a
    // dangling edge.
    let mut preds: Vec<Vec<Option<usize>>> = Vec::with_capacity(model.nodes.len());
    for (i, n) in model.nodes.iter().enumerate() {
        if n.inputs.is_empty() {
            return Err(ctx.fatal(
                crate::MODEL_MALFORMED,
                format!("nodes[{i}].inputs"),
                format!("node {:?} has no inputs", n.name),
            ));
        }
        let mut row = Vec::with_capacity(n.inputs.len());
        for (j, inp) in n.inputs.iter().enumerate() {
            if *inp == model.input_name {
                row.push(None); // the graph input
                continue;
            }
            let msg = match index.get(inp.as_str()) {
                Some(&p) if p < i => {
                    row.push(Some(p));
                    continue;
                }
                Some(&p) if p == i => format!("node {:?} is its own input", n.name),
                Some(_) => format!(
                    "{inp:?} is declared after {:?}: producers come first",
                    n.name
                ),
                None => format!("dangling edge: {inp:?} is not a declared node"),
            };
            let loc = format!("nodes[{i}].inputs[{j}]");
            return Err(ctx.fatal(crate::MODEL_MALFORMED, loc, msg));
        }
        preds.push(row);
    }

    // How many declared consumers each node has (for the fold-safety
    // check: a BN may only fold into a conv it exclusively consumes).
    let mut consumers = vec![0usize; model.nodes.len()];
    for row in &preds {
        for p in row.iter().flatten() {
            consumers[*p] += 1;
        }
    }

    let mut network = Network::new(&model.name);
    let input_id = network.add_node(&model.input_name, Layer::Input(model.input_shape));
    // Descriptor node -> surviving network node (folded nodes alias
    // their producer), and the lowered nodes that declare a shape.
    let mut mapped: Vec<NodeId> = Vec::with_capacity(model.nodes.len());
    let mut declared: Vec<(usize, NodeId, Shape)> = Vec::new();

    for (i, n) in model.nodes.iter().enumerate() {
        let loc = format!("nodes[{i}]");
        let ins: Vec<NodeId> = preds[i]
            .iter()
            .map(|p| p.map_or(input_id, |p| mapped[p]))
            .collect();

        // Attribute access with located errors; unknown keys rejected.
        let allowed: &[&str] = match n.op.as_str() {
            "Conv" => &["kernel", "out", "pad", "stride"],
            "MaxPool" | "AveragePool" => &["stride", "window"],
            "Gemm" => &["out"],
            _ => &[],
        };
        for (k, _) in &n.attrs {
            if !allowed.contains(&k.as_str()) {
                return Err(ctx.fatal(
                    crate::MODEL_MALFORMED,
                    format!("{loc}.attrs.{k}"),
                    format!("unknown attribute for {}", n.op),
                ));
            }
        }
        let attr = |k: &str| n.attrs.iter().find(|(a, _)| a == k).map(|(_, v)| *v);
        let require = |ctx: &mut Ctx, k: &str| {
            attr(k).ok_or_else(|| {
                ctx.fatal(
                    crate::MODEL_MALFORMED,
                    format!("{loc}.attrs.{k}"),
                    format!("missing required attribute {k}= for {}", n.op),
                )
            })
        };

        let layer = match n.op.as_str() {
            "Conv" => Layer::Conv(ConvParams {
                kernel: require(ctx, "kernel")?,
                stride: attr("stride").unwrap_or(1),
                padding: attr("pad").unwrap_or(0),
                out_channels: require(ctx, "out")?,
            }),
            "MaxPool" | "AveragePool" => {
                let window = require(ctx, "window")?;
                let stride = attr("stride").unwrap_or(window);
                Layer::Pool(if n.op == "MaxPool" {
                    PoolParams::max(window, stride)
                } else {
                    PoolParams::average(window, stride)
                })
            }
            "GlobalAveragePool" => {
                // The window is the first operand's output shape, as the
                // judge propagates it. A prefix the judge rejects goes
                // back as lowered: its verdict speaks for the graph.
                let Ok(shapes) = network.input_shapes() else {
                    return Ok(network);
                };
                let producer = ins[0];
                let shape = network
                    .node(producer)
                    .layer
                    .output_shape(shapes[producer.index()])?;
                if shape.height != shape.width {
                    return Err(ctx.fatal(
                        "PL0201",
                        loc.clone(),
                        format!(
                            "GlobalAveragePool needs a square input, got {}x{}",
                            shape.height, shape.width
                        ),
                    ));
                }
                Layer::Pool(PoolParams::average(shape.height, shape.height))
            }
            "Gemm" => Layer::Fc(FcParams {
                out_features: require(ctx, "out")?,
            }),
            "Relu" => Layer::Relu,
            "Add" => Layer::Eltwise(EltwiseOp::Add),
            "Mul" => Layer::Eltwise(EltwiseOp::Mul),
            "BatchNormalization" | "Flatten" => {
                if ins.len() != 1 {
                    return Err(ctx.fatal(
                        crate::MODEL_MALFORMED,
                        format!("{loc}.inputs"),
                        format!("{} takes exactly 1 input, got {}", n.op, ins.len()),
                    ));
                }
                // A BN folds iff its producer is a conv it exclusively
                // consumes — then the affine transform folds into the
                // conv weights offline. Streaming layouts have no
                // materialized flatten; the FC engine consumes any shape.
                let foldable = preds[i][0]
                    .map(|p| model.nodes[p].op == "Conv" && consumers[p] == 1)
                    .unwrap_or(false);
                if n.op == "BatchNormalization" && !foldable {
                    ctx.warn(
                        crate::UNFOLDABLE_BATCHNORM,
                        loc.clone(),
                        format!(
                            "BatchNormalization {:?} does not exclusively follow a Conv; \
                             treated as identity instead of folding into conv weights",
                            n.name
                        ),
                    );
                }
                mapped.push(ins[0]);
                continue;
            }
            other => {
                let hint = match crate::suggest(other, SUPPORTED_OPS) {
                    Some(s) => format!(" (did you mean {s:?}?)"),
                    None => String::new(),
                };
                return Err(ctx.fatal(
                    crate::UNSUPPORTED_OP,
                    format!("{loc}.op"),
                    format!("unsupported operator {other:?}{hint}"),
                ));
            }
        };

        let id = network.add_node(&n.name, layer);
        for &p in &ins {
            network.add_edge(p, id);
        }
        if let Some(shape) = n.shape {
            declared.push((i, id, shape));
        }
        mapped.push(id);
    }

    if model.outputs.is_empty() {
        return Err(ctx.fatal(
            crate::MODEL_MALFORMED,
            "outputs",
            "a model declares at least one output".to_string(),
        ));
    }
    for (j, o) in model.outputs.iter().enumerate() {
        if *o != model.input_name && !index.contains_key(o.as_str()) {
            return Err(ctx.fatal(
                crate::MODEL_MALFORMED,
                format!("outputs[{j}]"),
                format!("output {o:?} is not a declared node"),
            ));
        }
    }

    // Declared shapes against the judge's propagation; a graph the judge
    // rejects is left to its verdict.
    if let Ok(shapes) = network.input_shapes() {
        for (i, id, declared) in declared {
            let out = network.node(id).layer.output_shape(shapes[id.index()])?;
            if declared != out {
                return Err(ctx.fatal(
                    "PL0201",
                    format!("nodes[{i}].shape"),
                    format!("declared shape {declared} disagrees with propagated {out}"),
                ));
            }
        }
    }

    Ok(network)
}

/// The inverse mapping: render an in-memory network as a canonical JSON
/// descriptor (declared shapes included, so re-importing exercises the
/// shape cross-check). Nodes are written in [`Network::topo_order`], so
/// producers come first whatever the node ids. This is how the bundled
/// `models/*.json` files are generated and kept in sync with
/// [`pi_cnn::models`].
pub fn to_json_descriptor(network: &Network) -> Result<String, CnnError> {
    let shapes = network.input_shapes()?;
    let input = network.input()?;
    let mut nodes = Vec::new();
    for id in network.topo_order()? {
        if id == input {
            continue;
        }
        let node = network.node(id);
        let a = |k: &str, v: u32| (k.to_string(), v);
        let (op, attrs) = match &node.layer {
            Layer::Conv(p) => (
                "Conv",
                vec![
                    a("kernel", p.kernel),
                    a("out", p.out_channels),
                    a("pad", p.padding),
                    a("stride", p.stride),
                ],
            ),
            Layer::Pool(p) => (
                match p.kind {
                    pi_cnn::PoolKind::Max => "MaxPool",
                    pi_cnn::PoolKind::Average => "AveragePool",
                },
                vec![a("stride", p.stride), a("window", p.window)],
            ),
            Layer::Relu => ("Relu", Vec::new()),
            Layer::Fc(p) => ("Gemm", vec![a("out", p.out_features)]),
            Layer::Eltwise(EltwiseOp::Add) => ("Add", Vec::new()),
            Layer::Eltwise(EltwiseOp::Mul) => ("Mul", Vec::new()),
            Layer::Input(_) => {
                return Err(CnnError::BadGraph(format!(
                    "secondary input layer {:?} has no descriptor form",
                    node.name
                )))
            }
        };
        let mut attrs = attrs;
        attrs.sort_by(|(x, _), (y, _)| x.cmp(y));
        nodes.push(JsonNode {
            name: node.name.clone(),
            op: op.to_string(),
            inputs: network
                .predecessors(id)
                .map(|p| network.node(p).name.clone())
                .collect(),
            attrs,
            shape: Some(node.layer.output_shape(shapes[id.index()])?),
        });
    }
    let outputs = network
        .nodes()
        .iter()
        .enumerate()
        .filter(|(i, _)| network.successors(NodeId(*i as u32)).next().is_none())
        .map(|(_, n)| n.name.clone())
        .collect();
    let input_node = network.node(input);
    let Layer::Input(input_shape) = input_node.layer else {
        unreachable!("Network::input returns the input layer")
    };
    Ok(render_json(&JsonModel {
        name: network.name.clone(),
        input_name: input_node.name.clone(),
        input_shape,
        nodes,
        outputs,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelFormat;
    use pi_cnn::models;

    #[test]
    fn builtin_models_round_trip_through_descriptors() {
        for net in [
            models::lenet5(),
            models::alexnet_like(),
            models::cifar10_quick(),
            models::resnet_small(),
        ] {
            let text = to_json_descriptor(&net).unwrap();
            // Canonical writer is parse-stable.
            let model = parse_json(&text).unwrap();
            assert_eq!(render_json(&model), text, "{} not canonical", net.name);
            // And the re-imported network is the same architecture.
            let imp = crate::import(&text, ModelFormat::Json).unwrap();
            assert_eq!(
                pi_cnn::archdef::to_archdef(&imp.network),
                pi_cnn::archdef::to_archdef(&net),
                "{} drifted",
                net.name
            );
            assert!(imp.findings.is_empty(), "{}: {:?}", net.name, imp.findings);
        }
    }

    #[test]
    fn a_later_id_producer_renders_producers_first() {
        // `f` gets the smaller id, but `c` feeds it: the descriptor must
        // still list `c` first to import.
        let mut net = Network::new("ids");
        let input = net.add_node("input", Layer::Input(Shape::new(1, 8, 8)));
        let f = net.add_node("f", Layer::Fc(FcParams { out_features: 10 }));
        let c = net.add_node(
            "c",
            Layer::Conv(ConvParams {
                kernel: 3,
                stride: 1,
                padding: 1,
                out_channels: 4,
            }),
        );
        net.add_edge(input, c);
        net.add_edge(c, f);
        let text = to_json_descriptor(&net).unwrap();
        let names: Vec<String> = parse_json(&text)
            .unwrap()
            .nodes
            .into_iter()
            .map(|n| n.name)
            .collect();
        assert_eq!(names, ["c", "f"]);
        let imp = crate::import(&text, ModelFormat::Json).unwrap();
        assert_eq!(to_json_descriptor(&imp.network).unwrap(), text);
        assert_eq!(imp.network.stats().unwrap(), net.stats().unwrap());
    }

    #[test]
    fn batchnorm_folds_into_exclusive_conv() {
        let text = r#"{
  "name": "bn",
  "input": {"name": "input", "shape": [1, 8, 8]},
  "nodes": [
    {"name": "c", "op": "Conv", "inputs": ["input"], "attrs": {"kernel": 3, "out": 4, "pad": 1}},
    {"name": "bn", "op": "BatchNormalization", "inputs": ["c"]},
    {"name": "r", "op": "Relu", "inputs": ["bn"]},
    {"name": "f", "op": "Gemm", "inputs": ["r"], "attrs": {"out": 10}}
  ],
  "outputs": ["f"]
}"#;
        let imp = crate::import(text, ModelFormat::Json).unwrap();
        // BN dissolved: input, conv, relu, fc.
        assert_eq!(imp.network.nodes().len(), 4);
        assert!(imp.findings.is_empty());
    }

    #[test]
    fn unfoldable_batchnorm_is_reported_not_fatal() {
        // BN after a Relu (not a conv) cannot fold into conv weights.
        let text = r#"{
  "name": "bn",
  "input": {"name": "input", "shape": [1, 8, 8]},
  "nodes": [
    {"name": "r", "op": "Relu", "inputs": ["input"]},
    {"name": "bn", "op": "BatchNormalization", "inputs": ["r"]},
    {"name": "f", "op": "Gemm", "inputs": ["bn"], "attrs": {"out": 10}}
  ],
  "outputs": ["f"]
}"#;
        let imp = crate::import(text, ModelFormat::Json).unwrap();
        assert_eq!(imp.findings.len(), 1);
        assert_eq!(imp.findings[0].code, crate::UNFOLDABLE_BATCHNORM);
    }

    #[test]
    fn unknown_op_errors_with_suggestion() {
        let text = r#"{
  "name": "x",
  "input": {"name": "input", "shape": [1, 8, 8]},
  "nodes": [{"name": "c", "op": "Convolution", "inputs": ["input"]}],
  "outputs": ["c"]
}"#;
        let e = crate::import(text, ModelFormat::Json).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("nodes[0].op"), "{msg}");
        assert!(msg.contains("did you mean \"Conv\""), "{msg}");
        let findings = crate::import_lenient(text, ModelFormat::Json).unwrap_err();
        assert_eq!(findings.last().unwrap().code, crate::UNSUPPORTED_OP);
    }

    #[test]
    fn cycles_and_dangling_edges_are_located_errors() {
        let cycle = r#"{
  "name": "x",
  "input": {"name": "input", "shape": [1, 8, 8]},
  "nodes": [
    {"name": "a", "op": "Relu", "inputs": ["b"]},
    {"name": "b", "op": "Relu", "inputs": ["a"]}
  ],
  "outputs": ["b"]
}"#;
        let e = crate::import(cycle, ModelFormat::Json).unwrap_err();
        assert!(
            e.to_string().contains("nodes[0].inputs[0]")
                && e.to_string()
                    .contains(r#""b" is declared after "a": producers come first"#),
            "{e}"
        );
        let findings = crate::import_lenient(cycle, ModelFormat::Json).unwrap_err();
        assert_eq!(findings.last().unwrap().code, crate::MODEL_MALFORMED);

        let dangling = r#"{
  "name": "x",
  "input": {"name": "input", "shape": [1, 8, 8]},
  "nodes": [{"name": "a", "op": "Relu", "inputs": ["ghost"]}],
  "outputs": ["a"]
}"#;
        let e = crate::import(dangling, ModelFormat::Json).unwrap_err();
        assert!(
            e.to_string().contains("nodes[0].inputs[0]") && e.to_string().contains("dangling"),
            "{e}"
        );
    }

    #[test]
    fn global_average_pool_resolves_to_window_pool() {
        let text = r#"{
  "name": "x",
  "input": {"name": "input", "shape": [4, 6, 6]},
  "nodes": [
    {"name": "g", "op": "GlobalAveragePool", "inputs": ["input"]},
    {"name": "f", "op": "Gemm", "inputs": ["g"], "attrs": {"out": 10}}
  ],
  "outputs": ["f"]
}"#;
        let imp = crate::import(text, ModelFormat::Json).unwrap();
        let pool = &imp.network.nodes()[1];
        assert_eq!(
            pool.layer,
            Layer::Pool(PoolParams::average(6, 6)),
            "GAP must span the propagated window"
        );
        assert_eq!(imp.network.output_shape().unwrap(), Shape::new(10, 1, 1));
    }
}
