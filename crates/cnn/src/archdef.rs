//! The "CNN architecture definition" format (paper §IV-B1): the user-facing
//! text file the architecture-optimization stage parses into a DFG.
//!
//! Grammar (one directive per line, `#` comments):
//!
//! ```text
//! network lenet5
//! input 1x32x32
//! conv conv1 kernel=5 stride=1 pad=0 out=6
//! pool pool1 window=2 stride=2
//! relu relu1
//! fc   fc1   out=120
//! ```
//!
//! Layers chain in file order, matching the layer-by-layer execution
//! schedule of the streaming architectures the paper targets. Non-linear
//! topologies override the implicit chain edge with `from=`, naming one or
//! more earlier layers as producers:
//!
//! ```text
//! conv skip kernel=1 stride=1 pad=0 out=16 from=input
//! add  join from=relu2,skip
//! ```
//!
//! `avgpool` declares average pooling (same keys as `pool`); `add`/`mul`
//! declare element-wise two-input joins.

use crate::graph::{Network, NodeId};
use crate::layer::{ConvParams, EltwiseOp, FcParams, Layer, PoolParams, Shape};
use crate::CnnError;
use std::collections::HashMap;

/// Parse an architecture definition into a [`Network`] the network judge
/// accepts: a graph defect ([`Network::defects`]) is a parse-time error,
/// not a synthesis-time one.
pub fn parse_archdef(text: &str) -> Result<Network, CnnError> {
    let net = parse_archdef_lenient(text)?;
    net.validate()?;
    Ok(net)
}

/// Parse without judging the graph.
///
/// The linter needs this: a malformed network must come back as a
/// `Network` so [`Network::defects`] can report *every* defect as a
/// diagnostic, instead of the parser aborting at the first one. Syntax
/// errors are still errors.
pub fn parse_archdef_lenient(text: &str) -> Result<Network, CnnError> {
    let mut network: Option<Network> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        let directive = words.next().expect("non-empty line has a word");
        let err = |msg: &str| CnnError::Parse {
            line: lineno + 1,
            msg: msg.to_string(),
        };
        match directive {
            "network" => {
                let name = words.next().ok_or_else(|| err("missing network name"))?;
                if network.is_some() {
                    return Err(err("duplicate network directive"));
                }
                network = Some(Network::new(name));
            }
            "input" => {
                let net = network
                    .as_mut()
                    .ok_or_else(|| err("input before network"))?;
                let shape = words.next().ok_or_else(|| err("missing input shape"))?;
                let dims: Vec<u32> = shape
                    .split('x')
                    .map(|d| d.parse().map_err(|_| err("bad input dimension")))
                    .collect::<Result<_, _>>()?;
                if dims.len() != 3 {
                    return Err(err("input shape must be CxHxW"));
                }
                net.push_layer("input", Layer::Input(Shape::new(dims[0], dims[1], dims[2])));
            }
            "conv" | "pool" | "avgpool" | "relu" | "fc" | "add" | "mul" => {
                let net = network
                    .as_mut()
                    .ok_or_else(|| err("layer before network"))?;
                let name = words.next().ok_or_else(|| err("missing layer name"))?;
                // `from=` carries layer names, not numbers — peel it off
                // before the numeric key=value parse.
                let mut from: Option<&str> = None;
                let mut kv_words = Vec::new();
                for w in words {
                    match w.strip_prefix("from=") {
                        Some(list) => from = Some(list),
                        None => kv_words.push(w),
                    }
                }
                let kv = parse_kv(kv_words.into_iter(), lineno + 1)?;
                let get = |key: &str| -> Result<u32, CnnError> {
                    kv.get(key)
                        .copied()
                        .ok_or_else(|| err(&format!("missing {key}=")))
                };
                let layer = match directive {
                    "conv" => Layer::Conv(ConvParams {
                        kernel: get("kernel")?,
                        stride: kv.get("stride").copied().unwrap_or(1),
                        padding: kv.get("pad").copied().unwrap_or(0),
                        out_channels: get("out")?,
                    }),
                    "pool" => Layer::Pool(PoolParams::max(
                        get("window")?,
                        kv.get("stride").copied().unwrap_or_else(|| kv["window"]),
                    )),
                    "avgpool" => Layer::Pool(PoolParams::average(
                        get("window")?,
                        kv.get("stride").copied().unwrap_or_else(|| kv["window"]),
                    )),
                    "relu" => Layer::Relu,
                    "fc" => Layer::Fc(FcParams {
                        out_features: get("out")?,
                    }),
                    "add" => Layer::Eltwise(EltwiseOp::Add),
                    "mul" => Layer::Eltwise(EltwiseOp::Mul),
                    _ => unreachable!(),
                };
                match from {
                    None => {
                        net.push_layer(name, layer);
                    }
                    Some(list) => {
                        let mut sources = Vec::new();
                        for producer in list.split(',') {
                            let src = net
                                .nodes()
                                .iter()
                                .position(|n| n.name == producer)
                                .ok_or_else(|| {
                                    err(&format!("from= references unknown layer '{producer}'"))
                                })?;
                            sources.push(NodeId(src as u32));
                        }
                        let id = net.add_node(name, layer);
                        for src in sources {
                            net.add_edge(src, id);
                        }
                    }
                }
            }
            other => {
                return Err(err(&format!("unknown directive '{other}'")));
            }
        }
    }
    network.ok_or(CnnError::Parse {
        line: 0,
        msg: "no network directive".to_string(),
    })
}

/// Render a network back to the archdef format (round-trip support).
/// Chain networks render exactly as before; where a node's predecessors
/// differ from the implicit previous-line chain, an explicit `from=` is
/// emitted so branching topologies round-trip too.
pub fn to_archdef(network: &Network) -> String {
    use crate::layer::PoolKind;
    let mut out = format!("network {}\n", network.name);
    for (i, node) in network.nodes().iter().enumerate() {
        let line = match node.layer {
            Layer::Input(s) => format!("input {}x{}x{}", s.channels, s.height, s.width),
            Layer::Conv(p) => format!(
                "conv {} kernel={} stride={} pad={} out={}",
                node.name, p.kernel, p.stride, p.padding, p.out_channels
            ),
            Layer::Pool(p) => format!(
                "{} {} window={} stride={}",
                match p.kind {
                    PoolKind::Max => "pool",
                    PoolKind::Average => "avgpool",
                },
                node.name,
                p.window,
                p.stride
            ),
            Layer::Relu => format!("relu {}", node.name),
            Layer::Fc(p) => format!("fc {} out={}", node.name, p.out_features),
            Layer::Eltwise(op) => format!(
                "{} {}",
                match op {
                    EltwiseOp::Add => "add",
                    EltwiseOp::Mul => "mul",
                },
                node.name
            ),
        };
        out.push_str(&line);
        let preds: Vec<NodeId> = network.predecessors(NodeId(i as u32)).collect();
        let implicit_chain = preds.is_empty() || (preds.len() == 1 && preds[0].index() + 1 == i);
        if !implicit_chain {
            let names: Vec<&str> = preds
                .iter()
                .map(|p| network.node(*p).name.as_str())
                .collect();
            out.push_str(&format!(" from={}", names.join(",")));
        }
        out.push('\n');
    }
    out
}

fn parse_kv<'a>(
    words: impl Iterator<Item = &'a str>,
    line: usize,
) -> Result<HashMap<&'a str, u32>, CnnError> {
    let mut kv = HashMap::new();
    for w in words {
        let (k, v) = w.split_once('=').ok_or(CnnError::Parse {
            line,
            msg: format!("expected key=value, got '{w}'"),
        })?;
        let v: u32 = v.parse().map_err(|_| CnnError::Parse {
            line,
            msg: format!("bad value in '{w}'"),
        })?;
        kv.insert(k, v);
    }
    Ok(kv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    const LENET: &str = r#"
# LeNet-5 architecture definition
network lenet5
input 1x32x32
conv conv1 kernel=5 stride=1 pad=0 out=6
pool pool1 window=2 stride=2
relu relu1
conv conv2 kernel=5 stride=1 pad=0 out=16
pool pool2 window=2 stride=2
relu relu2
fc fc1 out=120
fc fc2 out=10
"#;

    #[test]
    fn parses_lenet() {
        let net = parse_archdef(LENET).unwrap();
        assert_eq!(net.name, "lenet5");
        assert_eq!(net.nodes().len(), 9);
        let reference = models::lenet5();
        assert_eq!(net.stats().unwrap(), reference.stats().unwrap());
    }

    #[test]
    fn round_trips_through_text() {
        let net = models::lenet5();
        let text = to_archdef(&net);
        let back = parse_archdef(&text).unwrap();
        assert_eq!(back.nodes().len(), net.nodes().len());
        assert_eq!(back.stats().unwrap(), net.stats().unwrap());
    }

    #[test]
    fn defaults_for_stride_and_padding() {
        let net = parse_archdef("network n\ninput 1x8x8\nconv c kernel=3 out=2\npool p window=2\n")
            .unwrap();
        let shapes = net.input_shapes().unwrap();
        assert_eq!(shapes[2].height, 6); // stride defaulted to 1, pad to 0
        assert_eq!(net.output_shape().unwrap().height, 3); // pool stride = window
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse_archdef("network n\ninput 1x8x8\nconv c kernel=oops out=2\n").unwrap_err();
        match err {
            CnnError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn rejects_structural_mistakes() {
        assert!(parse_archdef("input 1x8x8\n").is_err()); // before network
        assert!(parse_archdef("network a\nnetwork b\n").is_err());
        assert!(parse_archdef("network a\nwhatever x\n").is_err());
        assert!(parse_archdef("network a\ninput 1x8\n").is_err());
        assert!(parse_archdef("").is_err());
        // Geometrically impossible network is caught at parse time.
        assert!(parse_archdef("network a\ninput 1x4x4\nconv c kernel=9 out=1\n").is_err());
    }

    #[test]
    fn lenient_parse_defers_semantic_checks_but_not_syntax() {
        // The geometrically impossible network parses leniently ...
        let net = parse_archdef_lenient("network a\ninput 1x4x4\nconv c kernel=9 out=1\n").unwrap();
        assert_eq!(net.nodes().len(), 2);
        // ... but syntax errors are still errors.
        assert!(parse_archdef_lenient("network a\nconv c kernel=oops out=1\n").is_err());
        assert!(parse_archdef_lenient("").is_err());
    }
}
