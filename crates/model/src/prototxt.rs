//! fpgaConvNet-style prototxt layer configs.
//!
//! The dialect describes a *linear* CNN as per-layer blocks, each naming
//! an engine config plus the folding factors the HLS flow would unroll
//! by:
//!
//! ```text
//! name: "cifar10_quick"
//! frequency: 100
//!
//! layer {
//!     input_height: 32
//!     input_width: 32
//!     num_inputs: 3
//!     num_outputs: 32
//!     conv: {
//!         kernel_size: 5
//!         pad: 2
//!         worker_factor: 3
//!     }
//! }
//! layer {
//!     pool: { type: Max dim: 3 stride: 2 }
//!     activation: Relu
//! }
//! ```
//!
//! Folding factors (`*_factor` keys) and header knobs do not change the
//! architecture the flow builds — engine widths are the rate model's
//! decision ([`pi_cnn::cycles`]) — so the AST keeps them (render → parse
//! → render stays byte-identical) and the importer does not read them.
//! Errors carry `line N` locations. Layer names are generated per kind
//! (`conv1`, `pool1`, `relu1`, `fc1`, ...), matching the naming the
//! bundled [`pi_cnn::models`] constructors use.

use crate::Ctx;
use pi_cnn::{CnnError, ConvParams, FcParams, Layer, Network, PoolKind, PoolParams, Shape};

/// One engine config inside a `layer { ... }` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoOp {
    Conv {
        kernel: u32,
        pad: u32,
        stride: u32,
    },
    Pool {
        kind: PoolKind,
        dim: u32,
        stride: u32,
    },
    Fc,
}

/// One declared layer block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoLayer {
    /// `(num_inputs, input_height, input_width)` — first block only.
    pub input: Option<(u32, u32, u32)>,
    pub num_outputs: Option<u32>,
    pub op: ProtoOp,
    /// `*_factor` keys, sorted; kept for the writer, unread by the importer.
    pub folding: Vec<(String, u32)>,
    /// `activation: Relu` — appends a ReLU after the engine.
    pub relu: bool,
}

/// A parsed prototxt descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoModel {
    pub name: Option<String>,
    /// Header scalars in declaration order (nested header blocks are
    /// flattened to dotted keys: `default_precision.integer_bits`).
    pub header: Vec<(String, String)>,
    pub layers: Vec<ProtoLayer>,
}

fn err(line: usize, msg: impl Into<String>) -> CnnError {
    CnnError::Import {
        loc: format!("line {line}"),
        msg: msg.into(),
    }
}

/// Line-oriented token stream: `key:`, `value`, `{`, `}` with the line
/// number each token came from.
struct Tokens {
    toks: Vec<(usize, String)>,
    pos: usize,
}

impl Tokens {
    fn new(text: &str) -> Tokens {
        let mut toks = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("");
            // Make braces standalone tokens regardless of spacing.
            let spaced = line.replace('{', " { ").replace('}', " } ");
            for w in spaced.split_whitespace() {
                toks.push((i + 1, w.to_string()));
            }
        }
        Tokens { toks, pos: 0 }
    }

    fn peek(&self) -> Option<&(usize, String)> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<(usize, String)> {
        let t = self.toks.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|(l, _)| *l)
            .unwrap_or(1)
    }

    fn expect(&mut self, want: &str) -> Result<usize, CnnError> {
        match self.next() {
            Some((l, t)) if t == want => Ok(l),
            Some((l, t)) => Err(err(l, format!("expected {want:?}, got {t:?}"))),
            None => Err(err(
                self.line(),
                format!("expected {want:?}, got end of file"),
            )),
        }
    }
}

fn parse_u32(line: usize, v: &str, key: &str) -> Result<u32, CnnError> {
    v.parse().map_err(|_| {
        err(
            line,
            format!("{key} expects a non-negative integer, got {v:?}"),
        )
    })
}

/// Parse descriptor text into the declared-form AST. Errors carry
/// `line N` locations.
pub fn parse_prototxt(text: &str) -> Result<ProtoModel, CnnError> {
    let mut t = Tokens::new(text);
    let mut model = ProtoModel {
        name: None,
        header: Vec::new(),
        layers: Vec::new(),
    };
    while let Some((line, tok)) = t.next() {
        if tok == "layer" {
            t.expect("{")?;
            model.layers.push(parse_layer(&mut t, line)?);
        } else if let Some(key) = tok.strip_suffix(':') {
            let key = key.to_string();
            match t.peek() {
                Some((_, open)) if open == "{" => {
                    // Nested header block — flatten to dotted keys.
                    t.next();
                    loop {
                        match t.next() {
                            Some((_, close)) if close == "}" => break,
                            Some((l, sub)) => {
                                let sub = sub.strip_suffix(':').ok_or_else(|| {
                                    err(l, format!("expected key: inside {key}, got {sub:?}"))
                                })?;
                                let (vl, val) = t
                                    .next()
                                    .ok_or_else(|| err(l, format!("{sub}: missing value")))?;
                                if val == "{" || val == "}" {
                                    return Err(err(vl, format!("{sub}: missing value")));
                                }
                                model.header.push((format!("{key}.{sub}"), val));
                            }
                            None => return Err(err(line, format!("unterminated {key} block"))),
                        }
                    }
                }
                _ => {
                    let (vl, val) = t
                        .next()
                        .ok_or_else(|| err(line, format!("{key}: missing value")))?;
                    if val == "{" || val == "}" {
                        return Err(err(vl, format!("{key}: missing value")));
                    }
                    if key == "name" {
                        model.name = Some(val.trim_matches('"').to_string());
                    } else {
                        model.header.push((key, val));
                    }
                }
            }
        } else {
            return Err(err(
                line,
                format!("expected `layer {{` or `key: value`, got {tok:?}"),
            ));
        }
    }
    Ok(model)
}

fn parse_layer(t: &mut Tokens, open_line: usize) -> Result<ProtoLayer, CnnError> {
    let mut input_height = None;
    let mut input_width = None;
    let mut num_inputs = None;
    let mut num_outputs = None;
    let mut op: Option<ProtoOp> = None;
    let mut folding: Vec<(String, u32)> = Vec::new();
    let mut relu = false;
    loop {
        match t.next() {
            Some((_, close)) if close == "}" => break,
            Some((line, tok)) => {
                let key = tok.strip_suffix(':').ok_or_else(|| {
                    err(line, format!("expected key: in layer block, got {tok:?}"))
                })?;
                match key {
                    "conv" | "pool" | "fc" => {
                        if op.is_some() {
                            return Err(err(line, "a layer block declares exactly one engine"));
                        }
                        t.expect("{")?;
                        op = Some(parse_engine(t, key, line, &mut folding)?);
                    }
                    "activation" => {
                        let (vl, val) = t
                            .next()
                            .ok_or_else(|| err(line, "activation: missing value"))?;
                        if val != "Relu" {
                            let hint = match crate::suggest(&val, &["Relu"]) {
                                Some(s) => format!(" (did you mean {s}?)"),
                                None => String::new(),
                            };
                            return Err(CnnError::Import {
                                loc: format!("line {vl}"),
                                msg: format!("unsupported activation {val:?}{hint}"),
                            });
                        }
                        relu = true;
                    }
                    "input_height" | "input_width" | "num_inputs" | "num_outputs" => {
                        let (vl, val) = t
                            .next()
                            .ok_or_else(|| err(line, format!("{key}: missing value")))?;
                        let n = parse_u32(vl, &val, key)?;
                        match key {
                            "input_height" => input_height = Some(n),
                            "input_width" => input_width = Some(n),
                            "num_inputs" => num_inputs = Some(n),
                            _ => num_outputs = Some(n),
                        }
                    }
                    other => {
                        let hint = match crate::suggest(
                            other,
                            &["conv", "pool", "fc", "activation", "num_outputs"],
                        ) {
                            Some(s) => format!(" (did you mean {s}?)"),
                            None => String::new(),
                        };
                        return Err(err(line, format!("unknown layer field {other:?}{hint}")));
                    }
                }
            }
            None => return Err(err(open_line, "unterminated layer block")),
        }
    }
    let input = match (num_inputs, input_height, input_width) {
        (Some(c), Some(h), Some(w)) => Some((c, h, w)),
        (None, None, None) => None,
        _ => {
            return Err(err(
                open_line,
                "input_height, input_width and num_inputs must appear together",
            ))
        }
    };
    folding.sort_by(|(a, _), (b, _)| a.cmp(b));
    Ok(ProtoLayer {
        input,
        num_outputs,
        op: op.ok_or_else(|| err(open_line, "layer block declares no conv/pool/fc engine"))?,
        folding,
        relu,
    })
}

fn parse_engine(
    t: &mut Tokens,
    kind: &str,
    open_line: usize,
    folding: &mut Vec<(String, u32)>,
) -> Result<ProtoOp, CnnError> {
    let mut kv: Vec<(usize, String, String)> = Vec::new();
    loop {
        match t.next() {
            Some((_, close)) if close == "}" => break,
            Some((line, tok)) => {
                let key = tok.strip_suffix(':').ok_or_else(|| {
                    err(line, format!("expected key: in {kind} block, got {tok:?}"))
                })?;
                let (vl, val) = t
                    .next()
                    .ok_or_else(|| err(line, format!("{key}: missing value")))?;
                kv.push((vl, key.to_string(), val));
            }
            None => return Err(err(open_line, format!("unterminated {kind} block"))),
        }
    }
    let get = |key: &str| -> Result<Option<u32>, CnnError> {
        match kv.iter().find(|(_, k, _)| k == key) {
            Some((l, k, v)) => parse_u32(*l, v, k).map(Some),
            None => Ok(None),
        }
    };
    let require = |v: Option<u32>, key: &str| {
        v.ok_or_else(|| err(open_line, format!("{kind} block is missing {key}:")))
    };
    // Folding factors ride along as metadata; the importer neither
    // drops nor interprets them.
    for (l, k, v) in &kv {
        if k.ends_with("_factor") {
            folding.push((k.clone(), parse_u32(*l, v, k)?));
        }
    }
    let known = |extra: &[&str]| -> Result<(), CnnError> {
        for (l, k, _) in &kv {
            if !k.ends_with("_factor") && !extra.contains(&k.as_str()) {
                return Err(err(*l, format!("unknown {kind} field {k:?}")));
            }
        }
        Ok(())
    };
    match kind {
        "conv" => {
            known(&["kernel_size", "pad", "stride"])?;
            Ok(ProtoOp::Conv {
                kernel: require(get("kernel_size")?, "kernel_size")?,
                pad: get("pad")?.unwrap_or(0),
                stride: get("stride")?.unwrap_or(1),
            })
        }
        "pool" => {
            known(&["type", "dim", "stride"])?;
            let kind = match kv.iter().find(|(_, k, _)| k == "type") {
                None => PoolKind::Max,
                Some((_, _, v)) if v == "Max" => PoolKind::Max,
                Some((_, _, v)) if v == "Average" => PoolKind::Average,
                Some((l, _, v)) => {
                    return Err(err(
                        *l,
                        format!("pool type must be Max or Average, got {v:?}"),
                    ))
                }
            };
            let dim = require(get("dim")?, "dim")?;
            Ok(ProtoOp::Pool {
                kind,
                dim,
                stride: get("stride")?.unwrap_or(dim),
            })
        }
        "fc" => {
            known(&[])?;
            Ok(ProtoOp::Fc)
        }
        _ => unreachable!("caller dispatches on conv/pool/fc"),
    }
}

/// Canonical writer: fixed field order, folding keys sorted, four-space
/// indent — `parse → render` is byte-stable.
pub fn render_prototxt(model: &ProtoModel) -> String {
    let mut out = String::new();
    if let Some(name) = &model.name {
        out.push_str(&format!("name: \"{name}\"\n"));
    }
    for (k, v) in &model.header {
        out.push_str(&format!("{k}: {v}\n"));
    }
    for layer in &model.layers {
        out.push_str("\nlayer {\n");
        if let Some((c, h, w)) = layer.input {
            out.push_str(&format!("    input_height: {h}\n"));
            out.push_str(&format!("    input_width: {w}\n"));
            out.push_str(&format!("    num_inputs: {c}\n"));
        }
        if let Some(n) = layer.num_outputs {
            out.push_str(&format!("    num_outputs: {n}\n"));
        }
        match &layer.op {
            ProtoOp::Conv {
                kernel,
                pad,
                stride,
            } => {
                out.push_str("    conv: {\n");
                out.push_str(&format!("        kernel_size: {kernel}\n"));
                out.push_str(&format!("        pad: {pad}\n"));
                out.push_str(&format!("        stride: {stride}\n"));
                for (k, v) in &layer.folding {
                    out.push_str(&format!("        {k}: {v}\n"));
                }
                out.push_str("    }\n");
            }
            ProtoOp::Pool { kind, dim, stride } => {
                out.push_str("    pool: {\n");
                out.push_str(&format!(
                    "        type: {}\n",
                    match kind {
                        PoolKind::Max => "Max",
                        PoolKind::Average => "Average",
                    }
                ));
                out.push_str(&format!("        dim: {dim}\n"));
                out.push_str(&format!("        stride: {stride}\n"));
                for (k, v) in &layer.folding {
                    out.push_str(&format!("        {k}: {v}\n"));
                }
                out.push_str("    }\n");
            }
            ProtoOp::Fc => {
                out.push_str("    fc: {\n");
                for (k, v) in &layer.folding {
                    out.push_str(&format!("        {k}: {v}\n"));
                }
                out.push_str("    }\n");
            }
        }
        if layer.relu {
            out.push_str("    activation: Relu\n");
        }
        out.push_str("}\n");
    }
    out
}

/// Lower the linear block list into a flow [`Network`]. Layer names are
/// generated per kind.
pub(crate) fn to_network(model: &ProtoModel, ctx: &mut Ctx) -> Result<Network, CnnError> {
    let name = model.name.clone().unwrap_or_else(|| "model".to_string());
    let mut network = Network::new(&name);
    let mut counters = std::collections::HashMap::new();
    let mut fresh = |kind: &str| {
        let n = counters.entry(kind.to_string()).or_insert(0u32);
        *n += 1;
        format!("{kind}{n}")
    };
    if model.layers.is_empty() {
        return Err(ctx.fatal(
            crate::MODEL_MALFORMED,
            "line 1",
            "descriptor declares no layer blocks".to_string(),
        ));
    }
    for (i, layer) in model.layers.iter().enumerate() {
        let loc = format!("layer {}", i + 1);
        match (i, layer.input) {
            (0, Some((c, h, w))) => {
                network.push_layer("input", Layer::Input(Shape::new(c, h, w)));
            }
            (0, None) => {
                return Err(ctx.fatal(
                    crate::MODEL_MALFORMED,
                    loc.clone(),
                    "the first layer block must declare input_height/input_width/num_inputs"
                        .to_string(),
                ))
            }
            (_, Some(_)) => {
                return Err(ctx.fatal(
                    crate::MODEL_MALFORMED,
                    loc.clone(),
                    "only the first layer block declares the input".to_string(),
                ))
            }
            _ => {}
        }
        match &layer.op {
            ProtoOp::Conv {
                kernel,
                pad,
                stride,
            } => {
                let out = layer.num_outputs.ok_or_else(|| {
                    ctx.fatal(
                        crate::MODEL_MALFORMED,
                        loc.clone(),
                        "conv layer is missing num_outputs".to_string(),
                    )
                })?;
                network.push_layer(
                    fresh("conv"),
                    Layer::Conv(ConvParams {
                        kernel: *kernel,
                        stride: *stride,
                        padding: *pad,
                        out_channels: out,
                    }),
                );
            }
            ProtoOp::Pool { kind, dim, stride } => {
                network.push_layer(
                    fresh("pool"),
                    Layer::Pool(PoolParams {
                        window: *dim,
                        stride: *stride,
                        kind: *kind,
                    }),
                );
            }
            ProtoOp::Fc => {
                let out = layer.num_outputs.ok_or_else(|| {
                    ctx.fatal(
                        crate::MODEL_MALFORMED,
                        loc.clone(),
                        "fc layer is missing num_outputs".to_string(),
                    )
                })?;
                network.push_layer(fresh("fc"), Layer::Fc(FcParams { out_features: out }));
            }
        }
        if layer.relu {
            network.push_layer(fresh("relu"), Layer::Relu);
        }
    }
    Ok(network)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelFormat;

    const CIFAR: &str = r#"
name: "cifar10_quick"
frequency: 100
default_precision: {
    integer_bits: 8
    fractional_bits: 8
}

layer {
    input_height: 32
    input_width: 32
    num_inputs: 3
    num_outputs: 32
    conv: {
        kernel_size: 5
        pad: 2
        worker_factor: 3
    }
}
layer {
    pool: { type: Max dim: 3 stride: 2 }
    activation: Relu
}
"#;

    #[test]
    fn parses_the_snippet_dialect() {
        let model = parse_prototxt(CIFAR).unwrap();
        assert_eq!(model.name.as_deref(), Some("cifar10_quick"));
        assert_eq!(model.layers.len(), 2);
        assert!(model
            .header
            .iter()
            .any(|(k, v)| k == "default_precision.integer_bits" && v == "8"));
        let imp = crate::import(CIFAR, ModelFormat::Prototxt).unwrap();
        let names: Vec<&str> = imp
            .network
            .nodes()
            .iter()
            .map(|n| n.name.as_str())
            .collect();
        assert_eq!(names, ["input", "conv1", "pool1", "relu1"]);
        assert_eq!(model.layers[0].folding, [("worker_factor".to_string(), 3)]);
    }

    #[test]
    fn rendering_is_parse_stable() {
        let model = parse_prototxt(CIFAR).unwrap();
        let text = render_prototxt(&model);
        let back = parse_prototxt(&text).unwrap();
        assert_eq!(back, model);
        assert_eq!(render_prototxt(&back), text);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "layer {\n    conv: {\n        kernel_size: five\n    }\n}\n";
        let e = parse_prototxt(bad).unwrap_err();
        assert!(e.to_string().contains("line 3"), "{e}");

        let unknown = "layer {\n    pool: { type: Median dim: 2 }\n}\n";
        let e = parse_prototxt(unknown).unwrap_err();
        assert!(
            e.to_string().contains("line 2") && e.to_string().contains("Median"),
            "{e}"
        );

        let typo = "layer {\n    convolution: { kernel_size: 3 }\n}\n";
        let e = parse_prototxt(typo).unwrap_err();
        assert!(e.to_string().contains("did you mean conv"), "{e}");
    }

    #[test]
    fn missing_input_block_is_fatal_with_code() {
        let text = "layer {\n    num_outputs: 4\n    conv: { kernel_size: 3 }\n}\n";
        let (net, findings) = crate::import_lenient(text, ModelFormat::Prototxt);
        assert!(net.is_none());
        assert_eq!(findings.last().unwrap().code, crate::MODEL_MALFORMED);
    }
}
