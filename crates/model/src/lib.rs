//! Model ingestion frontend: parse external CNN descriptors into
//! [`pi_cnn::Network`]s the pre-implemented flow can consume.
//!
//! Two descriptor dialects are supported next to the repo's own archdef
//! text (paper §IV-B1):
//!
//! * **ONNX-style JSON op graphs** ([`json`]) — a named node list with
//!   explicit edges, the subset of ONNX operators CNN streaming
//!   accelerators use (`Conv`, `BatchNormalization`, `MaxPool`,
//!   `AveragePool`, `GlobalAveragePool`, `Gemm`, `Relu`, `Add`, `Mul`,
//!   `Flatten`). Non-linear topologies (ResNet skips, branches) are first
//!   class: a node lists any earlier nodes as inputs.
//! * **prototxt layer configs** ([`prototxt`]) — the fpgaConvNet-style
//!   per-layer block format (`layer { conv: { ... } activation: Relu }`).
//!   Its folding factors and header knobs stay in the parsed AST; the
//!   importer does not read them (engine widths are the rate model's
//!   decision, [`pi_cnn::cycles`]).
//!
//! Importing normalizes the descriptor into the flow's layer vocabulary:
//! `BatchNormalization` folds into the adjacent convolution (it is an
//! affine per-channel transform the conv weights absorb offline),
//! `Flatten` dissolves into a rewire (the streaming data layout has no
//! materialized flatten), and `GlobalAveragePool` resolves to an average
//! pool spanning the propagated input window. Anything the flow cannot
//! express is reported as an [`ImportFinding`] with a stable `PL015x`
//! code so `pi-lint` can render it alongside the graph lints.

pub mod json;
pub mod prototxt;

use pi_cnn::{CnnError, Network};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Unsupported operator (with a nearest-supported suggestion).
pub const UNSUPPORTED_OP: &str = "PL0150";
/// A `BatchNormalization` that cannot fold into a producing convolution.
pub const UNFOLDABLE_BATCHNORM: &str = "PL0151";
/// An element-wise join whose operand channel counts disagree.
pub const JOIN_CHANNEL_MISMATCH: &str = "PL0152";
/// Any other malformed-descriptor defect (syntax, dangling edge,
/// missing attribute, duplicate name).
pub const MODEL_MALFORMED: &str = "PL0153";

/// Which descriptor dialect a file speaks. On the wire (a `pi-serve`
/// job) it is the lowercase name, [`ModelFormat::as_str`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum ModelFormat {
    /// The repo's own archdef text (`network` / `conv` / ... directives).
    #[default]
    Archdef,
    /// ONNX-style JSON op graph.
    Json,
    /// fpgaConvNet-style prototxt layer blocks.
    Prototxt,
}

impl ModelFormat {
    /// Infer the dialect from a file extension. `.json` → JSON graph,
    /// `.prototxt`/`.pbtxt` → prototxt, `.cnn`/`.archdef`/`.txt` →
    /// archdef.
    pub fn from_path(path: impl AsRef<Path>) -> Option<ModelFormat> {
        match path.as_ref().extension()?.to_str()? {
            "json" => Some(ModelFormat::Json),
            "prototxt" | "pbtxt" => Some(ModelFormat::Prototxt),
            "cnn" | "archdef" | "txt" => Some(ModelFormat::Archdef),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            ModelFormat::Archdef => "archdef",
            ModelFormat::Json => "json",
            ModelFormat::Prototxt => "prototxt",
        }
    }
}

/// One importer finding: a normalization the user should know about or
/// (for the fatal ones) the reason the import stopped. `code` is always
/// a registered `pi-lint` code so findings render as diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImportFinding {
    /// Stable lint code (`PL0150`–`PL0153`, or a `PL02xx` graph code for
    /// structural defects the graph passes also know about).
    pub code: &'static str,
    /// Where in the descriptor: a field path (`nodes[3].attrs.kernel`)
    /// or `line N`.
    pub origin: String,
    pub message: String,
}

/// A successful import: the normalized network and the non-fatal
/// findings the normalization produced.
#[derive(Debug, Clone)]
pub struct Import {
    pub network: Network,
    pub findings: Vec<ImportFinding>,
}

/// Import context threaded through the format frontends: accumulates
/// findings, and stamps fatal defects with their lint code before
/// surfacing them as [`CnnError::Import`].
#[derive(Debug, Default)]
pub(crate) struct Ctx {
    pub findings: Vec<ImportFinding>,
}

impl Ctx {
    pub fn warn(&mut self, code: &'static str, origin: impl Into<String>, msg: impl Into<String>) {
        self.findings.push(ImportFinding {
            code,
            origin: origin.into(),
            message: msg.into(),
        });
    }

    /// Record a fatal finding and build the error that carries it out.
    pub fn fatal(
        &mut self,
        code: &'static str,
        loc: impl Into<String>,
        msg: impl Into<String>,
    ) -> CnnError {
        let loc = loc.into();
        let msg = msg.into();
        self.findings.push(ImportFinding {
            code,
            origin: loc.clone(),
            message: msg.clone(),
        });
        CnnError::Import { loc, msg }
    }
}

/// Strict import: parse, normalize, then judge. The returned network has
/// passed the network judge ([`Network::validate`]) that `parse_archdef`
/// applies, so it can enter the flow directly. Non-fatal normalization
/// findings ride along in [`Import::findings`].
pub fn import(text: &str, format: ModelFormat) -> Result<Import, CnnError> {
    let mut ctx = Ctx::default();
    let network = import_inner(text, format, &mut ctx)?;
    network.validate()?;
    Ok(Import {
        network,
        findings: ctx.findings,
    })
}

/// Lenient import for the linter: never errors. On a frontend failure the
/// fatal defect is the last finding and the network slot is `None`. On
/// success the network comes back *unjudged*, so the graph lints can
/// report every defect [`Network::defects`] finds.
pub fn import_lenient(text: &str, format: ModelFormat) -> (Option<Import>, Vec<ImportFinding>) {
    let mut ctx = Ctx::default();
    match import_inner(text, format, &mut ctx) {
        Ok(network) => {
            let findings = ctx.findings.clone();
            (
                Some(Import {
                    network,
                    findings: ctx.findings,
                }),
                findings,
            )
        }
        Err(e) => {
            // Frontends stamp their own fatal findings; an archdef syntax
            // error arrives unstamped.
            if ctx.findings.is_empty() {
                ctx.warn(MODEL_MALFORMED, "model", e.to_string());
            }
            (None, ctx.findings)
        }
    }
}

/// Parse and normalize a descriptor in any dialect, without judging the
/// resulting graph.
fn import_inner(text: &str, format: ModelFormat, ctx: &mut Ctx) -> Result<Network, CnnError> {
    match format {
        ModelFormat::Archdef => pi_cnn::parse_archdef_lenient(text),
        ModelFormat::Json => json::to_network(&json::parse_json(text)?, ctx),
        ModelFormat::Prototxt => prototxt::to_network(&prototxt::parse_prototxt(text)?, ctx),
    }
}

/// Edit distance (Levenshtein) for the "did you mean" suggestions on
/// unknown operators.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// The nearest supported spelling for an unknown operator, matched
/// case-insensitively so `CONV`/`conv` still suggest `Conv`.
pub(crate) fn suggest<'a>(unknown: &str, supported: &[&'a str]) -> Option<&'a str> {
    let lower = unknown.to_lowercase();
    supported
        .iter()
        .map(|s| {
            let cand = s.to_lowercase();
            // A prefix relation (`Convolution`/`Conv`, `relu6`/`Relu`) is
            // a better signal than raw edit distance.
            let d = if lower.starts_with(&cand) || cand.starts_with(&lower) {
                0
            } else {
                edit_distance(&lower, &cand)
            };
            (d, *s)
        })
        .min_by_key(|(d, _)| *d)
        .filter(|(d, _)| *d <= 2)
        .map(|(_, s)| s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_detection_follows_extension() {
        assert_eq!(
            ModelFormat::from_path("models/lenet.json"),
            Some(ModelFormat::Json)
        );
        assert_eq!(
            ModelFormat::from_path("m/cifar10_quick.prototxt"),
            Some(ModelFormat::Prototxt)
        );
        assert_eq!(
            ModelFormat::from_path("nets/lenet.cnn"),
            Some(ModelFormat::Archdef)
        );
        assert_eq!(ModelFormat::from_path("weights.bin"), None);
        assert_eq!(ModelFormat::from_path("noext"), None);
    }

    #[test]
    fn suggestions_pick_the_nearest_op() {
        let ops = ["Conv", "MaxPool", "AveragePool", "Gemm", "Relu"];
        assert_eq!(suggest("Convolution", &ops), Some("Conv"));
        assert_eq!(suggest("relu6", &ops), Some("Relu"));
        assert_eq!(suggest("MaxPooling", &ops), Some("MaxPool"));
        assert_eq!(suggest("Transformer", &ops), None);
    }

    #[test]
    fn archdef_passthrough_imports() {
        let text = "network t\ninput 1x8x8\nconv c kernel=3 pad=1 out=4\nfc f out=10\n";
        let imp = import(text, ModelFormat::Archdef).unwrap();
        assert_eq!(imp.network.nodes().len(), 3);
        assert!(imp.findings.is_empty());
    }
}
