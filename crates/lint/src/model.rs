//! Model-descriptor lints (`PL015x`): run the `pi-model` importer in
//! lenient mode, render its findings as diagnostics, and — when a
//! network came out the other end — chain the `PL02xx` graph passes so
//! one invocation reports both the import defects and the structural
//! ones.

use crate::diag::Diagnostic;
use crate::graph::lint_network;
use pi_cnn::graph::Granularity;
use pi_cnn::Network;
use pi_model::{import_lenient, ImportFinding, ModelFormat};

/// Map one importer finding onto the diagnostics model. Every
/// [`ImportFinding`] code is registered (`PL015x`, or `PL0201` for a
/// declared shape the judge's propagation contradicts).
pub fn finding_to_diagnostic(finding: &ImportFinding) -> Diagnostic {
    Diagnostic::new(
        finding.code,
        format!("model:{}", finding.origin),
        finding.message.clone(),
    )
}

/// Lint a model descriptor: importer findings plus (on a successful
/// import) the graph-family pass over the resulting network. Returns
/// the network too so callers can keep walking it (shape tables, flow
/// hand-off).
pub fn lint_model(
    text: &str,
    format: ModelFormat,
    granularity: Granularity,
) -> (Option<Network>, Vec<Diagnostic>) {
    match import_lenient(text, format) {
        Ok(import) => {
            let mut raw: Vec<Diagnostic> =
                import.findings.iter().map(finding_to_diagnostic).collect();
            raw.extend(lint_network(&import.network, granularity));
            (Some(import.network), raw)
        }
        Err(findings) => (None, findings.iter().map(finding_to_diagnostic).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_descriptor_yields_no_diagnostics() {
        let text = pi_model::json::to_json_descriptor(&pi_cnn::models::resnet_small()).unwrap();
        let (net, raw) = lint_model(&text, ModelFormat::Json, Granularity::Layer);
        assert!(net.is_some());
        assert!(raw.is_empty(), "{raw:?}");
    }

    #[test]
    fn importer_findings_become_registered_diagnostics() {
        let text = r#"{
  "name": "x",
  "input": {"name": "input", "shape": [1, 8, 8]},
  "nodes": [{"name": "c", "op": "Convolve", "inputs": ["input"]}],
  "outputs": ["c"]
}"#;
        let (net, raw) = lint_model(text, ModelFormat::Json, Granularity::Layer);
        assert!(net.is_none());
        assert_eq!(raw.len(), 1);
        assert_eq!(raw[0].code, pi_model::UNSUPPORTED_OP);
        assert!(crate::diag::lookup(raw[0].code).is_some());
        assert!(
            raw[0].origin.starts_with("model:nodes[0]"),
            "{}",
            raw[0].origin
        );
    }

    #[test]
    fn graph_lints_chain_after_successful_import() {
        let text = r#"{
  "name": "x",
  "input": {"name": "input", "shape": [1, 8, 8]},
  "nodes": [
    {"name": "r", "op": "Relu", "inputs": ["input"]},
    {"name": "bn", "op": "BatchNormalization", "inputs": ["r"]},
    {"name": "f", "op": "Gemm", "inputs": ["bn"], "attrs": {"out": 10}}
  ],
  "outputs": ["f"]
}"#;
        let (net, raw) = lint_model(text, ModelFormat::Json, Granularity::Layer);
        assert!(net.is_some());
        assert!(raw.iter().any(|d| d.code == pi_model::UNFOLDABLE_BATCHNORM));
    }
}
