//! The pass manager: [`LintEngine`] runs analysis families against a
//! network, a model descriptor, a checkpoint database or a composed
//! design, folds the findings through the configured policy and emits one
//! telemetry point per pass.
//!
//! The engine checks; it neither routes nor judges legality. The network,
//! netlist and checkpoint passes fold their judges' verdicts
//! (`Network::defects`, `Module::defects` / `Design::defects`,
//! `pi_stitch::check_checkpoint`); the design pass adds no physical check,
//! because the flow fails on the physical DRC's verdict before it runs —
//! so the policy here shapes a *report*, and can never turn an illegal
//! network, netlist or design into a legal one.
//!
//! Per-checkpoint and per-instance passes are plain parallel maps over
//! the vendored rayon backend, collected in input order; only the pass
//! summaries are telemetry, emitted on the calling thread — so a lint
//! run's event stream and report are byte-identical at any `PI_THREADS`.

use crate::checkpoint::{lint_checkpoint, lint_db_coverage};
use crate::diag::{Diagnostic, LintConfig};
use crate::graph::lint_network;
use crate::netlist::{fold_defects, module_advisories};
use crate::report::LintReport;
use pi_cnn::graph::Granularity;
use pi_cnn::Network;
use pi_fabric::Device;
use pi_netlist::{Checkpoint, Design};
use pi_obs::{Obs, Value};
use pi_stitch::{ComponentDb, StitchError};
use rayon::prelude::*;

/// Runs lint passes under one [`LintConfig`].
#[derive(Debug, Clone, Default)]
pub struct LintEngine {
    config: LintConfig,
}

impl LintEngine {
    /// An engine with the given policy.
    pub fn new(config: LintConfig) -> Self {
        LintEngine { config }
    }

    /// The policy this engine applies.
    pub fn config(&self) -> &LintConfig {
        &self.config
    }

    /// Finalize one pass: apply waivers/levels, sort, dedup, and emit
    /// the pass summary through telemetry.
    fn finalize(&self, pass: &str, raw: Vec<Diagnostic>, obs: &Obs) -> LintReport {
        let report = LintReport::from_raw(raw, &self.config);
        obs.scoped("lint").point(
            "pass_done",
            &[
                ("pass", Value::Str(pass.to_string())),
                ("errors", Value::U64(report.errors() as u64)),
                ("warnings", Value::U64(report.warnings() as u64)),
                ("waived", Value::U64(report.waived as u64)),
                ("allowed", Value::U64(report.allowed as u64)),
            ],
        );
        report
    }

    /// Graph-family pass (`PL02xx`) over a CNN network.
    pub fn lint_network(
        &self,
        network: &Network,
        granularity: Granularity,
        obs: &Obs,
    ) -> LintReport {
        self.finalize("network", lint_network(network, granularity), obs)
    }

    /// Model-import pass (`PL015x`) over a descriptor text, chaining the
    /// graph-family pass when the import yields a network. Returns the
    /// imported network alongside the report so callers can keep it.
    pub fn lint_model(
        &self,
        text: &str,
        format: pi_model::ModelFormat,
        granularity: Granularity,
        obs: &Obs,
    ) -> (Option<Network>, LintReport) {
        let (network, raw) = crate::model::lint_model(text, format, granularity);
        (network, self.finalize("model", raw, obs))
    }

    /// Checkpoint-family pass (`PL03xx`, the checkpoint judge's verdict
    /// against `device`, which carries the module judge's) plus the
    /// netlist advisories on the wrapped module, for one checkpoint.
    pub fn lint_checkpoint(
        &self,
        checkpoint: &Checkpoint,
        device: &Device,
        obs: &Obs,
    ) -> Result<LintReport, StitchError> {
        let raw = self.checkpoint_raw(checkpoint, device)?;
        Ok(self.finalize("checkpoint", raw, obs))
    }

    fn checkpoint_raw(
        &self,
        checkpoint: &Checkpoint,
        device: &Device,
    ) -> Result<Vec<Diagnostic>, StitchError> {
        let mut raw = lint_checkpoint(checkpoint, device)?;
        let base = format!("checkpoint:{}/module", checkpoint.meta.signature);
        raw.extend(module_advisories(&base, &checkpoint.module));
        Ok(raw)
    }

    /// Lint every checkpoint in a database (parallel fan-out). A checkpoint
    /// on another device than `device` is `PL0306`, so a database mixing
    /// parts reports every checkpoint not on the one it is linted for.
    pub fn lint_db(
        &self,
        db: &ComponentDb,
        device: &Device,
        obs: &Obs,
    ) -> Result<LintReport, StitchError> {
        // ComponentDb iterates in BTreeMap (signature) order, so the
        // fan-out input — and therefore the final report — is
        // deterministic.
        let checkpoints: Vec<&Checkpoint> = db.checkpoints().collect();
        let linted: Vec<Result<Vec<Diagnostic>, StitchError>> = checkpoints
            .into_par_iter()
            .map(|cp| self.checkpoint_raw(cp, device))
            .collect();
        let mut raw = Vec::new();
        for diags in linted {
            raw.extend(diags?);
        }
        Ok(self.finalize("db", raw, obs))
    }

    /// [`Self::lint_db`] plus coverage (`PL0301`): every component the
    /// network needs must be present.
    pub fn lint_db_for_network(
        &self,
        network: &Network,
        granularity: Granularity,
        db: &ComponentDb,
        device: &Device,
        obs: &Obs,
    ) -> Result<LintReport, StitchError> {
        let mut report = self.lint_db(db, device, obs)?;
        let coverage = self.finalize(
            "db-coverage",
            lint_db_coverage(network, granularity, db),
            obs,
        );
        report.merge(coverage);
        Ok(report)
    }

    /// Lint a composed design: the design judge's verdict on its top nets
    /// and instances, plus every instance module's advisories (parallel
    /// fan-out). The physical DRC's verdict is not a lint here: the flow
    /// fails with it before this pass runs, and `pilint design` folds it
    /// through [`crate::diagnose_violation`].
    pub fn lint_design(&self, design: &Design, obs: &Obs) -> LintReport {
        let base = format!("design:{}", design.name);
        let mut raw = fold_defects(&base, design.defects());

        let linted: Vec<Vec<Diagnostic>> = design
            .instances()
            .par_iter()
            .map(|inst| module_advisories(&format!("{base}/inst:{}", inst.name), &inst.module))
            .collect();
        raw.extend(linted.into_iter().flatten());

        self.finalize("design", raw, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_obs::{MemorySink, Obs};
    use std::sync::Arc;

    #[test]
    fn lint_design_of_an_empty_design_is_clean() {
        let design = Design::new("d", "test-part", pi_netlist::DesignKind::Assembled);
        assert!(LintEngine::default()
            .lint_design(&design, &Obs::null())
            .is_clean());
    }

    #[test]
    fn pass_emits_telemetry_point() {
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::new(sink.clone());
        let engine = LintEngine::new(LintConfig::new());
        let report = engine.lint_network(&pi_cnn::models::lenet5(), Granularity::Layer, &obs);
        assert!(report.is_clean(), "{report:?}");
        let events = sink.snapshot();
        assert!(
            events.iter().any(|e| e.name == "pass_done"),
            "lint pass emits a pass_done point"
        );
    }
}
