//! The pass manager: [`LintEngine`] runs analysis families against a
//! network, a module, a checkpoint database or a composed design, folds
//! the findings through the configured policy and emits one telemetry
//! point per pass.
//!
//! The engine checks; it neither routes nor judges legality. The design
//! pass is handed the physical DRC's verdict (`&[Violation]`, produced by
//! the one call to `pi_stitch::check_design` in the flow) and only folds it
//! into `PL031x` findings — so the policy here shapes a *report*, and can
//! never turn an illegal design into a legal one.
//!
//! Per-checkpoint and per-instance passes fan out across the vendored
//! rayon backend, buffering each unit's telemetry and flushing in input
//! order (the `pi-obs` determinism contract) — so a lint run's event
//! stream and report are byte-identical at any `PI_THREADS`.

use crate::checkpoint::{
    diagnose_violation, lint_checkpoint, lint_db_consistency, lint_db_coverage,
};
use crate::diag::{Diagnostic, LintConfig};
use crate::graph::lint_network;
use crate::netlist::{lint_design_structure, lint_module};
use crate::report::LintReport;
use pi_cnn::graph::Granularity;
use pi_cnn::Network;
use pi_fabric::Device;
use pi_netlist::{Checkpoint, Design};
use pi_obs::{Obs, Value};
use pi_stitch::{ComponentDb, Violation};
use rayon::prelude::*;

/// A saturating interval `[lo, hi]` of cycle counts — the value domain of
/// the dataflow fixpoint (`crate::dataflow`). `hi == u64::MAX` is the
/// lattice top: "unbounded", the widened state a diverging chain lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    pub lo: u64,
    pub hi: u64,
}

impl Interval {
    /// The sentinel upper bound meaning "unbounded".
    pub const TOP_HI: u64 = u64::MAX;

    /// The degenerate interval `[v, v]`.
    pub fn point(v: u64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// Shift both bounds by `d`, saturating (top stays top).
    pub fn offset(self, d: u64) -> Self {
        Interval {
            lo: self.lo.saturating_add(d),
            hi: self.hi.saturating_add(d),
        }
    }

    /// Lattice join: the smallest interval containing both (union hull).
    pub fn join(self, other: Self) -> Self {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Element-wise maximum: the arrival of a *synchronizing* join, which
    /// cannot fire before its latest operand on either bound.
    pub fn sup(self, other: Self) -> Self {
        Interval {
            lo: self.lo.max(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// True once the upper bound has been widened to top.
    pub fn is_top(self) -> bool {
        self.hi == Self::TOP_HI
    }
}

/// What a fixpoint run produced: the per-node post-state (`None` for
/// nodes no seed reaches), how many node evaluations it took, and whether
/// any value had to be widened to top before the run stabilized.
#[derive(Debug, Clone)]
pub struct FixpointOutcome {
    pub values: Vec<Option<Interval>>,
    pub iterations: u64,
    pub diverged: bool,
}

/// A node's value is re-widened to top after this many changes — the
/// knob that bounds the fixpoint on cyclic graphs: `lo` freezes at first
/// assignment (the hull join keeps the minimum) and `hi` can only rise
/// this many times before saturating, so every node stabilizes.
const WIDEN_AFTER: u32 = 8;

/// Worklist fixpoint over intervals on a finite directed graph.
///
/// Each node's input state is the element-wise [`Interval::sup`] of its
/// predecessors' values pushed through `transfer(pred, node, value)`
/// (synchronization semantics: a multi-input node fires when its *latest*
/// operand arrives), hull-joined with the node's previous state so values
/// grow monotonically. `seeds` pins the initial state of source nodes.
/// The worklist drains in ascending node order, so on a DAG whose edges
/// point from lower to higher index (the order `Network::components`
/// emits) one sweep converges exactly; on cyclic graphs widening caps
/// each node at [`WIDEN_AFTER`] changes and the run reports `diverged`.
pub fn fixpoint_intervals(
    preds: &[Vec<usize>],
    succs: &[Vec<usize>],
    seeds: &[(usize, Interval)],
    transfer: impl Fn(usize, usize, Interval) -> Interval,
) -> FixpointOutcome {
    let n = preds.len();
    assert_eq!(succs.len(), n, "preds/succs describe the same graph");
    let mut values: Vec<Option<Interval>> = vec![None; n];
    let mut seeded: Vec<Option<Interval>> = vec![None; n];
    for &(node, v) in seeds {
        seeded[node] = Some(match seeded[node] {
            Some(prev) => prev.join(v),
            None => v,
        });
    }
    let mut changes = vec![0u32; n];
    let mut worklist: std::collections::BTreeSet<usize> = (0..n).collect();
    let mut iterations = 0u64;
    // Belt-and-braces bound: widening alone terminates, but a hard budget
    // keeps a core bug from hanging a lint run.
    let budget = (n as u64 + 1) * (u64::from(WIDEN_AFTER) + 2) * 4 + 1024;
    let mut diverged = false;
    while let Some(&node) = worklist.iter().next() {
        worklist.remove(&node);
        iterations += 1;
        if iterations > budget {
            diverged = true;
            break;
        }
        let mut incoming = seeded[node];
        for &p in &preds[node] {
            if let Some(v) = values[p] {
                let contrib = transfer(p, node, v);
                incoming = Some(match incoming {
                    Some(acc) => acc.sup(contrib),
                    None => contrib,
                });
            }
        }
        let Some(new) = incoming else { continue };
        let merged = match values[node] {
            Some(prev) => prev.join(new),
            None => new,
        };
        if values[node] == Some(merged) {
            continue;
        }
        changes[node] += 1;
        let stored = if changes[node] > WIDEN_AFTER && !merged.is_top() {
            Interval {
                lo: merged.lo,
                hi: Interval::TOP_HI,
            }
        } else {
            merged
        };
        values[node] = Some(stored);
        worklist.extend(succs[node].iter().copied());
    }
    diverged = diverged || values.iter().flatten().any(|v| v.is_top());
    FixpointOutcome {
        values,
        iterations,
        diverged,
    }
}

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

    /// Dataflow-family pass (`PL04xx`): fixpoint FIFO/deadlock/rate
    /// analysis over the component graph. With `autosize` the findings
    /// are evaluated against each link's own computed minimum depth (the
    /// capacities `FlowConfig::with_fifo_autosize` will stitch), so only
    /// rate imbalance and divergence can surface.
    pub fn lint_dataflow(
        &self,
        network: &Network,
        granularity: Granularity,
        autosize: bool,
        obs: &Obs,
    ) -> LintReport {
        let scope = obs.scoped("lint::dataflow");
        let analysis = {
            let _span = scope.span("analyze");
            crate::dataflow::analyze(network, granularity)
        };
        scope.counter("iterations", analysis.iterations);
        scope.counter("links", analysis.edges.len() as u64);
        scope.counter("diverged", u64::from(analysis.diverged));
        let raw = analysis.lint(autosize);
        self.finalize("dataflow", raw, obs)
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

    /// Netlist-family pass (`PL01xx`) over a single module.
    pub fn lint_module(
        &self,
        origin_base: &str,
        module: &pi_netlist::Module,
        obs: &Obs,
    ) -> LintReport {
        self.finalize("module", lint_module(origin_base, module), obs)
    }

    /// Checkpoint-family pass (`PL03xx`) plus the netlist pass on the
    /// wrapped module, for one checkpoint.
    pub fn lint_checkpoint(
        &self,
        checkpoint: &Checkpoint,
        device: Option<&Device>,
        obs: &Obs,
    ) -> LintReport {
        self.finalize("checkpoint", self.checkpoint_raw(checkpoint, device), obs)
    }

    fn checkpoint_raw(&self, checkpoint: &Checkpoint, device: Option<&Device>) -> Vec<Diagnostic> {
        let mut raw = lint_checkpoint(checkpoint, device);
        let base = format!("checkpoint:{}/module", checkpoint.meta.signature);
        raw.extend(lint_module(&base, &checkpoint.module));
        raw
    }

    /// Lint every checkpoint in a database (parallel fan-out) plus the
    /// cross-checkpoint consistency pass.
    pub fn lint_db(&self, db: &ComponentDb, device: Option<&Device>, obs: &Obs) -> LintReport {
        // ComponentDb iterates in BTreeMap (signature) order, so the
        // fan-out input — and therefore the flush order and the final
        // report — is deterministic.
        let items: Vec<(&Checkpoint, pi_obs::BufferedObs)> =
            db.checkpoints().map(|cp| (cp, obs.buffered())).collect();
        let linted: Vec<(Vec<Diagnostic>, pi_obs::BufferedObs)> = items
            .into_par_iter()
            .map(|(cp, buf)| (self.checkpoint_raw(cp, device), buf))
            .collect();
        let mut raw = Vec::new();
        for (diags, buf) in linted {
            buf.flush_into(obs);
            raw.extend(diags);
        }
        raw.extend(lint_db_consistency(db));
        self.finalize("db", raw, obs)
    }

    /// [`Self::lint_db`] plus coverage (`PL0301`): every component the
    /// network needs must be present.
    pub fn lint_db_for_network(
        &self,
        network: &Network,
        granularity: Granularity,
        db: &ComponentDb,
        device: Option<&Device>,
        obs: &Obs,
    ) -> LintReport {
        let mut report = self.lint_db(db, device, obs);
        let coverage = self.finalize(
            "db-coverage",
            lint_db_coverage(network, granularity, db),
            obs,
        );
        report.merge(coverage);
        report
    }

    /// Lint a composed design: top-level structure and every instance's
    /// module (parallel fan-out), plus `drc` — the verdict of the physical
    /// DRC ([`pi_stitch::check_design`]), which the caller ran — folded into
    /// `PL031x` diagnostics. The engine reports the verdict; it never
    /// produces or overrides it.
    pub fn lint_design(&self, design: &Design, drc: &[Violation], obs: &Obs) -> LintReport {
        let base = format!("design:{}", design.name);
        let mut raw = lint_design_structure(design);

        let items: Vec<(usize, pi_obs::BufferedObs)> = (0..design.instances().len())
            .map(|i| (i, obs.buffered()))
            .collect();
        let linted: Vec<(Vec<Diagnostic>, pi_obs::BufferedObs)> = items
            .into_par_iter()
            .map(|(i, buf)| {
                let inst = &design.instances()[i];
                let origin = format!("{base}/inst:{}", inst.name);
                (lint_module(&origin, &inst.module), buf)
            })
            .collect();
        for (diags, buf) in linted {
            buf.flush_into(obs);
            raw.extend(diags);
        }

        raw.extend(drc.iter().map(|v| diagnose_violation(&base, v)));
        self.finalize("design", raw, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_obs::{MemorySink, Obs};
    use std::sync::Arc;

    #[test]
    fn lint_design_folds_the_verdict_it_is_handed() {
        let design = Design::new("d", "test-part", pi_netlist::DesignKind::Assembled);
        let verdict = [Violation::NotLocked {
            instance: "conv1".into(),
        }];
        let report = LintEngine::default().lint_design(&design, &verdict, &Obs::null());
        assert_eq!(report.by_code(), vec![("PL0317", 1)], "{report:?}");
        // A policy shapes the report, never the verdict: the caller still
        // holds the violation.
        let lax = LintEngine::new(LintConfig::new().allow("PL0317"));
        let report = lax.lint_design(&design, &verdict, &Obs::null());
        assert!(report.is_clean() && report.allowed == 1, "{report:?}");
        assert!(LintEngine::default()
            .lint_design(&design, &[], &Obs::null())
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
