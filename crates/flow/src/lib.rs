//! The paper's contribution: the **layer-based pre-implemented flow** for
//! mapping CNNs onto FPGAs, plus the traditional monolithic baseline it is
//! evaluated against.
//!
//! The flow has the paper's two phases (Fig. 3):
//!
//! 1. **Function optimization** ([`function_opt`]) — semi-manual, done
//!    once: every fused component is synthesized out-of-context, floorplanned
//!    into a tight pblock, placed and routed under a seed-sweeping design
//!    space exploration, its ports committed to partition pins, the result
//!    locked and stored as a checkpoint in the component database.
//! 2. **Architecture optimization** ([`arch_opt`]) — fully automated: parse
//!    the CNN architecture definition, extract and match components, place
//!    them with the Eq. 1–3 cost model, stitch the inter-component nets and
//!    hand the design to the backend for inter-component routing only.
//!
//! [`baseline`] implements the traditional flow (monolithic synthesis +
//! full placement and routing), and [`report`] computes the latency /
//! Fmax / resources / productivity comparisons every experiment prints.

pub mod arch_opt;
pub mod baseline;
pub mod config;
pub mod function_opt;
pub mod report;

pub use arch_opt::{pipeline_top_nets, run_pre_implemented_flow, PreImplReport};
pub use baseline::{run_baseline_flow, BaselineReport};
pub use config::FlowConfig;
pub use function_opt::{
    build_component_db, build_component_db_cached, improve_slowest, plan_partpins, size_pblock,
    ComponentBuildReport, DbCacheStats,
};
pub use report::{FlowComparison, LatencyReport};

/// Errors from the flow layer.
#[derive(Debug)]
pub enum FlowError {
    Synth(pi_synth::SynthError),
    Stitch(pi_stitch::StitchError),
    Pnr(pi_pnr::PnrError),
    Cnn(pi_cnn::CnnError),
    Netlist(pi_netlist::NetlistError),
    Fabric(pi_fabric::FabricError),
    /// A component could not reach a satisfiable implementation (pblock
    /// sizing or DSE failed).
    ComponentUnsatisfiable {
        component: String,
        reason: String,
    },
    /// The assembled design failed design-rule checking
    /// (`pi_stitch::check_design`, the flow's only legality verdict) — a
    /// flow bug or a corrupt database, never an input error. Raised with or
    /// without a lint policy; no level or waiver can suppress it.
    DrcFailed(Vec<pi_stitch::Violation>),
    /// A stage-boundary lint gate tripped (`FlowConfig::lint` was set and
    /// the report has errors, or warnings under `deny_warnings`). The
    /// report carries every finding for rendering. Never stands in for
    /// `DrcFailed`: the design pass only adds structure and netlist lints.
    LintFailed(pi_lint::LintReport),
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Synth(e) => write!(f, "flow/synthesis: {e}"),
            FlowError::Stitch(e) => write!(f, "flow/stitch: {e}"),
            FlowError::Pnr(e) => write!(f, "flow/backend: {e}"),
            FlowError::Cnn(e) => write!(f, "flow/cnn: {e}"),
            FlowError::Netlist(e) => write!(f, "flow/netlist: {e}"),
            FlowError::Fabric(e) => write!(f, "flow/fabric: {e}"),
            FlowError::ComponentUnsatisfiable { component, reason } => {
                write!(f, "component '{component}' unsatisfiable: {reason}")
            }
            FlowError::DrcFailed(violations) => {
                write!(
                    f,
                    "assembled design failed DRC ({} violations",
                    violations.len()
                )?;
                if let Some(first) = violations.first() {
                    write!(f, "; first: {first}")?;
                }
                write!(f, ")")
            }
            FlowError::LintFailed(report) => {
                write!(
                    f,
                    "lint gate tripped: {} errors, {} warnings",
                    report.errors(),
                    report.warnings()
                )?;
                if let Some(first) = report.diagnostics.first() {
                    write!(
                        f,
                        "; first: {}[{}] {}",
                        first.severity, first.code, first.message
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for FlowError {}

macro_rules! from_err {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for FlowError {
            fn from(e: $ty) -> Self {
                FlowError::$variant(e)
            }
        }
    };
}

from_err!(Synth, pi_synth::SynthError);
from_err!(Stitch, pi_stitch::StitchError);
from_err!(Pnr, pi_pnr::PnrError);
from_err!(Cnn, pi_cnn::CnnError);
from_err!(Netlist, pi_netlist::NetlistError);
from_err!(Fabric, pi_fabric::FabricError);
