//! # preimpl-cnn
//!
//! A reproduction of *"Exploring a Layer-based Pre-implemented Flow for
//! Mapping CNN on FPGA"* (IPPS 2021) as a pure-Rust toolflow: a columnar
//! FPGA device model, netlists and design checkpoints, synthesis
//! generators for CNN layer engines, a simulated-annealing placer and
//! negotiated-congestion router with static timing analysis, a
//! RapidWright-like stitching layer, and — on top of all of it — the
//! paper's layer-based pre-implemented flow and its monolithic baseline.
//!
//! ## Quickstart
//!
//! ```
//! use preimpl_cnn::prelude::*;
//!
//! // Target device and network.
//! let device = Device::xcku5p_like();
//! let network = models::toy();
//!
//! // One config drives both phases (and carries the telemetry sink, if
//! // any — see [`pi_obs`] and `FlowConfig::with_sink`).
//! let cfg = FlowConfig::new().with_seeds([1]);
//!
//! // Phase 1 (done once): pre-implement every component into a database.
//! let (db, _reports) = build_component_db(&network, &device, &cfg).unwrap();
//!
//! // Phase 2 (automatic): compose + inter-component routing.
//! let (design, report) = run_pre_implemented_flow(&network, &db, &device, &cfg).unwrap();
//! assert!(design.fully_routed());
//! println!("accelerator Fmax: {:.0} MHz", report.compile.timing.fmax_mhz);
//! ```
//!
//! See `examples/` for LeNet-5, VGG-16 and custom-network walkthroughs, and
//! the `pi-bench` crate for the binaries that regenerate every table and
//! figure of the paper.

pub mod cli;

pub use pi_cnn as cnn;
pub use pi_fabric as fabric;
pub use pi_flow as flow;
pub use pi_lint as lint;
pub use pi_model as model;
pub use pi_netlist as netlist;
pub use pi_obs as obs;
pub use pi_pnr as pnr;
pub use pi_stitch as stitch;
pub use pi_synth as synth;

/// Process exit codes shared by every gating binary (`pilint`, `flowstat
/// diff`, `preimpl --lint`).
///
/// The convention separates "the tool could not do its job" from "the tool
/// did its job and the gate tripped", so CI scripts can distinguish a
/// broken invocation from a genuine finding:
///
/// * `0` — ran to completion, gate clean.
/// * `1` — operational error (bad flags, unreadable input, flow failure).
/// * `2` — ran to completion, gate tripped (lint errors / denied warnings,
///   or a metric regression for `flowstat diff`).
pub mod exit {
    /// Ran to completion; nothing to report.
    pub const CLEAN: u8 = 0;
    /// The tool itself failed (usage, I/O, parse, flow error).
    pub const OPERATIONAL_ERROR: u8 = 1;
    /// Ran to completion and the gate tripped.
    pub const GATE: u8 = 2;
}

/// Everything a typical user of the flow needs in scope.
pub mod prelude {
    pub use pi_cnn::graph::Granularity;
    pub use pi_cnn::{models, parse_archdef, parse_archdef_lenient, Network};
    pub use pi_fabric::{Device, Pblock, ResourceCount, TileCoord};
    pub use pi_flow::{
        build_component_db, build_component_db_cached, run_baseline_flow, run_pre_implemented_flow,
        DbCacheStats, FlowComparison, FlowConfig,
    };
    pub use pi_lint::{parse_waivers, Diagnostic, Level, LintConfig, LintEngine, LintReport};
    pub use pi_model::{Import, ImportFinding, ModelFormat};
    pub use pi_netlist::{Checkpoint, Design, Module};
    pub use pi_obs::agg::{ReportDiff, RunReport};
    pub use pi_obs::{parse_jsonl, EventSink, FileSink, MemorySink, NullSink, Obs};
    pub use pi_pnr::{CompileReport, TimingReport};
    pub use pi_stitch::{ComponentDb, DbCache};
    pub use pi_synth::{SynthMode, SynthOptions};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_reaches_every_crate() {
        use crate::prelude::*;
        let d = Device::test_part();
        assert!(d.cols() > 0);
        let n = models::toy();
        assert!(n.validate().is_ok());
    }
}
