//! Static-analysis pass manager for the pre-implemented flow.
//!
//! Three analysis families, one diagnostics surface:
//!
//! * **netlist** (`PL01xx`) — structural defects in [`pi_netlist`]
//!   modules and designs: multi-driven ports, dangling inputs, floating
//!   outputs, width mismatches, combinational loops (Tarjan SCC), dead
//!   cells, fan-out hotspots;
//! * **graph** (`PL02xx`) — CNN dataflow defects in [`pi_cnn`] networks:
//!   shape propagation and interface mismatches, cycles, orphans,
//!   degenerate layer parameters, memory-controller bandwidth budgets;
//! * **trace** (`PL016x`) — structural invariants of recorded [`pi_obs`]
//!   telemetry streams: balanced span trees and strictly increasing
//!   sequence numbers (`pilint trace`);
//! * **checkpoint** (`PL03xx`) — contract conformance of [`pi_stitch`]
//!   checkpoint envelopes and databases: locking, pblock containment,
//!   boundary partition pins, pre-routed clocks, device/metadata
//!   consistency — plus the verdict of the physical DRC
//!   ([`pi_stitch::check_design`], run by the flow, never by this crate)
//!   folded into `PL031x` codes;
//! * **dataflow** (`PL04xx`) — streaming FIFO/deadlock/rate analysis of
//!   the stitched pipeline: a worklist fixpoint over arrival intervals
//!   proves join skews fit the link FIFOs (`pilint dataflow`, and the
//!   sizing source for `FlowConfig::with_fifo_autosize`).
//!
//! Every finding is a [`Diagnostic`] with a stable code from
//! [`REGISTRY`]; [`LintConfig`] applies rustc-style `allow`/`warn`/`deny`
//! levels and waivers, and [`LintReport`] renders deterministically as
//! text or JSON. The [`LintEngine`] fans per-checkpoint and per-instance
//! passes out across the vendored rayon backend with buffered telemetry,
//! so reports and event streams are byte-identical at any `PI_THREADS`.

pub mod checkpoint;
pub mod dataflow;
pub mod diag;
pub mod engine;
pub mod graph;
pub mod model;
pub mod netlist;
pub mod report;
pub mod trace;

pub use checkpoint::{diagnose_violation, lint_checkpoint, lint_db_coverage, violation_code};
pub use dataflow::{analyze as analyze_dataflow, DataflowAnalysis, EdgeFlow};
pub use diag::{
    lookup, parse_waivers, Diagnostic, Level, LintCode, LintConfig, Severity, Waiver, REGISTRY,
};
pub use engine::{fixpoint_intervals, FixpointOutcome, Interval, LintEngine};
pub use graph::lint_network;
pub use model::lint_model;
pub use netlist::{lint_design_structure, lint_module};
pub use report::LintReport;
pub use trace::lint_trace;

// The physical DRC enum stays defined in `pi_stitch` (see the satellite
// note in `stitch::verify`): re-exported here so lint consumers get the
// violations and their diagnostic fold from one place.
pub use pi_stitch::Violation;
