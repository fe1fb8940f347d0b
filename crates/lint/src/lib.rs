//! Static-analysis pass manager for the pre-implemented flow.
//!
//! Five analysis families, one diagnostics surface:
//!
//! * **netlist** (`PL01xx`) — structural defects in [`pi_netlist`]
//!   modules and designs: the module judge's verdict
//!   ([`pi_netlist::Module::defects`]: multi-driven ports, width
//!   mismatches, combinational loops, malformed nets and pin budgets)
//!   folded into `PL0101`, `PL0104`, `PL0105` and `PL0108`, plus the
//!   dangling-input, floating-output, dead-cell and fan-out advisories;
//! * **graph** (`PL02xx`) — CNN dataflow defects in [`pi_cnn`] networks:
//!   the network judge's verdict ([`pi_cnn::Network::defects`]: shape
//!   propagation and interface mismatches, cycles, orphans, degenerate
//!   layer parameters) folded into `PL0201`–`PL0205`, plus the
//!   memory-controller bandwidth and fusion advisories;
//! * **model** (`PL015x`) — model-descriptor import findings (unsupported
//!   operators, unfoldable batch norms, malformed descriptors), chained
//!   with the graph passes on the imported network (`pilint model`);
//! * **trace** (`PL016x`) — structural invariants of recorded [`pi_obs`]
//!   telemetry streams: balanced span trees and strictly increasing
//!   sequence numbers (`pilint trace`);
//! * **checkpoint** (`PL03xx`) — contract conformance of [`pi_stitch`]
//!   checkpoint envelopes and databases: locking, pblock containment,
//!   boundary partition pins, pre-routed clocks, device/metadata
//!   consistency — plus the verdict of the physical DRC
//!   ([`pi_stitch::check_design`], run by the flow, never by this crate)
//!   folded into `PL031x` codes.
//!
//! Every finding is a [`Diagnostic`] with a stable code from
//! [`REGISTRY`]; [`LintConfig`] applies rustc-style `allow`/`warn`/`deny`
//! levels and waivers, and [`LintReport`] renders deterministically as
//! text or JSON. The [`LintEngine`] fans per-checkpoint and per-instance
//! passes out across the vendored rayon backend with buffered telemetry,
//! so reports and event streams are byte-identical at any `PI_THREADS`.

pub mod checkpoint;
pub mod diag;
pub mod engine;
pub mod graph;
pub mod model;
pub mod netlist;
pub mod report;
pub mod trace;

pub use checkpoint::{diagnose_violation, lint_checkpoint, lint_db_coverage, violation_code};
pub use diag::{
    lookup, parse_waivers, Diagnostic, Level, LintCode, LintConfig, Severity, Waiver, REGISTRY,
};
pub use engine::LintEngine;
pub use graph::{defect_code, lint_network};
pub use model::lint_model;
pub use report::LintReport;
pub use trace::lint_trace;

// The physical DRC enum stays defined in `pi_stitch` (see the satellite
// note in `stitch::verify`): re-exported here so lint consumers get the
// violations and their diagnostic fold from one place.
pub use pi_stitch::Violation;
