//! CNN substrate: layer definitions, data-flow graphs, reference models,
//! the architecture-definition format, and the cycle/latency model of the
//! generated streaming accelerators.
//!
//! This crate is tool-agnostic — it knows nothing about FPGAs. The synthesis
//! generators consume [`Layer`] parameters to build circuits; the flows
//! consume [`Network`] graphs to drive composition; the experiment harness
//! uses [`cycles`] to convert clock frequency into end-to-end latency.

pub mod archdef;
pub mod cycles;
pub mod graph;
pub mod layer;
pub mod models;

pub use archdef::{parse_archdef, parse_archdef_lenient};
pub use graph::{Component, ComponentEdge, Network, NetworkStats, NodeId};
pub use layer::{ConvParams, EltwiseOp, FcParams, Layer, PoolKind, PoolParams, Shape};

/// Errors from CNN graph construction and the archdef parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CnnError {
    /// Layer parameters are inconsistent with the incoming shape.
    ShapeMismatch(String),
    /// Architecture-definition syntax error.
    Parse { line: usize, msg: String },
    /// Graph structure error (e.g. no input layer).
    BadGraph(String),
    /// Model-descriptor import error. `loc` locates the defect in the
    /// source descriptor: a `line N` for line-oriented formats, a JSON
    /// field path like `nodes[3].attrs.kernel` otherwise.
    Import { loc: String, msg: String },
}

impl std::fmt::Display for CnnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CnnError::ShapeMismatch(m) => write!(f, "shape mismatch: {m}"),
            CnnError::Parse { line, msg } => write!(f, "archdef parse error at line {line}: {msg}"),
            CnnError::BadGraph(m) => write!(f, "bad network graph: {m}"),
            CnnError::Import { loc, msg } => write!(f, "model import error at {loc}: {msg}"),
        }
    }
}

impl std::error::Error for CnnError {}
