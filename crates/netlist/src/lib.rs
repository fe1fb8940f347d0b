//! Logical/physical netlist data structures and checkpoint files.
//!
//! This crate plays the role Vivado's in-memory design database and DCP files
//! play in the paper's flow:
//!
//! * [`Module`] — a netlist of site-level [`Cell`]s connected by [`Net`]s,
//!   with boundary [`Port`]s that may carry **partition pins** (the
//!   interconnect-tile anchors the paper plans interface routing around).
//! * [`Design`] — a top-level composition of module instances plus the
//!   inter-module nets the stitcher creates; supports both the *flat*
//!   (monolithic baseline) and *assembled* (pre-implemented) shapes.
//! * [`Checkpoint`] — a serialized placed-and-routed module with metadata
//!   (achieved Fmax, resources, pblock): the DCP the component database
//!   stores and the stitcher consumes.
//!
//! Cells are *site-granular*: one cell occupies one site (a SLICE, a DSP48,
//! a RAMB36...). Raw LUT/FF counts live inside [`CellKind::Slice`] so
//! utilization reports stay exact while placement and routing work on ~10x
//! fewer objects.

pub mod cell;
pub mod dcp;
mod defect;
pub mod design;
pub mod hash;
pub mod module;
pub mod net;
pub mod port;
mod summary;
pub mod walk;

pub use cell::{Cell, CellId, CellKind, CELL_FANOUT_BUDGET};
pub use dcp::{Checkpoint, CheckpointMeta, CHECKPOINT_FORMAT_VERSION};
pub use defect::{sample_names, ModuleDefect, ModuleDefectKind};
pub use design::{Design, DesignKind, InstId, ModuleInst, TopNet, DEFAULT_LINK_FIFO_DEPTH};
pub use hash::{xxh64, StableHasher};
pub use module::{Module, ModuleBuilder};
pub use net::{occupied_tiles, Endpoint, Net, NetId, Route};
pub use port::{Direction, Port, PortId, StreamRole};
pub use walk::{NetView, PlacedNet, RouteFootprint, RouteView, Slot};

/// Errors produced by netlist construction and the checkpoint codec.
#[derive(Debug)]
pub enum NetlistError {
    /// Referenced an id that does not exist in the module: the module
    /// judge's dangling-reference defect.
    DanglingRef(String),
    /// Any other defect the module judge ([`Module::defects`]) finds.
    BadNet(String),
    /// Attempted to mutate a locked module.
    Locked(String),
    /// Checkpoint decode failure.
    Decode(String),
    /// A persisted checkpoint carries a different format version than this
    /// build writes — stale entries are rebuilt, never reinterpreted.
    FormatVersion { found: u32, want: u32 },
}

impl std::fmt::Display for NetlistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetlistError::DanglingRef(m) => write!(f, "dangling reference: {m}"),
            NetlistError::BadNet(m) => write!(f, "malformed net: {m}"),
            NetlistError::Locked(m) => write!(f, "module is locked: {m}"),
            NetlistError::Decode(m) => write!(f, "checkpoint decode error: {m}"),
            NetlistError::FormatVersion { found, want } => write!(
                f,
                "checkpoint format version {found} does not match this build's {want}"
            ),
        }
    }
}

impl std::error::Error for NetlistError {}
