//! The RapidWright-analog layer: everything the paper's hardware generator
//! does between "pre-built checkpoints exist" and "Vivado routes the
//! stitched design".
//!
//! * [`db`] — the database of pre-built checkpoints, keyed by component
//!   signature, in memory.
//! * [`cache`] — its one on-disk form: a verified, content-addressed
//!   directory of checkpoints reused across runs.
//! * [`relocate`] — replicate/relocate a locked placed-and-routed module to
//!   another chip location, validating columnar compatibility.
//! * [`placer`] — congestion-aware timing-driven placement of whole
//!   components (Eq. 1–3 of the paper).
//! * [`compose`] — Algorithm 1: BFS the network DFG, pull matching
//!   checkpoints, place them, and stitch inter-component nets between
//!   partition pins.

pub mod cache;
pub mod compose;
pub mod db;
pub mod lock;
pub mod placer;
pub mod relocate;
pub mod verify;

pub use cache::{cache_key, CacheLookup, DbCache, CACHE_SCOPE, MANIFEST_FILE, MANIFEST_VERSION};
pub use compose::{assemble_obs, compose_obs, ComposeOptions, ComposeReport};
pub use db::ComponentDb;
pub use lock::{LockFile, DEFAULT_LOCK_TIMEOUT, LOCK_FILE};
pub use placer::{
    place_components, place_components_obs, ComponentPlacerOptions, PlacementOutcome,
};
pub use relocate::{relocate_to, valid_anchor_columns};
pub use verify::{check_checkpoint, check_design, Violation};

/// Errors from stitching.
#[derive(Debug)]
pub enum StitchError {
    /// The database has no checkpoint for a required component signature.
    MissingComponent(String),
    /// No legal location for a component.
    NoValidLocation {
        component: String,
        tried: usize,
    },
    /// The requested relocation target violates columnar compatibility.
    IncompatibleRelocation {
        component: String,
        dcol: i32,
    },
    /// A checkpoint targets a different device than the composition.
    DeviceMismatch {
        checkpoint: String,
        want: String,
    },
    /// The cache-manifest advisory lock stayed held by a live process for
    /// the whole acquisition window (see [`lock::LockFile`]).
    LockTimeout {
        path: std::path::PathBuf,
        holder: String,
    },
    Netlist(pi_netlist::NetlistError),
    Fabric(pi_fabric::FabricError),
    Cnn(pi_cnn::CnnError),
    Io(std::io::Error),
}

impl std::fmt::Display for StitchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StitchError::MissingComponent(sig) => {
                write!(f, "component database has no checkpoint for '{sig}'")
            }
            StitchError::NoValidLocation { component, tried } => write!(
                f,
                "no valid location for component '{component}' after {tried} candidates"
            ),
            StitchError::IncompatibleRelocation { component, dcol } => write!(
                f,
                "relocating '{component}' by {dcol} columns breaks column compatibility"
            ),
            StitchError::DeviceMismatch { checkpoint, want } => write!(
                f,
                "checkpoint '{checkpoint}' targets a different device (composition wants {want})"
            ),
            StitchError::LockTimeout { path, holder } => write!(
                f,
                "cache lock {} held by live process {holder} beyond the timeout",
                path.display()
            ),
            StitchError::Netlist(e) => write!(f, "stitch netlist: {e}"),
            StitchError::Fabric(e) => write!(f, "stitch fabric: {e}"),
            StitchError::Cnn(e) => write!(f, "stitch cnn: {e}"),
            StitchError::Io(e) => write!(f, "stitch io: {e}"),
        }
    }
}

impl std::error::Error for StitchError {}

impl From<pi_netlist::NetlistError> for StitchError {
    fn from(e: pi_netlist::NetlistError) -> Self {
        StitchError::Netlist(e)
    }
}

impl From<pi_fabric::FabricError> for StitchError {
    fn from(e: pi_fabric::FabricError) -> Self {
        StitchError::Fabric(e)
    }
}

impl From<pi_cnn::CnnError> for StitchError {
    fn from(e: pi_cnn::CnnError) -> Self {
        StitchError::Cnn(e)
    }
}

impl From<std::io::Error> for StitchError {
    fn from(e: std::io::Error) -> Self {
        StitchError::Io(e)
    }
}
