//! The implementation backend — the stand-in for Vivado's
//! `opt_design` / `place_design` / `phys_opt_design` / `route_design`.
//!
//! * [`place`] — seeded simulated-annealing placement with pblock
//!   constraints, range-limited moves and timing-weighted wirelength cost.
//!   Out-of-context modules placed in tight pblocks converge to short wires;
//!   monolithic designs spread over the chip do not — the mechanism behind
//!   the paper's "vendor tools achieve better QoR on small modules".
//! * [`route`] — PathFinder-style negotiated-congestion routing on a
//!   tile-level routing-resource graph: Steiner-decomposed multi-terminal
//!   nets, STA-slack-ordered rip-up, and net-level parallel waves with a
//!   deterministic merge, plus an incremental mode that only touches
//!   unrouted nets (locked pre-implemented modules keep their internal
//!   routing — the paper's key productivity lever).
//! * [`timing`] — static timing analysis over the placed/routed design;
//!   produces Fmax and critical-path reports.
//! * [`power`] — an activity/wirelength-based power estimate.
//! * [`compile`] — the phased flow with per-phase wall-clock timing; those
//!   measured times *are* the productivity numbers of Fig. 1a and Fig. 6.

pub mod compile;
pub mod delay;
pub mod place;
pub mod power;
pub mod report;
pub mod route;
pub mod timing;

pub use compile::{
    compile_flat_obs, route_assembled_obs, CompileOptions, CompileReport, PhaseTimes,
};
pub use place::{place_module_obs, PlaceOptions, PlaceStats};
pub use route::{route_design_obs, route_module_obs, steiner_topology, RouteOptions, RouteStats};
pub use timing::{sta_design, sta_module, TimingReport};

/// Errors from the backend.
#[derive(Debug)]
pub enum PnrError {
    /// Not enough sites of a kind within the placement region.
    Unplaceable {
        kind: &'static str,
        needed: usize,
        available: usize,
    },
    /// A cell or port endpoint had no physical location when one was
    /// required.
    Unplaced(String),
    /// The timing graph has a combinational cycle.
    CombinationalLoop(String),
    /// Underlying netlist error.
    Netlist(pi_netlist::NetlistError),
    /// Underlying fabric error.
    Fabric(pi_fabric::FabricError),
}

impl std::fmt::Display for PnrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PnrError::Unplaceable {
                kind,
                needed,
                available,
            } => write!(
                f,
                "placement region offers {available} {kind} sites, design needs {needed}"
            ),
            PnrError::Unplaced(what) => write!(f, "missing physical location: {what}"),
            PnrError::CombinationalLoop(m) => write!(f, "combinational loop through {m}"),
            PnrError::Netlist(e) => write!(f, "netlist: {e}"),
            PnrError::Fabric(e) => write!(f, "fabric: {e}"),
        }
    }
}

impl std::error::Error for PnrError {}

impl From<pi_netlist::NetlistError> for PnrError {
    fn from(e: pi_netlist::NetlistError) -> Self {
        PnrError::Netlist(e)
    }
}

impl From<pi_fabric::FabricError> for PnrError {
    fn from(e: pi_fabric::FabricError) -> Self {
        PnrError::Fabric(e)
    }
}
