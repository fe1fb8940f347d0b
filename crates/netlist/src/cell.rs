//! Site-level cells.

use pi_fabric::{ResourceCount, SiteKind, TileCoord};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Index of a cell within its [`crate::Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellId(pub u32);

impl CellId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a cell is, at site granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellKind {
    /// A packed CLB slice: `luts` LUT6 and `ffs` flip-flops in use
    /// (capacity 8/16).
    Slice { luts: u8, ffs: u8 },
    /// One DSP48 multiply-accumulate block.
    Dsp,
    /// One 36 Kb block RAM (ROM, FIFO or line buffer storage).
    Bram,
    /// One UltraRAM block.
    Uram,
    /// An I/O buffer. Only present in non-OOC top-level designs — the OOC
    /// flow's defining property is that these are *not* inserted.
    IoBuf,
}

impl CellKind {
    /// The site kind this cell must be placed on.
    pub const fn site(&self) -> SiteKind {
        match self {
            CellKind::Slice { .. } => SiteKind::Slice,
            CellKind::Dsp => SiteKind::Dsp48,
            CellKind::Bram => SiteKind::Ramb36,
            CellKind::Uram => SiteKind::Uram288,
            CellKind::IoBuf => SiteKind::Iob,
        }
    }

    /// Logic resources consumed by this cell.
    pub fn resources(&self) -> ResourceCount {
        match *self {
            CellKind::Slice { luts, ffs } => ResourceCount {
                luts: u64::from(luts),
                ffs: u64::from(ffs),
                ..ResourceCount::ZERO
            },
            CellKind::Dsp => ResourceCount {
                dsps: 1,
                ..ResourceCount::ZERO
            },
            CellKind::Bram => ResourceCount {
                brams: 1,
                ..ResourceCount::ZERO
            },
            CellKind::Uram => ResourceCount {
                urams: 1,
                ..ResourceCount::ZERO
            },
            CellKind::IoBuf => ResourceCount {
                ios: 1,
                ..ResourceCount::ZERO
            },
        }
    }

    /// A fully used slice.
    pub const fn full_slice() -> CellKind {
        CellKind::Slice { luts: 8, ffs: 16 }
    }

    /// Input nets a cell of this kind may take: a slice's LUT inputs, six
    /// per LUT6 in use. `None` for a hard block, whose pins the model does
    /// not budget.
    pub fn fanin_budget(&self) -> Option<usize> {
        match *self {
            CellKind::Slice { luts, .. } => Some(LUT_INPUTS * usize::from(luts)),
            _ => None,
        }
    }
}

/// Inputs of one LUT6.
const LUT_INPUTS: usize = 6;

/// Distinct nets one cell may drive. A cell has its tile to itself, so its
/// routes leave through the four neighbouring tiles: 4 × 64 = 256 wires on
/// every catalog part. The budget leaves 32 of them to routes passing
/// through; the widest cell the zoo synthesizes is AlexNet conv1's
/// `mac120` DSP, at 213 nets.
pub const CELL_FANOUT_BUDGET: usize = 224;

/// One cell of a module netlist.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    /// Hierarchical name, for reports and debugging. Shared, so that a
    /// copy of the cell (relocation copies every cell of a checkpoint)
    /// bumps a reference count instead of allocating the name again.
    pub name: Arc<str>,
    pub kind: CellKind,
    /// Intrinsic logic delay through the cell, picoseconds. Set by the
    /// synthesis generators per function (a comparator is faster than a
    /// wide adder chain).
    pub delay_ps: u32,
    /// True when the cell's output is registered — it then terminates a
    /// combinational path for timing analysis.
    pub registered: bool,
    /// Placement, in module-local tile coordinates. For a flat design these
    /// are absolute; for an OOC module the instance anchor translates them.
    pub placement: Option<TileCoord>,
    /// Locked cells must not be moved by the placer (pre-implemented and
    /// frozen per the paper's logic-locking step).
    pub fixed: bool,
}

impl Cell {
    pub fn new(name: impl Into<Arc<str>>, kind: CellKind) -> Self {
        Cell {
            name: name.into(),
            kind,
            delay_ps: default_delay_ps(kind),
            registered: true,
            placement: None,
            fixed: false,
        }
    }

    /// Builder-style: mark combinational (output not registered).
    pub fn combinational(mut self) -> Self {
        self.registered = false;
        self
    }

    /// Builder-style: override the intrinsic delay.
    pub fn with_delay_ps(mut self, ps: u32) -> Self {
        self.delay_ps = ps;
        self
    }
}

/// Default intrinsic delays per cell kind, picoseconds. Calibrated so that
/// small well-placed modules reach the 300-650 MHz band the paper reports.
pub fn default_delay_ps(kind: CellKind) -> u32 {
    match kind {
        CellKind::Slice { .. } => 150,
        CellKind::Dsp => 550,
        CellKind::Bram => 650,
        CellKind::Uram => 750,
        CellKind::IoBuf => 900,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sites_and_resources() {
        let s = CellKind::Slice { luts: 5, ffs: 9 };
        assert_eq!(s.site(), SiteKind::Slice);
        let r = s.resources();
        assert_eq!((r.luts, r.ffs), (5, 9));
        assert_eq!(CellKind::Dsp.resources().dsps, 1);
        assert_eq!(CellKind::IoBuf.site(), SiteKind::Iob);
    }

    #[test]
    fn builder_helpers() {
        let c = Cell::new("u0", CellKind::Dsp)
            .combinational()
            .with_delay_ps(123);
        assert!(!c.registered);
        assert_eq!(c.delay_ps, 123);
        assert!(!c.fixed);
        assert!(c.placement.is_none());
    }

    #[test]
    fn default_delays_are_ordered_sensibly() {
        assert!(default_delay_ps(CellKind::full_slice()) < default_delay_ps(CellKind::Dsp));
        assert!(default_delay_ps(CellKind::Dsp) < default_delay_ps(CellKind::Bram));
    }
}
