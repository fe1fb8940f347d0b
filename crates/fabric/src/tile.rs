//! Tiles: one grid position providing zero or one site.

use crate::site::SiteKind;
use serde::{Deserialize, Serialize};

/// What a grid position holds. A whole column shares one kind — this is the
/// columnar structure the relocation checks rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TileKind {
    /// Configurable logic block column (one SLICE per tile).
    Clb,
    /// DSP column (one DSP48 per tile).
    Dsp,
    /// Block RAM column (one RAMB36 per tile).
    Bram,
    /// UltraRAM column.
    Uram,
    /// I/O column — a fabric discontinuity: no user logic, extra wire delay
    /// for nets crossing it.
    Io,
    /// Structural gap (clock spines, config column). No site, crossing
    /// penalty like Io but smaller.
    Gap,
}

impl TileKind {
    /// The site this tile provides, if any.
    pub const fn site(self) -> Option<SiteKind> {
        match self {
            TileKind::Clb => Some(SiteKind::Slice),
            TileKind::Dsp => Some(SiteKind::Dsp48),
            TileKind::Bram => Some(SiteKind::Ramb36),
            TileKind::Uram => Some(SiteKind::Uram288),
            TileKind::Io => Some(SiteKind::Iob),
            TileKind::Gap => None,
        }
    }

    /// True when the column interrupts general-purpose fabric routing.
    pub const fn is_discontinuity(self) -> bool {
        matches!(self, TileKind::Io | TileKind::Gap)
    }
}

/// One tile of the device grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tile {
    pub kind: TileKind,
    /// Clock region index this tile belongs to.
    pub clock_region: u16,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_mapping() {
        assert_eq!(TileKind::Clb.site(), Some(SiteKind::Slice));
        assert_eq!(TileKind::Gap.site(), None);
    }

    #[test]
    fn discontinuities() {
        assert!(TileKind::Io.is_discontinuity());
        assert!(TileKind::Gap.is_discontinuity());
        assert!(!TileKind::Clb.is_discontinuity());
        assert!(!TileKind::Dsp.is_discontinuity());
    }
}
