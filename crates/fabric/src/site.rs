//! Site kinds and their logic capacities.

use serde::{Deserialize, Serialize};

/// The kind of site a tile provides.
///
/// The model is site-granular: one netlist cell occupies one site. Raw
/// LUT/FF counts are tracked *inside* cells and checked against
/// [`SiteCapacity`] when legalizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SiteKind {
    /// A CLB slice: 8 6-input LUTs and 16 flip-flops (UltraScale SLICEL/M).
    Slice,
    /// A DSP48E2 block.
    Dsp48,
    /// A 36 Kb block RAM.
    Ramb36,
    /// A 288 Kb UltraRAM.
    Uram288,
    /// An I/O block.
    Iob,
}

impl SiteKind {
    /// Every kind, in declaration order: `ALL[k.index()] == k`. Iterating
    /// this (never a `HashMap`) keeps per-kind work in one fixed order.
    pub const ALL: [SiteKind; 5] = [
        SiteKind::Slice,
        SiteKind::Dsp48,
        SiteKind::Ramb36,
        SiteKind::Uram288,
        SiteKind::Iob,
    ];

    /// Dense index of this kind, for `[_; 5]` tables keyed by kind.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Logic capacity of one site of this kind.
    pub const fn capacity(self) -> SiteCapacity {
        match self {
            SiteKind::Slice => SiteCapacity {
                luts: 8,
                ffs: 16,
                brams: 0,
                dsps: 0,
                urams: 0,
                ios: 0,
            },
            SiteKind::Dsp48 => SiteCapacity {
                luts: 0,
                ffs: 0,
                brams: 0,
                dsps: 1,
                urams: 0,
                ios: 0,
            },
            SiteKind::Ramb36 => SiteCapacity {
                luts: 0,
                ffs: 0,
                brams: 1,
                dsps: 0,
                urams: 0,
                ios: 0,
            },
            SiteKind::Uram288 => SiteCapacity {
                luts: 0,
                ffs: 0,
                brams: 0,
                dsps: 0,
                urams: 1,
                ios: 0,
            },
            SiteKind::Iob => SiteCapacity {
                luts: 0,
                ffs: 0,
                brams: 0,
                dsps: 0,
                urams: 0,
                ios: 1,
            },
        }
    }

    /// Short name used in reports.
    pub const fn short_name(self) -> &'static str {
        match self {
            SiteKind::Slice => "SLICE",
            SiteKind::Dsp48 => "DSP48",
            SiteKind::Ramb36 => "RAMB36",
            SiteKind::Uram288 => "URAM288",
            SiteKind::Iob => "IOB",
        }
    }
}

/// Logic capacity of a site (or an aggregate of sites).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteCapacity {
    pub luts: u32,
    pub ffs: u32,
    pub brams: u32,
    pub dsps: u32,
    pub urams: u32,
    pub ios: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_capacity_is_ultrascale_like() {
        let c = SiteKind::Slice.capacity();
        assert_eq!(c.luts, 8);
        assert_eq!(c.ffs, 16);
        assert_eq!(c.dsps, 0);
    }

    #[test]
    fn all_is_indexed_by_index() {
        for (i, kind) in SiteKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }

    #[test]
    fn hard_blocks_are_unit_capacity() {
        assert_eq!(SiteKind::Dsp48.capacity().dsps, 1);
        assert_eq!(SiteKind::Ramb36.capacity().brams, 1);
        assert_eq!(SiteKind::Uram288.capacity().urams, 1);
        assert_eq!(SiteKind::Iob.capacity().ios, 1);
    }
}
