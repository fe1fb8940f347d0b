//! Pblocks: rectangular floorplan constraints.

use crate::coords::TileCoord;
use crate::device::Device;
use crate::FabricError;
use serde::{Deserialize, Serialize};

/// An inclusive rectangle of tiles used to constrain where a module may be
/// placed. The paper pre-implements every component inside a tight pblock so
/// it uses the minimum resources and stays relocatable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Pblock {
    pub col_lo: u16,
    pub col_hi: u16,
    pub row_lo: u16,
    pub row_hi: u16,
}

impl Pblock {
    pub const fn new(col_lo: u16, col_hi: u16, row_lo: u16, row_hi: u16) -> Self {
        Pblock {
            col_lo,
            col_hi,
            row_lo,
            row_hi,
        }
    }

    /// Width in columns.
    pub const fn width(&self) -> u16 {
        self.col_hi - self.col_lo + 1
    }

    /// Height in rows.
    pub const fn height(&self) -> u16 {
        self.row_hi - self.row_lo + 1
    }

    /// Area in tiles.
    pub fn area(&self) -> u32 {
        u32::from(self.width()) * u32::from(self.height())
    }

    /// Geometric center (rounded down).
    pub fn center(&self) -> TileCoord {
        TileCoord::new(
            self.col_lo + self.width() / 2,
            self.row_lo + self.height() / 2,
        )
    }

    /// True when the coordinate lies inside the rectangle.
    pub fn contains(&self, coord: TileCoord) -> bool {
        (self.col_lo..=self.col_hi).contains(&coord.col)
            && (self.row_lo..=self.row_hi).contains(&coord.row)
    }

    /// True when the coordinate lies on the rectangle's boundary ring —
    /// where a component's partition pins must sit for relocation and
    /// stitching to be legal.
    pub fn on_ring(&self, coord: TileCoord) -> bool {
        self.contains(coord)
            && (coord.col == self.col_lo
                || coord.col == self.col_hi
                || coord.row == self.row_lo
                || coord.row == self.row_hi)
    }

    /// True when the two rectangles share at least one tile.
    pub fn overlaps(&self, other: &Pblock) -> bool {
        self.col_lo <= other.col_hi
            && other.col_lo <= self.col_hi
            && self.row_lo <= other.row_hi
            && other.row_lo <= self.row_hi
    }

    /// Number of tiles in the intersection of the two rectangles.
    pub fn overlap_area(&self, other: &Pblock) -> u32 {
        if !self.overlaps(other) {
            return 0;
        }
        let w = u32::from(self.col_hi.min(other.col_hi) - self.col_lo.max(other.col_lo) + 1);
        let h = u32::from(self.row_hi.min(other.row_hi) - self.row_lo.max(other.row_lo) + 1);
        w * h
    }

    /// The pblock translated by (dcol, drow); `None` when it would leave the
    /// u16 coordinate space.
    pub fn translated(&self, dcol: i32, drow: i32) -> Option<Pblock> {
        let lo = TileCoord::new(self.col_lo, self.row_lo).translated(dcol, drow)?;
        let hi = TileCoord::new(self.col_hi, self.row_hi).translated(dcol, drow)?;
        Some(Pblock::new(lo.col, hi.col, lo.row, hi.row))
    }

    /// Check the rectangle is well-formed and inside the device grid.
    pub fn validate(&self, device: &Device) -> Result<(), FabricError> {
        if self.col_lo > self.col_hi || self.row_lo > self.row_hi {
            return Err(FabricError::BadPblock(format!(
                "degenerate rectangle cols {}..={} rows {}..={}",
                self.col_lo, self.col_hi, self.row_lo, self.row_hi
            )));
        }
        if self.col_hi >= device.cols() || self.row_hi >= device.rows() {
            return Err(FabricError::BadPblock(format!(
                "rectangle cols {}..={} rows {}..={} exceeds {}x{} grid",
                self.col_lo,
                self.col_hi,
                self.row_lo,
                self.row_hi,
                device.cols(),
                device.rows()
            )));
        }
        Ok(())
    }

    /// Iterate all tile coordinates inside the rectangle (column-major).
    pub fn tiles(&self) -> impl Iterator<Item = TileCoord> + '_ {
        (self.col_lo..=self.col_hi)
            .flat_map(move |c| (self.row_lo..=self.row_hi).map(move |r| TileCoord::new(c, r)))
    }
}

impl std::fmt::Display for Pblock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SLICE_X{}Y{}:SLICE_X{}Y{}",
            self.col_lo, self.row_lo, self.col_hi, self.row_hi
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let pb = Pblock::new(2, 5, 10, 19);
        assert_eq!(pb.width(), 4);
        assert_eq!(pb.height(), 10);
        assert_eq!(pb.area(), 40);
        assert_eq!(pb.center(), TileCoord::new(4, 15));
        assert!(pb.contains(TileCoord::new(2, 10)));
        assert!(pb.contains(TileCoord::new(5, 19)));
        assert!(!pb.contains(TileCoord::new(6, 19)));
    }

    #[test]
    fn boundary_ring() {
        let pb = Pblock::new(2, 5, 10, 19);
        for corner in [(2, 10), (5, 10), (2, 19), (5, 19)] {
            assert!(pb.on_ring(TileCoord::new(corner.0, corner.1)));
        }
        assert!(pb.on_ring(TileCoord::new(2, 14)), "edge tile");
        assert!(!pb.on_ring(TileCoord::new(3, 14)), "interior tile");
        assert!(
            !pb.on_ring(TileCoord::new(2, 20)),
            "outside, on an edge line"
        );
        // Every tile of a 1-wide pblock is on its ring.
        let sliver = Pblock::new(7, 7, 0, 3);
        assert!((0..=3).all(|row| sliver.on_ring(TileCoord::new(7, row))));
    }

    #[test]
    fn overlap() {
        let a = Pblock::new(0, 4, 0, 4);
        let b = Pblock::new(4, 8, 4, 8);
        let c = Pblock::new(5, 8, 5, 8);
        assert!(a.overlaps(&b));
        assert_eq!(a.overlap_area(&b), 1);
        assert!(!a.overlaps(&c));
        assert_eq!(a.overlap_area(&c), 0);
        assert_eq!(a.overlap_area(&a), 25);
    }

    #[test]
    fn translation() {
        let pb = Pblock::new(1, 3, 1, 3);
        assert_eq!(pb.translated(2, -1), Some(Pblock::new(3, 5, 0, 2)));
        assert_eq!(pb.translated(-2, 0), None);
    }

    #[test]
    fn validation_against_device() {
        let d = crate::Device::test_part();
        assert!(Pblock::new(0, 5, 0, 5).validate(&d).is_ok());
        assert!(Pblock::new(5, 4, 0, 5).validate(&d).is_err());
        assert!(Pblock::new(0, d.cols(), 0, 5).validate(&d).is_err());
        assert!(Pblock::new(0, 5, 0, d.rows()).validate(&d).is_err());
    }

    #[test]
    fn tile_iteration_covers_area() {
        let pb = Pblock::new(1, 2, 3, 5);
        let tiles: Vec<_> = pb.tiles().collect();
        assert_eq!(tiles.len() as u32, pb.area());
        assert!(tiles.iter().all(|t| pb.contains(*t)));
    }
}
