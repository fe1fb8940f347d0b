//! Tile coordinates and distance helpers.

use serde::{Deserialize, Serialize};

/// A position on the device grid, addressed as (column, row).
///
/// Columns run left-to-right, rows bottom-to-top, matching the usual Xilinx
/// floorplan view. The grid is small enough that `u16` is always sufficient
/// and keeps coordinate-heavy structures compact (see the type-size advice in
/// the perf guides).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TileCoord {
    pub col: u16,
    pub row: u16,
}

impl TileCoord {
    /// Create a coordinate.
    pub const fn new(col: u16, row: u16) -> Self {
        Self { col, row }
    }

    /// Manhattan distance to `other`, in tiles.
    pub fn manhattan(&self, other: &TileCoord) -> u32 {
        self.col.abs_diff(other.col) as u32 + self.row.abs_diff(other.row) as u32
    }

    /// Translate by a signed offset, returning `None` on underflow/overflow.
    pub fn translated(&self, dcol: i32, drow: i32) -> Option<TileCoord> {
        let col = i32::from(self.col) + dcol;
        let row = i32::from(self.row) + drow;
        if (0..=i32::from(u16::MAX)).contains(&col) && (0..=i32::from(u16::MAX)).contains(&row) {
            Some(TileCoord::new(col as u16, row as u16))
        } else {
            None
        }
    }
}

impl std::fmt::Display for TileCoord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "X{}Y{}", self.col, self.row)
    }
}

/// Half-perimeter wire length of a set of coordinates (the standard HPWL
/// placement cost; Eq. 1 of the paper sums HPWL over component pairs).
pub fn hpwl(coords: &[TileCoord]) -> u32 {
    let mut it = coords.iter();
    let Some(first) = it.next() else { return 0 };
    let (mut cmin, mut cmax, mut rmin, mut rmax) = (first.col, first.col, first.row, first.row);
    for c in it {
        cmin = cmin.min(c.col);
        cmax = cmax.max(c.col);
        rmin = rmin.min(c.row);
        rmax = rmax.max(c.row);
    }
    u32::from(cmax - cmin) + u32::from(rmax - rmin)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_is_symmetric() {
        let a = TileCoord::new(3, 4);
        let b = TileCoord::new(7, 1);
        assert_eq!(a.manhattan(&b), 7);
        assert_eq!(b.manhattan(&a), 7);
    }

    #[test]
    fn translation_bounds() {
        let a = TileCoord::new(1, 1);
        assert_eq!(a.translated(-1, -1), Some(TileCoord::new(0, 0)));
        assert_eq!(a.translated(-2, 0), None);
        assert_eq!(a.translated(0, i32::from(u16::MAX)), None);
    }

    #[test]
    fn hpwl_basic() {
        assert_eq!(hpwl(&[]), 0);
        assert_eq!(hpwl(&[TileCoord::new(5, 5)]), 0);
        let pts = [
            TileCoord::new(0, 0),
            TileCoord::new(4, 2),
            TileCoord::new(2, 7),
        ];
        assert_eq!(hpwl(&pts), 4 + 7);
    }

    #[test]
    fn display_matches_xilinx_style() {
        assert_eq!(TileCoord::new(12, 240).to_string(), "X12Y240");
    }
}
