//! Device grid, catalog and geometry queries.

use crate::coords::TileCoord;
use crate::pblock::Pblock;
use crate::resources::ResourceCount;
use crate::site::SiteKind;
use crate::tile::TileKind;
use crate::FabricError;
use serde::{Deserialize, Serialize};

/// Extra wire delay (in tile units) paid for crossing an I/O column.
pub const IO_CROSSING_PENALTY: f64 = 3.0;
/// Extra wire delay (in tile units) paid for crossing a structural gap.
pub const GAP_CROSSING_PENALTY: f64 = 1.0;

/// An FPGA device: a grid of tiles where every column has a single tile kind
/// (the columnar organization of UltraScale parts).
///
/// Tiles are not stored individually — the per-column kind plus the row count
/// fully determines the grid, which keeps the model compact and O(1) to query.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Device {
    name: String,
    columns: Vec<TileKind>,
    rows: u16,
    /// Rows per clock region (horizontal band).
    clock_region_rows: u16,
    /// Routing wires per tile (see [`Device::route_capacity`]).
    route_capacity: u16,
    totals: ResourceCount,
}

/// Routing wires per tile on every catalog part: sized so a chip-filling
/// monolithic design (~26 average occupancy) negotiates to legality with
/// headroom.
const ROUTE_CAPACITY: u16 = 64;

impl Device {
    /// Number of columns in the grid.
    pub fn cols(&self) -> u16 {
        self.columns.len() as u16
    }

    /// Number of rows in the grid.
    pub fn rows(&self) -> u16 {
        self.rows
    }

    /// Device name as it appears in reports.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rows per clock region.
    pub fn clock_region_rows(&self) -> u16 {
        self.clock_region_rows
    }

    /// Routing wires each tile offers: the one capacity the router
    /// negotiates against, the timing model's congestion term divides by
    /// and the DRC judges a routed design with.
    pub fn route_capacity(&self) -> u16 {
        self.route_capacity
    }

    /// This part with `capacity` routing wires per tile, under its own
    /// `name`: cache keys hash the device name, so a variant must not
    /// share its parent's.
    pub fn with_route_capacity(mut self, name: &str, capacity: u16) -> Device {
        self.name = name.to_string();
        self.route_capacity = capacity;
        self
    }

    /// Clock region index a coordinate falls in.
    pub fn clock_region_of(&self, coord: TileCoord) -> u16 {
        coord.row / self.clock_region_rows
    }

    /// Tile kind of a column.
    pub fn column_kind(&self, col: u16) -> Option<TileKind> {
        self.columns.get(col as usize).copied()
    }

    /// Tile kind at a coordinate, or an error when out of bounds.
    pub fn tile_kind(&self, coord: TileCoord) -> Result<TileKind, FabricError> {
        if coord.row >= self.rows {
            return Err(FabricError::OutOfBounds {
                col: coord.col,
                row: coord.row,
            });
        }
        self.column_kind(coord.col).ok_or(FabricError::OutOfBounds {
            col: coord.col,
            row: coord.row,
        })
    }

    /// Site kind at a coordinate, `None` when the tile has no site.
    pub fn site_at(&self, coord: TileCoord) -> Result<Option<SiteKind>, FabricError> {
        Ok(self.tile_kind(coord)?.site())
    }

    /// True when the coordinate is within the grid.
    pub fn in_bounds(&self, coord: TileCoord) -> bool {
        coord.row < self.rows && (coord.col as usize) < self.columns.len()
    }

    /// Total resources of the whole device.
    pub fn totals(&self) -> ResourceCount {
        self.totals
    }

    /// Number of discontinuity columns (I/O or gap) strictly between two
    /// column indices.
    pub fn discontinuities_between(&self, c1: u16, c2: u16) -> (u32, u32) {
        let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        let mut ios = 0;
        let mut gaps = 0;
        for col in (lo + 1)..hi {
            match self.columns[col as usize] {
                TileKind::Io => ios += 1,
                TileKind::Gap => gaps += 1,
                _ => {}
            }
        }
        (ios, gaps)
    }

    /// Effective wiring distance between two coordinates, in tile units:
    /// Manhattan distance plus penalties for each fabric discontinuity the
    /// horizontal span crosses. This is the distance the delay model uses.
    pub fn wire_distance(&self, a: TileCoord, b: TileCoord) -> f64 {
        let (ios, gaps) = self.discontinuities_between(a.col, b.col);
        a.manhattan(&b) as f64
            + f64::from(ios) * IO_CROSSING_PENALTY
            + f64::from(gaps) * GAP_CROSSING_PENALTY
    }

    /// True when a column range can be relocated by `dcol` columns: every
    /// column in the range must land on a column of the identical kind.
    /// This is the relocation validity rule for pre-implemented modules.
    pub fn columns_compatible(&self, col_lo: u16, col_hi: u16, dcol: i32) -> bool {
        if col_lo > col_hi {
            return false;
        }
        for col in col_lo..=col_hi {
            let target = i32::from(col) + dcol;
            if target < 0 || target as usize >= self.columns.len() {
                return false;
            }
            if self.columns[col as usize] != self.columns[target as usize] {
                return false;
            }
        }
        true
    }

    /// All valid column offsets (excluding 0) a range can be relocated by.
    pub fn relocation_offsets(&self, col_lo: u16, col_hi: u16) -> Vec<i32> {
        let span = i32::from(self.cols());
        (-span..span)
            .filter(|&d| d != 0 && self.columns_compatible(col_lo, col_hi, d))
            .collect()
    }

    /// Resource capacity of a pblock on this device.
    pub fn pblock_capacity(&self, pb: &Pblock) -> Result<ResourceCount, FabricError> {
        pb.validate(self)?;
        let rows = u64::from(pb.row_hi - pb.row_lo + 1);
        let mut total = ResourceCount::ZERO;
        for col in pb.col_lo..=pb.col_hi {
            if let Some(site) = self.columns[col as usize].site() {
                total += ResourceCount::from_capacity(site.capacity(), rows);
            }
        }
        Ok(total)
    }

    /// All site coordinates of a given kind inside a pblock.
    pub fn sites_in<'a>(
        &'a self,
        pb: &Pblock,
        kind: SiteKind,
    ) -> impl Iterator<Item = TileCoord> + 'a {
        let (cl, ch, rl, rh) = (pb.col_lo, pb.col_hi, pb.row_lo, pb.row_hi);
        (cl..=ch)
            .filter(move |&c| self.columns.get(c as usize).and_then(|k| k.site()) == Some(kind))
            .flat_map(move |c| (rl..=rh).map(move |r| TileCoord::new(c, r)))
    }

    /// A pblock covering the full device.
    pub fn full_pblock(&self) -> Pblock {
        Pblock::new(0, self.cols() - 1, 0, self.rows - 1)
    }

    /// Look up a device by catalog name.
    pub fn catalog(name: &str) -> Result<Device, FabricError> {
        match name {
            "xcku5p-like" => Ok(Self::xcku5p_like()),
            "xcku060-like" => Ok(Self::xcku060_like()),
            "test-part" => Ok(Self::test_part()),
            other => Err(FabricError::UnknownDevice(other.to_string())),
        }
    }

    /// Kintex UltraScale+ evaluation part modeled after the paper's
    /// xcku5p-ffvd900. Capacity (~430k LUTs, 3840 DSP/BRAM) is sized so the
    /// paper's *absolute* Table II demands (283k LUTs, ~2100 DSPs for VGG)
    /// fit with enough headroom for the automated floorplanner to pack the
    /// rigid component pblocks — the paper hand-tuned its pblock shapes at
    /// higher fill. Utilization percentages therefore read lower than
    /// Table II's; EXPERIMENTS.md records both. Column groups are uniform —
    /// the columnar regularity relocation bets on ("Xilinx architectures
    /// generally replicate the resource structures over an entire column of
    /// clock regions").
    pub fn xcku5p_like() -> Device {
        DeviceBuilder::new("xcku5p-like", 448, 64)
            .io_column()
            .groups(4, GroupKind::Bram)
            .io_column()
            .groups(4, GroupKind::Bram)
            .io_column()
            .build()
    }

    /// Kintex UltraScale KU060-like part (Table IV platform): slightly
    /// smaller, 5 clock-region rows.
    pub fn xcku060_like() -> Device {
        DeviceBuilder::new("xcku060-like", 300, 60)
            .io_column()
            .groups(3, GroupKind::Bram)
            .io_column()
            .groups(3, GroupKind::Bram)
            .io_column()
            .build()
    }

    /// Tiny part for fast unit tests: 2 groups, 40 rows.
    pub fn test_part() -> Device {
        DeviceBuilder::new("test-part", 40, 20)
            .io_column()
            .groups(1, GroupKind::Bram)
            .io_column()
            .groups(1, GroupKind::Bram)
            .io_column()
            .build()
    }
}

/// Which hard-block column terminates a column group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupKind {
    /// 14 CLB columns + 1 DSP column + 1 BRAM column.
    Bram,
    /// 14 CLB columns + 1 DSP column + 1 URAM column.
    Uram,
}

/// Programmatic device construction. Groups model the repeated column
/// templates of UltraScale parts.
pub struct DeviceBuilder {
    name: String,
    rows: u16,
    clock_region_rows: u16,
    columns: Vec<TileKind>,
}

impl DeviceBuilder {
    pub fn new(name: &str, rows: u16, clock_region_rows: u16) -> Self {
        assert!(rows > 0 && clock_region_rows > 0);
        DeviceBuilder {
            name: name.to_string(),
            rows,
            clock_region_rows,
            columns: Vec::new(),
        }
    }

    /// Append a single I/O column (fabric discontinuity).
    pub fn io_column(mut self) -> Self {
        self.columns.push(TileKind::Io);
        self
    }

    /// Append `n` column groups of the given kind.
    pub fn groups(mut self, n: usize, kind: GroupKind) -> Self {
        for _ in 0..n {
            for _ in 0..7 {
                self.columns.push(TileKind::Clb);
            }
            self.columns.push(TileKind::Dsp);
            for _ in 0..7 {
                self.columns.push(TileKind::Clb);
            }
            self.columns.push(match kind {
                GroupKind::Bram => TileKind::Bram,
                GroupKind::Uram => TileKind::Uram,
            });
        }
        self
    }

    /// Append an explicit column.
    pub fn column(mut self, kind: TileKind) -> Self {
        self.columns.push(kind);
        self
    }

    pub fn build(self) -> Device {
        let rows = u64::from(self.rows);
        let totals = self
            .columns
            .iter()
            .filter_map(|k| k.site())
            .map(|s| ResourceCount::from_capacity(s.capacity(), rows))
            .sum();
        Device {
            name: self.name,
            columns: self.columns,
            rows: self.rows,
            clock_region_rows: self.clock_region_rows,
            route_capacity: ROUTE_CAPACITY,
            totals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xcku5p_totals_match_paper_implied_capacity() {
        let d = Device::xcku5p_like();
        let t = d.totals();
        // Sized to hold the paper's absolute VGG demand (~283k LUTs, ~2.1k
        // DSPs) plus floorplanning headroom.
        assert!(
            (380_000..460_000).contains(&t.luts),
            "LUT total {} out of calibration band",
            t.luts
        );
        assert_eq!(t.brams, 8 * 448);
        assert_eq!(t.dsps, 8 * 448);
        assert_eq!(t.ffs, t.luts * 2);
    }

    #[test]
    fn tile_kind_lookup_and_bounds() {
        let d = Device::test_part();
        assert_eq!(d.column_kind(0), Some(TileKind::Io));
        assert!(d.tile_kind(TileCoord::new(0, d.rows())).is_err());
        assert!(d.tile_kind(TileCoord::new(d.cols(), 0)).is_err());
        assert!(d.in_bounds(TileCoord::new(1, 1)));
    }

    #[test]
    fn clock_region_of_bands_rows() {
        let d = Device::xcku5p_like();
        assert_eq!(d.clock_region_of(TileCoord::new(0, 0)), 0);
        assert_eq!(d.clock_region_of(TileCoord::new(0, 447)), 6);
    }

    #[test]
    fn wire_distance_pays_for_io_crossings() {
        let d = Device::test_part();
        // Columns 0, 17 and 34 are I/O in the test part.
        let a = TileCoord::new(1, 0);
        let b = TileCoord::new(16, 0);
        let c = TileCoord::new(20, 0);
        assert_eq!(d.wire_distance(a, b), 15.0); // same side, no crossing
        assert!(d.wire_distance(a, c) > a.manhattan(&c) as f64);
    }

    #[test]
    fn relocation_respects_column_pattern() {
        let d = Device::test_part();
        // Group width is 16 columns; one full group shift must be compatible
        // for a range inside the first group.
        assert!(d.columns_compatible(1, 8, 17)); // 16-col group + 1 io column
        assert!(!d.columns_compatible(1, 8, 1)); // misaligns DSP column
        assert!(!d.columns_compatible(1, 8, 10_000));
        let offs = d.relocation_offsets(1, 8);
        assert!(offs.contains(&17));
        assert!(!offs.contains(&0));
    }

    #[test]
    fn pblock_capacity_counts_columns() {
        let d = Device::test_part();
        // Columns 1..=8 of the test part: 7 CLB + 1 DSP.
        let pb = Pblock::new(1, 8, 0, 9);
        let cap = d.pblock_capacity(&pb).unwrap();
        assert_eq!(cap.luts, 7 * 10 * 8);
        assert_eq!(cap.dsps, 10);
        assert_eq!(cap.brams, 0);
    }

    #[test]
    fn sites_in_filters_by_kind() {
        let d = Device::test_part();
        let pb = Pblock::new(1, 16, 0, 3);
        let slices: Vec<_> = d.sites_in(&pb, SiteKind::Slice).collect();
        assert_eq!(slices.len(), 14 * 4);
        let brams: Vec<_> = d.sites_in(&pb, SiteKind::Ramb36).collect();
        assert_eq!(brams.len(), 4);
    }

    #[test]
    fn catalog_round_trip() {
        assert!(Device::catalog("xcku5p-like").is_ok());
        assert!(Device::catalog("nonsense").is_err());
    }

    #[test]
    fn a_capacity_variant_carries_its_own_name() {
        for name in ["xcku5p-like", "xcku060-like", "test-part"] {
            assert_eq!(Device::catalog(name).unwrap().route_capacity(), 64);
        }
        let v = Device::test_part().with_route_capacity("test-part-cap4", 4);
        assert_eq!((v.name(), v.route_capacity()), ("test-part-cap4", 4));
        assert_eq!(v.cols(), Device::test_part().cols());
    }
}
