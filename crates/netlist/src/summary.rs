//! A module's shared net storage and the facts derived from it.
//!
//! A checkpoint's nets are shared by every instance placed from it
//! ([`crate::Module::translated`]), so what the readers of its nets need
//! from them is computed once per storage, on first read, and shared too:
//!
//! * the route summary — the extent of the stored tiles, the per-tile
//!   route count, the unrouted nets and the stored wirelength — in the
//!   stored frame; [`crate::walk`] applies an instance's route offset when
//!   it hands the summary out;
//! * the connections: the (driver, sink) endpoint pairs of the non-clock
//!   nets, which the timing graph maps to its edges;
//! * for a locked module only, the module judge's verdict: whether
//!   [`crate::Module::defects`] is empty.
//!
//! All of it is derived state: it is never serialized, takes no part in
//! equality, and every write to the nets resets it (the module's one write
//! helper, `Module::nets_write`).

use crate::net::{occupied_tiles, Endpoint, Net};
use pi_fabric::TileCoord;
use serde::{Content, DeError, Deserialize, Serialize};
use std::ops::Deref;
use std::sync::OnceLock;

/// Largest per-tile count window kept, in tiles. Any device is far
/// smaller, so only a corrupt route spans an extent this large; its
/// summary keeps no window and its readers walk the tiles instead.
const MAX_WINDOW_TILES: usize = 1 << 24;

/// A module's nets plus what is lazily derived from them.
#[derive(Clone, Default)]
pub(crate) struct NetStore {
    nets: Vec<Net>,
    derived: Derived,
}

/// Each fact is built on its first read; a write to the nets drops all
/// of them at once.
#[derive(Clone, Default)]
struct Derived {
    summary: OnceLock<RouteSummary>,
    connections: OnceLock<Vec<(Endpoint, Endpoint)>>,
    clean: OnceLock<bool>,
}

impl NetStore {
    /// The nets for writing. Everything derived is dropped first, so the
    /// next read rebuilds it from what the writer left.
    pub(crate) fn write(&mut self) -> &mut Vec<Net> {
        self.derived = Derived::default();
        &mut self.nets
    }

    /// The summary of the stored routes, built on first read.
    pub(crate) fn summary(&self) -> &RouteSummary {
        self.derived
            .summary
            .get_or_init(|| RouteSummary::build(&self.nets))
    }

    /// The (driver, sink) pairs of every non-clock net, in net order and
    /// then sink order; built on first read.
    pub(crate) fn connections(&self) -> &[(Endpoint, Endpoint)] {
        self.derived.connections.get_or_init(|| {
            let nets = self.nets.iter().filter(|n| !n.is_clock);
            let pairs = nets.flat_map(|n| n.sinks.iter().map(|&sink| (n.source, sink)));
            pairs.collect()
        })
    }

    /// Whether the module judge found the module clean, once it has been
    /// asked. The storage cannot tell what the judge reads beyond the
    /// nets, so only a locked module, whose cells and ports are frozen
    /// alongside, keeps its verdict here (`Module::locked_verdict`).
    pub(crate) fn clean(&self) -> &OnceLock<bool> {
        &self.derived.clean
    }
}

impl Deref for NetStore {
    type Target = [Net];

    fn deref(&self) -> &[Net] {
        &self.nets
    }
}

impl PartialEq for NetStore {
    fn eq(&self, other: &NetStore) -> bool {
        self.nets == other.nets
    }
}

impl std::fmt::Debug for NetStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.nets.fmt(f)
    }
}

impl Serialize for NetStore {
    fn to_content(&self) -> Content {
        self.nets.to_content()
    }
}

impl Deserialize for NetStore {
    fn from_content(c: &Content) -> Result<NetStore, DeError> {
        let nets = Vec::<Net>::from_content(c)?;
        Ok(NetStore {
            nets,
            derived: Derived::default(),
        })
    }
}

/// What the readers of stored routes need, in the stored frame.
#[derive(Clone, Debug)]
pub(crate) struct RouteSummary {
    /// (lowest col, lowest row) and (highest col, highest row) over every
    /// stored route tile, clock routes included; `None` when no net
    /// stores a tile.
    pub(crate) extent: Option<(TileCoord, TileCoord)>,
    /// How many non-clock stored routes occupy each tile of the extent,
    /// column-major (`(col - lo.col) * height + (row - lo.row)`); `None`
    /// when the extent exceeds [`MAX_WINDOW_TILES`].
    pub(crate) counts: Option<Vec<u16>>,
    /// Indices of the unrouted non-clock nets, ascending.
    pub(crate) unrouted: Vec<u32>,
    /// Summed tile count of the non-clock stored routes; a shift moves
    /// no tile in or out, so it is frame-free.
    pub(crate) wirelength: u64,
}

impl RouteSummary {
    fn build(nets: &[Net]) -> RouteSummary {
        let routes = nets.iter().filter_map(|n| n.route.as_ref());
        let mut tiles = routes.flat_map(|r| r.tiles.iter());
        let extent = tiles.next().map(|&first| {
            tiles.fold((first, first), |(lo, hi), t| {
                (
                    TileCoord::new(lo.col.min(t.col), lo.row.min(t.row)),
                    TileCoord::new(hi.col.max(t.col), hi.row.max(t.row)),
                )
            })
        });
        let counts = extent.and_then(|(lo, hi)| {
            let height = usize::from(hi.row - lo.row) + 1;
            let area = (usize::from(hi.col - lo.col) + 1) * height;
            (area <= MAX_WINDOW_TILES).then(|| {
                let mut counts = vec![0u16; area];
                let stored = nets.iter().filter(|n| !n.is_clock);
                for r in stored.filter_map(|n| n.route.as_ref()) {
                    for t in occupied_tiles(&r.tiles) {
                        let i = usize::from(t.col - lo.col) * height + usize::from(t.row - lo.row);
                        counts[i] += 1;
                    }
                }
                counts
            })
        });
        let (mut unrouted, mut wirelength) = (Vec::new(), 0);
        for (i, n) in nets.iter().enumerate().filter(|(_, n)| !n.is_clock) {
            match &n.route {
                Some(r) => wirelength += r.tiles.len() as u64,
                None => unrouted.push(i as u32),
            }
        }
        RouteSummary {
            extent,
            counts,
            unrouted,
            wirelength,
        }
    }
}
