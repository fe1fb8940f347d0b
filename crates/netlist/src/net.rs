//! Nets: point-to-multipoint connections between cells and ports.

use crate::cell::CellId;
use crate::port::PortId;
use pi_fabric::TileCoord;
use serde::{Deserialize, Serialize};

/// Index of a net within its [`crate::Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NetId(pub u32);

impl NetId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One endpoint of a net: either an internal cell or a boundary port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Endpoint {
    Cell(CellId),
    Port(PortId),
}

/// A committed routing path: the sequence of tiles the net's wires occupy.
/// Produced by the router; preserved verbatim for locked modules.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Route {
    pub tiles: Vec<TileCoord>,
}

impl Route {
    /// Wirelength in tiles.
    pub fn length(&self) -> usize {
        self.tiles.len().saturating_sub(1)
    }
}

/// A net of the module netlist.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Net {
    pub name: String,
    pub source: Endpoint,
    pub sinks: Vec<Endpoint>,
    /// Bus width in bits (affects congestion demand).
    pub width: u16,
    /// Committed route; `None` means unrouted. In an assembled design only
    /// the inter-component nets are unrouted — the property that makes the
    /// final routing step cheap.
    pub route: Option<Route>,
    /// Locked routes survive re-implementation untouched.
    pub locked: bool,
    /// Clock nets use dedicated clock routing and are excluded from the
    /// general congestion map.
    pub is_clock: bool,
}

impl Net {
    pub fn new(name: impl Into<String>, source: Endpoint, sinks: Vec<Endpoint>) -> Self {
        Net {
            name: name.into(),
            source,
            sinks,
            width: 1,
            route: None,
            locked: false,
            is_clock: false,
        }
    }

    /// Builder-style: mark as clock net.
    pub fn clock(mut self) -> Self {
        self.is_clock = true;
        self
    }

    /// Every endpoint, source first.
    pub fn endpoints(&self) -> impl Iterator<Item = Endpoint> + '_ {
        std::iter::once(self.source).chain(self.sinks.iter().copied())
    }

    /// Number of endpoints.
    pub fn degree(&self) -> usize {
        1 + self.sinks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_iteration() {
        let n = Net::new(
            "n0",
            Endpoint::Cell(CellId(0)),
            vec![Endpoint::Cell(CellId(1)), Endpoint::Port(PortId(0))],
        );
        let eps: Vec<_> = n.endpoints().collect();
        assert_eq!(eps.len(), 3);
        assert_eq!(eps[0], Endpoint::Cell(CellId(0)));
        assert_eq!(n.degree(), 3);
    }

    #[test]
    fn route_length() {
        let r = Route {
            tiles: vec![
                TileCoord::new(0, 0),
                TileCoord::new(1, 0),
                TileCoord::new(1, 1),
            ],
        };
        assert_eq!(r.length(), 2);
        assert_eq!(Route::default().length(), 0);
    }
}
