//! Module boundary ports and partition pins.

use pi_fabric::TileCoord;
use serde::{Deserialize, Serialize};

/// Index of a port within its [`crate::Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PortId(pub u32);

impl PortId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Port direction, seen from inside the module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    Input,
    Output,
}

/// The streaming-interface role a port plays in the paper's component
/// contract: every pre-implemented component exposes a *source* interface
/// (memory controller feeding its compute units) and a *sink* interface
/// (writing feature maps back), plus clock/control.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StreamRole {
    /// Data into the component (paper: "source" side).
    Source,
    /// Data out of the component (paper: "sink" side).
    Sink,
    /// Clock input. Routed via clock resources, not general fabric.
    Clock,
    /// Handshake/control (FIFO valid/ready, enables).
    Control,
}

/// A boundary port of a module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Port {
    pub name: String,
    pub dir: Direction,
    pub role: StreamRole,
    /// Bus width in bits. Widths only affect congestion estimation — the
    /// netlist carries one logical net per bus.
    pub width: u16,
    /// Partition pin: the module-local interconnect tile the boundary net is
    /// committed to. Planning these is the paper's "strategic port planning"
    /// step; `None` models the un-planned case (ports land wherever the
    /// pblock put them).
    pub partpin: Option<TileCoord>,
}

impl Port {
    pub fn new(name: impl Into<String>, dir: Direction, role: StreamRole, width: u16) -> Self {
        Port {
            name: name.into(),
            dir,
            role,
            width,
            partpin: None,
        }
    }

    /// Builder-style: commit the port to an interconnect tile.
    pub fn at(mut self, partpin: TileCoord) -> Self {
        self.partpin = Some(partpin);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_construction() {
        let p = Port::new("din", Direction::Input, StreamRole::Source, 16).at(TileCoord::new(0, 4));
        assert_eq!(p.width, 16);
        assert_eq!(p.partpin, Some(TileCoord::new(0, 4)));
        assert_eq!(p.dir, Direction::Input);
    }
}
