//! Modules: self-contained netlists with boundary ports.
//!
//! A module's cells, nets and ports live behind `Arc`s and are written
//! copy-on-write (`Arc::make_mut`). Cloning a module therefore bumps three
//! reference counts instead of copying its netlist, which is what makes a
//! locked, read-only checkpoint cheap to hand out many times; the first
//! write to a shared clone copies only the vector it touches.

use crate::cell::{Cell, CellId};
use crate::net::{Endpoint, Net, NetId};
use crate::port::{Direction, Port, PortId, StreamRole};
use crate::NetlistError;
use pi_fabric::{Pblock, ResourceCount, TileCoord};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A netlist module: the unit of synthesis, OOC implementation, checkpointing
/// and reuse.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Module {
    pub name: String,
    cells: Arc<Vec<Cell>>,
    nets: Arc<Vec<Net>>,
    ports: Arc<Vec<Port>>,
    /// True once the module's placement and routing are frozen (the paper's
    /// logic-locking step). Locked modules reject further mutation.
    pub locked: bool,
    /// The module-local pblock it was implemented in, if any.
    pub pblock: Option<Pblock>,
    /// Models the HD.CLK_SRC constraint: the clock is partially routed to
    /// the interconnect tiles so OOC timing analysis is meaningful.
    pub clock_prerouted: bool,
}

impl Module {
    /// All cells, indexable by [`CellId`].
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// All nets, indexable by [`NetId`].
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// All boundary ports, indexable by [`PortId`].
    pub fn ports(&self) -> &[Port] {
        &self.ports
    }

    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    pub fn port(&self, id: PortId) -> &Port {
        &self.ports[id.index()]
    }

    /// Ports with the given stream role.
    pub fn ports_with_role(&self, role: StreamRole) -> impl Iterator<Item = (PortId, &Port)> {
        self.ports
            .iter()
            .enumerate()
            .filter(move |(_, p)| p.role == role)
            .map(|(i, p)| (PortId(i as u32), p))
    }

    /// Find a port by name.
    pub fn port_by_name(&self, name: &str) -> Option<(PortId, &Port)> {
        self.ports
            .iter()
            .enumerate()
            .find(|(_, p)| p.name == name)
            .map(|(i, p)| (PortId(i as u32), p))
    }

    /// Total logic resources of the module.
    pub fn resources(&self) -> ResourceCount {
        self.cells.iter().map(|c| c.kind.resources()).sum()
    }

    /// True when every cell has a placement.
    pub fn fully_placed(&self) -> bool {
        self.cells.iter().all(|c| c.placement.is_some())
    }

    /// True when every non-clock net has a route.
    pub fn fully_routed(&self) -> bool {
        self.nets.iter().all(|n| n.is_clock || n.route.is_some())
    }

    /// Set a cell placement. Fails on locked modules or fixed cells.
    pub fn set_placement(&mut self, id: CellId, at: TileCoord) -> Result<(), NetlistError> {
        if self.locked {
            return Err(NetlistError::Locked(self.name.clone()));
        }
        let cell = &self.cells[id.index()];
        if cell.fixed {
            return Err(NetlistError::Locked(format!(
                "{}: cell {} is fixed",
                self.name, cell.name
            )));
        }
        Arc::make_mut(&mut self.cells)[id.index()].placement = Some(at);
        Ok(())
    }

    /// Mutable access for the implementation tools. Fails when locked.
    pub fn cells_mut(&mut self) -> Result<&mut [Cell], NetlistError> {
        if self.locked {
            return Err(NetlistError::Locked(self.name.clone()));
        }
        Ok(Arc::make_mut(&mut self.cells).as_mut_slice())
    }

    /// Mutable net access for the router. Fails when locked.
    pub fn nets_mut(&mut self) -> Result<&mut [Net], NetlistError> {
        if self.locked {
            return Err(NetlistError::Locked(self.name.clone()));
        }
        Ok(Arc::make_mut(&mut self.nets).as_mut_slice())
    }

    /// Mutable port access (for partition-pin planning). Fails when locked.
    pub fn ports_mut(&mut self) -> Result<&mut [Port], NetlistError> {
        if self.locked {
            return Err(NetlistError::Locked(self.name.clone()));
        }
        Ok(Arc::make_mut(&mut self.ports).as_mut_slice())
    }

    /// Freeze placement and routing: cells become fixed, nets locked, module
    /// rejects mutation. This is the paper's logic-locking step — the final
    /// inter-module routing will then only consider non-routed nets.
    pub fn lock(&mut self) {
        for c in Arc::make_mut(&mut self.cells) {
            c.fixed = true;
        }
        for n in Arc::make_mut(&mut self.nets) {
            if n.route.is_some() {
                n.locked = true;
            }
        }
        self.locked = true;
    }

    /// A copy translated by (dcol, drow): placements, routes, partition pins
    /// and the pblock all shift together. Works on locked modules — this is
    /// exactly what relocation of a pre-implemented component does. Returns
    /// `None` if any coordinate would leave the grid's coordinate space.
    pub fn translated(&self, dcol: i32, drow: i32) -> Option<Module> {
        let mut m = self.clone();
        for c in Arc::make_mut(&mut m.cells) {
            if let Some(p) = c.placement {
                c.placement = Some(p.translated(dcol, drow)?);
            }
        }
        for n in Arc::make_mut(&mut m.nets) {
            if let Some(r) = &mut n.route {
                for t in &mut r.tiles {
                    *t = t.translated(dcol, drow)?;
                }
            }
        }
        for p in Arc::make_mut(&mut m.ports) {
            if let Some(pp) = p.partpin {
                p.partpin = Some(pp.translated(dcol, drow)?);
            }
        }
        if let Some(pb) = m.pblock {
            m.pblock = Some(pb.translated(dcol, drow)?);
        }
        Some(m)
    }

    /// Sum of placed-endpoint HPWL over all non-clock nets — the classic
    /// wirelength figure of merit.
    pub fn wirelength(&self) -> u64 {
        crate::walk::NetView::from(self)
            .nets()
            .map(|n| u64::from(pi_fabric::coords::hpwl(&n.terminals())))
            .sum()
    }

    /// The physical coordinate of an endpoint: cell placement or port
    /// partition pin.
    pub fn endpoint_coord(&self, e: Endpoint) -> Option<TileCoord> {
        match e {
            Endpoint::Cell(c) => self.cells[c.index()].placement,
            Endpoint::Port(p) => self.ports[p.index()].partpin,
        }
    }

    /// Structural validation: all endpoints resolve, sources drive, sinks
    /// receive.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for net in self.nets.iter() {
            if net.sinks.is_empty() {
                return Err(NetlistError::BadNet(format!(
                    "{}: net {} has no sinks",
                    self.name, net.name
                )));
            }
            for e in net.endpoints() {
                match e {
                    Endpoint::Cell(c) if c.index() >= self.cells.len() => {
                        return Err(NetlistError::DanglingRef(format!(
                            "{}: net {} references missing cell {}",
                            self.name,
                            net.name,
                            c.index()
                        )))
                    }
                    Endpoint::Port(p) if p.index() >= self.ports.len() => {
                        return Err(NetlistError::DanglingRef(format!(
                            "{}: net {} references missing port {}",
                            self.name,
                            net.name,
                            p.index()
                        )))
                    }
                    _ => {}
                }
            }
            if let Endpoint::Port(p) = net.source {
                if self.ports[p.index()].dir == Direction::Output {
                    return Err(NetlistError::BadNet(format!(
                        "{}: net {} sourced by output port {}",
                        self.name,
                        net.name,
                        self.ports[p.index()].name
                    )));
                }
            }
            for s in &net.sinks {
                if let Endpoint::Port(p) = s {
                    if self.ports[p.index()].dir == Direction::Input {
                        return Err(NetlistError::BadNet(format!(
                            "{}: net {} sinks into input port {}",
                            self.name,
                            net.name,
                            self.ports[p.index()].name
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Incremental module construction used by the synthesis generators.
#[derive(Debug)]
pub struct ModuleBuilder {
    module: Module,
}

impl ModuleBuilder {
    pub fn new(name: impl Into<String>) -> Self {
        ModuleBuilder {
            module: Module {
                name: name.into(),
                cells: Arc::default(),
                nets: Arc::default(),
                ports: Arc::default(),
                locked: false,
                pblock: None,
                clock_prerouted: false,
            },
        }
    }

    /// Add a cell, returning its id.
    pub fn cell(&mut self, cell: Cell) -> CellId {
        let id = CellId(self.module.cells.len() as u32);
        Arc::make_mut(&mut self.module.cells).push(cell);
        id
    }

    /// Add an input port.
    pub fn input(&mut self, name: impl Into<String>, role: StreamRole, width: u16) -> PortId {
        self.port(Port::new(name, Direction::Input, role, width))
    }

    /// Add an output port.
    pub fn output(&mut self, name: impl Into<String>, role: StreamRole, width: u16) -> PortId {
        self.port(Port::new(name, Direction::Output, role, width))
    }

    /// Add a fully specified port.
    pub fn port(&mut self, port: Port) -> PortId {
        let id = PortId(self.module.ports.len() as u32);
        Arc::make_mut(&mut self.module.ports).push(port);
        id
    }

    /// Connect a source endpoint to sinks.
    pub fn connect(
        &mut self,
        name: impl Into<String>,
        source: Endpoint,
        sinks: impl IntoIterator<Item = Endpoint>,
    ) -> NetId {
        self.net(Net::new(name, source, sinks.into_iter().collect()))
    }

    /// Add a fully specified net.
    pub fn net(&mut self, net: Net) -> NetId {
        let id = NetId(self.module.nets.len() as u32);
        Arc::make_mut(&mut self.module.nets).push(net);
        id
    }

    /// Number of cells added so far.
    pub fn cell_count(&self) -> usize {
        self.module.cells.len()
    }

    /// Resources of everything added so far — used by the monolithic
    /// synthesis overhead model, which sizes itself from the base design.
    pub fn resources_so_far(&self) -> ResourceCount {
        self.module.resources()
    }

    /// Validate and return the module.
    pub fn finish(self) -> Result<Module, NetlistError> {
        self.module.validate()?;
        Ok(self.module)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;

    fn two_cell_module() -> Module {
        let mut b = ModuleBuilder::new("m");
        let din = b.input("din", StreamRole::Source, 8);
        let dout = b.output("dout", StreamRole::Sink, 8);
        let c0 = b.cell(Cell::new("c0", CellKind::full_slice()));
        let c1 = b.cell(Cell::new("c1", CellKind::Dsp));
        b.connect("n_in", Endpoint::Port(din), [Endpoint::Cell(c0)]);
        b.connect("n_mid", Endpoint::Cell(c0), [Endpoint::Cell(c1)]);
        b.connect("n_out", Endpoint::Cell(c1), [Endpoint::Port(dout)]);
        b.finish().unwrap()
    }

    #[test]
    fn build_and_validate() {
        let m = two_cell_module();
        assert_eq!(m.cells().len(), 2);
        assert_eq!(m.nets().len(), 3);
        let r = m.resources();
        assert_eq!(r.luts, 8);
        assert_eq!(r.dsps, 1);
        assert!(!m.fully_placed());
    }

    #[test]
    fn validation_rejects_bad_nets() {
        let mut b = ModuleBuilder::new("bad");
        let dout = b.output("dout", StreamRole::Sink, 1);
        let c0 = b.cell(Cell::new("c0", CellKind::full_slice()));
        // Output port used as a source is illegal.
        b.connect("n", Endpoint::Port(dout), [Endpoint::Cell(c0)]);
        assert!(b.finish().is_err());

        let mut b = ModuleBuilder::new("bad2");
        let c0 = b.cell(Cell::new("c0", CellKind::full_slice()));
        b.connect("n", Endpoint::Cell(c0), Vec::new());
        assert!(b.finish().is_err());

        let mut b = ModuleBuilder::new("bad3");
        let c0 = b.cell(Cell::new("c0", CellKind::full_slice()));
        b.connect("n", Endpoint::Cell(c0), [Endpoint::Cell(CellId(99))]);
        assert!(b.finish().is_err());
    }

    #[test]
    fn locking_freezes_everything() {
        let mut m = two_cell_module();
        m.set_placement(CellId(0), TileCoord::new(1, 1)).unwrap();
        m.lock();
        assert!(m.locked);
        assert!(m.set_placement(CellId(1), TileCoord::new(2, 2)).is_err());
        assert!(m.cells_mut().is_err());
        assert!(m.nets_mut().is_err());
    }

    #[test]
    fn translation_shifts_all_geometry() {
        let mut m = two_cell_module();
        m.set_placement(CellId(0), TileCoord::new(1, 1)).unwrap();
        m.set_placement(CellId(1), TileCoord::new(3, 4)).unwrap();
        m.pblock = Some(Pblock::new(0, 5, 0, 5));
        m.lock();
        let t = m.translated(10, 20).unwrap();
        assert_eq!(t.cell(CellId(0)).placement, Some(TileCoord::new(11, 21)));
        assert_eq!(t.cell(CellId(1)).placement, Some(TileCoord::new(13, 24)));
        assert_eq!(t.pblock, Some(Pblock::new(10, 15, 20, 25)));
        // Underflow is rejected.
        assert!(m.translated(-2, 0).is_none());
    }

    #[test]
    fn a_clone_of_a_locked_module_shares_storage() {
        let mut m = two_cell_module();
        m.lock();
        let c = m.clone();
        assert_eq!(c.cells().as_ptr(), m.cells().as_ptr());
        assert_eq!(c.nets().as_ptr(), m.nets().as_ptr());
        assert_eq!(c.ports().as_ptr(), m.ports().as_ptr());
    }

    #[test]
    fn writes_to_a_clone_never_show_through_the_original() {
        let mut original = two_cell_module();
        original
            .set_placement(CellId(0), TileCoord::new(1, 1))
            .unwrap();
        original
            .set_placement(CellId(1), TileCoord::new(3, 4))
            .unwrap();
        original.ports_mut().unwrap()[0].partpin = Some(TileCoord::new(0, 2));
        let before = serde_json::to_string(&original).unwrap();
        type Write = (&'static str, fn(&mut Module));
        let writes: [Write; 6] = [
            ("set_placement", |m| {
                m.set_placement(CellId(0), TileCoord::new(5, 5)).unwrap()
            }),
            ("cells_mut", |m| m.cells_mut().unwrap()[1].placement = None),
            ("nets_mut", |m| m.nets_mut().unwrap()[0].name.push('x')),
            ("ports_mut", |m| m.ports_mut().unwrap()[0].partpin = None),
            ("lock", Module::lock),
            ("translated", |m| *m = m.translated(2, 3).unwrap()),
        ];
        for (what, write) in writes {
            let mut clone = original.clone();
            write(&mut clone);
            assert_ne!(
                serde_json::to_string(&clone).unwrap(),
                before,
                "{what} changed nothing"
            );
            assert_eq!(
                serde_json::to_string(&original).unwrap(),
                before,
                "{what} showed through"
            );
        }
    }

    #[test]
    fn shared_storage_serializes_like_plain_vectors() {
        #[derive(Serialize)]
        struct Plain {
            name: String,
            cells: Vec<Cell>,
            nets: Vec<Net>,
            ports: Vec<Port>,
            locked: bool,
            pblock: Option<Pblock>,
            clock_prerouted: bool,
        }
        let mut m = two_cell_module();
        m.set_placement(CellId(0), TileCoord::new(1, 1)).unwrap();
        m.pblock = Some(Pblock::new(0, 5, 0, 5));
        m.lock();
        let json = serde_json::to_string(&m).unwrap();
        let plain = Plain {
            name: m.name.clone(),
            cells: m.cells().to_vec(),
            nets: m.nets().to_vec(),
            ports: m.ports().to_vec(),
            locked: m.locked,
            pblock: m.pblock,
            clock_prerouted: m.clock_prerouted,
        };
        assert_eq!(json, serde_json::to_string(&plain).unwrap());
        let back: Module = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn wirelength_counts_placed_nets() {
        let mut m = two_cell_module();
        m.set_placement(CellId(0), TileCoord::new(0, 0)).unwrap();
        m.set_placement(CellId(1), TileCoord::new(3, 4)).unwrap();
        // Only n_mid has both endpoints placed (ports have no partpins).
        assert_eq!(m.wirelength(), 7);
    }

    #[test]
    fn role_filtering() {
        let m = two_cell_module();
        assert_eq!(m.ports_with_role(StreamRole::Source).count(), 1);
        assert_eq!(m.ports_with_role(StreamRole::Clock).count(), 0);
        assert!(m.port_by_name("dout").is_some());
        assert!(m.port_by_name("nope").is_none());
    }
}
