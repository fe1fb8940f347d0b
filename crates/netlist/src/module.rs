//! Modules: self-contained netlists with boundary ports.
//!
//! A module's cells, nets and ports live behind `Arc`s and are written
//! copy-on-write (`Arc::make_mut`). Cloning a module therefore bumps three
//! reference counts instead of copying its netlist, which is what makes a
//! locked, read-only checkpoint cheap to hand out many times; the first
//! write to a shared clone copies only the vector it touches.
//!
//! Relocation ([`Module::translated`]) copies the cells and ports but
//! shares the nets. A copied cell shares its name (an `Arc<str>`), so
//! copying the cells allocates no string. A translated module keeps its
//! checkpoint's routes in the checkpoint frame and records the shift as a
//! route offset, which [`crate::walk`] (the one reader of stored routes)
//! applies. The first write to the nets bakes the offset in, so no writer
//! sees the checkpoint frame.
//!
//! The shared net storage also caches what its readers derive from the
//! nets, built on first read and shared like the nets: a route summary
//! (the stored tiles' extent, a per-tile route count, the unrouted nets
//! and the stored wirelength), the timing graph's connections and, for a
//! locked module, the module judge's verdict. So `translated`, the
//! router's occupancy seeding, the DRC, the timing graph, the compile
//! tail and the design judge read them once per checkpoint instead of
//! walking its nets per instance. Every write to the nets goes through one
//! helper that resets them.

use crate::cell::{Cell, CellId};
use crate::net::{Endpoint, Net, NetId};
use crate::port::{Direction, Port, PortId, StreamRole};
use crate::summary::{NetStore, RouteSummary};
use crate::NetlistError;
use pi_fabric::{Pblock, ResourceCount, TileCoord};
use serde::{Content, DeError, Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// A netlist module: the unit of synthesis, OOC implementation, checkpointing
/// and reuse.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Module {
    pub name: String,
    cells: Arc<Vec<Cell>>,
    nets: Arc<NetStore>,
    ports: Arc<Vec<Port>>,
    /// True once the module's placement and routing are frozen (the paper's
    /// logic-locking step). Locked modules reject further mutation. Only
    /// [`Module::lock`] sets it, and nothing clears it: a decoded
    /// checkpoint is the only way to an unlocked copy.
    locked: bool,
    /// The module-local pblock it was implemented in, if any.
    pub pblock: Option<Pblock>,
    /// Models the HD.CLK_SRC constraint: the clock is partially routed to
    /// the interconnect tiles so OOC timing analysis is meaningful.
    pub clock_prerouted: bool,
    /// (dcol, drow) from the frame the stored route tiles are written in
    /// to the device frame they are read in. Non-zero only on a
    /// translated module; absent from the serialized form when zero, so a
    /// checkpoint's bytes (and content hash) never carry it, and rejected
    /// when decoded non-zero: a checkpoint stores its routes in its own
    /// frame, and only [`Module::translated`] checks an offset's extent.
    #[serde(
        default,
        skip_serializing_if = "is_zero",
        deserialize_with = "zero_route_offset"
    )]
    route_offset: (i32, i32),
}

fn is_zero(offset: &(i32, i32)) -> bool {
    *offset == (0, 0)
}

fn zero_route_offset(c: &Content) -> Result<(i32, i32), DeError> {
    match <(i32, i32)>::from_content(c)? {
        (0, 0) => Ok((0, 0)),
        (dcol, drow) => Err(DeError::custom(format!(
            "route_offset ({dcol}, {drow}): a checkpoint's routes are stored in its own frame"
        ))),
    }
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

    /// True once [`Module::lock`] has frozen the module.
    pub fn is_locked(&self) -> bool {
        self.locked
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

    /// Mutable net access for the router. Fails when locked. The routes
    /// handed out are in the device frame: a route offset is written into
    /// them (and reset) first.
    pub fn nets_mut(&mut self) -> Result<&mut [Net], NetlistError> {
        if self.locked {
            return Err(NetlistError::Locked(self.name.clone()));
        }
        let (dcol, drow) = std::mem::take(&mut self.route_offset);
        let nets = self.nets_write();
        if (dcol, drow) != (0, 0) {
            for r in nets.iter_mut().filter_map(|n| n.route.as_mut()) {
                for t in &mut r.tiles {
                    *t = shift(*t, dcol, drow);
                }
            }
        }
        Ok(nets.as_mut_slice())
    }

    /// The one write path to the nets: unshares them and resets the
    /// route summary.
    fn nets_write(&mut self) -> &mut Vec<Net> {
        Arc::make_mut(&mut self.nets).write()
    }

    /// The shift from the stored route tiles' frame to the device frame;
    /// applied by [`crate::walk`].
    pub(crate) fn route_offset(&self) -> (i32, i32) {
        self.route_offset
    }

    /// The summary of the stored routes, in the stored frame; built on
    /// first read and shared with every module sharing the nets.
    pub(crate) fn route_summary(&self) -> &RouteSummary {
        self.nets.summary()
    }

    /// The (driver, sink) endpoint pairs of every non-clock net, in net
    /// index order and then sink order: the module's timing edges. Built
    /// on first read and shared with every module sharing the nets.
    pub fn connections(&self) -> &[(Endpoint, Endpoint)] {
        self.nets.connections()
    }

    /// Where a locked module's judge verdict (is [`Module::defects`]
    /// empty?) is kept once known: its shared net storage. The judge reads
    /// cells, ports and nets but no placement, partition pin or pblock, so
    /// [`Module::translated`] cannot change the verdict; a locked module's
    /// cells, ports and nets are frozen, and [`Module::lock`] unshares the
    /// storage from any unlocked module. `None` when unlocked: an unlocked
    /// module's cells and ports may change under the same storage.
    pub(crate) fn locked_verdict(&self) -> Option<&OnceLock<bool>> {
        self.locked.then(|| self.nets.clean())
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
        for n in self.nets_write() {
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
    ///
    /// Cells, ports and the pblock are copied, each cell as a fixed-size
    /// record whose name is shared with `self`; the nets are shared with
    /// `self` and the shift is added to the route offset, so the routes are
    /// neither copied nor rewritten. The routes' extent comes from the
    /// shared route summary.
    pub fn translated(&self, dcol: i32, drow: i32) -> Option<Module> {
        let mut m = self.clone();
        if let Some((lo, hi)) = self.route_summary().extent {
            let (oc, or) = self.route_offset;
            let oc = i64::from(oc) + i64::from(dcol);
            let or = i64::from(or) + i64::from(drow);
            let fits = |v: u16, d: i64| (0..=i64::from(u16::MAX)).contains(&(i64::from(v) + d));
            if !(fits(lo.col, oc) && fits(hi.col, oc) && fits(lo.row, or) && fits(hi.row, or)) {
                return None;
            }
            // Both corners fit, so each part of the offset is within a u16.
            m.route_offset = (oc as i32, or as i32);
        }
        for c in Arc::make_mut(&mut m.cells) {
            if let Some(p) = c.placement {
                c.placement = Some(p.translated(dcol, drow)?);
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

    /// True when `other` is the same netlist up to names: the same cells,
    /// nets and ports in the same order, equal in every field except the
    /// module, cell and net names (port names do count). Placement,
    /// routing and timing read no such name, so two modules that compare
    /// equal here implement to the same result.
    pub fn same_netlist(&self, other: &Module) -> bool {
        let Module {
            name: _,
            cells,
            nets,
            ports,
            locked,
            pblock,
            clock_prerouted,
            route_offset,
        } = self;
        let cell_eq = |a: &Cell, b: &Cell| {
            let Cell {
                name: _,
                kind,
                delay_ps,
                registered,
                placement,
                fixed,
            } = a;
            (kind, delay_ps, registered, placement, fixed)
                == (&b.kind, &b.delay_ps, &b.registered, &b.placement, &b.fixed)
        };
        let net_eq = |a: &Net, b: &Net| {
            let Net {
                name: _,
                source,
                sinks,
                width,
                route,
                locked,
                is_clock,
            } = a;
            (source, sinks, width, route, locked, is_clock)
                == (
                    &b.source,
                    &b.sinks,
                    &b.width,
                    &b.route,
                    &b.locked,
                    &b.is_clock,
                )
        };
        (locked, pblock, clock_prerouted, route_offset)
            == (
                &other.locked,
                &other.pblock,
                &other.clock_prerouted,
                &other.route_offset,
            )
            && *ports == other.ports
            && cells.len() == other.cells.len()
            && nets.len() == other.nets.len()
            && cells
                .iter()
                .zip(other.cells.iter())
                .all(|(a, b)| cell_eq(a, b))
            && nets
                .iter()
                .zip(other.nets.iter())
                .all(|(a, b)| net_eq(a, b))
    }

    /// A copy carrying `names`' module, cell and net names, and everything
    /// else from `self`. Works on locked modules. With `names` the same
    /// netlist as `self` before implementation ([`Module::same_netlist`]),
    /// the copy is exactly what implementing `names` itself would produce.
    pub fn renamed_like(&self, names: &Module) -> Module {
        debug_assert_eq!(self.cells.len(), names.cells.len());
        debug_assert_eq!(self.nets.len(), names.nets.len());
        let mut m = self.clone();
        m.name.clone_from(&names.name);
        for (c, n) in Arc::make_mut(&mut m.cells)
            .iter_mut()
            .zip(names.cells.iter())
        {
            c.name.clone_from(&n.name);
        }
        for (net, n) in m.nets_write().iter_mut().zip(names.nets.iter()) {
            net.name.clone_from(&n.name);
        }
        m
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
}

/// `t` moved by (dcol, drow), which the caller has checked keeps it in
/// the u16 space.
pub(crate) fn shift(t: TileCoord, dcol: i32, drow: i32) -> TileCoord {
    TileCoord::new(
        (i32::from(t.col) + dcol) as u16,
        (i32::from(t.row) + drow) as u16,
    )
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
                route_offset: (0, 0),
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
        self.module.nets_write().push(net);
        id
    }

    /// Nets added so far that have `sink` among their sinks.
    pub fn fanin(&self, sink: Endpoint) -> usize {
        let nets = self.module.nets();
        nets.iter().filter(|n| n.sinks.contains(&sink)).count()
    }

    /// Nets added so far that `source` drives.
    pub fn fanout(&self, source: Endpoint) -> usize {
        let nets = self.module.nets();
        nets.iter().filter(|n| n.source == source).count()
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

    /// The module, if the module judge ([`Module::defects`]) finds no
    /// defect in it; else its first defect.
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
        assert!(m.is_locked());
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
            locked: m.is_locked(),
            pblock: m.pblock,
            clock_prerouted: m.clock_prerouted,
        };
        assert_eq!(json, serde_json::to_string(&plain).unwrap());
        let back: Module = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn every_write_to_the_nets_resets_what_is_derived_from_them() {
        let mut m = two_cell_module();
        let pairs = |m: &Module| m.connections().to_vec();
        let (din, dout) = (Endpoint::Port(PortId(0)), Endpoint::Port(PortId(1)));
        let (c0, c1) = (Endpoint::Cell(CellId(0)), Endpoint::Cell(CellId(1)));
        assert_eq!(pairs(&m), [(din, c0), (c0, c1), (c1, dout)]);
        // A clone shares the derived state until either side writes.
        let clone = m.clone();
        assert!(std::ptr::eq(clone.connections(), m.connections()));
        m.nets_mut().unwrap()[1].sinks.push(dout);
        assert_eq!(pairs(&m), [(din, c0), (c0, c1), (c0, dout), (c1, dout)]);
        assert_eq!(pairs(&clone), [(din, c0), (c0, c1), (c1, dout)]);

        m.lock();
        let verdict = m.locked_verdict().expect("a locked module keeps one");
        verdict.set(true).unwrap();
        assert_eq!(m.clone().locked_verdict().unwrap().get(), Some(&true));
        assert_eq!(
            m.translated(1, 1).unwrap().locked_verdict().unwrap().get(),
            Some(&true),
            "a move cannot change the verdict"
        );
        let renamed = m.renamed_like(&m);
        assert_eq!(renamed.locked_verdict().unwrap().get(), None);
        assert!(!std::ptr::eq(renamed.connections(), m.connections()));
        assert_eq!(pairs(&renamed), pairs(&m));
        assert!(clone.locked_verdict().is_none(), "unlocked keeps none");
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
