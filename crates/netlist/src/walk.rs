//! The one read API for placed-and-routed nets.
//!
//! The router, the timing graph, the wirelength/power tail of a compile
//! and the DRC all ask the same question — *which nets are there, where
//! are their terminals, what route do they store* — of either a single
//! [`Module`] or an assembled [`Design`]. [`NetView`] answers it once: a
//! module is the one-instance case of a design (instance 0, no top nets),
//! so every reader is written against the view and works on both.
//!
//! Stored routes are read through [`RouteView`], which yields device-frame
//! tiles: a relocated instance shares its checkpoint's routes and carries
//! the shift as an offset ([`Module::translated`]), applied here. Readers
//! that need an instance's routes only in aggregate — occupancy, extent,
//! which nets are unrouted, wirelength — read its [`RouteFootprint`]
//! instead, the checkpoint's shared route summary under the same offset,
//! and [`NetView::occupancy`] sums those footprints over a whole design.

use crate::design::{Design, TopNet};
use crate::module::{shift, Module};
use crate::net::{occupied_tiles, Endpoint, Net, Route};
use crate::summary::RouteSummary;
use pi_fabric::{Device, TileCoord};

/// Where a net lives: inside instance `inst` (net index `net` of its
/// module) or at the top level of a design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    Intra { inst: usize, net: usize },
    Top { net: usize },
}

#[derive(Clone, Copy)]
enum Source<'a> {
    Module(&'a Module),
    Design(&'a Design),
}

/// A borrowed view of every net of a module or of a design.
#[derive(Clone, Copy)]
pub struct NetView<'a>(Source<'a>);

impl<'a> From<&'a Module> for NetView<'a> {
    fn from(module: &'a Module) -> Self {
        NetView(Source::Module(module))
    }
}

impl<'a> From<&'a Design> for NetView<'a> {
    fn from(design: &'a Design) -> Self {
        NetView(Source::Design(design))
    }
}

impl<'a> NetView<'a> {
    /// Number of module instances (1 for a bare module).
    pub fn instance_count(&self) -> usize {
        match self.0 {
            Source::Module(_) => 1,
            Source::Design(d) => d.instances().len(),
        }
    }

    /// Instance `inst`: its name (`None` for a bare module) and module.
    fn instance(&self, inst: usize) -> (Option<&'a str>, &'a Module) {
        match self.0 {
            Source::Module(m) => (None, m),
            Source::Design(d) => {
                let i = &d.instances()[inst];
                (Some(&i.name), &i.module)
            }
        }
    }

    /// The module of instance `inst`.
    pub fn module(&self, inst: usize) -> &'a Module {
        self.instance(inst).1
    }

    /// Hierarchical prefix of names inside instance `inst`: empty for a
    /// bare module, `<instance>/` in a design.
    pub fn prefix(&self, inst: usize) -> String {
        self.instance(inst)
            .0
            .map_or_else(String::new, |name| format!("{name}/"))
    }

    fn design(&self) -> Option<&'a Design> {
        match self.0 {
            Source::Module(_) => None,
            Source::Design(d) => Some(d),
        }
    }

    /// The net in `slot`.
    pub fn net(&self, slot: Slot) -> PlacedNet<'a> {
        match slot {
            Slot::Intra { inst, net } => self.intra(inst, net, &self.module(inst).nets()[net]),
            Slot::Top { net } => {
                let design = self.design().expect("a module has no top nets");
                PlacedNet::Top(net, design, &design.top_nets()[net])
            }
        }
    }

    fn intra(&self, inst: usize, index: usize, net: &'a Net) -> PlacedNet<'a> {
        let (instance, module) = self.instance(inst);
        PlacedNet::Intra {
            inst,
            index,
            instance,
            module,
            net,
        }
    }

    /// Every non-clock net: instance by instance in net index order, then
    /// the top nets (clock nets use dedicated routing and are no routed
    /// resource here).
    pub fn nets(self) -> impl Iterator<Item = PlacedNet<'a>> {
        let intra = (0..self.instance_count()).flat_map(move |inst| self.instance_nets(inst));
        intra.chain(self.top_nets())
    }

    /// The non-clock nets of instance `inst`, in net index order.
    pub fn instance_nets(self, inst: usize) -> impl Iterator<Item = PlacedNet<'a>> {
        let nets = self.module(inst).nets().iter().enumerate();
        nets.filter(|(_, n)| !n.is_clock)
            .map(move |(i, net)| self.intra(inst, i, net))
    }

    /// The top nets, in index order (none for a bare module).
    pub fn top_nets(self) -> impl Iterator<Item = PlacedNet<'a>> {
        self.design().into_iter().flat_map(|design| {
            let nets = design.top_nets().iter().enumerate();
            nets.map(move |(i, net)| PlacedNet::Top(i, design, net))
        })
    }

    /// Instance `inst`'s stored routes in aggregate, in the device frame.
    pub fn footprint(&self, inst: usize) -> RouteFootprint<'a> {
        let module = self.module(inst);
        RouteFootprint {
            summary: module.route_summary(),
            offset: module.route_offset(),
        }
    }

    /// How many non-clock stored routes occupy each tile of `device`
    /// ([`occupied_tiles`]), column-major (`col * rows + row`): the
    /// occupancy the router seeds from and the DRC judges. An instance's
    /// counts come from its footprint; one whose footprint leaves the
    /// device, and every top net, is walked tile by tile. Off-device tiles
    /// occupy nothing: they are the DRC's `RouteOffGrid`, not a track.
    pub fn occupancy(&self, device: &Device) -> Vec<u16> {
        let rows = usize::from(device.rows());
        let mut occ = vec![0u16; usize::from(device.cols()) * rows];
        let idx = |t: TileCoord| usize::from(t.col) * rows + usize::from(t.row);
        let charge = |occ: &mut [u16], route: RouteView| {
            for t in route.occupied().filter(|&t| device.in_bounds(t)) {
                occ[idx(t)] += 1;
            }
        };
        for inst in 0..self.instance_count() {
            let footprint = self.footprint(inst);
            if footprint.on_device(device) {
                for (base, counts) in footprint.columns() {
                    let column = &mut occ[idx(base)..idx(base) + counts.len()];
                    for (o, &n) in column.iter_mut().zip(counts) {
                        *o += n;
                    }
                }
            } else {
                for route in self.instance_nets(inst).filter_map(|n| n.route()) {
                    charge(&mut occ, route);
                }
            }
        }
        for route in self.top_nets().filter_map(|n| n.route()) {
            charge(&mut occ, route);
        }
        occ
    }
}

/// One instance's stored routes in aggregate, read in the device frame:
/// its checkpoint's shared route summary under the instance's route
/// offset. Built once per checkpoint, so reading it costs no walk over
/// the stored tiles.
#[derive(Clone, Copy)]
pub struct RouteFootprint<'a> {
    summary: &'a RouteSummary,
    offset: (i32, i32),
}

impl<'a> RouteFootprint<'a> {
    /// (lowest col, lowest row) and (highest col, highest row) over every
    /// stored route tile, clock routes included; `None` when no net stores
    /// a tile.
    fn extent(&self) -> Option<(TileCoord, TileCoord)> {
        let (dcol, drow) = self.offset;
        let (lo, hi) = self.summary.extent?;
        Some((shift(lo, dcol, drow), shift(hi, dcol, drow)))
    }

    /// True when every stored route tile lies on `device` and the per-tile
    /// counts are held, so [`RouteFootprint::columns`] covers every stored
    /// tile and no tile needs its own bounds check. False sends a reader
    /// to the per-tile walk, which finds the off-device tiles.
    pub fn on_device(&self, device: &Device) -> bool {
        match self.extent() {
            None => true,
            Some((lo, hi)) => {
                self.summary.counts.is_some() && device.in_bounds(lo) && device.in_bounds(hi)
            }
        }
    }

    /// How many non-clock stored routes occupy each tile, one column of
    /// the extent at a time: the column's lowest tile and the counts
    /// upward from it. Empty when the counts are not held (see
    /// [`RouteFootprint::on_device`]).
    fn columns(&self) -> impl Iterator<Item = (TileCoord, &'a [u16])> + 'a {
        let (dcol, drow) = self.offset;
        let window = self.summary.extent.zip(self.summary.counts.as_deref());
        window.into_iter().flat_map(move |((lo, hi), counts)| {
            let height = usize::from(hi.row - lo.row) + 1;
            counts.chunks(height).enumerate().map(move |(c, column)| {
                let base = TileCoord::new(lo.col + c as u16, lo.row);
                (shift(base, dcol, drow), column)
            })
        })
    }

    /// Net indices of the unrouted non-clock nets, ascending.
    pub fn unrouted(&self) -> &'a [u32] {
        &self.summary.unrouted
    }

    /// Summed tile count of the non-clock stored routes: what walking
    /// [`RouteView::tiles`] over them would count, in any frame.
    pub fn wirelength(&self) -> u64 {
        self.summary.wirelength
    }
}

/// One net as its readers see it.
#[derive(Clone, Copy)]
pub enum PlacedNet<'a> {
    /// Net `index` of `module`, which instance `inst` — named `instance`,
    /// `None` for a bare module — holds.
    Intra {
        inst: usize,
        index: usize,
        instance: Option<&'a str>,
        module: &'a Module,
        net: &'a Net,
    },
    /// Top net of this index in the design.
    Top(usize, &'a Design, &'a TopNet),
}

impl<'a> PlacedNet<'a> {
    pub fn slot(&self) -> Slot {
        match *self {
            PlacedNet::Intra { inst, index, .. } => Slot::Intra { inst, net: index },
            PlacedNet::Top(net, ..) => Slot::Top { net },
        }
    }

    pub fn name(&self) -> &'a str {
        match *self {
            PlacedNet::Intra { net, .. } => &net.name,
            PlacedNet::Top(_, _, net) => &net.name,
        }
    }

    /// Hierarchical name: `<instance>/<net>` inside a design's instance,
    /// the bare net name otherwise.
    pub fn path(&self) -> String {
        match *self {
            PlacedNet::Intra {
                instance: Some(instance),
                net,
                ..
            } => format!("{instance}/{}", net.name),
            _ => self.name().to_string(),
        }
    }

    /// The stored route, read in the device frame; `None` = unrouted.
    pub fn route(&self) -> Option<RouteView<'a>> {
        match *self {
            PlacedNet::Intra { module, net, .. } => net.route.as_ref().map(|route| RouteView {
                route,
                offset: module.route_offset(),
            }),
            PlacedNet::Top(_, _, net) => net.route.as_ref().map(|route| RouteView {
                route,
                offset: (0, 0),
            }),
        }
    }

    /// Register-to-register segments the wire is broken into (1 =
    /// unpipelined; only top nets are ever pipelined).
    pub fn pipeline_stages(&self) -> u32 {
        match *self {
            PlacedNet::Intra { .. } => 1,
            PlacedNet::Top(_, _, net) => net.pipeline_stages.max(1),
        }
    }

    /// Every endpoint as (instance, endpoint within that instance's
    /// module), driver first. A top net's endpoints are instance ports.
    pub fn endpoints(&self) -> impl Iterator<Item = (usize, Endpoint)> + 'a {
        match *self {
            PlacedNet::Intra { inst, net, .. } => {
                Either::A(net.endpoints().map(move |e| (inst, e)))
            }
            PlacedNet::Top(_, _, net) => {
                let ends = net.endpoints();
                Either::B(ends.map(|(i, p)| (i.index(), Endpoint::Port(p))))
            }
        }
    }

    /// Located terminals, driver first: placed cells and partition-pinned
    /// ports. Unlocatable endpoints are skipped (ports awaiting partpin
    /// planning).
    pub fn terminals(&self) -> Vec<TileCoord> {
        match *self {
            PlacedNet::Intra { module, net, .. } => {
                let ends = net.endpoints();
                ends.filter_map(|e| module.endpoint_coord(e)).collect()
            }
            PlacedNet::Top(_, design, net) => {
                let ends = net.endpoints();
                ends.filter_map(|ep| design.top_endpoint_coord(ep))
                    .collect()
            }
        }
    }
}

/// A stored route as its readers see it: its tiles in the device frame,
/// whatever frame the route is stored in.
#[derive(Clone, Copy)]
pub struct RouteView<'a> {
    route: &'a Route,
    offset: (i32, i32),
}

impl<'a> RouteView<'a> {
    /// The route's tiles in stored order, in the device frame.
    pub fn tiles(&self) -> impl ExactSizeIterator<Item = TileCoord> + 'a {
        let (dcol, drow) = self.offset;
        self.route.tiles.iter().map(move |&t| shift(t, dcol, drow))
    }

    /// The tiles the route occupies ([`occupied_tiles`]), in the device
    /// frame: the tiles a route summary counts for it.
    pub fn occupied(&self) -> impl ExactSizeIterator<Item = TileCoord> + 'a {
        let (dcol, drow) = self.offset;
        let tiles = occupied_tiles(&self.route.tiles).iter();
        tiles.map(move |&t| shift(t, dcol, drow))
    }
}

/// One of two iterators over the same item type.
enum Either<A, B> {
    A(A),
    B(B),
}

impl<T, A: Iterator<Item = T>, B: Iterator<Item = T>> Iterator for Either<A, B> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self {
            Either::A(a) => a.next(),
            Either::B(b) => b.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Cell, CellId, CellKind};
    use crate::design::DesignKind;
    use crate::module::ModuleBuilder;
    use crate::port::StreamRole;

    /// din -> c -> dout plus a clock net, cell placed at `col`, both ports
    /// pinned.
    fn leaf(name: &str, col: u16) -> Module {
        let mut b = ModuleBuilder::new(name);
        let din = b.input("din", StreamRole::Source, 8);
        let dout = b.output("dout", StreamRole::Sink, 8);
        let clk = b.input("clk", StreamRole::Clock, 1);
        let c = b.cell(Cell::new("c", CellKind::full_slice()));
        b.connect("ni", Endpoint::Port(din), [Endpoint::Cell(c)]);
        b.net(crate::net::Net::new("ck", Endpoint::Port(clk), vec![Endpoint::Cell(c)]).clock());
        b.connect("no", Endpoint::Cell(c), [Endpoint::Port(dout)]);
        let mut m = b.finish().unwrap();
        m.set_placement(CellId(0), TileCoord::new(col, 2)).unwrap();
        let ports = m.ports_mut().unwrap();
        ports[din.index()].partpin = Some(TileCoord::new(col - 1, 2));
        ports[dout.index()].partpin = Some(TileCoord::new(col + 1, 2));
        m
    }

    fn toy_design() -> Design {
        let mut d = Design::new("d", "test-part", DesignKind::Assembled);
        let a = d.add_instance("a", leaf("a", 2));
        let b = d.add_instance("b", leaf("b", 9));
        let (out_a, _) = d.instance(a).module.port_by_name("dout").unwrap();
        let (in_b, _) = d.instance(b).module.port_by_name("din").unwrap();
        d.connect_top("link", (a, out_a), vec![(b, in_b)], 8)
            .unwrap();
        d
    }

    #[test]
    fn a_module_view_yields_its_nets_in_index_order() {
        let m = leaf("m", 4);
        let nets: Vec<PlacedNet> = NetView::from(&m).nets().collect();
        // The clock net (index 1) is skipped.
        let slots: Vec<Slot> = nets.iter().map(|n| n.slot()).collect();
        let intra = |net| Slot::Intra { inst: 0, net };
        assert_eq!(slots, vec![intra(0), intra(2)]);
        for n in &nets {
            let Slot::Intra { net, .. } = n.slot() else {
                unreachable!("a module view has no top nets")
            };
            let want: Vec<TileCoord> = m.nets()[net]
                .endpoints()
                .filter_map(|e| m.endpoint_coord(e))
                .collect();
            assert_eq!(n.terminals(), want);
            assert_eq!(n.path(), n.name(), "no prefix on a bare module");
            assert_eq!(n.pipeline_stages(), 1);
        }
        assert_eq!(
            nets[0].terminals(),
            vec![TileCoord::new(3, 2), TileCoord::new(4, 2)]
        );
    }

    #[test]
    fn a_design_view_walks_instances_then_top_nets() {
        let mut d = toy_design();
        let routeless = |d: &Design| {
            NetView::from(d)
                .nets()
                .filter(|n| n.route().is_none())
                .map(|n| n.path())
                .collect::<Vec<_>>()
        };
        assert_eq!(routeless(&d), ["a/ni", "a/no", "b/ni", "b/no", "link"]);
        assert_eq!(routeless(&d).len(), d.unrouted_nets());
        let link = NetView::from(&d).net(Slot::Top { net: 0 });
        assert_eq!(
            link.terminals(),
            vec![TileCoord::new(3, 2), TileCoord::new(8, 2)],
            "driver pin first, via the instance ports' partpins"
        );

        // "Route" everything: no route-less entry is left.
        for inst in d.instances_mut() {
            for net in inst.module.nets_mut().unwrap() {
                net.route = Some(Route::default());
            }
        }
        d.top_nets_mut()[0].route = Some(Route::default());
        d.top_nets_mut()[0].pipeline_stages = 3;
        assert!(routeless(&d).is_empty());
        assert_eq!(d.unrouted_nets(), 0);
        assert_eq!(
            NetView::from(&d).nets().last().unwrap().pipeline_stages(),
            3
        );
    }
}
