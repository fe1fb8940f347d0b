//! Top-level designs: compositions of module instances.

use crate::module::Module;
use crate::net::Route;
use crate::port::{Direction, PortId};
use crate::NetlistError;
use pi_fabric::{Device, ResourceCount, TileCoord};

/// Index of an instance within a [`Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

impl InstId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How the design was produced — drives which implementation steps apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesignKind {
    /// One flat netlist, everything unplaced/unrouted: the traditional
    /// monolithic flow's input.
    Flat,
    /// Stitched from locked pre-implemented components; only the
    /// inter-component nets need routing.
    Assembled,
}

/// An instance of a module in the top-level design. Cell placements,
/// partition pins and the pblock are absolute device coordinates
/// (relocation already applied by the stitcher); a relocated module's
/// stored routes stay in its checkpoint's frame and are read in the device
/// frame through [`crate::walk`].
#[derive(Debug, Clone)]
pub struct ModuleInst {
    pub name: String,
    pub module: Module,
}

/// Token capacity of the standard stream-link FIFO the stitcher places on
/// every inter-component net (the queue half of the paper's Fig. 5 memory
/// controller). The flow deepens a link beyond it only where the rate
/// model says a join must absorb more path skew.
pub const DEFAULT_LINK_FIFO_DEPTH: u64 = 64;

/// An inter-instance net created by the stitcher (RapidWright's
/// `createNet` + port connection). Endpoints are (instance, port) pairs.
#[derive(Debug, Clone)]
pub struct TopNet {
    pub name: String,
    pub source: (InstId, PortId),
    pub sinks: Vec<(InstId, PortId)>,
    pub width: u16,
    pub route: Option<Route>,
    /// Pipeline registers inserted on this net (the paper's FF-insertion
    /// fix for long inter-component wires): the wire is broken into this
    /// many register-to-register segments. 1 = unpipelined.
    pub pipeline_stages: u32,
    /// Token capacity of the link FIFO backing this net. Stitching starts
    /// every net at the standard depth; the architecture phase raises it
    /// to the rate model's minimum for the link where that is deeper.
    pub fifo_depth: u64,
}

impl TopNet {
    pub fn endpoints(&self) -> impl Iterator<Item = (InstId, PortId)> + '_ {
        std::iter::once(self.source).chain(self.sinks.iter().copied())
    }
}

/// A top-level design: what gets implemented and reported on.
#[derive(Debug, Clone)]
pub struct Design {
    pub name: String,
    /// Catalog name of the target device.
    pub device: String,
    pub kind: DesignKind,
    instances: Vec<ModuleInst>,
    top_nets: Vec<TopNet>,
}

impl Design {
    pub fn new(name: impl Into<String>, device: impl Into<String>, kind: DesignKind) -> Self {
        Design {
            name: name.into(),
            device: device.into(),
            kind,
            instances: Vec::new(),
            top_nets: Vec::new(),
        }
    }

    /// A flat design wrapping a single monolithic module.
    pub fn flat(name: impl Into<String>, device: impl Into<String>, module: Module) -> Self {
        let mut d = Design::new(name, device, DesignKind::Flat);
        d.add_instance("top", module);
        d
    }

    /// Add an instance, returning its id.
    pub fn add_instance(&mut self, name: impl Into<String>, module: Module) -> InstId {
        let id = InstId(self.instances.len() as u32);
        self.instances.push(ModuleInst {
            name: name.into(),
            module,
        });
        id
    }

    pub fn instances(&self) -> &[ModuleInst] {
        &self.instances
    }

    pub fn instances_mut(&mut self) -> &mut [ModuleInst] {
        &mut self.instances
    }

    pub fn instance(&self, id: InstId) -> &ModuleInst {
        &self.instances[id.index()]
    }

    pub fn top_nets(&self) -> &[TopNet] {
        &self.top_nets
    }

    pub fn top_nets_mut(&mut self) -> &mut [TopNet] {
        &mut self.top_nets
    }

    /// Create an inter-instance net. Validates direction compatibility:
    /// source must be an output port, sinks must be input ports.
    pub fn connect_top(
        &mut self,
        name: impl Into<String>,
        source: (InstId, PortId),
        sinks: Vec<(InstId, PortId)>,
        width: u16,
    ) -> Result<usize, NetlistError> {
        let name = name.into();
        let check = |(inst, port): (InstId, PortId), want: Direction| -> Result<(), NetlistError> {
            let mi = self
                .instances
                .get(inst.index())
                .ok_or_else(|| NetlistError::DanglingRef(format!("net {name}: instance")))?;
            let p = mi
                .module
                .ports()
                .get(port.index())
                .ok_or_else(|| NetlistError::DanglingRef(format!("net {name}: port")))?;
            if p.dir != want {
                return Err(NetlistError::BadNet(format!(
                    "net {name}: port {}.{} has wrong direction",
                    mi.name, p.name
                )));
            }
            Ok(())
        };
        check(source, Direction::Output)?;
        if sinks.is_empty() {
            return Err(NetlistError::BadNet(format!("net {name}: no sinks")));
        }
        for &s in &sinks {
            check(s, Direction::Input)?;
        }
        self.top_nets.push(TopNet {
            name,
            source,
            sinks,
            width,
            route: None,
            pipeline_stages: 1,
            fifo_depth: DEFAULT_LINK_FIFO_DEPTH,
        });
        Ok(self.top_nets.len() - 1)
    }

    /// Absolute coordinate of a top-net endpoint: the instance port's
    /// partition pin (already in device coordinates).
    pub fn top_endpoint_coord(&self, (inst, port): (InstId, PortId)) -> Option<TileCoord> {
        self.instances[inst.index()].module.ports()[port.index()].partpin
    }

    /// Total logic resources over all instances.
    pub fn resources(&self) -> ResourceCount {
        self.instances.iter().map(|i| i.module.resources()).sum()
    }

    /// Utilization against a device's totals.
    pub fn utilization(&self, device: &Device) -> pi_fabric::resources::ResourcePercent {
        self.resources().percent_of(&device.totals())
    }

    /// True when all intra-module nets and all top nets are routed.
    pub fn fully_routed(&self) -> bool {
        self.unrouted_nets() == 0
    }

    /// Number of unrouted non-clock nets (the work remaining for the final
    /// router): each instance footprint's unrouted list, then the top nets.
    pub fn unrouted_nets(&self) -> usize {
        let view = crate::walk::NetView::from(self);
        let intra: usize = (0..self.instances.len())
            .map(|inst| view.footprint(inst).unrouted().len())
            .sum();
        intra + self.top_nets.iter().filter(|n| n.route.is_none()).count()
    }

    /// Total cell count across instances.
    pub fn cell_count(&self) -> usize {
        self.instances.iter().map(|i| i.module.cells().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Cell, CellKind};
    use crate::module::ModuleBuilder;
    use crate::net::Endpoint;
    use crate::port::StreamRole;

    fn leaf(name: &str) -> Module {
        let mut b = ModuleBuilder::new(name);
        let din = b.input("din", StreamRole::Source, 8);
        let dout = b.output("dout", StreamRole::Sink, 8);
        let c = b.cell(Cell::new("c", CellKind::full_slice()));
        b.connect("ni", Endpoint::Port(din), [Endpoint::Cell(c)]);
        b.connect("no", Endpoint::Cell(c), [Endpoint::Port(dout)]);
        b.finish().unwrap()
    }

    #[test]
    fn assemble_two_instances() {
        let mut d = Design::new("d", "test-part", DesignKind::Assembled);
        let a = d.add_instance("a", leaf("a"));
        let b = d.add_instance("b", leaf("b"));
        let (out_a, _) = d.instance(a).module.port_by_name("dout").unwrap();
        let (in_b, _) = d.instance(b).module.port_by_name("din").unwrap();
        d.connect_top("link", (a, out_a), vec![(b, in_b)], 8)
            .unwrap();
        assert_eq!(d.top_nets().len(), 1);
        assert_eq!(d.cell_count(), 2);
        assert!(d.validate().is_ok());
        assert_eq!(d.resources().luts, 16);
    }

    #[test]
    fn connect_top_checks_directions() {
        let mut d = Design::new("d", "test-part", DesignKind::Assembled);
        let a = d.add_instance("a", leaf("a"));
        let b = d.add_instance("b", leaf("b"));
        let (in_a, _) = d.instance(a).module.port_by_name("din").unwrap();
        let (in_b, _) = d.instance(b).module.port_by_name("din").unwrap();
        // Input port as source must fail.
        assert!(d.connect_top("bad", (a, in_a), vec![(b, in_b)], 8).is_err());
        let (out_a, _) = d.instance(a).module.port_by_name("dout").unwrap();
        let (out_b, _) = d.instance(b).module.port_by_name("dout").unwrap();
        // Output port as sink must fail.
        assert!(d
            .connect_top("bad2", (a, out_a), vec![(b, out_b)], 8)
            .is_err());
        // Empty sinks must fail.
        assert!(d.connect_top("bad3", (a, out_a), vec![], 8).is_err());
    }

    #[test]
    fn unrouted_accounting() {
        let mut d = Design::new("d", "test-part", DesignKind::Assembled);
        let a = d.add_instance("a", leaf("a"));
        let b = d.add_instance("b", leaf("b"));
        let (out_a, _) = d.instance(a).module.port_by_name("dout").unwrap();
        let (in_b, _) = d.instance(b).module.port_by_name("din").unwrap();
        d.connect_top("link", (a, out_a), vec![(b, in_b)], 8)
            .unwrap();
        // 2 intra nets per leaf + 1 top net, all unrouted.
        assert_eq!(d.unrouted_nets(), 5);
        assert!(!d.fully_routed());
    }

    #[test]
    fn flat_wrapper() {
        let d = Design::flat("base", "test-part", leaf("top"));
        assert_eq!(d.kind, DesignKind::Flat);
        assert_eq!(d.instances().len(), 1);
    }

    #[test]
    fn top_endpoint_coords_track_partpins() {
        let mut d = Design::new("d", "test-part", DesignKind::Assembled);
        let a = d.add_instance("a", leaf("a"));
        let (out_a, _) = d.instance(a).module.port_by_name("dout").unwrap();
        assert_eq!(d.top_endpoint_coord((a, out_a)), None);
        d.instances_mut()[a.index()].module.ports_mut().unwrap()[out_a.index()].partpin =
            Some(TileCoord::new(3, 4));
        assert_eq!(d.top_endpoint_coord((a, out_a)), Some(TileCoord::new(3, 4)));
    }
}
