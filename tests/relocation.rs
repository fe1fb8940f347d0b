//! Relocation shares routes: a translated module copies its cells and
//! ports but keeps its checkpoint's nets, reading every stored route tile
//! through an offset.
//!
//! The first property pins that the offset is invisible to readers: the
//! net walk yields exactly the tiles a per-tile translation would,
//! `translated` refuses exactly the shifts a per-coordinate translation
//! refuses, and shifts compose. The second pins the shared route summary:
//! the router's occupancy seeding and the DRC's route checks, which read
//! it, equal a per-tile walk of the stored routes, on the device or off
//! it. The tests after them pin that a writer never sees the checkpoint
//! frame or a stale summary, and the sharing itself on all five networks
//! of the zoo, whose stored wirelength the compile tail reads from it.

use preimpl_cnn::netlist::{
    Cell, CellId, CellKind, DesignKind, Endpoint, ModuleBuilder, Net, NetView, Route, Slot,
    StreamRole,
};
use preimpl_cnn::pnr::{route_design_obs, RouteOptions};
use preimpl_cnn::prelude::*;
use preimpl_cnn::stitch::{check_design, Violation};
use preimpl_cnn::synth::SynthOptions;
use proptest::prelude::*;

/// Generated geometry: every coordinate lies within 40 tiles of `base`, so
/// shifts of up to 80 tiles leave the u16 space only near its edges.
#[derive(Debug, Clone)]
struct Geometry {
    base: u16,
    cells: Vec<Option<(u16, u16)>>,
    partpins: Vec<Option<(u16, u16)>>,
    pblock: Option<((u16, u16), (u16, u16))>,
    nets: Vec<GenNet>,
}

#[derive(Debug, Clone)]
struct GenNet {
    source: usize,
    sink: usize,
    route: Option<Vec<(u16, u16)>>,
    clock: bool,
}

fn geometry() -> impl Strategy<Value = Geometry> {
    // A coordinate within 40 tiles of the base, absent when its first
    // draw is 0 (one in four).
    let maybe = || (0u8..4, 0u16..40, 0u16..40);
    let some = |(present, c, r): (u8, u16, u16)| (present != 0).then_some((c, r));
    (
        0u8..3,
        proptest::collection::vec(maybe(), 1..6),
        proptest::collection::vec(maybe(), 0..3),
        (maybe(), maybe()),
        proptest::collection::vec(
            (
                (0usize..6, 0usize..6),
                maybe(),
                proptest::collection::vec((0u16..40, 0u16..40), 0..6),
                0u8..5,
            ),
            1..8,
        ),
    )
        .prop_map(move |(base, cells, partpins, (lo, hi), nets)| Geometry {
            base: [0, 30_000, u16::MAX - 39][usize::from(base)],
            cells: cells.into_iter().map(some).collect(),
            partpins: partpins.into_iter().map(some).collect(),
            pblock: some(lo).zip(some(hi)),
            nets: nets
                .into_iter()
                .map(|((source, sink), routed, tiles, clock)| GenNet {
                    source,
                    sink,
                    route: some(routed).map(|_| tiles),
                    clock: clock == 0,
                })
                .collect(),
        })
}

impl Geometry {
    fn at(&self, (c, r): (u16, u16)) -> TileCoord {
        TileCoord::new(self.base + c, self.base + r)
    }

    /// A locked module carrying this geometry.
    fn module(&self) -> Module {
        self.build(false)
    }

    /// [`Geometry::module`] with every unrouted net tied to one extra,
    /// unplaced cell: a router given the module has no net to lay, so the
    /// occupancy it reports is what it seeded from the stored routes.
    fn module_with_idle_unrouted_nets(&self) -> Module {
        self.build(true)
    }

    fn build(&self, idle_unrouted: bool) -> Module {
        let mut b = ModuleBuilder::new("m");
        for i in 0..self.partpins.len() {
            b.input(format!("p{i}"), StreamRole::Source, 8);
        }
        for i in 0..self.cells.len() {
            b.cell(Cell::new(format!("c{i}"), CellKind::full_slice()));
        }
        let idle = idle_unrouted
            .then(|| Endpoint::Cell(b.cell(Cell::new("idle", CellKind::full_slice()))));
        let cell = |i: usize| Endpoint::Cell(CellId((i % self.cells.len()) as u32));
        for (i, g) in self.nets.iter().enumerate() {
            let (source, sink) = match (&g.route, idle) {
                (None, Some(idle)) => (idle, idle),
                _ => (cell(g.source), cell(g.sink)),
            };
            let mut net = Net::new(format!("n{i}"), source, vec![sink]);
            let route = g.route.as_ref();
            net.route = route.map(|tiles| Route::new(tiles.iter().map(|&t| self.at(t)).collect()));
            net.is_clock = g.clock;
            b.net(net);
        }
        let mut m = b.finish().expect("structurally valid");
        for (i, at) in self.cells.iter().enumerate() {
            if let Some(at) = at {
                m.set_placement(CellId(i as u32), self.at(*at)).unwrap();
            }
        }
        for (port, pin) in m.ports_mut().unwrap().iter_mut().zip(&self.partpins) {
            port.partpin = pin.map(|p| self.at(p));
        }
        m.pblock = self.pblock.map(|(a, b)| {
            let (lo, hi) = (self.at(a), self.at(b));
            Pblock::new(
                lo.col.min(hi.col),
                lo.col.max(hi.col),
                lo.row.min(hi.row),
                lo.row.max(hi.row),
            )
        });
        m.lock();
        m
    }
}

/// Every coordinate of `m` a translation moves: cell placements, partition
/// pins, pblock corners and stored route tiles.
fn every_coordinate(m: &Module) -> Vec<TileCoord> {
    let mut all: Vec<TileCoord> = m.cells().iter().filter_map(|c| c.placement).collect();
    all.extend(m.ports().iter().filter_map(|p| p.partpin));
    if let Some(pb) = m.pblock {
        all.push(TileCoord::new(pb.col_lo, pb.row_lo));
        all.push(TileCoord::new(pb.col_hi, pb.row_hi));
    }
    all.extend(walked_routes(m).into_iter().flatten().flatten());
    all
}

/// The device-frame tiles of every net of `m`, read through the net walk.
fn walked_routes(m: &Module) -> Vec<Option<Vec<TileCoord>>> {
    let view = NetView::from(m);
    (0..m.nets().len())
        .map(|net| {
            let route = view.net(Slot::Intra { inst: 0, net }).route();
            route.map(|r| r.tiles().collect())
        })
        .collect()
}

/// The reference: every tile of `m` translated on its own.
fn reference_routes(m: &Module, dc: i32, dr: i32) -> Vec<Option<Vec<TileCoord>>> {
    let translated = |tiles: Vec<TileCoord>| {
        let tiles = tiles.into_iter().map(|t| t.translated(dc, dr).unwrap());
        tiles.collect()
    };
    walked_routes(m)
        .into_iter()
        .map(|route| route.map(translated))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// A translated module reads like a per-tile copy, fails exactly when
    /// a per-coordinate translation fails, and shifts compose.
    #[test]
    fn translation_reads_like_a_per_tile_copy(
        g in geometry(),
        (dc, dr) in (-80i32..80, -80i32..80),
        (dc2, dr2) in (-80i32..80, -80i32..80),
    ) {
        let m = g.module();
        let leaves = every_coordinate(&m).iter().any(|t| t.translated(dc, dr).is_none());
        let t = m.translated(dc, dr);
        prop_assert_eq!(t.is_none(), leaves);
        let Some(t) = t else { return Ok(()) };

        prop_assert_eq!(t.nets().as_ptr(), m.nets().as_ptr(), "nets are shared");
        prop_assert_eq!(walked_routes(&t), reference_routes(&m, dc, dr));
        for (a, b) in t.cells().iter().zip(m.cells()) {
            prop_assert_eq!(a.placement, b.placement.map(|p| p.translated(dc, dr).unwrap()));
        }
        for (a, b) in t.ports().iter().zip(m.ports()) {
            prop_assert_eq!(a.partpin, b.partpin.map(|p| p.translated(dc, dr).unwrap()));
        }
        prop_assert_eq!(t.pblock, m.pblock.map(|pb| pb.translated(dc, dr).unwrap()));
        prop_assert!(t.same_netlist(&t.clone()));

        if let Some(twice) = t.translated(dc2, dr2) {
            let once = m.translated(dc + dc2, dr + dr2);
            prop_assert!(once.as_ref() == Some(&twice), "twice != once by the sum");
            prop_assert_eq!(walked_routes(&twice), reference_routes(&m, dc + dc2, dr + dr2));
        }
    }
}

/// The test part with one wire per tile, under its own name: a tile's
/// span fraction is its occupancy, and any tile two routes share is over
/// capacity.
fn capacity_1() -> Device {
    Device::test_part().with_route_capacity("test-part-cap1", 1)
}

/// Per device tile (column-major), how many non-clock stored routes of
/// `d` occupy it: the reference walk, tile by tile through the net walk.
/// A route occupies every tile but its first, the source.
fn walked_occupancy(d: &Design, device: &Device) -> Vec<u32> {
    let rows = usize::from(device.rows());
    let mut occ = vec![0; usize::from(device.cols()) * rows];
    for route in NetView::from(d).nets().filter_map(|n| n.route()) {
        for t in route.tiles().skip(1).filter(|&t| device.in_bounds(t)) {
            occ[usize::from(t.col) * rows + usize::from(t.row)] += 1;
        }
    }
    occ
}

/// Per device tile, the occupancy the router seeded for `d` on
/// [`capacity_1`]. Every unrouted net of `d` is idle, so the router lays
/// no route and its final map is its seed.
fn seeded_occupancy(d: &Design) -> Vec<u32> {
    let device = &capacity_1();
    let opts = RouteOptions { max_iters: 1 };
    let (stats, map) = route_design_obs(&mut d.clone(), device, &opts, &Obs::null()).unwrap();
    assert_eq!(stats.routed_nets, 0, "an idle net was routed");
    let tiles = (0..device.cols()).flat_map(|c| (0..device.rows()).map(move |r| (c, r)));
    tiles
        .map(|(c, r)| {
            let t = TileCoord::new(c, r);
            map.span_fraction(t, t) as u32
        })
        .collect()
}

/// The route checks of `check_design` done by the reference walk: every
/// non-clock net in walk order, unrouted or each of its off-device tiles,
/// then every tile the walked occupancy puts over capacity.
fn walked_route_violations(d: &Design, device: &Device) -> Vec<Violation> {
    let mut violations = Vec::new();
    for net in NetView::from(d).nets() {
        let Some(route) = net.route() else {
            violations.push(Violation::Unrouted { net: net.path() });
            continue;
        };
        for at in route.tiles().filter(|&t| !device.in_bounds(t)) {
            let net = net.path();
            violations.push(Violation::RouteOffGrid { net, at });
        }
    }
    let rows = usize::from(device.rows());
    let capacity = device.route_capacity();
    for (i, &routes) in walked_occupancy(d, device).iter().enumerate() {
        if routes > u32::from(capacity) {
            violations.push(Violation::TileOverCapacity {
                at: TileCoord::new((i / rows) as u16, (i % rows) as u16),
                routes: routes as u16,
                capacity,
            });
        }
    }
    violations
}

/// `check_design`'s route violations, in its order.
fn drc_route_violations(d: &Design, device: &Device) -> Vec<Violation> {
    let all = check_design(d, device).unwrap();
    let route = |v: &Violation| {
        matches!(
            v,
            Violation::Unrouted { .. }
                | Violation::RouteOffGrid { .. }
                | Violation::TileOverCapacity { .. }
        )
    };
    all.into_iter().filter(route).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The route summary reads like the per-tile walk: seeded occupancy
    /// and the DRC's route violations, over-capacity tiles included, equal
    /// the reference, whether each instance's shifted extent lies on the
    /// device (summary read, tiles not walked) or leaves it (the per-tile
    /// fallback). Locked modules keep their unrouted nets, so `Unrouted`
    /// order is checked too.
    #[test]
    fn seeding_and_the_drc_read_the_summary_like_a_per_tile_walk(
        gs in proptest::collection::vec(geometry(), 1..4),
        shifts in proptest::collection::vec((-10i32..50, -10i32..30), 3..4),
    ) {
        // test-part is 40 rows tall: geometry within 40 tiles of the
        // origin, shifted by up to 50, lands on it, across its edge or
        // off it.
        let device = capacity_1();
        let mut d = Design::new("d", device.name(), DesignKind::Assembled);
        for (i, (g, &(dc, dr))) in gs.iter().zip(&shifts).enumerate() {
            let g = Geometry { base: 0, ..g.clone() };
            let m = g.module_with_idle_unrouted_nets();
            if let Some(t) = m.translated(dc, dr) {
                d.add_instance(format!("i{i}"), t);
            }
        }
        prop_assert_eq!(seeded_occupancy(&d), walked_occupancy(&d, &device));
        prop_assert_eq!(drc_route_violations(&d, &device), walked_route_violations(&d, &device));
    }
}

/// Writing a route through `nets_mut` resets the summary: the next
/// seeding counts the new tiles and the DRC stops calling the net
/// unrouted.
#[test]
fn a_write_through_nets_mut_resets_the_route_summary() {
    let device = Device::test_part();
    let mut b = ModuleBuilder::new("m");
    let c0 = b.cell(Cell::new("c0", CellKind::full_slice()));
    let mut routed = Net::new("routed", Endpoint::Cell(c0), vec![Endpoint::Cell(c0)]);
    routed.route = Some(Route::new(vec![TileCoord::new(2, 3), TileCoord::new(2, 4)]));
    b.net(routed);
    b.connect("later", Endpoint::Cell(c0), [Endpoint::Cell(c0)]);
    let mut d = Design::new("d", "test-part", DesignKind::Flat);
    d.add_instance("i", b.finish().unwrap().translated(1, 1).unwrap());

    let before = seeded_occupancy(&d);
    assert_eq!(before, walked_occupancy(&d, &device));
    assert_eq!(before.iter().sum::<u32>(), 1);
    let unrouted = vec![Violation::Unrouted {
        net: "i/later".to_string(),
    }];
    assert_eq!(drc_route_violations(&d, &device), unrouted);

    let new_tiles = vec![TileCoord::new(5, 5), TileCoord::new(6, 5)];
    d.instances_mut()[0].module.nets_mut().unwrap()[1].route = Some(Route::new(new_tiles));
    let after = seeded_occupancy(&d);
    assert_eq!(after, walked_occupancy(&d, &device));
    assert_eq!(
        after.iter().sum::<u32>(),
        2,
        "the new route's tiles are counted"
    );
    assert_eq!(drc_route_violations(&d, &device), vec![]);
}

/// An unlocked translated module hands its writer device-frame routes, and
/// the net walk reads them unshifted afterwards.
#[test]
fn nets_mut_on_a_translated_module_returns_device_frame_routes() {
    let mut b = ModuleBuilder::new("m");
    let c0 = b.cell(Cell::new("c0", CellKind::full_slice()));
    let c1 = b.cell(Cell::new("c1", CellKind::full_slice()));
    let mut net = Net::new("n", Endpoint::Cell(c0), vec![Endpoint::Cell(c1)]);
    net.route = Some(Route::new(vec![
        TileCoord::new(1, 2),
        TileCoord::new(2, 2),
        TileCoord::new(3, 2),
    ]));
    b.net(net);
    let m = b.finish().unwrap();
    let checkpoint_json = serde_json::to_string(&m).unwrap();

    let mut t = m.translated(10, 20).unwrap();
    let want = vec![
        TileCoord::new(11, 22),
        TileCoord::new(12, 22),
        TileCoord::new(13, 22),
    ];
    assert_eq!(walked_routes(&t), vec![Some(want.clone())]);
    let routes = t.nets_mut().unwrap();
    assert_eq!(
        routes[0].route,
        Some(Route::new(want.clone())),
        "stored baked"
    );
    assert_eq!(
        walked_routes(&t),
        vec![Some(want.clone())],
        "no second shift"
    );
    assert!(
        !serde_json::to_string(&t).unwrap().contains("route_offset"),
        "the offset is baked in"
    );
    assert_eq!(serde_json::to_string(&m).unwrap(), checkpoint_json);
}

/// Assemble `network` and check that every instance reads its
/// checkpoint's net storage: assembly copies no net. The compile tail's
/// `total_wirelength`, which counts each instance's routes through its
/// shared footprint, equals a walk over every routed net.
fn assert_instances_share_nets(network: Network, synth: SynthOptions, granularity: Granularity) {
    let device = Device::xcku5p_like();
    // Sharing does not depend on placement quality: one short sweep (an
    // effort below ~0.2 leaves VGG-16 with off-grid routes).
    let cfg = FlowConfig::new()
        .with_synth(synth)
        .with_granularity(granularity)
        .with_seeds([1])
        .with_effort(0.5);
    let (db, _) = build_component_db(&network, &device, &cfg).unwrap();
    let (design, report) = run_pre_implemented_flow(&network, &db, &device, &cfg).unwrap();
    let signatures = &report.compose.component_signatures;
    assert_eq!(signatures.len(), design.instances().len());
    for (inst, sig) in design.instances().iter().zip(signatures) {
        let cp = db.require(sig).unwrap();
        assert_eq!(
            inst.module.nets().as_ptr(),
            cp.module.nets().as_ptr(),
            "{}: instance {} copied its nets",
            network.name,
            inst.name
        );
    }
    let routes = NetView::from(&design).nets().filter_map(|n| n.route());
    let walked: u64 = routes.map(|r| r.tiles().len() as u64).sum();
    assert_eq!(report.compile.total_wirelength, walked, "{}", network.name);
}

fn import(text: &str, format: ModelFormat) -> Network {
    let imported = preimpl_cnn::model::import(text, format);
    imported.expect("bundled descriptor imports").network
}

// The five networks of the zoo, one test each so they assemble in parallel.

#[test]
fn lenet_instances_share_their_checkpoints_nets() {
    let network = import(include_str!("../models/lenet.json"), ModelFormat::Json);
    assert_instances_share_nets(network, SynthOptions::lenet_like(), Granularity::Layer);
}

#[test]
fn cifar10_quick_instances_share_their_checkpoints_nets() {
    let text = include_str!("../models/cifar10_quick.prototxt");
    let network = import(text, ModelFormat::Prototxt);
    assert_instances_share_nets(network, SynthOptions::lenet_like(), Granularity::Layer);
}

#[test]
fn resnet_small_instances_share_their_checkpoints_nets() {
    let network = import(
        include_str!("../models/resnet_small.json"),
        ModelFormat::Json,
    );
    assert_instances_share_nets(network, SynthOptions::lenet_like(), Granularity::Layer);
}

#[test]
fn alexnet_instances_share_their_checkpoints_nets() {
    let network = import(include_str!("../models/alexnet.json"), ModelFormat::Json);
    assert_instances_share_nets(network, SynthOptions::vgg_like(), Granularity::Layer);
}

#[test]
fn vgg16_instances_share_their_checkpoints_nets() {
    let network = models::vgg16();
    assert_instances_share_nets(network, SynthOptions::vgg_like(), Granularity::Block);
}
