//! Property-based tests over the core data structures and invariants.

use pi_fabric::coords::hpwl;
use preimpl_cnn::fabric::{Device, Pblock, TileCoord};
use proptest::prelude::*;

proptest! {
    // ---- pblock geometry ----------------------------------------------

    /// Overlap is symmetric and overlap area is consistent with the
    /// boolean predicate.
    #[test]
    fn pblock_overlap_symmetry(
        a in pblock_strategy(), b in pblock_strategy()
    ) {
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
        prop_assert_eq!(a.overlap_area(&b), b.overlap_area(&a));
        prop_assert_eq!(a.overlaps(&b), a.overlap_area(&b) > 0);
        prop_assert_eq!(a.overlap_area(&a), a.area());
    }

    /// Translation preserves area and moves containment consistently.
    #[test]
    fn pblock_translation_preserves_area(
        pb in pblock_strategy(), dc in -40i32..40, dr in -40i32..40
    ) {
        if let Some(t) = pb.translated(dc, dr) {
            prop_assert_eq!(t.area(), pb.area());
            prop_assert_eq!(t.width(), pb.width());
            prop_assert_eq!(t.height(), pb.height());
        }
    }

    // ---- coordinates ---------------------------------------------------

    /// HPWL of a point set is at most the Manhattan path through the points
    /// and at least the HPWL of any subset.
    #[test]
    fn hpwl_bounds(points in proptest::collection::vec(coord_strategy(), 2..12)) {
        let h = hpwl(&points);
        let chain: u32 = points.windows(2).map(|w| w[0].manhattan(&w[1])).sum();
        prop_assert!(h <= chain, "hpwl {} > chain {}", h, chain);
        let sub = hpwl(&points[..points.len() - 1]);
        prop_assert!(sub <= h);
    }

    // ---- device geometry ------------------------------------------------

    /// Column-compatible relocation really lands every column on an
    /// identical column kind, and offsets compose with negation.
    #[test]
    fn relocation_offsets_are_sound(lo in 1u16..30, width in 1u16..20, seed in 0u8..4) {
        let device = match seed {
            0 => Device::test_part(),
            1 => Device::xcku060_like(),
            _ => Device::xcku5p_like(),
        };
        let hi = (lo + width).min(device.cols() - 1);
        for d in device.relocation_offsets(lo, hi) {
            for col in lo..=hi {
                let target = (i32::from(col) + d) as u16;
                prop_assert_eq!(device.column_kind(col), device.column_kind(target));
            }
            // Relocating back must be legal too.
            let lo2 = (i32::from(lo) + d) as u16;
            let hi2 = (i32::from(hi) + d) as u16;
            prop_assert!(device.columns_compatible(lo2, hi2, -d));
        }
    }

    /// Wire distance is symmetric and at least Manhattan distance.
    #[test]
    fn wire_distance_properties(a in coord_strategy(), b in coord_strategy()) {
        let device = Device::xcku5p_like();
        if device.in_bounds(a) && device.in_bounds(b) {
            let d1 = device.wire_distance(a, b);
            let d2 = device.wire_distance(b, a);
            prop_assert!((d1 - d2).abs() < 1e-9);
            prop_assert!(d1 >= a.manhattan(&b) as f64);
        }
    }

    // ---- archdef round trip ---------------------------------------------

    /// Randomly generated chains survive the archdef text round trip with
    /// identical statistics.
    #[test]
    fn archdef_round_trip(layers in proptest::collection::vec(0u8..3, 0..5)) {
        use preimpl_cnn::cnn::archdef::{parse_archdef, to_archdef};
        use preimpl_cnn::cnn::{ConvParams, FcParams, Layer, PoolParams, Shape};
        let mut net = preimpl_cnn::cnn::Network::new("rand");
        net.push_layer("input", Layer::Input(Shape::new(1, 64, 64)));
        let mut shape_ok = true;
        for (i, kind) in layers.iter().enumerate() {
            let layer = match kind {
                0 => Layer::Conv(ConvParams { kernel: 3, stride: 1, padding: 1, out_channels: 2 }),
                1 => Layer::Pool(PoolParams::max(2, 2)),
                _ => Layer::Relu,
            };
            net.push_layer(format!("l{i}"), layer);
            if net.input_shapes().is_err() {
                shape_ok = false;
                break;
            }
        }
        prop_assume!(shape_ok);
        net.push_layer("fc", Layer::Fc(FcParams { out_features: 4 }));
        prop_assume!(net.input_shapes().is_ok());
        let text = to_archdef(&net);
        let back = parse_archdef(&text).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(back.nodes().len(), net.nodes().len());
        prop_assert_eq!(back.stats().expect("stats"), net.stats().expect("stats"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random 2-pin nets on the test part always route as grid-adjacent
    /// paths, and the resulting occupancy never exceeds channel capacity.
    #[test]
    fn router_produces_adjacent_legal_paths(
        pairs in proptest::collection::vec(
            ((1u16..34, 0u16..40), (1u16..34, 0u16..40)),
            1..12
        )
    ) {
        use preimpl_cnn::netlist::{
            Cell, CellKind, Endpoint, ModuleBuilder, NetView, Slot, StreamRole,
        };
        use preimpl_cnn::obs::Obs;
        use preimpl_cnn::pnr::{route_module_obs, RouteOptions};
        let device = Device::test_part();
        let mut b = ModuleBuilder::new("rnd");
        let din = b.input("din", StreamRole::Source, 1);
        let dout = b.output("dout", StreamRole::Sink, 1);
        let mut cells = Vec::new();
        for (i, (p, q)) in pairs.iter().enumerate() {
            let a = b.cell(Cell::new(format!("a{i}"), CellKind::full_slice()));
            let z = b.cell(Cell::new(format!("z{i}"), CellKind::full_slice()));
            b.connect(format!("n{i}"), Endpoint::Cell(a), [Endpoint::Cell(z)]);
            cells.push((a, *p, z, *q));
        }
        // Keep the module structurally valid.
        let first = cells[0].0;
        let last = cells[cells.len() - 1].2;
        b.connect("in", Endpoint::Port(din), [Endpoint::Cell(first)]);
        b.connect("out", Endpoint::Cell(last), [Endpoint::Port(dout)]);
        let mut m = b.finish().expect("builds");
        for (a, p, z, q) in &cells {
            m.set_placement(*a, TileCoord::new(p.0, p.1)).expect("places");
            m.set_placement(*z, TileCoord::new(q.0, q.1)).expect("places");
        }
        let device = device.with_route_capacity("test-part-cap16", 16);
        let opts = RouteOptions { max_iters: 6 };
        let (stats, _) = route_module_obs(&mut m, &device, &opts, &Obs::null()).expect("routes");
        prop_assert_eq!(stats.overused_tiles, 0);
        let view = NetView::from(&m);
        let capacity = device.route_capacity();
        prop_assert!(view.occupancy(&device).iter().all(|&o| o <= capacity));
        for (i, net) in m.nets().iter().enumerate() {
            let Some(r) = view.net(Slot::Intra { inst: 0, net: i }).route() else { continue };
            let tiles: Vec<TileCoord> = r.tiles().collect();
            if net.degree() == 2 && tiles.len() >= 2 {
                for w in tiles.windows(2) {
                    prop_assert!(w[0].manhattan(&w[1]) <= 1, "non-adjacent step {:?}", w);
                }
            }
        }
    }

    /// STA is monotone in cell delay: slowing any combinational cell can
    /// never raise Fmax.
    #[test]
    fn sta_is_monotone_in_comb_delay(extra in 1u32..2000) {
        use preimpl_cnn::netlist::{Cell, CellKind, Endpoint, ModuleBuilder, StreamRole};
        use preimpl_cnn::pnr::sta_module;
        let device = Device::test_part();
        let build = |comb_ps: u32| {
            let mut b = ModuleBuilder::new("m");
            let din = b.input("din", StreamRole::Source, 1);
            let dout = b.output("dout", StreamRole::Sink, 1);
            let a = b.cell(Cell::new("a", CellKind::full_slice()));
            let k = b.cell(
                Cell::new("k", CellKind::full_slice())
                    .combinational()
                    .with_delay_ps(comb_ps),
            );
            let z = b.cell(Cell::new("z", CellKind::full_slice()));
            b.connect("i", Endpoint::Port(din), [Endpoint::Cell(a)]);
            b.connect("1", Endpoint::Cell(a), [Endpoint::Cell(k)]);
            b.connect("2", Endpoint::Cell(k), [Endpoint::Cell(z)]);
            b.connect("o", Endpoint::Cell(z), [Endpoint::Port(dout)]);
            let mut m = b.finish().expect("builds");
            for (i, id) in [0u32, 1, 2].into_iter().enumerate() {
                m.set_placement(preimpl_cnn::netlist::CellId(id), TileCoord::new(1 + i as u16, 1))
                    .expect("places");
            }
            m
        };
        let base = sta_module(&build(100), &device, None).expect("sta");
        let slower = sta_module(&build(100 + extra), &device, None).expect("sta");
        prop_assert!(slower.fmax_mhz <= base.fmax_mhz);
    }
}

fn pblock_strategy() -> impl Strategy<Value = Pblock> {
    (0u16..100, 0u16..100, 1u16..40, 1u16..40)
        .prop_map(|(c, r, w, h)| Pblock::new(c, c + w - 1, r, r + h - 1))
}

fn coord_strategy() -> impl Strategy<Value = TileCoord> {
    (0u16..130, 0u16..440).prop_map(|(c, r)| TileCoord::new(c, r))
}
