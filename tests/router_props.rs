//! Property and determinism tests for the Steiner-aware, slack-driven
//! parallel router.
//!
//! * Steiner decomposition must always produce a topology that connects
//!   every terminal, at no more wirelength than the fan-out star it
//!   replaces.
//! * Criticality ordering must be a permutation, sorted most-negative
//!   slack first with index tie-breaks.
//! * Routes and the telemetry stream must be byte-identical at
//!   `PI_THREADS` = 1, 2 and 8 — the parallel proposal wave and the
//!   deterministic merge may not leak the schedule into results.
//! * Occupancy seeding charges only on-grid tiles of stored routes, so an
//!   off-grid stored route reaches the DRC's `RouteOffGrid` verdict.

use preimpl_cnn::obs::{MemorySink, Obs};
use preimpl_cnn::pnr::{criticality_order, steiner_topology, RouteOptions};
use preimpl_cnn::prelude::*;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex};

use preimpl_cnn::netlist::{Cell, CellKind, Endpoint, ModuleBuilder, StreamRole};
use rayon as pi_rayon;

/// The worker-thread level is process-global; tests that change it must
/// not interleave (same pattern as `tests/parallel_backend.rs`).
static LEVEL_LOCK: Mutex<()> = Mutex::new(());

fn with_level<R>(level: usize, f: impl FnOnce() -> R) -> R {
    let _guard = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pi_rayon::set_num_threads(level);
    let out = f();
    pi_rayon::set_num_threads(4);
    out
}

fn manhattan(a: TileCoord, b: TileCoord) -> u64 {
    u64::from(a.manhattan(&b))
}

proptest! {
    /// Every terminal of a net is spanned by its Steiner topology, and
    /// the tree never costs more wire than the star from the driver.
    #[test]
    fn steiner_topology_connects_all_terminals_within_star_wirelength(
        raw in proptest::collection::vec((0u16..30, 0u16..20), 2..12),
    ) {
        let terminals: Vec<TileCoord> =
            raw.iter().map(|&(c, r)| TileCoord::new(c, r)).collect();
        let segments = steiner_topology(&terminals);

        // Wirelength: tree <= star (the star is a valid Steiner topology,
        // so decomposition may never do worse).
        let tree_wl: u64 = segments.iter().map(|(a, b)| manhattan(*a, *b)).sum();
        let star_wl: u64 = terminals[1..]
            .iter()
            .map(|&t| manhattan(terminals[0], t))
            .sum();
        prop_assert!(
            tree_wl <= star_wl,
            "tree {} > star {} for {:?}",
            tree_wl,
            star_wl,
            terminals
        );

        // Connectivity: BFS from the driver over the segment graph reaches
        // every distinct terminal.
        let mut adj: HashMap<TileCoord, Vec<TileCoord>> = HashMap::new();
        for &(a, b) in &segments {
            adj.entry(a).or_default().push(b);
            adj.entry(b).or_default().push(a);
        }
        let mut seen: HashSet<TileCoord> = HashSet::new();
        let mut queue = VecDeque::from([terminals[0]]);
        seen.insert(terminals[0]);
        while let Some(at) = queue.pop_front() {
            for &next in adj.get(&at).into_iter().flatten() {
                if seen.insert(next) {
                    queue.push_back(next);
                }
            }
        }
        for &t in &terminals {
            prop_assert!(
                seen.contains(&t),
                "terminal {:?} not spanned by {:?}",
                t,
                segments
            );
        }
    }

    /// Criticality ordering is a permutation of the net indices, sorted
    /// ascending by slack with index tie-breaks — every net routes exactly
    /// once per wave, most critical first.
    #[test]
    fn criticality_order_is_a_sorted_permutation(
        raw in proptest::collection::vec(-30_000i64..30_000, 0..64),
    ) {
        // Mix finite slacks with ties (coarse quantization) and +inf
        // (unconstrained nets, e.g. clocks).
        let slacks: Vec<f64> = raw
            .iter()
            .map(|&x| {
                if x % 10 == 0 {
                    f64::INFINITY
                } else {
                    f64::from((x / 100) as i32)
                }
            })
            .collect();
        let order = criticality_order(&slacks);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..slacks.len()).collect::<Vec<_>>());
        for w in order.windows(2) {
            let (a, b) = (w[0], w[1]);
            prop_assert!(
                slacks[a] < slacks[b] || (slacks[a] == slacks[b] && a < b),
                "order not (slack, index)-sorted: {} before {} in {:?}",
                a,
                b,
                slacks
            );
        }
    }
}

/// A module with fan-out nets spread across the fabric and a capacity low
/// enough to force negotiation: Steiner decomposition, slack ordering and
/// rip-up all engage.
fn fanout_module() -> Module {
    let mut b = ModuleBuilder::new("fan");
    let din = b.input("din", StreamRole::Source, 16);
    let dout = b.output("dout", StreamRole::Sink, 16);
    let mut drivers = Vec::new();
    let mut sinks = Vec::new();
    for n in 0..10u16 {
        let drv = b.cell(Cell::new(format!("d{n}"), CellKind::full_slice()));
        let fan: Vec<_> = (0..3)
            .map(|k| b.cell(Cell::new(format!("s{n}_{k}"), CellKind::full_slice())))
            .collect();
        b.connect(
            format!("net{n}"),
            Endpoint::Cell(drv),
            fan.iter().map(|&c| Endpoint::Cell(c)).collect::<Vec<_>>(),
        );
        drivers.push(drv);
        sinks.push(fan);
    }
    b.connect("in", Endpoint::Port(din), [Endpoint::Cell(drivers[0])]);
    b.connect("out", Endpoint::Cell(sinks[9][2]), [Endpoint::Port(dout)]);
    let mut m = b.finish().unwrap();
    for (n, &drv) in drivers.iter().enumerate() {
        let n = n as u16;
        m.set_placement(drv, TileCoord::new(2 * n + 1, 1)).unwrap();
        m.set_placement(sinks[n as usize][0], TileCoord::new(2 * n + 1, 15))
            .unwrap();
        m.set_placement(sinks[n as usize][1], TileCoord::new(2 * n + 3, 8))
            .unwrap();
        m.set_placement(sinks[n as usize][2], TileCoord::new((2 * n + 11) % 25, 18))
            .unwrap();
    }
    m
}

fn route_at_level(level: usize) -> (String, Vec<Option<preimpl_cnn::netlist::Route>>, u64) {
    with_level(level, || {
        let device = Device::test_part();
        let mut m = fanout_module();
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::new(sink.clone());
        let opts = RouteOptions {
            capacity: 4,
            ..RouteOptions::default()
        };
        let (stats, _) = preimpl_cnn::pnr::route_module_obs(&mut m, &device, &opts, &obs).unwrap();
        (
            sink.stripped_jsonl(),
            m.nets().iter().map(|n| n.route.clone()).collect(),
            stats.steiner_segments,
        )
    })
}

#[test]
fn routes_and_telemetry_are_identical_across_thread_counts() {
    let (base_stream, base_routes, steiner_segments) = route_at_level(1);
    assert!(!base_stream.is_empty(), "telemetry captured");
    assert!(
        steiner_segments > 0,
        "fan-out nets must exercise the Steiner path"
    );
    assert!(
        base_routes
            .iter()
            .any(|r| r.as_ref().is_some_and(|r| !r.tiles.is_empty())),
        "nets routed"
    );
    for level in [2, 8] {
        let (stream, routes, _) = route_at_level(level);
        assert_eq!(
            base_stream, stream,
            "telemetry stream changed between 1 and {level} worker threads"
        );
        assert_eq!(
            base_routes, routes,
            "routes changed between 1 and {level} worker threads"
        );
    }
}

/// `fanout_module` with both stream ports partition-pinned, so the two
/// port nets are real routable two-terminal nets.
fn pinned_fanout_module() -> Module {
    let mut m = fanout_module();
    let ports = m.ports_mut().unwrap();
    ports[0].partpin = Some(TileCoord::new(0, 1));
    ports[1].partpin = Some(TileCoord::new(26, 18));
    m
}

/// Everything a routing run leaves behind, in comparable form: routes in
/// net order, stats, congestion map, stripped telemetry.
type RouteOutcome = (
    Vec<Option<preimpl_cnn::netlist::Route>>,
    String,
    String,
    String,
);

fn route_outcome(level: usize, as_design: bool) -> RouteOutcome {
    with_level(level, || {
        let device = Device::test_part();
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::new(sink.clone());
        let opts = RouteOptions {
            capacity: 4,
            ..RouteOptions::default()
        };
        let (module, stats, map) = if as_design {
            let mut d = Design::flat("fan", device.name(), pinned_fanout_module());
            let (stats, map) =
                preimpl_cnn::pnr::route_design_obs(&mut d, &device, &opts, &obs).unwrap();
            (d.instances()[0].module.clone(), stats, map)
        } else {
            let mut m = pinned_fanout_module();
            let (stats, map) =
                preimpl_cnn::pnr::route_module_obs(&mut m, &device, &opts, &obs).unwrap();
            (m, stats, map)
        };
        assert_eq!(stats.trivial_nets, 0, "every net has located terminals");
        (
            module.nets().iter().map(|n| n.route.clone()).collect(),
            format!("{stats:?}"),
            format!("{map:?}"),
            sink.stripped_jsonl(),
        )
    })
}

/// A module is the one-instance case of a design: routing it bare and
/// routing it wrapped in `Design::flat` must agree on every net's route,
/// the stats, the congestion map and the telemetry bytes.
#[test]
fn a_module_routes_like_the_flat_design_that_wraps_it() {
    for level in [1, 4] {
        let bare = route_outcome(level, false);
        let wrapped = route_outcome(level, true);
        assert!(bare.0.iter().all(|r| r.is_some()), "module fully routed");
        assert_eq!(bare.0, wrapped.0, "routes differ at {level} threads");
        assert_eq!(bare.1, wrapped.1, "RouteStats differ at {level} threads");
        assert_eq!(
            bare.2, wrapped.2,
            "congestion maps differ at {level} threads"
        );
        assert_eq!(bare.3, wrapped.3, "telemetry differs at {level} threads");
    }
}

/// Same contract for timing: the flat design's graph is the module's graph
/// with every node name behind a `top/` prefix.
#[test]
fn a_module_times_like_the_flat_design_that_wraps_it() {
    use preimpl_cnn::pnr::{sta_design, sta_module};
    let device = Device::test_part();
    let m = pinned_fanout_module();
    let d = Design::flat("fan", device.name(), m.clone());
    let a = sta_module(&m, &device, None).unwrap();
    let b = sta_design(&d, &device, None).unwrap();
    assert_eq!(a.critical_path_ps, b.critical_path_ps);
    assert_eq!(a.fmax_mhz, b.fmax_mhz);
    assert_eq!((a.nodes, a.edges), (b.nodes, b.edges));
    let prefixed: Vec<String> = a.worst_path.iter().map(|n| format!("top/{n}")).collect();
    assert_eq!(prefixed, b.worst_path);
}

/// A locked instance whose stored route leaves the grid — one tile past
/// the last column, or one past the last row — must reach the DRC's
/// `RouteOffGrid` verdict. Router seeding skips the off-grid tile: it
/// neither indexes out of bounds (past the last column) nor charges the
/// tile it aliases, (col + 1, row - rows) (past the last row).
#[test]
fn an_off_grid_stored_route_reaches_the_drc() {
    use preimpl_cnn::netlist::{DesignKind, Route};
    use preimpl_cnn::stitch::{check_design, Violation};
    let device = Device::test_part();
    let (cols, rows) = (device.cols(), device.rows());
    for bad in [TileCoord::new(cols, 1), TileCoord::new(2, rows)] {
        let mut b = ModuleBuilder::new("m");
        let din = b.input("din", StreamRole::Source, 8);
        let c = b.cell(Cell::new("c", CellKind::full_slice()));
        b.connect("n", Endpoint::Port(din), [Endpoint::Cell(c)]);
        let mut m = b.finish().unwrap();
        m.set_placement(c, TileCoord::new(2, 1)).unwrap();
        m.ports_mut().unwrap()[din.index()].partpin = Some(TileCoord::new(1, 1));
        m.nets_mut().unwrap()[0].route = Some(Route {
            tiles: vec![TileCoord::new(1, 1), TileCoord::new(2, 1), bad],
        });
        m.lock();
        let mut d = Design::new("d", device.name(), DesignKind::Assembled);
        d.add_instance("a", m);
        let (stats, map) = preimpl_cnn::pnr::route_design_obs(
            &mut d,
            &device,
            &RouteOptions::default(),
            &Obs::null(),
        )
        .unwrap();
        assert_eq!(stats.routed_nets, 0);
        let aliased = TileCoord::new(3, 0);
        assert_eq!(map.span_fraction(aliased, aliased), 0.0, "{bad:?} aliased");
        let violations = check_design(&d, &device).unwrap();
        assert_eq!(
            violations,
            [Violation::RouteOffGrid {
                net: "a/n".to_string(),
                at: bad
            }]
        );
    }
}
