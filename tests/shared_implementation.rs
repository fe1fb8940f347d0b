//! Function optimization implements each distinct netlist once: components
//! whose netlists differ only in names share one placed-and-routed result.
//!
//! Sharing is only correct because placement, routing and timing read no
//! module, cell or net name. The property below pins that invariant; the
//! tests after it pin the sharing itself: a database build equals building
//! every component on its own, hash for hash, at any thread count, with one
//! seed sweep per distinct netlist.

use preimpl_cnn::flow::function_opt::build_component;
use preimpl_cnn::flow::{plan_partpins, size_pblock};
use preimpl_cnn::obs::Event;
use preimpl_cnn::pnr::{place_module_obs, route_module_obs, sta_module, PlaceOptions, PlaceStats};
use preimpl_cnn::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// `m` with every module, cell and net name replaced by a salted one of
/// varying length, so no name survives and none sorts like its original.
fn scrambled(m: &Module, salt: u64) -> Module {
    let name = |kind: &str, i: usize| {
        let h = (i as u64 ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        format!("{kind}{:x}_{i}", h >> (h % 48))
    };
    let mut s = m.clone();
    s.name = name("m", usize::MAX);
    for (i, c) in s.cells_mut().unwrap().iter_mut().enumerate() {
        c.name = name("c", i).into();
    }
    for (i, n) in s.nets_mut().unwrap().iter_mut().enumerate() {
        n.name = name("n", i);
    }
    s
}

/// The implementation steps of one placement seed, as function
/// optimization runs them.
fn implement(proto: &Module, device: &Device, seed: u64) -> (Module, PlaceStats, TimingReport) {
    let cfg = FlowConfig::new();
    let pblock = size_pblock(&proto.resources(), device, cfg.pblock_utilization).unwrap();
    let mut m = proto.clone();
    m.pblock = Some(pblock);
    plan_partpins(&mut m, &pblock).unwrap();
    let opts = PlaceOptions {
        seed,
        effort: cfg.effort,
        region: Some(pblock),
    };
    let stats = place_module_obs(&mut m, device, &opts, &Obs::null()).unwrap();
    plan_partpins(&mut m, &pblock).unwrap();
    let (_, congestion) = route_module_obs(&mut m, device, &cfg.route, &Obs::null()).unwrap();
    let timing = sta_module(&m, device, Some(&congestion)).unwrap();
    (m, stats, timing)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Scrambling every module, cell and net name of a synthesized
    /// component changes no placement, no route and no Fmax bit; renaming
    /// the result back gives exactly the unscrambled implementation.
    #[test]
    fn implementation_is_blind_to_names(
        pick in 0usize..6,
        seed in 1u64..50,
        salt in 0u64..u64::MAX,
    ) {
        let device = Device::xcku5p_like();
        let network = models::lenet5();
        let components = network.components(Granularity::Layer).unwrap();
        let component = &components[pick % components.len()];
        let proto = preimpl_cnn::synth::synth_component(
            &network,
            component,
            &SynthOptions::lenet_like(),
        )
        .unwrap();
        let renamed = scrambled(&proto, salt);
        prop_assert!(renamed.same_netlist(&proto));
        prop_assert!(renamed.cells().iter().zip(proto.cells()).all(|(a, b)| a.name != b.name));

        let (a, a_stats, a_timing) = implement(&proto, &device, seed);
        let (b, b_stats, b_timing) = implement(&renamed, &device, seed);
        for (x, y) in a.cells().iter().zip(b.cells()) {
            prop_assert_eq!(x.placement, y.placement, "cell {}", &x.name);
        }
        for (x, y) in a.nets().iter().zip(b.nets()) {
            prop_assert_eq!(&x.route, &y.route, "net {}", &x.name);
        }
        prop_assert_eq!((a_stats.moves, a_stats.accepted), (b_stats.moves, b_stats.accepted));
        prop_assert_eq!(a_stats.final_cost.to_bits(), b_stats.final_cost.to_bits());
        prop_assert_eq!(a_timing.fmax_mhz.to_bits(), b_timing.fmax_mhz.to_bits());
        prop_assert_eq!(
            a_timing.critical_path_ps.to_bits(),
            b_timing.critical_path_ps.to_bits()
        );
        prop_assert!(b.same_netlist(&a));
        prop_assert!(b.renamed_like(&proto) == a);
    }
}

/// Two equal pools on different input sizes: one distinct netlist.
fn two_pools() -> Network {
    parse_archdef("network twopools\ninput 4x16x16\npool p1 window=2\npool p2 window=2\n").unwrap()
}

fn events_named<'a>(events: &'a [Event], name: &str) -> Vec<&'a Event> {
    events.iter().filter(|e| e.name == name).collect()
}

#[test]
fn a_shared_build_equals_building_each_component() {
    let device = Device::xcku5p_like();
    let network = two_pools();
    let components = network.components(Granularity::Layer).unwrap();
    assert_eq!(components.len(), 2);
    assert_ne!(
        components[0].signature(&network),
        components[1].signature(&network),
        "the pools must see different input sizes"
    );
    let seeds = [1, 2];
    let alone: Vec<Checkpoint> = components
        .iter()
        .map(|c| {
            let cfg = FlowConfig::new().with_seeds(seeds);
            build_component(&network, c, &device, &cfg).unwrap().0
        })
        .collect();
    assert!(alone[0].module.same_netlist(&alone[1].module));

    let mut streams = Vec::new();
    for threads in [1, 4] {
        let sink = Arc::new(MemorySink::new());
        let cfg = FlowConfig::new()
            .with_seeds(seeds)
            .with_threads(threads)
            .with_sink(sink.clone());
        let (db, reports) = build_component_db(&network, &device, &cfg).unwrap();
        for (c, cp) in components.iter().zip(&alone) {
            let shared = db.get(&c.signature(&network)).unwrap();
            assert_eq!(
                shared.content_hash(),
                cp.content_hash(),
                "{} differs from its own build at {threads} threads",
                c.name
            );
            assert!(shared.module == cp.module);
        }
        assert_eq!(reports[0].seeds_tried, seeds.len());
        assert_eq!(reports[0].reused_from, None);
        assert_eq!(reports[1].seeds_tried, 0);
        assert_eq!(reports[1].reused_from.as_deref(), Some("p1"));

        // One seed sweep for the one distinct netlist.
        let events = sink.snapshot();
        assert_eq!(events_named(&events, "dse_seed").len(), seeds.len());
        let built = events_named(&events, "component_built");
        assert_eq!(built.len(), 2);
        let fields = serde_json::to_string(&built[1].fields).unwrap();
        assert!(fields.contains(r#"["reused_from","p1"]"#), "{fields}");
        assert!(fields.contains(r#"["seeds_tried",0]"#), "{fields}");
        assert!(!serde_json::to_string(&built[0].fields)
            .unwrap()
            .contains("reused_from"));
        streams.push(sink.stripped_jsonl());
    }
    assert_eq!(
        streams[0], streams[1],
        "telemetry differs between 1 and 4 threads"
    );
}

#[test]
fn distinct_netlists_are_not_shared() {
    let device = Device::xcku5p_like();
    let network = models::toy();
    let cfg = FlowConfig::new().with_seeds([1]);
    let (_, reports) = build_component_db(&network, &device, &cfg).unwrap();
    assert!(reports
        .iter()
        .all(|r| r.reused_from.is_none() && r.seeds_tried == 1));
}
