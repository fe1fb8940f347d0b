//! Bit-identity of static timing and of the DRC verdict, pinned in tier-1.
//!
//! The fingerprints below were captured at the commit *before* the timing
//! graph dropped its per-node names, moved to CSR adjacency and a dense
//! capture table, the congestion lookup became a summed-area table and the
//! DRC's site-ownership map became a dense grid. Any change to a path
//! delay, the f64 evaluation order, the multi-path ranking, a reported
//! name, the graph size or the order and content of a violation list
//! changes a value here. A PR that intends to change timing re-captures
//! them and says so. A design's second analysis, which builds its graph
//! from the edges the first one left on the checkpoints' shared storage,
//! is pinned to the same value.

use preimpl_cnn::flow::pipeline_top_nets;
use preimpl_cnn::netlist::{CheckpointMeta, StableHasher, StreamRole};
use preimpl_cnn::pnr::{
    place_module_obs, route_assembled_obs, route_design_obs, route_module_obs, sta_design,
    sta_module, PlaceOptions, RouteOptions,
};
use preimpl_cnn::prelude::*;
use preimpl_cnn::stitch::{check_design, compose_obs, ComposeOptions};
use preimpl_cnn::synth::synth_component;
use std::sync::OnceLock;

/// `StableHasher` over every field of a report: `critical_path_ps` and
/// `fmax_mhz` bits, the worst path's names, each `top_paths` entry's bits
/// and names in order, then `nodes` and `edges`.
fn fingerprint(r: &TimingReport) -> u64 {
    let mut h = StableHasher::new();
    h.write_f64(r.critical_path_ps);
    h.write_f64(r.fmax_mhz);
    h.write_usize(r.worst_path.len());
    for name in &r.worst_path {
        h.write_str(name);
    }
    h.write_usize(r.top_paths.len());
    for p in &r.top_paths {
        h.write_f64(p.path_ps);
        h.write_f64(p.slack_ps);
        h.write_str(&p.endpoint);
        h.write_str(&p.through);
    }
    h.write_usize(r.nodes);
    h.write_usize(r.edges);
    h.finish()
}

struct Built {
    network: Network,
    db: ComponentDb,
    cfg: FlowConfig,
}

fn build(network: Network) -> Built {
    let device = Device::xcku5p_like();
    let cfg = FlowConfig::new()
        .with_synth(SynthOptions::lenet_like())
        .with_seeds([1]);
    let (db, _) = build_component_db(&network, &device, &cfg).expect("db builds");
    Built { network, db, cfg }
}

fn lenet() -> &'static Built {
    static CELL: OnceLock<Built> = OnceLock::new();
    CELL.get_or_init(|| build(models::lenet5()))
}

fn resnet_small() -> &'static Built {
    static CELL: OnceLock<Built> = OnceLock::new();
    CELL.get_or_init(|| build(models::resnet_small()))
}

/// The design `run_pre_implemented_flow` hands to the router: composed,
/// long links pipelined, inter-component nets unrouted.
fn composed(b: &Built, device: &Device) -> Design {
    let opts = ComposeOptions {
        granularity: b.cfg.granularity,
        placer: b.cfg.placer,
    };
    let (mut design, _) = compose_obs(&b.network, &b.db, device, &opts, &Obs::null()).unwrap();
    pipeline_top_nets(&mut design);
    design
}

/// Two negotiation iterations on an 8-wires-per-tile variant of the part
/// ([`saturated`]): the locked interiors alone saturate the channels, so
/// every hop pays a congestion term.
const SATURATED: RouteOptions = RouteOptions { max_iters: 2 };

fn saturated(device: &Device) -> Device {
    let name = format!("{}-cap8", device.name());
    device.clone().with_route_capacity(&name, 8)
}

/// `route_design_obs` on a clone, then `sta_design` against its map: the
/// analysis a freshly built graph gives the routed design.
fn fresh_analysis(design: &Design, device: &Device, opts: &RouteOptions) -> TimingReport {
    let mut routed = design.clone();
    let (_, map) = route_design_obs(&mut routed, device, opts, &Obs::null()).unwrap();
    sta_design(&routed, device, Some(&map)).unwrap()
}

/// `route_assembled_obs(..).timing` on a clone: the routing run's own
/// final analysis.
fn assembled_timing(design: &Design, device: &Device, opts: &RouteOptions) -> TimingReport {
    let mut assembled = design.clone();
    let compile = route_assembled_obs(&mut assembled, device, opts, &Obs::null()).unwrap();
    compile.timing
}

/// `design` with every instance's net storage unshared and nothing
/// derived from it yet: the next analysis builds each instance's edges.
fn cold(design: &Design) -> Design {
    let mut cold = design.clone();
    for inst in cold.instances_mut() {
        inst.module = inst.module.renamed_like(&inst.module);
    }
    cold
}

/// Per network: `sta_design` on the composed design, first on a copy with
/// nothing derived ([`cold`]) and then again on it, which reads the edges
/// the first analysis left on the shared storage; on the routed design
/// without its congestion map; then the fresh and the routing run's own
/// analysis at the flow's routing options and at [`SATURATED`]. A
/// saturated map counts each stored route on every tile but its source
/// (`pi_netlist::occupied_tiles`), as the router counts its own.
fn design_fingerprints(b: &Built) -> [u64; 7] {
    let device = Device::xcku5p_like();
    let design = composed(b, &device);
    let cold = cold(&design);
    let unrouted = sta_design(&cold, &device, None).unwrap();
    let again = sta_design(&cold, &device, None).unwrap();
    let mut routed = design.clone();
    route_design_obs(&mut routed, &device, &b.cfg.route, &Obs::null()).unwrap();
    let plain = sta_design(&routed, &device, None).unwrap();
    [
        unrouted,
        again,
        plain,
        fresh_analysis(&design, &device, &b.cfg.route),
        assembled_timing(&design, &device, &b.cfg.route),
        fresh_analysis(&design, &saturated(&device), &SATURATED),
        assembled_timing(&design, &saturated(&device), &SATURATED),
    ]
    .map(|r| fingerprint(&r))
}

#[test]
fn sta_module_on_a_placed_lenet_component_matches_parent_commit() {
    let device = Device::xcku5p_like();
    let b = lenet();
    let got: Vec<u64> =
        b.db.checkpoints()
            .map(|cp| fingerprint(&sta_module(&cp.module, &device, None).unwrap()))
            .collect();
    assert_eq!(
        got,
        [
            0x6d4fa085edbf5948,
            0xd72d6a18d026f784,
            0x26638ce0d7b2db5b,
            0xd3e161964335e6ef,
            0xe4382d4b148f5b4c,
            0x09b85a52c984fa86,
        ],
        "{got:#x?}"
    );
}

#[test]
fn sta_design_on_composed_lenet_matches_parent_commit() {
    let got = design_fingerprints(lenet());
    let (routed, saturated) = (0xc1cbb0d7978fada1, 0x2ced2df6688b80b2);
    assert_eq!(
        got,
        [routed, routed, routed, routed, routed, saturated, saturated],
        "{got:#x?}"
    );
}

#[test]
fn sta_design_on_composed_resnet_small_matches_parent_commit() {
    let got = design_fingerprints(resnet_small());
    let (routed, saturated) = (0x61d66a5ed47e6176, 0x5387416b2ce3d372);
    assert_eq!(
        got,
        [routed, routed, routed, routed, routed, saturated, saturated],
        "{got:#x?}"
    );
}

/// The routing run's own final analysis is the analysis a fresh graph
/// would give: routing a clone and timing it against the router's map
/// reproduces `route_assembled_obs(..).timing` field for field, with and
/// without saturated channels.
#[test]
fn route_assembled_timing_equals_a_fresh_analysis() {
    let device = Device::xcku5p_like();
    for b in [lenet(), resnet_small()] {
        let design = composed(b, &device);
        for (device, opts) in [
            (device.clone(), b.cfg.route),
            (saturated(&device), SATURATED),
        ] {
            let own = assembled_timing(&design, &device, &opts);
            let fresh = fresh_analysis(&design, &device, &opts);
            assert_eq!(format!("{own:?}"), format!("{fresh:?}"));
            assert_eq!(fingerprint(&own), fingerprint(&fresh));
        }
    }
}

/// `stitch::verify`'s test database: toy network, every component placed,
/// pinned and routed in the same pblock, then locked.
fn toy_db(device: &Device, network: &Network) -> ComponentDb {
    let comps = network.components(Granularity::Layer).unwrap();
    let mut db = ComponentDb::new();
    for comp in &comps {
        let mut m = synth_component(network, comp, &SynthOptions::lenet_like()).unwrap();
        let pb = Pblock::new(1, 16, 0, 59);
        m.pblock = Some(pb);
        let place = PlaceOptions {
            seed: 7,
            effort: 0.5,
            region: Some(pb),
        };
        place_module_obs(&mut m, device, &place, &Obs::null()).unwrap();
        let n_ports = m.ports().len();
        for (i, port) in m.ports_mut().unwrap().iter_mut().enumerate() {
            let row = (i * 59 / n_ports.max(1)) as u16;
            let col = match port.role {
                StreamRole::Source | StreamRole::Clock => 1,
                _ => 16,
            };
            port.partpin = Some(TileCoord::new(col, row));
        }
        route_module_obs(&mut m, device, &RouteOptions::default(), &Obs::null()).unwrap();
        m.lock();
        db.insert(Checkpoint {
            meta: CheckpointMeta {
                signature: comp.signature(network),
                fmax_mhz: 500.0,
                resources: m.resources(),
                pblock: pb,
                device: device.name().to_string(),
                latency_cycles: 8,
            },
            module: m,
        });
    }
    db
}

/// Count, then `StableHasher` over each violation's `Debug` form in list
/// order (names, `SiteConflict` tags and coordinates included).
fn verdict(design: &Design, device: &Device) -> (usize, u64) {
    let violations = check_design(design, device).unwrap();
    let mut h = StableHasher::new();
    for v in &violations {
        h.write_str(&format!("{v:?}"));
    }
    (violations.len(), h.finish())
}

#[test]
fn drc_verdicts_on_corrupted_designs_match_parent_commit() {
    let device = Device::xcku5p_like();
    let network = models::toy();
    let db = toy_db(&device, &network);
    let (design, _) = compose_obs(
        &network,
        &db,
        &device,
        &ComposeOptions::default(),
        &Obs::null(),
    )
    .unwrap();

    // Unrouted top nets.
    let unrouted = verdict(&design, &device);

    // Instance 0's module cloned over instance 1: pblocks and sites collide.
    let mut routed = design;
    route_design_obs(&mut routed, &device, &RouteOptions::default(), &Obs::null()).unwrap();
    let mut overlap = routed.clone();
    let clone = overlap.instances()[0].module.clone();
    overlap.instances_mut()[1].module = clone;
    let overlap = verdict(&overlap, &device);

    // One partpin forced into the pblock interior.
    let mut moved = routed;
    let mut m = moved.instances()[0].module.clone();
    let pb = m.pblock.expect("has pblock");
    let mut json: serde_json::Value =
        serde_json::from_str(&serde_json::to_string(&m).unwrap()).unwrap();
    json["locked"] = serde_json::Value::Bool(false);
    m = serde_json::from_value(json).unwrap();
    m.ports_mut().unwrap()[0].partpin = Some(TileCoord::new(pb.col_lo + 2, pb.row_lo + 2));
    m.lock();
    moved.instances_mut()[0].module = m;
    let partpin = verdict(&moved, &device);

    let got = [unrouted, overlap, partpin];
    assert_eq!(
        got,
        [
            (2, 0xc69fe0ddbaa99ff2),
            (413, 0xb65887c91429a604),
            (1, 0xe7c309cdf906c574),
        ],
        "{got:#x?}"
    );
}
