//! End-to-end integration of the whole stack: synthesis → function
//! optimization → database → composition → incremental routing → timing,
//! plus the baseline comparison invariants the paper's evaluation rests on.

use preimpl_cnn::prelude::*;
use std::sync::OnceLock;

struct LenetArtifacts {
    device: Device,
    network: Network,
    db: ComponentDb,
    component_fmax: Vec<f64>,
}

fn lenet() -> &'static LenetArtifacts {
    static CELL: OnceLock<LenetArtifacts> = OnceLock::new();
    CELL.get_or_init(|| {
        let device = Device::xcku5p_like();
        let network = preimpl_cnn::cnn::models::lenet5();
        let cfg = FlowConfig::new()
            .with_synth(SynthOptions::lenet_like())
            .with_seeds([1]);
        let (db, reports) = build_component_db(&network, &device, &cfg).expect("lenet db builds");
        LenetArtifacts {
            device,
            network,
            db,
            component_fmax: reports.iter().map(|r| r.fmax_mhz).collect(),
        }
    })
}

#[test]
fn lenet_preimplemented_flow_end_to_end() {
    let a = lenet();
    let (design, report) =
        run_pre_implemented_flow(&a.network, &a.db, &a.device, &FlowConfig::new())
            .expect("flow succeeds");

    // Fully implemented: every component routed at build time, every
    // stitched net routed now.
    assert!(design.fully_routed());
    assert_eq!(design.unrouted_nets(), 0);
    assert_eq!(design.instances().len(), 6);
    assert_eq!(design.top_nets().len(), 5);

    // All instances are locked pre-implemented checkpoints.
    for inst in design.instances() {
        assert!(inst.module.is_locked(), "{} not locked", inst.name);
        assert!(inst.module.fully_placed());
    }

    // Only the 5 stitched nets were routed by the final router.
    assert_eq!(report.compile.route_stats.routed_nets, 5);

    // The assembled frequency is in the paper's band and bounded by the
    // slowest component.
    let slowest = a
        .component_fmax
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let fmax = report.compile.timing.fmax_mhz;
    assert!(
        (200.0..700.0).contains(&fmax),
        "assembled fmax {fmax} outside calibration band"
    );
    assert!(
        fmax <= slowest * 1.001,
        "assembled {fmax} exceeds slowest component {slowest}"
    );
}

#[test]
fn lenet_flow_is_deterministic() {
    let a = lenet();
    let run = || {
        run_pre_implemented_flow(&a.network, &a.db, &a.device, &FlowConfig::new())
            .expect("flow succeeds")
    };
    let (d1, r1) = run();
    let (d2, r2) = run();
    assert_eq!(
        r1.compile.timing.fmax_mhz, r2.compile.timing.fmax_mhz,
        "same inputs must give identical timing"
    );
    assert_eq!(r1.latency.pipeline_cycles, r2.latency.pipeline_cycles);
    for (i1, i2) in d1.instances().iter().zip(d2.instances()) {
        assert_eq!(i1.module.pblock, i2.module.pblock);
    }
}

#[test]
fn preimplemented_beats_baseline_where_the_paper_says_it_does() {
    let a = lenet();
    let (_, pre) = run_pre_implemented_flow(&a.network, &a.db, &a.device, &FlowConfig::new())
        .expect("flow succeeds");
    let bcfg = FlowConfig::new()
        .with_synth(SynthOptions::lenet_like())
        .with_baseline_effort(1.0); // keep the test quick; even the full-effort baseline loses
    let (bdesign, base) =
        run_baseline_flow(&a.network, &a.device, &bcfg).expect("baseline succeeds");

    // Fmax: the paper's headline.
    assert!(
        pre.compile.timing.fmax_mhz > base.compile.timing.fmax_mhz,
        "pre-implemented {} <= baseline {}",
        pre.compile.timing.fmax_mhz,
        base.compile.timing.fmax_mhz
    );
    // Productivity: generation must be much cheaper than implementation.
    assert!(pre.total_time() < base.total_time());
    // Resources: monolithic synthesis pays the documented overhead.
    let br = base.compile.resources;
    let pr = bdesign.resources(); // baseline design resources == report resources
    assert_eq!(br.luts, pr.luts);
    let pre_r = preimpl_resources(a);
    assert!(pre_r.luts < br.luts);
    assert!(pre_r.brams <= br.brams);
}

fn preimpl_resources(a: &LenetArtifacts) -> ResourceCount {
    a.db.checkpoints().map(|cp| cp.meta.resources).sum()
}

#[test]
fn checkpoint_database_round_trips_through_disk() {
    use preimpl_cnn::stitch::{cache_key, CacheLookup};
    let a = lenet();
    let dir = std::env::temp_dir().join(format!("pi_e2e_db_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let obs = Obs::null();
    let keys: Vec<String> =
        a.db.signatures()
            .map(|sig| cache_key(sig, a.device.name(), 0))
            .collect();
    let mut cache = DbCache::open(&dir, &obs).expect("opens");
    for (key, cp) in keys.iter().zip(a.db.checkpoints()) {
        cache.insert(key, cp, &obs).expect("stores");
    }
    // A fresh handle reads every checkpoint back, verified.
    let mut reloaded = ComponentDb::new();
    for lookup in DbCache::open(&dir, &obs)
        .expect("reopens")
        .lookup_all(&keys, &obs)
    {
        match lookup {
            CacheLookup::Hit { checkpoint, .. } => reloaded.insert(*checkpoint),
            other => panic!("expected a hit, got {other:?}"),
        }
    }
    assert_eq!(reloaded.len(), a.db.len());
    // The reloaded database composes identically.
    let (_, r1) = run_pre_implemented_flow(&a.network, &a.db, &a.device, &FlowConfig::new())
        .expect("original db composes");
    let (_, r2) = run_pre_implemented_flow(&a.network, &reloaded, &a.device, &FlowConfig::new())
        .expect("reloaded db composes");
    assert_eq!(r1.compile.timing.fmax_mhz, r2.compile.timing.fmax_mhz);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn archdef_input_drives_the_same_flow() {
    let a = lenet();
    // The user-facing path: text definition -> network -> same signatures.
    let text = preimpl_cnn::cnn::archdef::to_archdef(&a.network);
    let parsed = parse_archdef(&text).expect("parses");
    let comps_a = a
        .network
        .components(Granularity::Layer)
        .expect("components");
    let comps_b = parsed.components(Granularity::Layer).expect("components");
    let sig = |n: &Network, cs: &[preimpl_cnn::cnn::Component]| -> Vec<String> {
        cs.iter().map(|c| c.signature(n)).collect()
    };
    assert_eq!(sig(&a.network, &comps_a), sig(&parsed, &comps_b));
    // Therefore the database built for one matches the other.
    let (_, report) = run_pre_implemented_flow(&parsed, &a.db, &a.device, &FlowConfig::new())
        .expect("parsed network reuses the database");
    assert!(report.compile.timing.fmax_mhz > 100.0);
}

#[test]
fn component_reuse_across_designs() {
    // Two different networks sharing a layer configuration reuse the same
    // checkpoint — the paper's reuse claim.
    let device = Device::xcku5p_like();
    let net_a = parse_archdef("network a\ninput 1x16x16\nconv c kernel=3 out=4\nfc f out=8\n")
        .expect("parses");
    let net_b = parse_archdef(
        "network b\ninput 1x16x16\nconv c kernel=3 out=4\npool p window=2\nfc f out=8\n",
    )
    .expect("parses");
    let cfg = FlowConfig::new().with_seeds([1]);
    let (db_a, _) = build_component_db(&net_a, &device, &cfg).expect("a builds");
    let (db_b, _) = build_component_db(&net_b, &device, &cfg).expect("b builds");
    // The shared conv signature exists in both databases...
    let conv_sig = net_a.components(Granularity::Layer).expect("components")[0].signature(&net_a);
    assert!(db_a.get(&conv_sig).is_some());
    assert!(db_b.get(&conv_sig).is_some());
    // ...and a merged database serves both networks.
    let mut merged = db_a.clone();
    for cp in db_b.checkpoints() {
        merged.insert(cp.clone());
    }
    assert!(run_pre_implemented_flow(&net_a, &merged, &device, &FlowConfig::new()).is_ok());
    assert!(run_pre_implemented_flow(&net_b, &merged, &device, &FlowConfig::new()).is_ok());
}

#[test]
fn a_replicated_engine_built_through_the_flow_stages_is_legal() {
    // One 40-lane CLE holding every VGG-16 conv layer (Ext. A3's Q = 1),
    // pre-implemented by the flow's sweep and assembled by its one
    // assembly. Its control slice used to take 80 weight-buffer nets,
    // which put 80 routes on one tile against the 64-wire capacity.
    use preimpl_cnn::flow::pre_implement;
    use preimpl_cnn::stitch::{assemble_obs, check_design};
    use preimpl_cnn::synth::cle::{partition_conv_layers, synth_cle};
    let device = Device::xcku5p_like();
    let network = models::vgg16();
    let partition = partition_conv_layers(&network, 1).expect("partitions");
    let module =
        synth_cle(&network, &partition.groups[0], &SynthOptions::vgg_like()).expect("synthesizes");
    let cfg = FlowConfig::new().with_seeds([1]);
    let (cp, _) = pre_implement(module, "cle_q1", 0, &device, &cfg).expect("pre-implements");
    assert!(cp.module.is_locked());
    let (mut design, _) = assemble_obs(
        "cle_q1".to_string(),
        &[("cle0", &cp)],
        &[],
        &device,
        &cfg.placer,
        &Obs::null(),
    )
    .expect("assembles");
    preimpl_cnn::pnr::route_assembled_obs(&mut design, &device, &cfg.route, &Obs::null())
        .expect("routes");
    assert!(design.fully_routed());
    assert_eq!(check_design(&design, &device).expect("checks"), vec![]);
}

#[test]
fn every_zoo_checkpoint_passes_the_checkpoint_judge() {
    // The benchmark's zoo at its synthesis options and granularity, under
    // the default seed sweep: whatever the build returns, the judge admits.
    use preimpl_cnn::cnn::models;
    use preimpl_cnn::stitch::check_checkpoint;
    let device = Device::xcku5p_like();
    let (lenet, vgg) = (SynthOptions::lenet_like(), SynthOptions::vgg_like());
    for (network, synth, granularity) in [
        (models::lenet5(), lenet, Granularity::Layer),
        (models::cifar10_quick(), lenet, Granularity::Layer),
        (models::resnet_small(), lenet, Granularity::Layer),
        (models::alexnet_like(), vgg, Granularity::Layer),
        (models::vgg16(), vgg, Granularity::Block),
    ] {
        let cfg = FlowConfig::new()
            .with_synth(synth)
            .with_granularity(granularity);
        let (db, _) = build_component_db(&network, &device, &cfg).expect("zoo builds");
        for cp in db.checkpoints() {
            let verdict = check_checkpoint(cp, &device).expect("judges");
            assert_eq!(verdict, vec![], "{} {}", network.name, cp.meta.signature);
        }
    }
}
