//! The layer trace must not drift from the program it prices: for LeNet
//! the stage-by-stage replay has to produce the checkpoints
//! `build_component_db` produces and the design
//! `run_pre_implemented_flow` assembles.

use pi_e2e_bench::metrics::Values;
use pi_e2e_bench::replay::Replay;
use pi_e2e_bench::trace::Tracer;
use pi_e2e_bench::zoo;
use pi_fabric::Device;
use pi_flow::{build_component_db, run_pre_implemented_flow};
use pi_obs::Obs;
use std::path::PathBuf;

#[test]
fn lenet_replay_reproduces_the_programs_checkpoints_and_design() {
    let device = Device::xcku5p_like();
    let net = zoo::lenet();
    let network = net.import().expect("lenet imports");
    let cfg = net.config();
    let (db, _) = build_component_db(&network, &device, &cfg).expect("program builds the db");
    let (_, report) =
        run_pre_implemented_flow(&network, &db, &device, &cfg).expect("program assembles");

    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("replay-fidelity-db");
    let _ = std::fs::remove_dir_all(&dir);
    let (mut tr, mut counts, obs) = (Tracer::default(), Values::default(), Obs::null());
    let mut replay = Replay {
        tr: &mut tr,
        counts: &mut counts,
        obs: &obs,
        device: &device,
    };

    // Cold: every component is a miss, built stage by stage.
    let cold = replay
        .component_db(&network, &cfg, &dir)
        .expect("replay builds the db");
    assert_eq!(cold.len(), db.len());
    for cp in db.checkpoints() {
        let replayed = cold.get(&cp.meta.signature).expect("same signatures");
        assert_eq!(
            replayed.content_hash(),
            cp.content_hash(),
            "{}",
            cp.meta.signature
        );
    }
    let (design, replayed) = replay
        .assemble(&network, &cold, &cfg)
        .expect("replay assembles");
    assert_eq!(
        replayed.deterministic_summary(),
        report.deterministic_summary()
    );
    replay
        .probe_assembly(&network, &cold, &cfg, &design, &replayed)
        .expect("the placement probe agrees with compose");
    replay
        .probe_checkpoints(&cold)
        .expect("checkpoints round-trip");

    // Warm: the same directory now serves every component.
    let warm = replay
        .component_db(&network, &cfg, &dir)
        .expect("replay loads the db");
    for cp in db.checkpoints() {
        let loaded = warm.get(&cp.meta.signature).expect("same signatures");
        assert_eq!(loaded.content_hash(), cp.content_hash());
    }
    let _ = std::fs::remove_dir_all(&dir);

    let components = report.compose.component_signatures.len() as f64;
    assert_eq!(counts.get("stitch.cache_misses"), components);
    assert_eq!(counts.get("stitch.cache_hits"), components);
    assert_eq!(counts.get("flow.seeds_tried"), 3.0 * components);
    for layer in [
        "synth.component",
        "pnr.place_module",
        "pnr.route_module",
        "pnr.sta_module",
        "stitch.cache_insert",
        "stitch.cache_lookup",
        "stitch.relocate",
        "pnr.sta_design",
        "netlist.dcp_decode",
    ] {
        assert!(tr.last(layer).is_some(), "no {layer} span recorded");
    }
}
