//! Decode at most once per process: the first warm build of a network
//! decodes each distinct checkpoint once, every later one decodes nothing.
//!
//! `DbCache::decodes()` is process-wide, so this is the only test in its
//! binary — a neighbour loading checkpoints would move the counter.

use preimpl_cnn::model::ModelFormat;
use preimpl_cnn::prelude::*;
use preimpl_cnn::stitch::DbCache;
use std::collections::BTreeSet;

#[test]
fn first_warm_build_decodes_each_distinct_checkpoint_once_and_repeats_decode_nothing() {
    let device = Device::xcku5p_like();
    // Nine components over six distinct signatures.
    let network = preimpl_cnn::model::import(
        include_str!("../models/resnet_small.json"),
        ModelFormat::Json,
    )
    .expect("bundled descriptor imports")
    .network;
    let components = network.components(Granularity::Layer).unwrap().len();
    assert_eq!(components, 9);
    let distinct = 6;
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    // A new seed per round: new cache keys and checkpoints this process
    // has not decoded yet.
    for (threads, seed) in [(1, 1), (4, 2)] {
        let root =
            std::env::temp_dir().join(format!("pi_warm_path_{threads}_{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let cfg = FlowConfig::new()
            .with_synth(SynthOptions::lenet_like())
            .with_seeds([seed])
            .with_threads(threads)
            .with_db_dir(&root);

        let before = DbCache::decodes();
        let (db, _, stats) = build_component_db_cached(&network, &device, &cfg).expect("cold");
        assert_eq!(stats.hits, 0);
        assert_eq!(DbCache::decodes(), before, "a cold build decodes nothing");
        assert_eq!(db.len() as u64, distinct);
        assert!(
            db.checkpoints().all(|cp| seen.insert(cp.content_hash())),
            "seed {seed} repeats a checkpoint of an earlier round"
        );

        let (_, _, stats) = build_component_db_cached(&network, &device, &cfg).expect("warm");
        assert!(stats.all_hits() && stats.hits == components, "{stats:?}");
        assert_eq!(
            DbCache::decodes() - before,
            distinct,
            "first warm build at {threads} threads: one decode per distinct key"
        );

        for _ in 0..2 {
            let (_, _, again) = build_component_db_cached(&network, &device, &cfg).expect("warm");
            assert_eq!(
                again, stats,
                "a memo-served build reports what a decoded one does"
            );
        }
        assert_eq!(
            DbCache::decodes() - before,
            distinct,
            "repeat warm builds at {threads} threads decode nothing"
        );
        std::fs::remove_dir_all(&root).ok();
    }
    assert!(DbCache::memo_bytes() > 0);
}
