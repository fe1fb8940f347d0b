//! The bundled model descriptors under `models/` are golden copies of
//! the built-in constructors: the checked-in JSON files are byte-for-byte
//! what `pi_model::json::to_json_descriptor` renders for the matching
//! `models::*()` network (regenerate with `PI_MODEL_REGEN=1 cargo test
//! --test model_descriptors`), and importing any of them must hand the
//! flow a network indistinguishable from the constructor's — same stats,
//! same archdef, same telemetry at any thread count.

use preimpl_cnn::model::{import, ModelFormat};
use preimpl_cnn::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn model_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("models")
        .join(file)
}

fn bundled_json() -> [(&'static str, Network); 3] {
    [
        ("lenet.json", models::lenet5()),
        ("alexnet.json", models::alexnet_like()),
        ("resnet_small.json", models::resnet_small()),
    ]
}

#[test]
fn bundled_json_descriptors_are_generated_from_the_builtins() {
    for (file, network) in bundled_json() {
        let expected = preimpl_cnn::model::json::to_json_descriptor(&network).unwrap();
        let path = model_path(file);
        if std::env::var_os("PI_MODEL_REGEN").is_some() {
            std::fs::write(&path, &expected).unwrap();
            continue;
        }
        let on_disk = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (run with PI_MODEL_REGEN=1 to create)", file));
        assert_eq!(
            on_disk, expected,
            "{file} is stale — regenerate with PI_MODEL_REGEN=1 cargo test --test model_descriptors"
        );
    }
}

#[test]
fn bundled_json_descriptors_import_to_the_builtin_networks() {
    for (file, network) in bundled_json() {
        let text = std::fs::read_to_string(model_path(file)).unwrap();
        let imp = import(&text, ModelFormat::Json).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert!(imp.findings.is_empty(), "{file}: {:?}", imp.findings);
        assert_eq!(
            preimpl_cnn::cnn::archdef::to_archdef(&imp.network),
            preimpl_cnn::cnn::archdef::to_archdef(&network),
            "{file} imports to a different architecture"
        );
        assert_eq!(
            imp.network.stats().unwrap(),
            network.stats().unwrap(),
            "{file} imports to different stats"
        );
    }
}

#[test]
fn bundled_prototxt_matches_cifar10_quick() {
    let text = std::fs::read_to_string(model_path("cifar10_quick.prototxt")).unwrap();
    let imp = import(&text, ModelFormat::Prototxt).unwrap();
    assert!(imp.findings.is_empty(), "{:?}", imp.findings);
    assert_eq!(
        preimpl_cnn::cnn::archdef::to_archdef(&imp.network),
        preimpl_cnn::cnn::archdef::to_archdef(&models::cifar10_quick()),
    );
    // Folding factors and header knobs survive in the parsed form, which
    // the canonical writer round-trips.
    let model = preimpl_cnn::model::prototxt::parse_prototxt(&text).unwrap();
    for key in ["frequency", "default_precision.integer_bits"] {
        assert!(
            model.header.iter().any(|(k, _)| k == key),
            "header key {key} missing: {:?}",
            model.header
        );
    }
    for (layer, key) in [(0, "worker_factor"), (6, "weights_reloading_factor")] {
        let folding = &model.layers[layer].folding;
        assert!(
            folding.iter().any(|(k, _)| k == key),
            "layer {layer} folding key {key} missing: {folding:?}"
        );
    }
    let rendered = preimpl_cnn::model::prototxt::render_prototxt(&model);
    let back = preimpl_cnn::model::prototxt::parse_prototxt(&rendered).unwrap();
    assert_eq!(back, model);
    assert_eq!(
        preimpl_cnn::model::prototxt::render_prototxt(&back),
        rendered
    );
}

/// Run the full flow (db build + compose) for `network` with the given
/// worker-thread count and return the comparison form of the telemetry.
fn traced_flow(network: &Network, threads: usize) -> (String, f64) {
    let device = Device::xcku5p_like();
    let sink = Arc::new(MemorySink::new());
    let cfg = FlowConfig::new()
        .with_synth(SynthOptions::lenet_like())
        .with_seeds([1])
        .with_threads(threads)
        .with_sink(sink.clone());
    let (db, _) = build_component_db(network, &device, &cfg).expect("db builds");
    let (_, report) = run_pre_implemented_flow(network, &db, &device, &cfg).expect("flow runs");
    (sink.stripped_jsonl(), report.compile.timing.fmax_mhz)
}

#[test]
fn lenet_descriptor_flow_telemetry_is_byte_identical_to_the_builtin() {
    // The golden-model contract: a LeNet that came in through the
    // descriptor frontend is invisible downstream — the whole telemetry
    // stream (every placement, route, timing event) matches the builtin's
    // byte for byte, sequentially and under a parallel schedule.
    let text = std::fs::read_to_string(model_path("lenet.json")).unwrap();
    let descriptor_net = import(&text, ModelFormat::Json).unwrap().network;
    let (builtin, builtin_fmax) = traced_flow(&models::lenet5(), 1);
    let (imported, imported_fmax) = traced_flow(&descriptor_net, 1);
    assert!(!builtin.is_empty());
    assert_eq!(builtin, imported, "descriptor LeNet diverged from builtin");
    assert_eq!(builtin_fmax, imported_fmax);
    let (parallel, _) = traced_flow(&descriptor_net, 4);
    assert_eq!(
        imported, parallel,
        "descriptor telemetry changed between 1 and 4 worker threads"
    );
}

#[test]
fn resnet_descriptor_runs_the_full_flow() {
    // The acceptance path behind `preimpl --model models/resnet_small.json`:
    // the branching descriptor composes, routes to completion, and is
    // deterministic run to run.
    let text = std::fs::read_to_string(model_path("resnet_small.json")).unwrap();
    let network = import(&text, ModelFormat::Json).unwrap().network;
    let device = Device::xcku5p_like();
    let cfg = FlowConfig::new()
        .with_synth(SynthOptions::lenet_like())
        .with_seeds([1]);
    let (db, _) = build_component_db(&network, &device, &cfg).expect("db builds");
    let run = || run_pre_implemented_flow(&network, &db, &device, &cfg).expect("flow runs");
    let (design, report) = run();
    assert!(design.fully_routed());
    assert_eq!(design.unrouted_nets(), 0);
    let (_, again) = run();
    assert_eq!(
        report.compile.timing.fmax_mhz,
        again.compile.timing.fmax_mhz
    );
}
