//! Failure injection: every gate in the flow must fail loudly and
//! specifically, not corrupt state or panic.

use preimpl_cnn::flow::FlowError;
use preimpl_cnn::prelude::*;
use preimpl_cnn::stitch::StitchError;

#[test]
fn missing_component_names_the_signature() {
    let device = Device::xcku5p_like();
    let network = preimpl_cnn::cnn::models::toy();
    let empty = ComponentDb::new();
    match run_pre_implemented_flow(&network, &empty, &device, &FlowConfig::new()) {
        Err(FlowError::Stitch(StitchError::MissingComponent(sig))) => {
            assert!(sig.starts_with("conv_k3"), "unexpected signature {sig}");
        }
        other => panic!("expected MissingComponent, got {other:?}"),
    }
}

#[test]
fn partial_database_reports_the_first_unmatched_component() {
    let device = Device::xcku5p_like();
    let network = preimpl_cnn::cnn::models::toy();
    let cfg = FlowConfig::new().with_seeds([1]);
    let (full_db, _) = build_component_db(&network, &device, &cfg).expect("builds");
    // Rebuild a database missing exactly the pool component.
    let mut partial = ComponentDb::new();
    for cp in full_db.checkpoints() {
        if !cp.meta.signature.starts_with("pool") {
            partial.insert(cp.clone());
        }
    }
    match run_pre_implemented_flow(&network, &partial, &device, &FlowConfig::new()) {
        Err(FlowError::Stitch(StitchError::MissingComponent(sig))) => {
            assert!(sig.starts_with("pool"), "should miss the pool, got {sig}");
        }
        other => panic!("expected MissingComponent, got {other:?}"),
    }
}

#[test]
fn oversized_demand_fails_pblock_sizing() {
    let device = Device::test_part();
    let demand = ResourceCount {
        luts: 10_000_000,
        ..ResourceCount::ZERO
    };
    match preimpl_cnn::flow::size_pblock(&demand, &device, 0.7) {
        Err(FlowError::ComponentUnsatisfiable { .. }) => {}
        other => panic!("expected ComponentUnsatisfiable, got {other:?}"),
    }
}

#[test]
fn device_mismatch_is_rejected_at_relocation() {
    let device = Device::xcku5p_like();
    let other = Device::xcku060_like();
    let network = preimpl_cnn::cnn::models::toy();
    let cfg = FlowConfig::new().with_seeds([1]);
    let (db, _) = build_component_db(&network, &device, &cfg).expect("builds");
    match run_pre_implemented_flow(&network, &db, &other, &FlowConfig::new()) {
        Err(FlowError::Stitch(StitchError::DeviceMismatch { .. })) => {}
        other => panic!("expected DeviceMismatch, got {other:?}"),
    }
}

#[test]
fn malformed_archdefs_report_line_numbers() {
    for (text, expect_line) in [
        ("network a\ninput 1x8\n", 2),
        ("network a\ninput 1x8x8\nconv c kernel=0 out=2\n", 3),
        ("network a\ninput 1x8x8\nbogus x\n", 3),
    ] {
        match parse_archdef(text) {
            Err(preimpl_cnn::cnn::CnnError::Parse { line, .. }) => {
                assert_eq!(line, expect_line, "for {text:?}")
            }
            Err(preimpl_cnn::cnn::CnnError::ShapeMismatch(_)) if expect_line == 3 => {}
            other => panic!("expected parse error for {text:?}, got {other:?}"),
        }
    }
}

#[test]
fn router_reports_congestion_when_capacity_is_starved() {
    use preimpl_cnn::pnr::{place_module_obs, route_module_obs, PlaceOptions, RouteOptions};
    let device = Device::test_part();
    let network = preimpl_cnn::cnn::models::toy();
    let mut module = preimpl_cnn::synth::synth_network_flat(
        &network,
        Granularity::Layer,
        &SynthOptions::lenet_like(),
    )
    .expect("synthesizes");
    place_module_obs(&mut module, &device, &PlaceOptions::default(), &Obs::null()).expect("places");
    // One wire per tile with a single negotiation round cannot succeed for
    // a thousand-cell design on the tiny test part.
    let starved = RouteOptions {
        max_iters: 1,
        capacity: 1,
    };
    let (stats, map) =
        route_module_obs(&mut module, &device, &starved, &Obs::null()).expect("runs");
    assert!(
        stats.overused_tiles > 0,
        "starved routing should leave overuse"
    );
    assert_eq!(map.overused(), stats.overused_tiles);
}

#[test]
fn locked_modules_reject_mutation_everywhere() {
    let device = Device::xcku5p_like();
    let network = preimpl_cnn::cnn::models::toy();
    let cfg = FlowConfig::new().with_seeds([1]);
    let (db, _) = build_component_db(&network, &device, &cfg).expect("builds");
    let cp = db.checkpoints().next().expect("non-empty");
    let mut module = cp.module.clone();
    assert!(module
        .set_placement(preimpl_cnn::netlist::CellId(0), TileCoord::new(1, 1))
        .is_err());
    assert!(module.cells_mut().is_err());
    assert!(module.nets_mut().is_err());
    assert!(module.ports_mut().is_err());
    // The placer refuses to touch it too (all cells fixed => no-op is fine,
    // but a locked module as a whole errors at the module API).
    use preimpl_cnn::pnr::{place_module_obs, PlaceOptions};
    let placed_before: Vec<_> = module.cells().iter().map(|c| c.placement).collect();
    // place_module on a locked module: every cell is fixed, so nothing
    // moves and nothing errors — verify it is a strict no-op.
    place_module_obs(&mut module, &device, &PlaceOptions::default(), &Obs::null())
        .expect("no-op placement");
    let placed_after: Vec<_> = module.cells().iter().map(|c| c.placement).collect();
    assert_eq!(placed_before, placed_after);
}

// ---- persistent db-cache faults ---------------------------------------
//
// Every way the on-disk cache can rot — truncated objects, dangling
// manifest entries, stale format versions, a corrupted manifest — must
// quarantine the bad entry and fall back to rebuilding, never panic, and
// the recovery must be visible in telemetry.

mod db_cache_faults {
    use super::*;
    use preimpl_cnn::obs::MemorySink;
    use preimpl_cnn::stitch::{cache_key, CacheLookup, DbCache};
    use std::path::{Path, PathBuf};
    use std::sync::Arc;

    fn tmp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pi_cache_fault_{tag}_{}", std::process::id()))
    }

    /// The object file backing `key` (filenames embed the cache key).
    fn object_path(root: &Path, key: &str) -> PathBuf {
        std::fs::read_dir(root.join("objects"))
            .expect("objects dir")
            .map(|e| e.expect("dir entry").path())
            .find(|p| p.to_string_lossy().contains(key))
            .expect("object file for key")
    }

    fn quarantined_names(root: &Path) -> Vec<String> {
        match std::fs::read_dir(root.join("quarantine")) {
            Ok(rd) => rd
                .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
                .collect(),
            Err(_) => Vec::new(),
        }
    }

    /// Populate a cache for the toy network and return (root, cfg, key of
    /// the first component, component count).
    fn populated(tag: &str) -> (PathBuf, FlowConfig, String, usize) {
        let root = tmp_root(tag);
        std::fs::remove_dir_all(&root).ok();
        let device = Device::xcku5p_like();
        let network = preimpl_cnn::cnn::models::toy();
        let cfg = FlowConfig::new().with_seeds([1]).with_db_dir(&root);
        let (_, reports, stats) =
            build_component_db_cached(&network, &device, &cfg).expect("cold build");
        assert_eq!(stats.invalidations, 0);
        let comps = network
            .components(preimpl_cnn::cnn::graph::Granularity::Layer)
            .unwrap();
        let sig = comps[0].signature(&network);
        let key = cache_key(&sig, device.name(), cfg.cache_fingerprint());
        (root, cfg, key, reports.len())
    }

    /// Corrupt one entry via `mutate`, then verify: lookup quarantines it
    /// with `reason`, a cached flow rebuild recovers (right stats, telemetry
    /// trail), and a final run is all hits again.
    ///
    /// Every fault is a *hit, then rot*: two warm builds first leave the
    /// process-wide decode memo holding the entry about to be poisoned, so
    /// each scenario fails if the memo is ever consulted before the bytes
    /// just read have hashed to the manifest's value.
    fn assert_recovers(tag: &str, reason: &str, mutate: impl Fn(&Path, &str)) {
        let (root, cfg, key, n) = populated(tag);
        let device = Device::xcku5p_like();
        let network = preimpl_cnn::cnn::models::toy();
        for _ in 0..2 {
            let (_, _, stats) =
                build_component_db_cached(&network, &device, &cfg).expect("warm build");
            assert!(stats.all_hits(), "before the fault: {stats:?}");
        }
        assert!(
            DbCache::memo_bytes() > 0,
            "warm builds fill the decode memo"
        );
        mutate(&root, &key);

        // The cached build rebuilds exactly the poisoned component and says
        // so in telemetry.
        let sink = Arc::new(MemorySink::new());
        let traced = cfg.clone().with_sink(sink.clone());
        let (db, reports, stats) =
            build_component_db_cached(&network, &device, &traced).expect("recovery build");
        assert_eq!(db.len(), n);
        assert_eq!(reports.len(), 1, "only the poisoned component rebuilds");
        assert_eq!(
            (stats.hits, stats.misses, stats.invalidations),
            (n - 1, 1, 1),
            "for {reason}"
        );
        let events = sink.snapshot();
        assert!(
            events.iter().any(|e| e.name == "cache_invalidate"
                && e.fields
                    .iter()
                    .any(|(k, v)| k == "reason" && format!("{v:?}").contains(reason))),
            "no cache_invalidate({reason}) event in telemetry"
        );

        // And the rebuild re-persisted the entry: next run is clean.
        let (_, _, stats) = build_component_db_cached(&network, &device, &cfg).expect("warm build");
        assert!(stats.all_hits(), "after recovery: {stats:?}");

        // Poison again and probe the cache directly: the entry is
        // invalidated with the exact reason and its file lands in
        // quarantine rather than being reinterpreted.
        mutate(&root, &key);
        let obs = preimpl_cnn::obs::Obs::null();
        let mut cache = DbCache::open(&root, &obs).expect("open never fails on entry rot");
        match cache.lookup(&key, &obs) {
            CacheLookup::Invalidated { reason: got } => assert_eq!(got, reason),
            other => panic!("expected Invalidated({reason}), got {other:?}"),
        }
        if reason != "missing_file" {
            assert!(
                !quarantined_names(&root).is_empty(),
                "nothing quarantined for {reason}"
            );
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn truncated_checkpoint_is_quarantined_and_rebuilt() {
        assert_recovers("truncated", "corrupt", |root, key| {
            let path = object_path(root, key);
            let bytes = std::fs::read(&path).expect("read object");
            std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate object");
        });
    }

    #[test]
    fn manifest_entry_with_missing_file_is_dropped_and_rebuilt() {
        assert_recovers("missing", "missing_file", |root, key| {
            std::fs::remove_file(object_path(root, key)).expect("delete object");
        });
    }

    #[test]
    fn stale_format_version_is_quarantined_and_rebuilt() {
        assert_recovers("stale", "stale_version", |root, key| {
            let path = object_path(root, key);
            let text = std::fs::read_to_string(&path).expect("read object");
            assert!(text.contains("\"format_version\""));
            let stale = text.replacen(
                &format!(
                    "\"format_version\":{}",
                    preimpl_cnn::netlist::CHECKPOINT_FORMAT_VERSION
                ),
                "\"format_version\":999",
                1,
            );
            assert_ne!(stale, text, "fault injection failed to rewrite the version");
            std::fs::write(&path, stale).expect("write stale object");
        });
    }

    /// One digit of a cell delay changes: the file is still a well-formed
    /// envelope around a decodable checkpoint — only the byte hash can tell.
    #[test]
    fn altered_payload_that_still_decodes_is_a_hash_mismatch() {
        assert_recovers("altered", "hash_mismatch", |root, key| {
            let path = object_path(root, key);
            let mut bytes = std::fs::read(&path).expect("read object");
            let field = b"\"delay_ps\":";
            let at = bytes
                .windows(field.len())
                .position(|w| w == field)
                .expect("a cell delay in the payload")
                + field.len();
            assert!(bytes[at].is_ascii_digit());
            bytes[at] = if bytes[at] == b'1' { b'2' } else { b'1' };
            std::fs::write(&path, bytes).expect("write altered object");
        });
    }

    /// A high-bit byte lands in the payload: the file still reads, but it
    /// is no longer text. Only a failed read is `missing_file`.
    #[test]
    fn non_utf8_object_is_corrupt_not_missing() {
        assert_recovers("nonutf8", "corrupt", |root, key| {
            let path = object_path(root, key);
            let mut bytes = std::fs::read(&path).expect("read object");
            let mid = bytes.len() / 2;
            bytes[mid] = 0xFF;
            std::fs::write(&path, bytes).expect("write non-UTF-8 object");
        });
    }

    /// A directory written before the content hash moved to XXH64: its
    /// version-2 manifest records FNV-1a hashes of unchanged envelopes. The
    /// cache goes cold once, announced, and never mistakes the old hashes
    /// for corruption.
    #[test]
    fn version_2_manifest_goes_cold_once_without_mismatches() {
        let (root, cfg, _, n) = populated("manifest_v2");
        let path = root.join("manifest.json");
        let mut manifest: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).expect("read manifest"))
                .expect("manifest is JSON");
        manifest["manifest_version"] = serde_json::json!(2);
        let serde_json::Value::Seq(entries) = &mut manifest["entries"] else {
            panic!("manifest entries are a list");
        };
        for entry in entries.iter_mut() {
            let serde_json::Value::Str(file) = &entry["file"] else {
                panic!("entry names its file");
            };
            let envelope = std::fs::read(root.join("objects").join(file)).expect("read object");
            let payload = preimpl_cnn::netlist::Checkpoint::versioned_payload(&envelope)
                .expect("envelope splits");
            let mut fnv = preimpl_cnn::netlist::StableHasher::new();
            fnv.write_bytes(payload);
            entry["content_hash"] = serde_json::json!(format!("{:016x}", fnv.finish()));
        }
        std::fs::write(&path, serde_json::to_string_pretty(&manifest).unwrap())
            .expect("write version-2 manifest");

        let device = Device::xcku5p_like();
        let network = preimpl_cnn::cnn::models::toy();
        let sink = Arc::new(MemorySink::new());
        let traced = cfg.clone().with_sink(sink.clone());
        let (_, _, stats) =
            build_component_db_cached(&network, &device, &traced).expect("cold rebuild");
        assert_eq!((stats.hits, stats.misses, stats.invalidations), (0, n, 0));
        let events = sink.snapshot();
        assert!(
            events.iter().any(|e| e.name == "manifest_quarantined"
                && e.fields
                    .iter()
                    .any(|(k, v)| k == "reason" && format!("{v:?}").contains("stale_version"))),
            "no manifest_quarantined(stale_version) event in telemetry"
        );
        assert!(!events.iter().any(|e| e.name == "cache_invalidate"));
        assert!(quarantined_names(&root)
            .iter()
            .any(|f| f == "manifest.json"));

        let (_, _, stats) = build_component_db_cached(&network, &device, &cfg).expect("warm");
        assert!(stats.all_hits(), "after the cold rebuild: {stats:?}");
        std::fs::remove_dir_all(&root).ok();
    }

    /// The accepted set is exactly the canonical bytes: the same checkpoint
    /// pretty-printed is equivalent JSON, but it is quarantined and rebuilt,
    /// never served.
    #[test]
    fn non_canonical_envelope_is_quarantined_never_served() {
        assert_recovers("pretty", "corrupt", |root, key| {
            let path = object_path(root, key);
            let text = std::fs::read_to_string(&path).expect("read object");
            let value: serde_json::Value = serde_json::from_str(&text).expect("object is JSON");
            let pretty = serde_json::to_string_pretty(&value).expect("serializes");
            assert_ne!(pretty, text);
            std::fs::write(&path, pretty).expect("write pretty object");
        });
    }

    #[test]
    fn corrupted_manifest_resets_the_cache_instead_of_crashing() {
        let (root, cfg, _, n) = populated("manifest");
        std::fs::write(root.join("manifest.json"), "{ not json").expect("corrupt manifest");
        let obs = preimpl_cnn::obs::Obs::null();
        let cache = DbCache::open(&root, &obs).expect("open survives manifest rot");
        assert!(cache.is_empty(), "rotten manifest must reset the index");
        assert!(
            quarantined_names(&root)
                .iter()
                .any(|f| f.contains("manifest")),
            "manifest not quarantined"
        );
        // Everything rebuilds (objects without manifest entries are dead
        // weight, not hits) and the cache is serviceable again.
        let device = Device::xcku5p_like();
        let network = preimpl_cnn::cnn::models::toy();
        let (_, _, stats) = build_component_db_cached(&network, &device, &cfg).expect("rebuild");
        assert_eq!((stats.hits, stats.misses), (0, n));
        let (_, _, stats) = build_component_db_cached(&network, &device, &cfg).expect("warm");
        assert!(stats.all_hits());
        std::fs::remove_dir_all(&root).ok();
    }
}

#[test]
fn corrupt_checkpoint_files_are_decode_errors() {
    let dir = std::env::temp_dir().join(format!("pi_corrupt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("bad.dcp.json"), b"{ not valid json").expect("writes");
    match ComponentDb::load_dir(&dir) {
        Err(StitchError::Netlist(preimpl_cnn::netlist::NetlistError::Decode(_))) => {}
        other => panic!("expected decode error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
