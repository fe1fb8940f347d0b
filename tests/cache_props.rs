//! Property-based tests over the persistent component-database cache:
//! adversarial signatures must round-trip losslessly, the manifest must
//! stay consistent under arbitrary insert/evict interleavings, cache
//! keys must be stable functions of their inputs, a batched lookup must be
//! indistinguishable from one lookup per key, and the envelope's payload
//! slice must be the content hash's pre-image.

use preimpl_cnn::fabric::Pblock;
use preimpl_cnn::netlist::{
    xxh64, Cell, CellKind, Checkpoint, CheckpointMeta, Endpoint, ModuleBuilder, StreamRole,
};
use preimpl_cnn::obs::{MemorySink, Obs};
use preimpl_cnn::prelude::FlowConfig;
use preimpl_cnn::stitch::{cache_key, CacheLookup, DbCache};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Signature fragments chosen to break naive filename schemes: path
/// separators, parent-dir hops, unicode (multi-byte), characters that
/// sanitize to the same '_', and tokens long enough to overflow NAME_MAX
/// when repeated.
const TOKENS: &[&str] = &[
    "conv",
    "pool_w2s2",
    "+relu",
    "_relu",
    "__in6x28x28",
    "a/b",
    "..",
    "\\win\\sep",
    "é",
    "層畳み込み",
    "🚀",
    " space ",
    ":colon:",
    "k3s1p0co16",
    "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
];

fn signature_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..TOKENS.len(), 1..10)
        .prop_map(|ixs| ixs.into_iter().map(|i| TOKENS[i]).collect::<String>())
}

fn checkpoint(sig: &str) -> Checkpoint {
    let mut b = ModuleBuilder::new("m");
    let din = b.input("din", StreamRole::Source, 16);
    let dout = b.output("dout", StreamRole::Sink, 16);
    let c = b.cell(Cell::new("c", CellKind::full_slice()));
    b.connect("i", Endpoint::Port(din), [Endpoint::Cell(c)]);
    b.connect("o", Endpoint::Cell(c), [Endpoint::Port(dout)]);
    let m = b.finish().unwrap();
    Checkpoint {
        meta: CheckpointMeta {
            signature: sig.to_string(),
            fmax_mhz: 500.0,
            resources: m.resources(),
            pblock: Pblock::new(1, 4, 0, 4),
            device: "test-part".to_string(),
            latency_cycles: 10,
        },
        module: m,
    }
}

fn tmp_root(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "pi_cache_props_{tag}_{}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A cache directory holding one entry per signature, with the entry at
/// `poisoned` (if any) altered so that it no longer hashes to its manifest
/// row. Twins built from the same arguments are byte-identical.
fn populated(sigs: &[&str], poisoned: Option<usize>) -> PathBuf {
    let root = tmp_root("twin");
    let obs = Obs::null();
    let mut cache = DbCache::open(&root, &obs).unwrap();
    for sig in sigs {
        let key = cache_key(sig, "test-part", 7);
        cache.insert(&key, &checkpoint(sig), &obs).unwrap();
    }
    if let Some(ix) = poisoned {
        let key = cache_key(sigs[ix], "test-part", 7);
        let path = std::fs::read_dir(root.join("objects"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.to_string_lossy().contains(&key))
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replacen("500.0", "501.0", 1)).unwrap();
    }
    root
}

/// What a series of lookups left behind: the results (checkpoints by
/// content hash), the manifest bytes, and the cache's event stream.
fn observe(
    root: &Path,
    lookups: impl FnOnce(&mut DbCache, &Obs) -> Vec<CacheLookup>,
) -> (Vec<String>, String, String) {
    let sink = Arc::new(MemorySink::new());
    let obs = Obs::new(sink.clone());
    let mut cache = DbCache::open(root, &obs).unwrap();
    let results = lookups(&mut cache, &obs)
        .into_iter()
        .map(|r| match r {
            CacheLookup::Hit { checkpoint, bytes } => {
                format!("hit {} {bytes}", checkpoint.content_hash_hex())
            }
            other => format!("{other:?}"),
        })
        .collect();
    let manifest = std::fs::read_to_string(root.join("manifest.json")).unwrap();
    (results, manifest, sink.stripped_jsonl())
}

/// The payload slice of an envelope this build wrote.
fn payload_of(envelope: &str) -> &[u8] {
    Checkpoint::versioned_payload(envelope.as_bytes()).expect("own envelope splits")
}

/// The two facts the byte-hash verification rests on, for one checkpoint:
/// the payload slice is the content hash's pre-image, and the textual
/// frame is byte-identical to serializing the envelope as a JSON object.
fn assert_frame_is_canonical(cp: &Checkpoint) {
    let envelope = cp.to_versioned_json().unwrap();
    assert_eq!(xxh64(payload_of(&envelope)), cp.content_hash());
    let as_object = serde_json::json!({ "format_version": 1, "checkpoint": cp });
    assert_eq!(envelope, serde_json::to_string(&as_object).unwrap());
}

#[test]
fn lenet_checkpoints_frame_canonically() {
    use preimpl_cnn::prelude::*;
    let cfg = FlowConfig::new()
        .with_synth(SynthOptions::lenet_like())
        .with_seeds([1]);
    let (db, _) =
        build_component_db(&models::lenet5(), &Device::xcku5p_like(), &cfg).expect("db builds");
    assert!(!db.is_empty());
    for cp in db.checkpoints() {
        assert_frame_is_canonical(cp);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// `lookup_all` over any key list — duplicates, absent keys, one
    /// poisoned entry — returns the same results, leaves the same
    /// `manifest.json` bytes and emits the same event stream as one
    /// `lookup` per key on a twin directory, at 1 and 4 threads.
    #[test]
    fn batched_lookup_equals_one_lookup_per_key(
        picks in proptest::collection::vec(0usize..7, 0..12),
        poisoned in 0usize..6,
    ) {
        // Indices 5 and 6 name keys the cache never held; `poisoned == 5`
        // leaves every entry sound.
        let sigs = &TOKENS[..5];
        let keys: Vec<String> = picks
            .iter()
            .map(|&i| cache_key(TOKENS[i], "test-part", 7))
            .collect();
        let poisoned = (poisoned < sigs.len()).then_some(poisoned);

        let twin = populated(sigs, poisoned);
        let one_by_one = observe(&twin, |cache, obs| {
            keys.iter().map(|key| cache.lookup(key, obs)).collect()
        });
        std::fs::remove_dir_all(&twin).ok();
        if poisoned.is_some_and(|ix| picks.contains(&ix)) {
            let invalidated = one_by_one.0.iter().filter(|r| r.contains("hash_mismatch"));
            prop_assert_eq!(invalidated.count(), 1, "later occurrences miss");
        }
        for threads in [1, 4] {
            rayon::set_num_threads(threads);
            let root = populated(sigs, poisoned);
            let batched = observe(&root, |cache, obs| cache.lookup_all(&keys, obs));
            prop_assert_eq!(&batched, &one_by_one, "at {} threads", threads);
            std::fs::remove_dir_all(&root).ok();
        }
    }

    #[test]
    fn generated_checkpoints_frame_canonically(sig in signature_strategy()) {
        assert_frame_is_canonical(&checkpoint(&sig));
    }

    /// Any signature — unicode, path separators, parent-dir hops, names
    /// far past NAME_MAX — survives insert, persist, reopen, and verified
    /// load unchanged.
    #[test]
    fn adversarial_signatures_round_trip_through_the_cache(
        sigs in proptest::collection::vec(signature_strategy(), 1..8)
    ) {
        let sigs: BTreeSet<String> = sigs.into_iter().collect();
        let root = tmp_root("roundtrip");
        let obs = Obs::null();
        {
            let mut cache = DbCache::open(&root, &obs).unwrap();
            for sig in &sigs {
                let cp = checkpoint(sig);
                cache.insert(&cache_key(sig, "test-part", 7), &cp, &obs).unwrap();
            }
        }
        let mut cache = DbCache::open(&root, &obs).unwrap();
        prop_assert_eq!(cache.len(), sigs.len());
        for sig in &sigs {
            let key = cache_key(sig, "test-part", 7);
            prop_assert_eq!(cache.signature_of(&key), Some(sig.as_str()));
            match cache.lookup(&key, &obs) {
                CacheLookup::Hit { checkpoint: cp, bytes } => {
                    prop_assert_eq!(&cp.meta.signature, sig);
                    prop_assert_eq!(cp.content_hash(), checkpoint(sig).content_hash());
                    prop_assert!(bytes > 0);
                }
                other => return Err(TestCaseError::fail(format!(
                    "expected hit for '{sig}', got {other:?}"
                ))),
            }
        }
        std::fs::remove_dir_all(&root).ok();
    }

    /// After any interleaving of inserts and evictions the manifest agrees
    /// with the object store: a reopen sees exactly the surviving keys,
    /// every entry's file exists, and no orphaned object files remain.
    #[test]
    fn manifest_stays_consistent_under_insert_evict(
        ops in proptest::collection::vec((0u8..3, 0usize..TOKENS.len()), 1..25)
    ) {
        let root = tmp_root("ops");
        let obs = Obs::null();
        let mut expect: BTreeSet<String> = BTreeSet::new();
        {
            let mut cache = DbCache::open(&root, &obs).unwrap();
            for (op, ix) in ops {
                let sig = TOKENS[ix];
                let key = cache_key(sig, "test-part", 7);
                if op < 2 {
                    cache.insert(&key, &checkpoint(sig), &obs).unwrap();
                    expect.insert(key);
                } else {
                    let was_in = expect.remove(&key);
                    prop_assert_eq!(cache.evict(&key, &obs).unwrap(), was_in);
                }
            }
        }
        let cache = DbCache::open(&root, &obs).unwrap();
        let keys: BTreeSet<String> = cache.keys().map(str::to_string).collect();
        prop_assert_eq!(&keys, &expect);
        let mut on_disk = 0;
        for entry in std::fs::read_dir(root.join("objects")).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            prop_assert!(
                keys.iter().any(|k| name.contains(k.as_str())),
                "orphaned object file {}", name
            );
            on_disk += 1;
        }
        prop_assert_eq!(on_disk, expect.len());
        std::fs::remove_dir_all(&root).ok();
    }

    /// Cache keys are pure functions: identical inputs agree, and any
    /// change to signature, device, or knobs fingerprint separates them.
    #[test]
    fn cache_keys_are_stable_and_input_sensitive(
        ix in 0usize..TOKENS.len(), fp in 0u64..1000
    ) {
        let sig = TOKENS[ix];
        let key = cache_key(sig, "test-part", fp);
        prop_assert_eq!(&key, &cache_key(sig, "test-part", fp));
        prop_assert_ne!(&key, &cache_key(sig, "test-part", fp + 1));
        prop_assert_ne!(&key, &cache_key(sig, "xcku5p-like", fp));
        prop_assert_eq!(key.len(), 16);
        prop_assert!(key.chars().all(|c| c.is_ascii_hexdigit()));
    }

    /// The config fingerprint that scopes cache keys moves with every
    /// implementation knob and ignores execution-only settings.
    #[test]
    fn fingerprint_tracks_seeds_not_threads(
        seed in 1u64..500, threads in 1usize..8
    ) {
        let base = FlowConfig::new().with_seeds([seed]);
        let fp = base.cache_fingerprint();
        prop_assert_eq!(fp, base.clone().with_threads(threads).cache_fingerprint());
        prop_assert_ne!(fp, base.clone().with_seeds([seed + 1]).cache_fingerprint());
        prop_assert_ne!(fp, base.clone().with_seeds([seed, seed + 1]).cache_fingerprint());
    }
}
