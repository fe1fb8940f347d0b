//! Tests for the `FlowConfig` wire format (the struct's derived `serde`
//! form, see `pi_flow::config`).
//!
//! `pi-serve` job IDs are content hashes over `FlowConfig::to_json()`, and
//! the daemon rebuilds the config with `from_json` before running the
//! flow — so the wire format must (a) preserve `cache_fingerprint()`
//! (otherwise a remote job would rebuild components a local run already
//! cached), and (b) serialize equal configs byte-identically (otherwise
//! identical submissions would not coalesce). Both properties are checked
//! here over randomized knob combinations, not just the defaults. The
//! plain tests pin the bytes themselves and what a submitted config is
//! rejected for.

use preimpl_cnn::cnn::graph::Granularity;
use preimpl_cnn::pnr::RouteOptions;
use preimpl_cnn::prelude::FlowConfig;
use preimpl_cnn::stitch::ComponentPlacerOptions;
use preimpl_cnn::synth::{SynthMode, SynthOptions};
use proptest::prelude::*;
use std::path::PathBuf;

/// Cache directories with relative/absolute/dotted/unicode shapes.
const DIRS: &[&str] = &[
    "/tmp/pi-db",
    "rel/cache",
    "./x",
    "..",
    "キャッシュ",
    "a b/c",
];

fn pbool() -> impl Strategy<Value = bool> {
    (0u8..2).prop_map(|b| b == 1)
}

/// `Option<T>` stand-in: flag + value.
fn opt<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
    (0u8..2, s).prop_map(|(some, v)| if some == 1 { Some(v) } else { None })
}

fn config_strategy() -> impl Strategy<Value = FlowConfig> {
    let shape = (
        pbool(),                                          // granularity
        proptest::collection::vec(0u64..1_000_000, 1..6), // seeds
        0.05f64..1.0,                                     // pblock utilization
        0.1f64..16.0,                                     // effort
    );
    let engines = (
        1usize..40,   // router iterations
        0.0f64..20.0, // placer congestion weight
        0.5f64..16.0, // baseline effort
    );
    let synth = (pbool(), 1u64..64, pbool());
    let cache = (
        opt(1usize..32),         // threads
        opt(0usize..DIRS.len()), // db dir
        opt(1u64..u64::MAX),     // db budget
    );
    (shape, engines, synth, cache).prop_map(
        |(
            (block, seeds, util, effort),
            (max_iters, congestion_weight, baseline),
            (mono, width, on_chip),
            (threads, db_dir, budget),
        )| {
            let mut cfg = FlowConfig::new()
                .with_synth(SynthOptions {
                    mode: if mono {
                        SynthMode::Monolithic
                    } else {
                        SynthMode::Ooc
                    },
                    data_width: width as u16,
                    weights_on_chip: on_chip,
                })
                .with_granularity(if block {
                    Granularity::Block
                } else {
                    Granularity::Layer
                })
                .with_seeds(seeds)
                .with_pblock_utilization(util)
                .with_effort(effort)
                .with_route(RouteOptions { max_iters })
                .with_placer(ComponentPlacerOptions { congestion_weight })
                .with_baseline_effort(baseline);
            if let Some(t) = threads {
                cfg = cfg.with_threads(t);
            }
            if let Some(d) = db_dir {
                cfg = cfg.with_db_dir(DIRS[d]);
            }
            if let Some(b) = budget {
                cfg = cfg.with_db_budget_bytes(b);
            }
            cfg
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The property `pi-serve` stands on: deserializing a serialized
    /// config reproduces the cache fingerprint, so a remote job hits the
    /// same cache entries a local run under the same config would.
    #[test]
    fn from_json_to_json_preserves_cache_fingerprint(cfg in config_strategy()) {
        let wire = cfg.to_json();
        let back = FlowConfig::from_json(&wire).expect("serialized config parses");
        prop_assert_eq!(back.cache_fingerprint(), cfg.cache_fingerprint());
        // Knobs outside the fingerprint must survive too.
        prop_assert_eq!(back.threads, cfg.threads);
        prop_assert_eq!(back.db_dir.clone(), cfg.db_dir.clone());
        prop_assert_eq!(back.db_budget_bytes, cfg.db_budget_bytes);
        prop_assert_eq!(back.baseline_effort, cfg.baseline_effort);
    }

    /// Equal configs serialize byte-identically — a round-tripped config
    /// re-serializes to the same string, so job IDs (hashes of the wire
    /// form) coalesce identical submissions.
    #[test]
    fn serialization_is_canonical(cfg in config_strategy()) {
        let wire = cfg.to_json();
        let back = FlowConfig::from_json(&wire).expect("serialized config parses");
        prop_assert_eq!(back.to_json(), wire);
    }
}

/// A config with every wire-visible knob off its default.
fn every_knob_config() -> FlowConfig {
    FlowConfig::new()
        .with_synth(SynthOptions::vgg_like())
        .with_granularity(Granularity::Block)
        .with_seeds([9, 4, 7])
        .with_pblock_utilization(0.55)
        .with_effort(3.5)
        .with_route(RouteOptions { max_iters: 11 })
        .with_placer(ComponentPlacerOptions {
            congestion_weight: 7.25,
        })
        .with_baseline_effort(8.5)
        .with_threads(3)
        .with_db_dir("/tmp/pi-db")
        .with_db_budget_bytes(1 << 20)
}

/// The derived wire form is the hand-written one it replaced, byte for
/// byte: these literals are `to_json()` of the same two configs captured
/// at the last commit with the hand-written writer, minus the keys of the
/// knobs deleted since (every one is a rejected input in
/// `malformed_configs_are_rejected_naming_the_field`). Job IDs and
/// coalescing hash these bytes.
#[test]
fn wire_bytes_are_pinned() {
    assert_eq!(
        FlowConfig::new().to_json(),
        r#"{"synth":{"mode":"ooc","data_width":16,"weights_on_chip":true},"granularity":"layer","seeds":[1,2,3],"pblock_utilization":0.7,"effort":2.0,"route":{"max_iters":8},"placer":{"congestion_weight":25.0},"baseline_effort":6.0,"threads":null,"db_dir":null,"db_budget_bytes":null}"#
    );
    assert_eq!(
        every_knob_config().to_json(),
        r#"{"synth":{"mode":"ooc","data_width":16,"weights_on_chip":false},"granularity":"block","seeds":[9,4,7],"pblock_utilization":0.55,"effort":3.5,"route":{"max_iters":11},"placer":{"congestion_weight":7.25},"baseline_effort":8.5,"threads":3,"db_dir":"/tmp/pi-db","db_budget_bytes":1048576}"#
    );
}

#[test]
fn every_knob_round_trips() {
    let cfg = every_knob_config();
    let back = FlowConfig::from_json(&cfg.to_json()).unwrap();
    assert_eq!(back.cache_fingerprint(), cfg.cache_fingerprint());
    assert_eq!(back.synth.data_width, cfg.synth.data_width);
    assert_eq!(back.seeds, vec![9, 4, 7]);
    assert_eq!(back.threads, Some(3));
    assert_eq!(back.db_dir, Some(PathBuf::from("/tmp/pi-db")));
    assert_eq!(back.db_budget_bytes, Some(1 << 20));
    // A deserialized config carries no telemetry sink.
    assert!(!back.obs().enabled());
    assert!(back.run_report().is_none());
}

#[test]
fn missing_keys_take_defaults() {
    let cfg = FlowConfig::from_json("{\"seeds\":[5]}").unwrap();
    assert_eq!(cfg.seeds, vec![5]);
    assert_eq!(cfg.effort, FlowConfig::new().effort);
    assert_eq!(cfg.threads, None);
    // Nested objects default key by key as well.
    let cfg = FlowConfig::from_json("{\"synth\":{\"data_width\":8}}").unwrap();
    assert_eq!(cfg.synth.data_width, 8);
    let default = SynthOptions::default();
    assert_eq!(cfg.synth.mode, default.mode);
    assert_eq!(cfg.synth.weights_on_chip, default.weights_on_chip);
    // An integer is accepted where a float is expected.
    assert_eq!(FlowConfig::from_json("{\"effort\":3}").unwrap().effort, 3.0);
}

/// A submitted config is outside input: typos, removed knobs and values
/// the field cannot hold fail loudly instead of running under something
/// the client did not ask for.
#[test]
fn malformed_configs_are_rejected_naming_the_field() {
    for (wire, needles) in [
        // Unknown keys, top level and nested — including every removed
        // knob an old client may still send.
        ("{\"sedes\":[1]}", &["unknown key", "sedes"][..]),
        ("{\"route\":{\"max_iter\":3}}", &["unknown key", "max_iter"]),
        (
            "{\"route\":{\"steiner\":true}}",
            &["unknown key", "steiner"],
        ),
        (
            "{\"target_fmax_mhz\":400.0}",
            &["unknown key", "target_fmax_mhz"],
        ),
        (
            "{\"phys_opt_passes\":4}",
            &["unknown key", "phys_opt_passes"],
        ),
        // The flow runs no lint: a policy of any shape, or none, is a
        // removed knob.
        ("{\"lint\":null}", &["unknown key", "lint"]),
        (
            "{\"lint\":{\"link_fifo_depth\":96}}",
            &["unknown key", "lint"],
        ),
        (
            "{\"lint\":{\"fanout_threshold\":17}}",
            &["unknown key", "lint"],
        ),
        (
            "{\"lint\":{\"frame_cycle_budget\":1}}",
            &["unknown key", "lint"],
        ),
        (
            "{\"fifo_autosize\":true}",
            &["unknown key", "fifo_autosize"],
        ),
        (
            "{\"placer\":{\"crowding_margin\":2}}",
            &["unknown key", "crowding_margin"],
        ),
        (
            "{\"placer\":{\"max_retries\":3}}",
            &["unknown key", "max_retries"],
        ),
        (
            "{\"placer\":{\"timing_threshold\":200.0}}",
            &["unknown key", "timing_threshold"],
        ),
        (
            "{\"plan_partpins\":true}",
            &["unknown key", "plan_partpins"],
        ),
        // Out-of-range integers used to be truncated with `as u16`.
        (
            "{\"synth\":{\"data_width\":70000}}",
            &["data_width", "out of range"],
        ),
        // The track capacity is the device's, not a routing option.
        (
            "{\"route\":{\"capacity\":64}}",
            &["unknown key", "capacity"],
        ),
        ("{\"seeds\":[-1]}", &["seeds", "out of range"]),
        ("{\"threads\":0}", &["threads", "at least 1"]),
        // Enum spellings are the lowercase ones only.
        (
            "{\"granularity\":\"Block\"}",
            &["granularity", "unknown variant"],
        ),
        (
            "{\"lint\":{\"levels\":{\"PL0101\":\"Deny\"}}}",
            &["unknown key", "lint"],
        ),
        (
            "{\"lint\":{\"waivers\":[{\"code\":\"PL0101\"}]}}",
            &["unknown key", "lint"],
        ),
        ("[]", &["expected map"]),
    ] {
        let err = FlowConfig::from_json(wire).expect_err(wire);
        for needle in needles {
            assert!(err.contains(needle), "{wire}: {err:?} lacks {needle:?}");
        }
    }
}
