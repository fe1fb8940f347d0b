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
use preimpl_cnn::lint::{Level, LintConfig, Waiver};
use preimpl_cnn::pnr::RouteOptions;
use preimpl_cnn::prelude::FlowConfig;
use preimpl_cnn::stitch::ComponentPlacerOptions;
use preimpl_cnn::synth::{SynthMode, SynthOptions};
use proptest::prelude::*;
use std::path::PathBuf;

/// Real codes from the lint registry plus one unknown-looking spelling
/// (the levels map is policy, not validation — unknown codes may be
/// configured and simply never fire).
const CODES: &[&str] = &["PL0101", "PL0107", "PL0206", "PL0301", "PL9999"];

/// Waiver origin prefixes with globbing, separators, unicode, empty.
const PREFIXES: &[&str] = &["", "net:top_*", "comp:conv2d_*", "mem/alloc", "配線*", "*"];

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

fn lint_strategy() -> impl Strategy<Value = Option<LintConfig>> {
    let levels = proptest::collection::vec((0usize..CODES.len(), 0u8..3), 0..4);
    let waivers = proptest::collection::vec((0usize..CODES.len(), 0usize..PREFIXES.len()), 0..3);
    let cfg = (levels, waivers, pbool()).prop_map(|(levels, waivers, deny)| {
        let mut lint = LintConfig::new().with_deny_warnings(deny);
        for (code, level) in levels {
            let level = match level {
                0 => Level::Allow,
                1 => Level::Warn,
                _ => Level::Deny,
            };
            lint = lint.with_level(CODES[code].to_string(), level);
        }
        lint.with_waivers(
            waivers
                .into_iter()
                .map(|(code, prefix)| Waiver {
                    code: CODES[code].to_string(),
                    origin_prefix: PREFIXES[prefix].to_string(),
                })
                .collect(),
        )
    });
    opt(cfg)
}

fn config_strategy() -> impl Strategy<Value = FlowConfig> {
    let shape = (
        pbool(),                                          // granularity
        proptest::collection::vec(0u64..1_000_000, 1..6), // seeds
        0.05f64..1.0,                                     // pblock utilization
        0.1f64..16.0,                                     // effort
    );
    let engines = (
        pbool(),                                             // plan partpins
        (1usize..40, 1u64..200),                             // route knobs
        (0.0f64..500.0, 0.0f64..20.0, 0u64..16, 0usize..12), // placer knobs
        0.5f64..16.0,                                        // baseline effort
    );
    let synth = (pbool(), 1u64..64, pbool(), pbool());
    let cache = (
        opt(1usize..32),         // threads
        opt(0usize..DIRS.len()), // db dir
        opt(1u64..u64::MAX),     // db budget
    );
    (shape, engines, synth, cache, lint_strategy()).prop_map(
        |(
            (block, seeds, util, effort),
            (partpins, (max_iters, capacity), placer, baseline),
            (mono, width, on_chip, autosize),
            (threads, db_dir, budget),
            lint,
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
                .with_plan_partpins(partpins)
                .with_route(RouteOptions {
                    max_iters,
                    capacity: capacity as u16,
                })
                .with_placer(ComponentPlacerOptions {
                    timing_threshold: placer.0,
                    congestion_weight: placer.1,
                    crowding_margin: placer.2 as u16,
                    max_retries: placer.3,
                })
                .with_baseline_effort(baseline)
                .with_fifo_autosize(autosize);
            if let Some(t) = threads {
                cfg = cfg.with_threads(t);
            }
            if let Some(d) = db_dir {
                cfg = cfg.with_db_dir(DIRS[d]);
            }
            if let Some(b) = budget {
                cfg = cfg.with_db_budget_bytes(b);
            }
            if let Some(l) = lint {
                cfg = cfg.with_lint(l);
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
        prop_assert_eq!(back.fifo_autosize, cfg.fifo_autosize);
        prop_assert_eq!(
            back.lint.as_ref().map(|l| (l.levels.clone(), l.waivers.clone(), l.deny_warnings)),
            cfg.lint.as_ref().map(|l| (l.levels.clone(), l.waivers.clone(), l.deny_warnings))
        );
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
    let lint = LintConfig::new()
        .deny("PL0107")
        .allow("PL0206")
        .with_waivers(vec![Waiver {
            code: "PL0101".into(),
            origin_prefix: "net:top_*".into(),
        }])
        .with_deny_warnings(true);
    FlowConfig::new()
        .with_synth(SynthOptions::vgg_like())
        .with_granularity(Granularity::Block)
        .with_seeds([9, 4, 7])
        .with_pblock_utilization(0.55)
        .with_effort(3.5)
        .with_plan_partpins(false)
        .with_route(RouteOptions {
            max_iters: 11,
            capacity: 48,
        })
        .with_placer(ComponentPlacerOptions {
            timing_threshold: 123.5,
            congestion_weight: 7.25,
            crowding_margin: 5,
            max_retries: 9,
        })
        .with_baseline_effort(8.5)
        .with_threads(3)
        .with_db_dir("/tmp/pi-db")
        .with_db_budget_bytes(1 << 20)
        .with_lint(lint)
        .with_fifo_autosize(true)
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
        r#"{"synth":{"mode":"ooc","data_width":16,"weights_on_chip":true},"granularity":"layer","seeds":[1,2,3],"pblock_utilization":0.7,"effort":2.0,"plan_partpins":true,"route":{"max_iters":8,"capacity":64},"placer":{"timing_threshold":200.0,"congestion_weight":25.0,"crowding_margin":2,"max_retries":3},"baseline_effort":6.0,"threads":null,"db_dir":null,"db_budget_bytes":null,"lint":null,"fifo_autosize":false}"#
    );
    assert_eq!(
        every_knob_config().to_json(),
        r#"{"synth":{"mode":"ooc","data_width":16,"weights_on_chip":false},"granularity":"block","seeds":[9,4,7],"pblock_utilization":0.55,"effort":3.5,"plan_partpins":false,"route":{"max_iters":11,"capacity":48},"placer":{"timing_threshold":123.5,"congestion_weight":7.25,"crowding_margin":5,"max_retries":9},"baseline_effort":8.5,"threads":3,"db_dir":"/tmp/pi-db","db_budget_bytes":1048576,"lint":{"levels":{"PL0107":"deny","PL0206":"allow"},"waivers":[{"code":"PL0101","origin_prefix":"net:top_*"}],"deny_warnings":true},"fifo_autosize":true}"#
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
    let back_lint = back.lint.as_ref().unwrap();
    assert_eq!(back_lint.levels, cfg.lint.as_ref().unwrap().levels);
    assert_eq!(back_lint.waivers, cfg.lint.as_ref().unwrap().waivers);
    assert!(back_lint.deny_warnings);
    assert!(back.fifo_autosize);
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
    assert!(cfg.lint.is_none());
    // Nested objects default key by key as well.
    let cfg = FlowConfig::from_json("{\"route\":{\"max_iters\":3}}").unwrap();
    assert_eq!(cfg.route.max_iters, 3);
    assert_eq!(cfg.route.capacity, RouteOptions::default().capacity);
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
        (
            "{\"lint\":{\"link_fifo_depth\":96}}",
            &["unknown key", "link_fifo_depth"],
        ),
        (
            "{\"lint\":{\"fanout_threshold\":17}}",
            &["unknown key", "fanout_threshold"],
        ),
        (
            "{\"lint\":{\"frame_cycle_budget\":1}}",
            &["unknown key", "frame_cycle_budget"],
        ),
        // Out-of-range integers used to be truncated with `as u16`.
        (
            "{\"synth\":{\"data_width\":70000}}",
            &["data_width", "out of range"],
        ),
        (
            "{\"route\":{\"capacity\":70000}}",
            &["capacity", "out of range"],
        ),
        (
            "{\"placer\":{\"crowding_margin\":70000}}",
            &["crowding_margin", "out of range"],
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
            &["levels", "PL0101", "unknown variant"],
        ),
        (
            "{\"lint\":{\"waivers\":[{\"code\":\"PL0101\"}]}}",
            &["origin_prefix"],
        ),
        ("[]", &["expected map"]),
    ] {
        let err = FlowConfig::from_json(wire).expect_err(wire);
        for needle in needles {
            assert!(err.contains(needle), "{wire}: {err:?} lacks {needle:?}");
        }
    }
}
