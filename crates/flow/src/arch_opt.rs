//! Architecture optimization: the fully automated half of the flow.
//!
//! Takes the user's network (usually parsed from a CNN architecture
//! definition) plus the pre-built component database, and produces a fully
//! implemented accelerator: component extraction/matching/placement/
//! stitching (the RapidWright-analog [`pi_stitch::compose`]) followed by
//! inter-component routing in the backend. Stitching time and routing time
//! are reported separately — the paper's Fig. 6 shows stitching is only
//! 5–9 % of the pre-implemented flow's total.
//!
//! Every design decision here that needs a component's rate — link FIFO
//! depths under `fifo_autosize`, the latency report — reads the rate
//! model ([`pi_cnn::cycles`]). `pi-lint` appears only as the opt-in gate
//! that checks the result; the flow never sizes hardware from it.
//!
//! Legality has one judge: [`pi_stitch::check_design`] runs unconditionally
//! after inter-component routing and any violation is
//! [`FlowError::DrcFailed`], with or without a lint policy. The lint pass
//! is additive (structure + netlist lints → [`FlowError::LintFailed`]) and
//! is handed the DRC's verdict instead of calling it, so a policy cannot
//! waive `PL031x` inside the flow.

use crate::config::FlowConfig;
use crate::report::LatencyReport;
use crate::FlowError;
use pi_cnn::cycles;
use pi_cnn::graph::Network;
use pi_fabric::Device;
use pi_netlist::{Design, DEFAULT_LINK_FIFO_DEPTH};
use pi_pnr::{route_assembled_obs, CompileReport};
use pi_stitch::{compose_obs, ComponentDb, ComposeOptions, ComposeReport};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Wire length (tiles) each pipeline segment of a long inter-component net
/// may span. The stitcher inserts a register stage per segment — the
/// paper's "inserting pipeline elements such as FFs on the critical path
/// improves the timing performance, while increasing the overall latency".
pub const WIRE_PIPELINE_SPACING: u32 = 64;

/// Pipeline long inter-component wires: the component flow knows every
/// boundary is a registered FIFO interface, so it can break long hops into
/// register-to-register segments — the monolithic flow cannot. Returns the
/// total pipeline registers inserted (extra latency cycles).
pub fn pipeline_top_nets(design: &mut Design) -> u64 {
    let mut extra = 0u64;
    for ni in 0..design.top_nets().len() {
        let net = &design.top_nets()[ni];
        let a = design.top_endpoint_coord(net.source);
        let b = net
            .sinks
            .first()
            .and_then(|&s| design.top_endpoint_coord(s));
        if let (Some(a), Some(b)) = (a, b) {
            let stages = (a.manhattan(&b).div_ceil(WIRE_PIPELINE_SPACING)).max(1);
            design.top_nets_mut()[ni].pipeline_stages = stages;
            extra += u64::from(stages - 1);
        }
    }
    extra
}

/// FIFO auto-sizing (`FlowConfig::with_fifo_autosize`): size each link
/// FIFO for the deepest requirement among its net's edges, so no branch of
/// a multi-sink net can stall. `edge_depths` maps component-adjacency
/// edges `(source, sink)` — indices into the network's topological
/// component order, which is also composition's instance order — to
/// minimum depths; edges absent from it keep the standard depth.
fn autosize_link_fifos(design: &mut Design, edge_depths: &BTreeMap<(usize, usize), u64>) {
    for net in design.top_nets_mut() {
        let source = net.source.0 .0 as usize;
        net.fifo_depth = net
            .sinks
            .iter()
            .filter_map(|&(sink, _)| edge_depths.get(&(source, sink.0 as usize)).copied())
            .max()
            .unwrap_or(DEFAULT_LINK_FIFO_DEPTH);
    }
}

/// Report from the pre-implemented flow.
#[derive(Debug, Clone)]
pub struct PreImplReport {
    /// Composition details (component signatures, placement costs).
    pub compose: ComposeReport,
    /// Backend report for the final inter-component routing.
    pub compile: CompileReport,
    /// Wall-clock spent stitching with the RapidWright analog.
    pub stitch_time: Duration,
    /// Wall-clock spent on inter-component routing + analysis.
    pub route_time: Duration,
    /// Latency model outputs for the assembled accelerator.
    pub latency: LatencyReport,
    /// Aggregated telemetry of this run — present when the config was
    /// built with [`FlowConfig::with_report_capture`]. Folded from the
    /// captured event stream *after* the flow's own `flow_done` point, so
    /// it covers the whole run.
    pub run_report: Option<pi_obs::agg::RunReport>,
    /// Lint report over the composed design — present when the config
    /// carries a lint policy ([`FlowConfig::with_lint`]). A gate-tripping
    /// report never lands here: the flow fails with
    /// [`crate::FlowError::LintFailed`] instead (and an illegal design
    /// with [`crate::FlowError::DrcFailed`] before any lint runs).
    pub lint: Option<pi_lint::LintReport>,
}

impl PreImplReport {
    /// Total generation time (the paper's Fig. 6 bar).
    pub fn total_time(&self) -> Duration {
        self.stitch_time + self.route_time
    }

    /// Fraction of total time spent in stitching (paper: 5 % for LeNet,
    /// 9 % for VGG).
    pub fn stitch_share(&self) -> f64 {
        let total = self.total_time().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.stitch_time.as_secs_f64() / total
        }
    }

    /// The one-line `assembled …` result `preimpl compose` prints first and
    /// a `pi-serve` compose job returns as its summary: deterministic, so
    /// local, remote, cold and warm runs can be compared byte for byte.
    pub fn summary_line(&self, design: &Design) -> String {
        format!(
            "assembled {}: Fmax {:.0} MHz, pipeline {:.0} ns, frame {:.3} ms, \
             {} stitched nets",
            design.name,
            self.compile.timing.fmax_mhz,
            self.latency.pipeline_ns,
            self.latency.frame_ms,
            self.compose.stitched_nets,
        )
    }

    /// Deterministic projection of this report as JSON: every field a
    /// re-run with the same config must reproduce byte-for-byte, and
    /// nothing wall-clock (stitch/route durations, phase times, and power —
    /// which feeds off phase activity — are excluded). The cache
    /// determinism tests and the warm/cold CI smoke compare these strings
    /// to assert a warm-cache run assembles the identical accelerator.
    pub fn deterministic_summary(&self) -> String {
        use serde_json::Value;
        let anchors: Vec<Value> = self
            .compose
            .placement
            .anchors
            .iter()
            .map(|a| Value::Seq(vec![Value::U64(a.col as u64), Value::U64(a.row as u64)]))
            .collect();
        let signatures: Vec<Value> = self
            .compose
            .component_signatures
            .iter()
            .map(|s| Value::Str(s.clone()))
            .collect();
        let compose = Value::Map(vec![
            ("component_signatures".into(), Value::Seq(signatures)),
            ("anchors".into(), Value::Seq(anchors)),
            (
                "timing_cost".into(),
                Value::F64(self.compose.placement.timing_cost),
            ),
            (
                "congestion_cost".into(),
                Value::F64(self.compose.placement.congestion_cost),
            ),
            (
                "retries".into(),
                Value::U64(self.compose.placement.retries as u64),
            ),
            (
                "stitched_nets".into(),
                Value::U64(self.compose.stitched_nets as u64),
            ),
        ]);
        let c = &self.compile;
        let compile = Value::Map(vec![
            ("design_name".into(), Value::Str(c.design_name.clone())),
            ("device_name".into(), Value::Str(c.device_name.clone())),
            (
                "critical_path_ps".into(),
                Value::F64(c.timing.critical_path_ps),
            ),
            ("fmax_mhz".into(), Value::F64(c.timing.fmax_mhz)),
            ("resources".into(), serde_json::to_value(&c.resources)),
            (
                "route_stats".into(),
                Value::Map(vec![
                    (
                        "routed_nets".into(),
                        Value::U64(c.route_stats.routed_nets as u64),
                    ),
                    (
                        "trivial_nets".into(),
                        Value::U64(c.route_stats.trivial_nets as u64),
                    ),
                    ("wirelength".into(), Value::U64(c.route_stats.wirelength)),
                    (
                        "overused_tiles".into(),
                        Value::U64(c.route_stats.overused_tiles as u64),
                    ),
                    (
                        "iterations".into(),
                        Value::U64(c.route_stats.iterations as u64),
                    ),
                ]),
            ),
            ("total_wirelength".into(), Value::U64(c.total_wirelength)),
        ]);
        let latency = Value::Map(vec![
            (
                "pipeline_cycles".into(),
                Value::U64(self.latency.pipeline_cycles),
            ),
            ("pipeline_ns".into(), Value::F64(self.latency.pipeline_ns)),
            ("frame_cycles".into(), Value::U64(self.latency.frame_cycles)),
            ("frame_ms".into(), Value::F64(self.latency.frame_ms)),
            ("fmax_mhz".into(), Value::F64(self.latency.fmax_mhz)),
        ]);
        let mut root = vec![
            ("compose".into(), compose),
            ("compile".into(), compile),
            ("latency".into(), latency),
        ];
        // Only present when a lint policy ran — summaries of lint-less
        // runs (the warm/cold CI smoke, cache determinism tests) are
        // unchanged by the lint subsystem existing.
        if let Some(lint) = &self.lint {
            let by_code: Vec<Value> = lint
                .by_code()
                .into_iter()
                .map(|(code, n)| {
                    Value::Map(vec![
                        ("code".into(), Value::Str(code.to_string())),
                        ("count".into(), Value::U64(n as u64)),
                    ])
                })
                .collect();
            root.push((
                "lint".into(),
                Value::Map(vec![
                    ("errors".into(), Value::U64(lint.errors() as u64)),
                    ("warnings".into(), Value::U64(lint.warnings() as u64)),
                    ("waived".into(), Value::U64(lint.waived as u64)),
                    ("allowed".into(), Value::U64(lint.allowed as u64)),
                    ("by_code".into(), Value::Seq(by_code)),
                ]),
            ));
        }
        serde_json::to_string_pretty(&Value::Map(root)).expect("summary serializes")
    }
}

/// Run the architecture-optimization phase: compose from the database, then
/// route the inter-component nets. Telemetry goes to the sink the config
/// carries: `stitch::placer` / `stitch::compose` during composition,
/// `pnr::route` during final routing, and a `flow::arch_opt` summary.
pub fn run_pre_implemented_flow(
    network: &Network,
    db: &ComponentDb,
    device: &Device,
    cfg: &FlowConfig,
) -> Result<(Design, PreImplReport), FlowError> {
    cfg.apply_parallelism();
    crate::function_opt::lint_gate_network(network, cfg)?;
    let obs = cfg.obs();
    let arch = obs.scoped("flow::arch_opt");

    let t0 = Instant::now();
    let stitch_span = arch.span("stitch");
    // FIFO auto-sizing: the per-link minimum depths come from the rate
    // model. Without the knob every link keeps `DEFAULT_LINK_FIFO_DEPTH`.
    // Sizing runs before composition so its counters keep their place in
    // the stream.
    let edge_depths = if cfg.fifo_autosize {
        let depths = cycles::link_min_depths(network, cfg.granularity)?;
        if arch.enabled() {
            arch.counter("autosized_links", depths.len() as u64);
            let deepest = depths.values().copied().max().unwrap_or(1);
            arch.counter("autosized_max_depth", deepest);
        }
        Some(depths)
    } else {
        None
    };
    let (mut design, compose_report) = compose_obs(
        network,
        db,
        device,
        &ComposeOptions {
            granularity: cfg.granularity,
            placer: cfg.placer,
        },
        obs,
    )?;
    if let Some(depths) = &edge_depths {
        autosize_link_fifos(&mut design, depths);
    }
    let extra_pipeline_cycles = pipeline_top_nets(&mut design);
    stitch_span.end();
    let stitch_time = t0.elapsed();

    let t1 = Instant::now();
    let route_span = arch.span("route");
    let compile = route_assembled_obs(&mut design, device, &cfg.route, obs)?;
    route_span.end();
    let route_time = t1.elapsed();

    // The one legality verdict: the physical DRC runs unconditionally and
    // any violation aborts via `DrcFailed` — no lint level, waiver or
    // `--allow` can turn an illegal design into `Ok`. A violation on a
    // composed design is a flow bug (or a corrupt database), never an
    // input error.
    let violations = pi_stitch::check_design(&design, device)?;
    if !violations.is_empty() {
        return Err(FlowError::DrcFailed(violations));
    }
    // The lint pass is purely additive: structure + per-instance netlist
    // lints, gated via `LintFailed`. It is handed the DRC's verdict to
    // fold rather than calling the DRC — empty here by construction.
    let lint = match &cfg.lint {
        Some(lc) => {
            let report =
                pi_lint::LintEngine::new(lc.clone()).lint_design(&design, &violations, obs);
            if report.gate(lc.deny_warnings) {
                return Err(FlowError::LintFailed(report));
            }
            Some(report)
        }
        None => None,
    };

    let latency = LatencyReport::for_assembled(
        network,
        cfg.granularity,
        db,
        compile.timing.fmax_mhz,
        extra_pipeline_cycles,
    )?;

    let mut report = PreImplReport {
        compose: compose_report,
        compile,
        stitch_time,
        route_time,
        latency,
        run_report: None,
        lint,
    };
    if arch.enabled() {
        arch.point(
            "flow_done",
            &[
                (
                    "components",
                    report.compose.component_signatures.len().into(),
                ),
                ("stitched_nets", report.compose.stitched_nets.into()),
                ("fmax_mhz", report.compile.timing.fmax_mhz.into()),
                ("pipeline_cycles", report.latency.pipeline_cycles.into()),
                // Wall-clock-derived: present in the trace, stripped from
                // the determinism comparison form.
                ("wallclock_stitch_s", stitch_time.as_secs_f64().into()),
                ("wallclock_route_s", route_time.as_secs_f64().into()),
                ("wallclock_stitch_share", report.stitch_share().into()),
            ],
        );
    }
    report.run_report = cfg.run_report();
    Ok((design, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function_opt::build_component_db;
    use pi_cnn::models;

    fn toy_setup() -> (Device, Network, ComponentDb) {
        let device = Device::xcku5p_like();
        let network = models::toy();
        let cfg = FlowConfig::new().with_seeds([1]);
        let (db, _) = build_component_db(&network, &device, &cfg).unwrap();
        (device, network, db)
    }

    use pi_cnn::Network;

    #[test]
    fn flow_produces_routed_design() {
        let (device, network, db) = toy_setup();
        let (design, report) =
            run_pre_implemented_flow(&network, &db, &device, &FlowConfig::new()).unwrap();
        assert!(design.fully_routed());
        assert!(report.compile.timing.fmax_mhz > 100.0);
        assert_eq!(report.compose.stitched_nets, 2);
        assert!(report.latency.pipeline_ns > 0.0);
        assert!(report.total_time() > Duration::ZERO);
        assert!(report.stitch_share() > 0.0 && report.stitch_share() < 1.0);
    }

    #[test]
    fn long_top_nets_get_pipeline_stages() {
        let (device, network, db) = toy_setup();
        let (design, report) =
            run_pre_implemented_flow(&network, &db, &device, &FlowConfig::new()).unwrap();
        let mut expected_extra = 0u64;
        for net in design.top_nets() {
            let a = design.top_endpoint_coord(net.source).expect("planned");
            let b = design.top_endpoint_coord(net.sinks[0]).expect("planned");
            let stages = a.manhattan(&b).div_ceil(WIRE_PIPELINE_SPACING).max(1);
            assert_eq!(net.pipeline_stages, stages, "net {}", net.name);
            expected_extra += u64::from(stages - 1);
        }
        // The latency model charges exactly the inserted registers.
        let base: u64 = report
            .latency
            .per_component
            .iter()
            .map(|c| c.depth_cycles)
            .sum();
        assert_eq!(report.latency.pipeline_cycles, base + expected_extra);
    }

    #[test]
    fn flow_populates_run_report_under_capture() {
        let (device, network, db) = toy_setup();
        let cfg = FlowConfig::new().with_report_capture();
        let (_, report) = run_pre_implemented_flow(&network, &db, &device, &cfg).unwrap();
        let rr = report.run_report.as_ref().expect("capture installed");
        assert!(rr.events > 0);
        assert!(rr.spans.contains_key("flow::arch_opt:stitch"));
        assert!(
            rr.spans.contains_key(
                "flow::arch_opt:route/pnr::compile:route_design/pnr::route:pathfinder"
            ),
            "router span nests under the backend's route_design span: {:?}",
            rr.spans.keys().collect::<Vec<_>>()
        );
        assert!(!rr.route.is_empty(), "pathfinder trace captured");
        // The flow_done point itself is in the report.
        assert_eq!(rr.points["flow::arch_opt:flow_done"].count, 1);
        // Without capture there is no report.
        let (_, report) =
            run_pre_implemented_flow(&network, &db, &device, &FlowConfig::new()).unwrap();
        assert!(report.run_report.is_none());
    }

    #[test]
    fn flow_with_lint_enabled_passes_clean_and_reports() {
        let device = Device::xcku5p_like();
        let network = models::toy();
        let cfg = FlowConfig::new()
            .with_seeds([1])
            .with_lint(pi_lint::LintConfig::new().with_deny_warnings(true));
        // Both stage gates run: network + db during function optimization,
        // the full design pass during architecture optimization.
        let (db, _) = build_component_db(&network, &device, &cfg).unwrap();
        let (design, report) = run_pre_implemented_flow(&network, &db, &device, &cfg).unwrap();
        assert!(design.fully_routed());
        let lint = report.lint.as_ref().expect("lint policy ran");
        assert!(lint.is_clean(), "{}", lint.render_text());
        assert!(
            report.deterministic_summary().contains("\"lint\""),
            "summary gains a lint section when lint ran"
        );
        // Without a policy the summary is unchanged.
        let (_, plain) =
            run_pre_implemented_flow(&network, &db, &device, &FlowConfig::new().with_seeds([1]))
                .unwrap();
        assert!(plain.lint.is_none());
        assert!(!plain.deterministic_summary().contains("\"lint\""));
    }

    /// Corrupt every checkpoint through the serde envelope (the in-memory
    /// module is locked): unlock it, which breaks PL0302 and PL0317.
    fn unlocked(db: &ComponentDb) -> ComponentDb {
        let mut broken = ComponentDb::new();
        for cp in db.checkpoints() {
            let mut json = serde_json::to_value(cp);
            json["module"]["locked"] = serde_json::Value::Bool(false);
            broken.insert(serde_json::from_value(json).expect("checkpoint round-trips"));
        }
        broken
    }

    #[test]
    fn lint_gate_trips_on_contract_break() {
        let (device, network, db) = toy_setup();
        let broken = unlocked(&db);
        let cfg = FlowConfig::new()
            .with_seeds([1])
            .with_lint(pi_lint::LintConfig::new());
        let err = crate::function_opt::lint_gate_db(&broken, &network, &device, &cfg).unwrap_err();
        match err {
            crate::FlowError::LintFailed(report) => {
                assert!(
                    report.diagnostics.iter().any(|d| d.code == "PL0302"),
                    "{report:?}"
                );
            }
            other => panic!("expected LintFailed, got {other}"),
        }
    }

    #[test]
    fn a_lint_policy_cannot_waive_the_drc() {
        let (device, network, db) = toy_setup();
        let broken = unlocked(&db);
        let waived = pi_lint::LintConfig::new().with_waivers(vec![pi_lint::Waiver {
            code: "PL0317".into(),
            origin_prefix: "*".into(),
        }]);
        for cfg in [
            FlowConfig::new(),
            FlowConfig::from_json(r#"{"lint":{"levels":{"PL0317":"allow"}}}"#).unwrap(),
            FlowConfig::new().with_lint(waived),
        ] {
            match run_pre_implemented_flow(&network, &broken, &device, &cfg) {
                Err(FlowError::DrcFailed(v)) => assert!(
                    v.iter()
                        .any(|v| matches!(v, pi_stitch::Violation::NotLocked { .. })),
                    "{v:?}"
                ),
                Err(other) => panic!("expected DrcFailed, got {other}"),
                Ok(_) => panic!("an unlocked design passed under {:?}", cfg.lint),
            }
        }
    }

    #[test]
    fn assembled_fmax_tracks_slowest_component() {
        let (device, network, db) = toy_setup();
        let (_, report) =
            run_pre_implemented_flow(&network, &db, &device, &FlowConfig::new()).unwrap();
        let slowest = db
            .checkpoints()
            .map(|cp| cp.meta.fmax_mhz)
            .fold(f64::INFINITY, f64::min);
        // The paper: "the frequency of the pre-built design is upper
        // bounded by the slowest component". Inter-component wires may only
        // push it below that bound.
        assert!(
            report.compile.timing.fmax_mhz <= slowest * 1.001,
            "assembled {} > slowest component {}",
            report.compile.timing.fmax_mhz,
            slowest
        );
    }
}
