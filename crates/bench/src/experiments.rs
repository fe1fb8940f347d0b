//! One function per paper artifact. Every function returns a markdown
//! [`Section`] with our measurements next to the paper's published numbers.

use crate::paper;
use crate::{device, fmt_s, md_table, Ctx, Section};
use pi_cnn::cycles;
use pi_cnn::graph::Granularity;
use pi_flow::{
    build_component_db, plan_partpins, run_pre_implemented_flow, size_pblock, FlowConfig,
};
use pi_netlist::{Checkpoint, CheckpointMeta, Design, DesignKind};
use pi_obs::agg::{RouteTrace, RunReport};
use pi_obs::Obs;
use pi_pnr::compile::CompileOptions;
use pi_pnr::{
    compile_flat_obs, place_module_obs, route_assembled_obs, route_module_obs, sta_module,
    PlaceOptions, RouteOptions,
};
use pi_stitch::{ComponentDb, ComponentPlacerOptions};
use pi_synth::{synth_kernel, KernelKind};
use std::time::Instant;

/// E1 — Fig. 1: the motivation experiment. Four 3×3 PE-block kernels built
/// with the full flow ("Vivado") and as pre-implemented components
/// ("RapidWright"); compile time and Fmax compared.
pub fn fig1_motivation() -> Section {
    let device = device();
    let mut rows = Vec::new();
    for (kind, reference) in KernelKind::ALL.iter().zip(&paper::FIG1) {
        // Traditional flow: full implementation of the block.
        let mut base = synth_kernel(*kind, 3, 3).expect("kernel synthesizes");
        let t0 = Instant::now();
        let base_report = compile_flat_obs(
            &mut base,
            &device,
            &CompileOptions::with_seed(1),
            &Obs::null(),
        )
        .expect("compiles");
        let base_time = t0.elapsed();

        // Pre-implemented flow: OOC implementation once (not charged), then
        // generation = relocate + finish routing.
        let mut ooc = synth_kernel(*kind, 3, 3).expect("kernel synthesizes");
        let pblock = size_pblock(&ooc.resources(), &device, 0.7).expect("pblock fits");
        ooc.pblock = Some(pblock);
        plan_partpins(&mut ooc, &pblock).expect("partpins anchor the ports");
        place_module_obs(
            &mut ooc,
            &device,
            &PlaceOptions {
                seed: 1,
                effort: 2.0,
                region: Some(pblock),
            },
            &Obs::null(),
        )
        .expect("places");
        plan_partpins(&mut ooc, &pblock).expect("partpins refine");
        let _ = route_module_obs(&mut ooc, &device, &RouteOptions::default(), &Obs::null())
            .expect("routes");
        ooc.lock();
        let fmax_ooc = sta_module(&ooc, &device, None).expect("sta").fmax_mhz;
        let cp = Checkpoint {
            meta: CheckpointMeta {
                signature: kind.abbrev().to_string(),
                fmax_mhz: fmax_ooc,
                resources: ooc.resources(),
                pblock,
                device: device.name().to_string(),
                latency_cycles: 0,
            },
            module: ooc,
        };
        let t1 = Instant::now();
        let module = pi_stitch::relocate_to(&cp, &device, pi_fabric::TileCoord::new(1, 0))
            .expect("relocates");
        let mut design = Design::new(
            format!("{}_asm", kind.abbrev()),
            device.name(),
            DesignKind::Assembled,
        );
        design.add_instance(kind.abbrev(), module);
        let pre_report =
            route_assembled_obs(&mut design, &device, &RouteOptions::default(), &Obs::null())
                .expect("routes");
        let pre_time = t1.elapsed();

        let compile_gain = 100.0 * (1.0 - pre_time.as_secs_f64() / base_time.as_secs_f64());
        let fmax_gain = 100.0 * (pre_report.timing.fmax_mhz / base_report.timing.fmax_mhz - 1.0);
        rows.push(vec![
            reference.kernel.to_string(),
            fmt_s(base_time),
            fmt_s(pre_time),
            format!("{compile_gain:.0}%"),
            format!("{:.0}%", reference.compile_gain_pct),
            format!("{:.0}", base_report.timing.fmax_mhz),
            format!("{:.0}", pre_report.timing.fmax_mhz),
            format!("{fmax_gain:.0}%"),
            format!("{:.0}%", reference.fmax_gain_pct),
        ]);
    }
    Section {
        id: "Fig. 1".to_string(),
        title: "Motivation: 3×3 PE blocks, traditional vs pre-implemented flow".to_string(),
        body: md_table(
            &[
                "kernel",
                "compile (trad.)",
                "compile (pre-impl)",
                "gain (ours)",
                "gain (paper)",
                "Fmax trad. MHz",
                "Fmax pre-impl MHz",
                "Fmax gain (ours)",
                "Fmax gain (paper)",
            ],
            &rows,
        ),
    }
}

fn fmt_count(v: u64) -> String {
    if v >= 1_000_000_000 {
        format!("{:.1} G", v as f64 / 1e9)
    } else if v >= 1_000_000 {
        format!("{:.1} M", v as f64 / 1e6)
    } else if v >= 1_000 {
        format!("{:.1} K", v as f64 / 1e3)
    } else {
        v.to_string()
    }
}

/// E2 — Table I: computational characteristics of the two networks.
pub fn table1_networks() -> Section {
    let mut rows = Vec::new();
    for (net, reference) in [pi_cnn::models::lenet5(), pi_cnn::models::vgg16()]
        .into_iter()
        .zip(&paper::TABLE1)
    {
        let s = net.stats().expect("stats");
        rows.push(vec![
            net.name.clone(),
            format!("{} ({})", s.conv_layers, reference.conv_layers),
            format!("{} ({})", fmt_count(s.conv_weights), reference.conv_weights),
            format!("{} ({})", fmt_count(s.conv_macs), reference.conv_macs),
            format!("{} ({})", s.fc_layers, reference.fc_layers),
            format!("{} ({})", fmt_count(s.fc_weights), reference.fc_weights),
            format!("{} ({})", fmt_count(s.fc_macs), reference.fc_macs),
            format!(
                "{} ({})",
                fmt_count(s.total_weights()),
                reference.total_weights
            ),
            format!("{} ({})", fmt_count(s.total_macs()), reference.total_macs),
        ]);
    }
    Section {
        id: "Table I".to_string(),
        title: "Network workloads — measured (paper in parentheses)".to_string(),
        body: md_table(
            &[
                "network",
                "# conv",
                "conv weights",
                "conv MACs",
                "# FC",
                "FC weights",
                "FC MACs",
                "total weights",
                "total MACs",
            ],
            &rows,
        ) + "\nNote: the paper's LeNet row (26 K conv weights, 1.9 M conv MACs) is \
            inconsistent with its own per-layer counts (156 + 2416 weights, \
            117 600 + 240 000 multiplications); our column matches the per-layer \
            counts. The VGG row lists 13 conv layers — the canonical VGG-16 the \
            weight/MAC totals imply; the paper says \"16\".\n",
    }
}

/// E3 — Table II: FPGA resource utilization, classic vs pre-implemented.
pub fn table2_resources(ctx: &mut Ctx) -> Section {
    let device = device();
    let totals = device.totals();
    let fmt_util = |v: u64, cap: u64| format!("{} ({:.2}%)", v, 100.0 * v as f64 / cap as f64);
    let mut rows = Vec::new();
    let mut data = Vec::new();
    {
        let run = ctx.lenet();
        data.push((
            ["LeNet (classic)", "LeNet (pre-impl)"],
            run.baseline.compile.resources,
            run.preimpl_design.resources(),
        ));
    }
    {
        let run = ctx.vgg();
        data.push((
            ["VGG-16 (classic)", "VGG-16 (pre-impl)"],
            run.baseline.compile.resources,
            run.preimpl_design.resources(),
        ));
    }
    for (labels, base, pre) in data {
        for (label, r) in [(labels[0], base), (labels[1], pre)] {
            let reference = paper::TABLE2
                .iter()
                .find(|p| p.row == label)
                .expect("label matches reference");
            rows.push(vec![
                label.to_string(),
                format!("{} [{}]", fmt_util(r.luts, totals.luts), reference.luts),
                format!("{} [{}]", fmt_util(r.ffs, totals.ffs), reference.ffs),
                format!("{} [{}]", fmt_util(r.brams, totals.brams), reference.brams),
                format!("{} [{}]", fmt_util(r.dsps, totals.dsps), reference.dsps),
            ]);
        }
    }
    Section {
        id: "Table II".to_string(),
        title: "Resource utilization — measured [paper]".to_string(),
        body: md_table(
            &["design", "CLB LUTs", "CLB registers", "BRAMs", "DSPs"],
            &rows,
        ) + "\nShape check: the pre-implemented build of each network uses fewer \
               LUTs/FFs/BRAMs than the classic build at equal DSPs — the paper's \
               §V-C observation. Absolute DSP counts land on the paper's (~2k for \
               VGG); utilization percentages read lower because our modeled device \
               carries more capacity (see DESIGN.md).\n",
    }
}

/// E4 — Fig. 6: design-generation time and the stitching share.
pub fn fig6_productivity(ctx: &mut Ctx) -> Section {
    let mut rows = Vec::new();
    let mut data = Vec::new();
    {
        let run = ctx.lenet();
        data.push((
            run.network.name.clone(),
            run.baseline.total_time(),
            run.preimpl.total_time(),
            run.preimpl.stitch_share(),
            run.db_build_time,
        ));
    }
    {
        let run = ctx.vgg();
        data.push((
            run.network.name.clone(),
            run.baseline.total_time(),
            run.preimpl.total_time(),
            run.preimpl.stitch_share(),
            run.db_build_time,
        ));
    }
    for ((name, base_t, pre_t, stitch_share, db_time), reference) in
        data.into_iter().zip(&paper::FIG6)
    {
        let gain = 100.0 * (1.0 - pre_t.as_secs_f64() / base_t.as_secs_f64());
        rows.push(vec![
            name,
            fmt_s(base_t),
            fmt_s(pre_t),
            format!("{gain:.0}% ({:.0}%)", reference.productivity_gain_pct),
            format!(
                "{:.0}% ({:.0}%)",
                stitch_share * 100.0,
                reference.stitch_share_pct
            ),
            fmt_s(db_time),
        ]);
    }
    Section {
        id: "Fig. 6".to_string(),
        title: "Design generation time — measured (paper in parentheses)".to_string(),
        body: md_table(
            &[
                "network",
                "baseline impl time",
                "pre-impl generation",
                "productivity gain",
                "stitch share",
                "one-time DB build",
            ],
            &rows,
        ) + "\nThe productivity gain exceeds the paper's 61–69% because our \
             incremental router genuinely touches only the stitched nets, while \
             Vivado's final route re-processes the whole checkpoint. The one-time \
             component-database build (the paper's semi-manual function \
             optimization) is shown separately, as the paper also excludes it.\n"
            + &format!(
                "\nConvergence (from the telemetry stream of these runs): {}. \
                 Re-run `all_experiments` with `--trace <path>` to dump the \
                 full JSON-Lines stream.\n",
                convergence_line(&ctx.run_report())
            ),
    }
}

/// The router / annealer / component-placer activity of a run, in one
/// sentence.
fn convergence_line(report: &RunReport) -> String {
    let route = &report.route;
    let sum = |f: fn(&RouteTrace) -> u64| route.iter().map(f).sum::<u64>();
    format!(
        "{} router runs (slowest converged in {} iterations, final overuse {}, \
         {} expansions, {} steiner segments, {} criticality re-routes, \
         {} merge conflicts), {} annealing rounds, \
         {} component-placer candidates, {} threshold retries",
        route.len(),
        route.iter().map(RouteTrace::iters).max().unwrap_or(0),
        route.last().map_or(0, RouteTrace::final_overused),
        sum(RouteTrace::total_expansions),
        sum(|t| t.steiner_segments),
        sum(|t| t.criticality_reroutes),
        sum(|t| t.parallel_conflicts),
        report.anneal.iter().map(|t| t.rounds()).sum::<u64>(),
        report
            .points
            .get("stitch::placer:candidate")
            .map_or(0, |p| p.count),
        report.stitch_retries.len(),
    )
}

/// E5 — Table III: LeNet performance exploration.
pub fn table3_lenet(ctx: &mut Ctx) -> Section {
    let run = ctx.lenet();
    let mut rows = Vec::new();

    // Full-network row: every component at its own exploration clock.
    let total_ns: f64 = run
        .component_reports
        .iter()
        .map(|r| cycles::latency_ns(r.latency_cycles, r.fmax_mhz))
        .sum();
    let min_fmax = run
        .component_reports
        .iter()
        .map(|r| r.fmax_mhz)
        .fold(f64::INFINITY, f64::min);
    rows.push(vec![
        "Full Network".to_string(),
        format!("{:.0} ({:.0})", min_fmax, paper::TABLE3[0].freq_mhz),
        format!("{:.1} ({:.1})", total_ns, paper::TABLE3[0].latency_ns),
    ]);
    for (r, reference) in run.component_reports.iter().zip(&paper::TABLE3[1..7]) {
        rows.push(vec![
            r.name.clone(),
            format!("{:.0} ({:.0})", r.fmax_mhz, reference.freq_mhz),
            format!(
                "{:.1} ({:.1})",
                cycles::latency_ns(r.latency_cycles, r.fmax_mhz),
                reference.latency_ns
            ),
        ]);
    }
    let ours = &run.preimpl;
    rows.push(vec![
        "Our work (assembled)".to_string(),
        format!(
            "{:.0} ({:.0})",
            ours.compile.timing.fmax_mhz,
            paper::TABLE3[7].freq_mhz
        ),
        format!(
            "{:.1} ({:.1})",
            ours.latency.pipeline_ns,
            paper::TABLE3[7].latency_ns
        ),
    ]);
    let base = &run.baseline;
    rows.push(vec![
        "Baseline (monolithic)".to_string(),
        format!("{:.0} (n/a)", base.compile.timing.fmax_mhz),
        format!("{:.1} (n/a)", base.latency.pipeline_ns),
    ]);
    let ratio = ours.compile.timing.fmax_mhz / base.compile.timing.fmax_mhz;
    Section {
        id: "Table III".to_string(),
        title: "LeNet performance exploration — measured (paper in parentheses)".to_string(),
        body: md_table(
            &["component", "frequency MHz", "pipeline latency ns"],
            &rows,
        ) + &format!(
            "\nAssembled-vs-baseline Fmax ratio: {ratio:.2}x (paper claims \
                 1.75x). Shape checks: conv2 is slower than conv1 (more input \
                 channels, deeper accumulation), pools are the fastest \
                 components, and the assembled frequency is bounded by the \
                 slowest component.\n"
        ),
    }
}

/// E6 — Fig. 7: VGG performance exploration.
pub fn fig7_vgg(ctx: &mut Ctx) -> Section {
    let run = ctx.vgg();
    let mut rows = Vec::new();
    let base = &run.baseline;
    rows.push(vec![
        "VGG (baseline)".to_string(),
        format!(
            "{:.0} ({:.0})",
            base.compile.timing.fmax_mhz,
            paper::FIG7[0].freq_mhz
        ),
        format!(
            "{:.2} ({:.2})",
            base.latency.frame_ms,
            paper::FIG7[0].latency_ms
        ),
    ]);
    for (i, (r, lat)) in run
        .component_reports
        .iter()
        .zip(&run.preimpl.latency.per_component)
        .enumerate()
    {
        let reference = paper::FIG7.get(i + 1);
        let ms = cycles::latency_ms(lat.frame_cycles, r.fmax_mhz);
        rows.push(vec![
            format!("Component {} ({})", i + 1, r.name),
            match reference {
                Some(p) => format!("{:.0} ({:.0})", r.fmax_mhz, p.freq_mhz),
                None => format!("{:.0}", r.fmax_mhz),
            },
            match reference {
                Some(p) => format!("{:.3} ({:.3})", ms, p.latency_ms),
                None => format!("{ms:.3}"),
            },
        ]);
    }
    let ours = &run.preimpl;
    let last = paper::FIG7.last().expect("nonempty");
    rows.push(vec![
        "Our work (assembled)".to_string(),
        format!("{:.0} ({:.0})", ours.compile.timing.fmax_mhz, last.freq_mhz),
        format!("{:.2} ({:.2})", ours.latency.frame_ms, last.latency_ms),
    ]);
    let ratio = ours.compile.timing.fmax_mhz / base.compile.timing.fmax_mhz;
    Section {
        id: "Fig. 7".to_string(),
        title: "VGG performance exploration — measured (paper in parentheses)".to_string(),
        body: md_table(&["row", "frequency MHz", "frame latency ms"], &rows)
            + &format!(
                "\nAssembled-vs-baseline Fmax ratio: {ratio:.2}x (paper: 1.22x). \
                 Our component count is 13 (5 conv blocks + 5 pools + 3 FC); the \
                 paper labels 12 — its pool5 appears folded into component 9. \
                 Heavy conv blocks are the slowest components and pools the \
                 fastest, matching the alternating pattern of the paper's \
                 figure.\n"
            ),
    }
}

/// E7 — Table IV: comparison with state-of-the-art accelerators.
pub fn table4_sota(ctx: &mut Ctx) -> Section {
    let device = device();
    let run = ctx.vgg();
    let mut rows: Vec<Vec<String>> = paper::TABLE4
        .iter()
        .map(|p| {
            vec![
                p.work.to_string(),
                p.fpga.to_string(),
                p.freq_mhz.to_string(),
                p.precision.to_string(),
                p.dsp_util.to_string(),
                p.latency_ms.to_string(),
            ]
        })
        .collect();
    let dsp_util = 100.0 * run.preimpl_design.resources().dsps as f64 / device.totals().dsps as f64;
    let fmax = run.preimpl.compile.timing.fmax_mhz;
    let frame_ms = run.preimpl.latency.frame_ms;
    rows.push(vec![
        "This repo (measured)".to_string(),
        device.name().to_string(),
        format!("{fmax:.0}"),
        "fixed 16".to_string(),
        format!("{dsp_util:.0}%"),
        format!("{frame_ms:.2}"),
    ]);
    // The verdict is computed from the rows above, not asserted.
    let faster: Vec<String> = paper::TABLE4
        .iter()
        .filter(|p| p.freq_mhz.parse::<f64>().is_ok_and(|f| f > fmax))
        .map(|p| format!("{} at {} MHz", p.work, p.freq_mhz))
        .collect();
    let clock_verdict = if faster.is_empty() {
        "holds for our reproduction".to_string()
    } else {
        format!(
            "does not hold for our reproduction, whose {fmax:.0} MHz sits below {}",
            faster.join(", ")
        )
    };
    let latency_verdict = if (10.0..100.0).contains(&frame_ms) {
        "is"
    } else {
        "is not"
    };
    Section {
        id: "Table IV".to_string(),
        title: "VGG-16 vs state-of-the-art (literature rows are citations)".to_string(),
        body: md_table(
            &[
                "work",
                "FPGA",
                "Fmax MHz",
                "precision",
                "DSP util",
                "latency ms",
            ],
            &rows,
        ) + &format!(
            "\nAs in the paper, the cited rows come from different devices and \
             setups and are qualitative reference only. The paper's headline — \
             highest clock frequency among the compared designs — \
             {clock_verdict}; the measured latency {latency_verdict} in the \
             tens of milliseconds, as the paper's is.\n"
        ),
    }
}

/// E8 — Fig. 8: the assembled VGG floorplan with labelled components.
pub fn fig8_floorplan(ctx: &mut Ctx) -> Section {
    let device = device();
    let run = ctx.vgg();
    let sketch = pi_pnr::report::floorplan_sketch(&run.preimpl_design, &device, 96);
    Section {
        id: "Fig. 8".to_string(),
        title: "VGG-16 assembled floorplan (component pblocks on the device)".to_string(),
        body: format!(
            "```text\n{sketch}```\nVertical bars are the I/O columns (fabric \
             discontinuities); letters are component pblocks placed by the \
             Eq. 1-3 component placer. Compare with the paper's Fig. 8 chip \
             plot of labelled VGG components.\n"
        ),
    }
}

/// A3 — extension: the CLE architecture class (paper §III, after Shen et
/// al.): Q shared convolutional layer engines, one checkpoint replicated Q
/// times — the purest form of the flow's reuse story.
pub fn ablation_cle() -> Section {
    use pi_synth::cle::{cle_frame_cycles, partition_conv_layers, synth_cle};
    let device = device();
    let network = pi_cnn::models::vgg16();
    let opts = pi_synth::SynthOptions::vgg_like();
    let mut rows = Vec::new();
    for q in [1usize, 2, 4] {
        let partition = partition_conv_layers(&network, q).expect("partitions");
        // Size one CLE for the heaviest group: every group then fits, and
        // all Q engines are instances of the same checkpoint.
        let heaviest = partition
            .macs
            .iter()
            .enumerate()
            .max_by_key(|(_, m)| **m)
            .map(|(i, _)| i)
            .expect("q >= 1");
        let mut module =
            synth_cle(&network, &partition.groups[heaviest], &opts).expect("synthesizes");
        let per_cle = module.resources();

        // Pre-implement once.
        let t0 = Instant::now();
        let pblock = size_pblock(&per_cle, &device, 0.7).expect("pblock fits");
        module.pblock = Some(pblock);
        plan_partpins(&mut module, &pblock).expect("partpins anchor the ports");
        place_module_obs(
            &mut module,
            &device,
            &PlaceOptions {
                seed: 1,
                effort: 2.0,
                region: Some(pblock),
            },
            &Obs::null(),
        )
        .expect("places");
        plan_partpins(&mut module, &pblock).expect("partpins refine");
        let _ = route_module_obs(&mut module, &device, &RouteOptions::default(), &Obs::null())
            .expect("routes");
        module.lock();
        let impl_time = t0.elapsed();
        let cp = Checkpoint {
            meta: CheckpointMeta {
                signature: format!("cle_q{q}"),
                fmax_mhz: sta_module(&module, &device, None).expect("sta").fmax_mhz,
                resources: per_cle,
                pblock,
                device: device.name().to_string(),
                latency_cycles: 0,
            },
            module,
        };

        // Replicate Q times and stitch the frame pipeline.
        let t1 = Instant::now();
        let refs: Vec<&Checkpoint> = std::iter::repeat_n(&cp, q).collect();
        let edges: Vec<(usize, usize)> = (0..q.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        let placement = pi_stitch::place_components(
            &refs,
            &edges,
            &device,
            &pi_stitch::ComponentPlacerOptions::default(),
        )
        .expect("places components");
        let mut design = Design::new(format!("cle_q{q}"), device.name(), DesignKind::Assembled);
        for (i, anchor) in placement.anchors.iter().enumerate() {
            let m = pi_stitch::relocate_to(&cp, &device, *anchor).expect("relocates");
            design.add_instance(format!("cle{i}"), m);
        }
        for &(a, b) in &edges {
            let (pa, _) = design
                .instance(pi_netlist::InstId(a as u32))
                .module
                .port_by_name("dout")
                .expect("port");
            let (pb, _) = design
                .instance(pi_netlist::InstId(b as u32))
                .module
                .port_by_name("din")
                .expect("port");
            design
                .connect_top(
                    format!("cle{a}_to_{b}"),
                    (pi_netlist::InstId(a as u32), pa),
                    vec![(pi_netlist::InstId(b as u32), pb)],
                    16,
                )
                .expect("stitches");
        }
        let _ = pi_flow::pipeline_top_nets(&mut design);
        let report =
            route_assembled_obs(&mut design, &device, &RouteOptions::default(), &Obs::null())
                .expect("routes");
        let gen_time = t1.elapsed();

        // Frame rate: groups pipeline across CLEs, so the bottleneck group
        // sets the interval.
        let bottleneck = partition
            .groups
            .iter()
            .map(|g| cle_frame_cycles(&network, g, per_cle.dsps).expect("cycles"))
            .max()
            .unwrap_or(0);
        let interval_ms = pi_cnn::cycles::latency_ms(bottleneck, report.timing.fmax_mhz);
        rows.push(vec![
            format!("Q = {q}"),
            per_cle.dsps.to_string(),
            (per_cle.luts * q as u64).to_string(),
            format!("{:.2}", partition.imbalance()),
            format!("{:.0}", report.timing.fmax_mhz),
            format!("{interval_ms:.1}"),
            fmt_s(impl_time),
            fmt_s(gen_time),
        ]);
    }
    Section {
        id: "Extension A3".to_string(),
        title: "CLE architecture class: Q replicated engines (VGG-16 conv layers)".to_string(),
        body: md_table(
            &[
                "config",
                "DSPs/CLE",
                "total LUTs",
                "LPT imbalance",
                "assembled MHz",
                "frame interval ms",
                "one-time impl",
                "generation",
            ],
            &rows,
        ) + "\nAll Q engines come from one checkpoint: implementation cost is \
             paid once regardless of Q, and generation stays in milliseconds — \
             the replication scenario §III says makes SIMD-class accelerators \
             \"suitable candidates for RapidWright implementation\". More CLEs \
             buy throughput at linear area cost until the fixed engine size \
             (set by the heaviest group) stops shrinking.\n",
    }
}

/// A1 — ablation over the function-optimization design considerations the
/// paper lists in §IV-A (port planning, pblock tightness, DSE width).
pub fn ablation_flow_options() -> Section {
    let device = device();
    let network = pi_cnn::models::lenet5();
    let lenet_cfg = || FlowConfig::new().with_synth(pi_synth::SynthOptions::lenet_like());
    let variants: Vec<(&str, FlowConfig)> = vec![
        (
            "default (planned ports, tight pblocks, 3 seeds)",
            lenet_cfg(),
        ),
        ("no port planning", lenet_cfg().with_plan_partpins(false)),
        (
            "loose pblocks (25% target utilization)",
            lenet_cfg().with_pblock_utilization(0.25),
        ),
        ("single placement seed", lenet_cfg().with_seeds([1])),
    ];
    let mut rows = Vec::new();
    for (label, cfg) in variants {
        let (db, reports) = build_component_db(&network, &device, &cfg).expect("db builds");
        let min_fmax = reports
            .iter()
            .map(|r| r.fmax_mhz)
            .fold(f64::INFINITY, f64::min);
        let result = run_pre_implemented_flow(&network, &db, &device, &cfg);
        match result {
            Ok((_, report)) => rows.push(vec![
                label.to_string(),
                format!("{min_fmax:.0}"),
                format!("{:.0}", report.compile.timing.fmax_mhz),
                fmt_s(report.total_time()),
            ]),
            Err(e) => rows.push(vec![
                label.to_string(),
                format!("{min_fmax:.0}"),
                format!("failed: {e}"),
                "-".to_string(),
            ]),
        }
    }
    Section {
        id: "Ablation A1".to_string(),
        title: "Function-optimization options (LeNet-5)".to_string(),
        body: md_table(
            &[
                "variant",
                "slowest component MHz",
                "assembled MHz",
                "generation time",
            ],
            &rows,
        ) + "\nUnplanned ports leave partition pins wherever the pblock put \
             them, so the stitched boundary wires lengthen — the paper's \
             warning about strategic port planning. Loose pblocks waste area \
             and relocation flexibility for little or no frequency benefit. \
             The seed sweep is the paper's performance-exploration loop: more \
             seeds never hurt.\n",
    }
}

/// A2 — ablation over the component placer's Eq. 1–3 parameters.
pub fn ablation_placement(ctx: &mut Ctx) -> Section {
    let device = device();
    let (network, db): (pi_cnn::Network, ComponentDb) = {
        let run = ctx.lenet();
        (run.network.clone(), run.db.clone())
    };
    let variants: Vec<(&str, ComponentPlacerOptions)> = vec![
        ("default", ComponentPlacerOptions::default()),
        (
            "no congestion term (Eq. 2-3 off)",
            ComponentPlacerOptions {
                congestion_weight: 0.0,
                ..Default::default()
            },
        ),
        (
            "tight threshold (30 tiles)",
            ComponentPlacerOptions {
                timing_threshold: 30.0,
                max_retries: 8,
                ..Default::default()
            },
        ),
        (
            "no retry loop",
            ComponentPlacerOptions {
                max_retries: 0,
                ..Default::default()
            },
        ),
    ];
    let mut rows = Vec::new();
    for (label, placer) in variants {
        let cfg = FlowConfig::new()
            .with_granularity(Granularity::Layer)
            .with_placer(placer)
            .with_obs(ctx.obs().clone());
        match run_pre_implemented_flow(&network, &db, &device, &cfg) {
            Ok((_, report)) => rows.push(vec![
                label.to_string(),
                format!("{:.0}", report.compose.placement.timing_cost),
                format!("{:.2}", report.compose.placement.congestion_cost),
                report.compose.placement.retries.to_string(),
                format!("{:.0}", report.compile.timing.fmax_mhz),
            ]),
            Err(e) => rows.push(vec![
                label.to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                format!("failed: {e}"),
            ]),
        }
    }
    Section {
        id: "Ablation A2".to_string(),
        title: "Component placement cost model (Eq. 1-3, LeNet-5)".to_string(),
        body: md_table(
            &[
                "variant",
                "Eq.1 timing cost (tiles)",
                "Eq.3 congestion cost",
                "retries",
                "assembled MHz",
            ],
            &rows,
        ),
    }
}

/// A4 — generalization beyond the paper's two benchmarks: AlexNet-style
/// network (11×11 stride-4 conv, overlapping 3×3 pooling) through both
/// flows.
pub fn ext_alexnet() -> Section {
    let device = device();
    let network = pi_cnn::models::alexnet_like();
    let cfg = FlowConfig::new()
        .with_synth(pi_synth::SynthOptions::vgg_like())
        .with_seeds([1, 2]);
    let t0 = Instant::now();
    let (db, reports) = build_component_db(&network, &device, &cfg).expect("db builds");
    let db_time = t0.elapsed();
    let (design, pre) =
        run_pre_implemented_flow(&network, &db, &device, &cfg).expect("flow succeeds");
    let (_, base) = pi_flow::run_baseline_flow(&network, &device, &cfg).expect("baseline");

    let mut rows = Vec::new();
    for r in &reports {
        rows.push(vec![
            r.name.clone(),
            format!("{:.0}", r.fmax_mhz),
            r.resources.luts.to_string(),
            r.resources.dsps.to_string(),
        ]);
    }
    let comparison = pi_flow::FlowComparison::new(&network.name, &base, &pre);
    Section {
        id: "Extension A4".to_string(),
        title: "Generalization: AlexNet-style network through both flows".to_string(),
        body: md_table(&["component", "Fmax MHz", "LUTs", "DSPs"], &rows)
            + &format!(
                "\n```text\n{comparison}\n```\nComponent database built once in {:.1} s; {} instances assembled and routed ({} stitched nets), design fully routed: {}. The flow generalizes beyond the paper's two benchmarks with no code changes — only a new architecture definition.\n",
                db_time.as_secs_f64(),
                design.instances().len(),
                design.top_nets().len(),
                design.fully_routed(),
            ),
    }
}

/// Every experiment, in paper order.
pub fn all(ctx: &mut Ctx) -> Vec<Section> {
    vec![
        fig1_motivation(),
        table1_networks(),
        table2_resources(ctx),
        fig6_productivity(ctx),
        table3_lenet(ctx),
        fig7_vgg(ctx),
        table4_sota(ctx),
        fig8_floorplan(ctx),
        ablation_flow_options(),
        ablation_placement(ctx),
        ablation_cle(),
        ext_alexnet(),
    ]
}
