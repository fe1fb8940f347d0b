//! One function per paper artifact. Every function returns a markdown
//! [`Section`] with our measurements next to the paper's published numbers.

use crate::paper;
use crate::{device, fmt_s, md_table, Ctx, Section};
use pi_cnn::cycles;
use pi_cnn::graph::{ComponentEdge, Granularity};
use pi_fabric::Device;
use pi_flow::{
    build_component_db, pre_implement, run_pre_implemented_flow, BaselineReport, FlowConfig,
    PreImplReport,
};
use pi_netlist::{Checkpoint, Design};
use pi_obs::agg::{RouteTrace, RunReport};
use pi_obs::Obs;
use pi_pnr::compile::CompileOptions;
use pi_pnr::{compile_flat_obs, route_assembled_obs, CompileReport};
use pi_stitch::{assemble_obs, ComponentDb, ComponentPlacerOptions};
use pi_synth::{cost, synth_kernel, KernelKind};
use std::time::Instant;

/// E1 — Fig. 1: the motivation experiment. Four 3×3 PE-block kernels built
/// with the full flow ("Vivado") and as pre-implemented components
/// ("RapidWright"); compile time and Fmax compared. Both arms' designs go
/// through the judge.
pub fn fig1_motivation() -> Section {
    let device = device();
    let cfg = FlowConfig::new().with_seeds([1]);
    let mut rows = Vec::new();
    for (kind, reference) in KernelKind::ALL.iter().zip(&paper::FIG1) {
        let abbrev = kind.abbrev();
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
        let base_design = Design::flat(format!("{abbrev}_flat"), device.name(), base);
        let base_fmax = judged(&base_design, &device, &cfg, &base_report);

        // Pre-implemented flow: OOC implementation once (not charged), then
        // generation = assemble + finish routing.
        let ooc = synth_kernel(*kind, 3, 3).expect("kernel synthesizes");
        let (cp, _) = pre_implement(ooc, abbrev, 0, &device, &cfg).expect("pre-implements");
        let t1 = Instant::now();
        let (mut design, _) = assemble_obs(
            format!("{abbrev}_asm"),
            &[(abbrev, &cp)],
            &[],
            &device,
            &cfg.placer,
            &Obs::null(),
        )
        .expect("assembles");
        let pre_report =
            route_assembled_obs(&mut design, &device, &cfg.route, &Obs::null()).expect("routes");
        let pre_time = t1.elapsed();
        let pre_fmax = judged(&design, &device, &cfg, &pre_report);

        let compile_gain = 100.0 * (1.0 - pre_time.as_secs_f64() / base_time.as_secs_f64());
        let fmax_gain = match (&base_fmax, &pre_fmax) {
            (Ok(base), Ok(pre)) => format!("{:.0}%", 100.0 * (pre / base - 1.0)),
            _ => "n/a".to_string(),
        };
        let mhz = |fmax: Result<f64, String>| fmax.map_or_else(|why| why, |f| format!("{f:.0}"));
        rows.push(vec![
            reference.kernel.to_string(),
            fmt_s(base_time),
            fmt_s(pre_time),
            format!("{compile_gain:.0}%"),
            format!("{:.0}%", reference.compile_gain_pct),
            mhz(base_fmax),
            mhz(pre_fmax),
            fmax_gain,
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

/// A routed design's Fmax once [`pi_stitch::check_design`] accepts it, or
/// why it is no legal design ([`crate::no_legal_design`]).
fn judged(
    design: &Design,
    device: &Device,
    cfg: &FlowConfig,
    report: &CompileReport,
) -> Result<f64, String> {
    let violations = pi_stitch::check_design(design, device).expect("design checks");
    if violations.is_empty() {
        Ok(report.timing.fmax_mhz)
    } else {
        Err(crate::no_legal_design(&violations, cfg))
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
            run.baseline.clone().map(|b| b.compile.resources),
            run.preimpl_design.resources(),
        ));
    }
    {
        let run = ctx.vgg();
        data.push((
            ["VGG-16 (classic)", "VGG-16 (pre-impl)"],
            run.baseline.clone().map(|b| b.compile.resources),
            run.preimpl_design.resources(),
        ));
    }
    for (labels, base, pre) in data {
        for (label, r) in [(labels[0], base), (labels[1], Ok(pre))] {
            let reference = paper::TABLE2
                .iter()
                .find(|p| p.row == label)
                .expect("label matches reference");
            let measured = match r {
                Ok(r) => [
                    fmt_util(r.luts, totals.luts),
                    fmt_util(r.ffs, totals.ffs),
                    fmt_util(r.brams, totals.brams),
                    fmt_util(r.dsps, totals.dsps),
                ],
                Err(why) => [why, "-".into(), "-".into(), "-".into()],
            };
            let papers = [
                reference.luts,
                reference.ffs,
                reference.brams,
                reference.dsps,
            ];
            let cells = measured
                .iter()
                .zip(papers)
                .map(|(m, p)| format!("{m} [{p}]"));
            rows.push(std::iter::once(label.to_string()).chain(cells).collect());
        }
    }
    Section {
        id: "Table II".to_string(),
        title: "Resource utilization — measured [paper]".to_string(),
        body: md_table(
            &["design", "CLB LUTs", "CLB registers", "BRAMs", "DSPs"],
            &rows,
        ) + &format!(
            "\nThe classic rows' extra LUTs/FFs/BRAMs are not a measurement: \
             monolithic synthesis adds a fixed {} % / {} % / {} % of the base \
             design as overhead cells (`MONOLITHIC_{{LUT,FF,BRAM}}_OVERHEAD_PCT`, \
             `synth/src/cost.rs`), standing in for the global optimization the \
             paper's §V-C credits. Without it the two builds of a network use \
             the same resources. Absolute DSP counts land on the paper's (~2k \
             for VGG); utilization percentages read lower because our modeled \
             device carries more capacity (see DESIGN.md).\n",
            cost::MONOLITHIC_LUT_OVERHEAD_PCT,
            cost::MONOLITHIC_FF_OVERHEAD_PCT,
            cost::MONOLITHIC_BRAM_OVERHEAD_PCT
        ),
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
            run.baseline.clone().map(|b| b.total_time()),
            run.preimpl.total_time(),
            run.preimpl.stitch_share(),
            run.db_build_time,
        ));
    }
    {
        let run = ctx.vgg();
        data.push((
            run.network.name.clone(),
            run.baseline.clone().map(|b| b.total_time()),
            run.preimpl.total_time(),
            run.preimpl.stitch_share(),
            run.db_build_time,
        ));
    }
    for ((name, base_t, pre_t, stitch_share, db_time), reference) in
        data.into_iter().zip(&paper::FIG6)
    {
        let (base_cell, gain) = match base_t {
            Ok(base_t) => {
                let gain = 100.0 * (1.0 - pre_t.as_secs_f64() / base_t.as_secs_f64());
                (fmt_s(base_t), format!("{gain:.0}%"))
            }
            Err(why) => (why, "n/a".to_string()),
        };
        rows.push(vec![
            name,
            base_cell,
            fmt_s(pre_t),
            format!("{gain} ({:.0}%)", reference.productivity_gain_pct),
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
        "{} router runs (slowest ran {} iterations, final overuse {}, \
         {} expansions, {} steiner segments, {} merge conflicts), \
         {} annealing rounds, {} component-placer candidates",
        route.len(),
        route.iter().map(RouteTrace::iters).max().unwrap_or(0),
        route.last().map_or(0, RouteTrace::final_overused),
        sum(RouteTrace::total_expansions),
        sum(|t| t.steiner_segments),
        sum(|t| t.parallel_conflicts),
        report.anneal.iter().map(|t| t.rounds()).sum::<u64>(),
        report
            .points
            .get("stitch::placer:candidate")
            .map_or(0, |p| p.count),
    )
}

/// The assembled-vs-baseline Fmax ratio as the text quotes it, or why
/// there is none.
fn fmax_ratio(ours: &PreImplReport, base: &Result<BaselineReport, String>) -> String {
    match base {
        Ok(base) => format!(
            "{:.2}x",
            ours.compile.timing.fmax_mhz / base.compile.timing.fmax_mhz
        ),
        Err(why) => format!("n/a, the baseline delivered {why}"),
    }
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
    rows.push(match &run.baseline {
        Ok(base) => vec![
            "Baseline (monolithic)".to_string(),
            format!("{:.0} (n/a)", base.compile.timing.fmax_mhz),
            format!("{:.1} (n/a)", base.latency.pipeline_ns),
        ],
        Err(why) => vec!["Baseline (monolithic)".to_string(), why.clone(), "-".into()],
    });
    let ratio = fmax_ratio(ours, &run.baseline);
    Section {
        id: "Table III".to_string(),
        title: "LeNet performance exploration — measured (paper in parentheses)".to_string(),
        body: md_table(
            &["component", "frequency MHz", "pipeline latency ns"],
            &rows,
        ) + &format!(
            "\nAssembled-vs-baseline Fmax ratio: {ratio} (paper claims \
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
    rows.push(match &run.baseline {
        Ok(base) => vec![
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
        ],
        Err(why) => vec![
            "VGG (baseline)".to_string(),
            format!("{why} ({:.0})", paper::FIG7[0].freq_mhz),
            format!("- ({:.2})", paper::FIG7[0].latency_ms),
        ],
    });
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
    let ratio = fmax_ratio(ours, &run.baseline);
    Section {
        id: "Fig. 7".to_string(),
        title: "VGG performance exploration — measured (paper in parentheses)".to_string(),
        body: md_table(&["row", "frequency MHz", "frame latency ms"], &rows)
            + &format!(
                "\nAssembled-vs-baseline Fmax ratio: {ratio} (paper: 1.22x). \
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
    let cfg = FlowConfig::new().with_seeds([1]);
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
        let module = synth_cle(&network, &partition.groups[heaviest], &opts).expect("synthesizes");
        let per_cle = module.resources();

        // Pre-implement once.
        let t0 = Instant::now();
        let name = format!("cle_q{q}");
        let (cp, _) = pre_implement(module, &name, 0, &device, &cfg).expect("pre-implements");
        let impl_time = t0.elapsed();

        // Replicate Q times and stitch the frame pipeline.
        let t1 = Instant::now();
        let names: Vec<String> = (0..q).map(|i| format!("cle{i}")).collect();
        let instances: Vec<(&str, &Checkpoint)> = names.iter().map(|n| (n.as_str(), &cp)).collect();
        let links: Vec<ComponentEdge> = (1..q)
            .map(|i| ComponentEdge {
                source: i - 1,
                sink: i,
                operand: 0,
            })
            .collect();
        let (mut design, _) =
            assemble_obs(name, &instances, &links, &device, &cfg.placer, &Obs::null())
                .expect("assembles");
        let _ = pi_flow::pipeline_top_nets(&mut design);
        let report =
            route_assembled_obs(&mut design, &device, &cfg.route, &Obs::null()).expect("routes");
        let gen_time = t1.elapsed();

        // Frame rate: groups pipeline across CLEs, so the bottleneck group
        // sets the interval.
        let bottleneck = partition
            .groups
            .iter()
            .map(|g| cle_frame_cycles(&network, g, per_cle.dsps).expect("cycles"))
            .max()
            .unwrap_or(0);
        let (mhz, interval) = match judged(&design, &device, &cfg, &report) {
            Ok(fmax) => {
                let interval_ms = pi_cnn::cycles::latency_ms(bottleneck, fmax);
                (format!("{fmax:.0}"), format!("{interval_ms:.1}"))
            }
            Err(why) => (why, "-".to_string()),
        };
        rows.push(vec![
            format!("Q = {q}"),
            per_cle.dsps.to_string(),
            (per_cle.luts * q as u64).to_string(),
            format!("{:.2}", partition.imbalance()),
            mhz,
            interval,
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
        ) + "\nAll Q engines come from one checkpoint, pre-implemented by the \
             flow's own sweep and replicated by its one assembly, and every \
             design above went through the design-rule judge. Implementation \
             cost is paid once regardless of Q, and generation stays in \
             milliseconds — the replication scenario §III says makes \
             SIMD-class accelerators \"suitable candidates for RapidWright \
             implementation\". Area grows linearly with Q, throughput does \
             not: Q = 2 more than halves Q = 1's frame interval, but Q = 4's larger \
             replicated design closes at a much slower assembled clock, which \
             eats what the extra engines save on the bottleneck group, so its \
             interval is no shorter than Q = 2's.\n",
    }
}

/// A1 — ablation over the function-optimization design considerations the
/// paper lists in §IV-A (pblock tightness, DSE width). Port planning has no
/// row: a pin off the pblock boundary fails the checkpoint judge.
pub fn ablation_flow_options() -> Section {
    let device = device();
    let network = pi_cnn::models::lenet5();
    let lenet_cfg = || FlowConfig::new().with_synth(pi_synth::SynthOptions::lenet_like());
    let variants: Vec<(&str, FlowConfig)> = vec![
        (
            "default (planned ports, tight pblocks, 3 seeds)",
            lenet_cfg(),
        ),
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
        ) + "\nPort planning has no row: a partition pin anywhere but the \
             pblock boundary ring fails the checkpoint judge, so no seed of \
             an unplanned component is ever stored — the paper's warning \
             about strategic port planning, enforced. Loose pblocks waste area \
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
    let variants = [
        ("default", ComponentPlacerOptions::default()),
        (
            "no congestion term (Eq. 2-3 off)",
            ComponentPlacerOptions {
                congestion_weight: 0.0,
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
            Ok((_, report)) => {
                let latency = &report.latency;
                let depth: u64 = latency.per_component.iter().map(|c| c.depth_cycles).sum();
                rows.push(vec![
                    label.to_string(),
                    format!("{:.0}", report.compose.placement.timing_cost),
                    format!("{:.2}", report.compose.placement.congestion_cost),
                    (latency.pipeline_cycles - depth).to_string(),
                    report.compile.route_stats.expansions.to_string(),
                    format!("{:.0}", report.compile.timing.fmax_mhz),
                ]);
            }
            Err(e) => rows.push(vec![
                label.to_string(),
                "-".to_string(),
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
                "pipeline registers added",
                "inter-component A* expansions",
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
    let base = crate::baseline_arm(&network, &device, &cfg);

    let mut rows = Vec::new();
    for r in &reports {
        rows.push(vec![
            r.name.clone(),
            format!("{:.0}", r.fmax_mhz),
            r.resources.luts.to_string(),
            r.resources.dsps.to_string(),
        ]);
    }
    let comparison = match &base {
        Ok(base) => pi_flow::FlowComparison::new(&network.name, base, &pre).to_string(),
        Err(why) => format!(
            "{}: pre-implemented {:.1} MHz, {:.2} ms/frame; baseline: {why}",
            network.name, pre.compile.timing.fmax_mhz, pre.latency.frame_ms
        ),
    };
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
