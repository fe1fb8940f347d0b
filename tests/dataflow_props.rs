//! Property and acceptance tests of the `pi-lint` dataflow engine: the
//! fixpoint terminates on arbitrary cyclic graphs, FIFO minima are
//! monotone in path skew, autosized capacities always absorb the computed
//! occupancy, and the skewed-ResNet scenario flows end-to-end under
//! `FlowConfig::with_fifo_autosize` with thread-count-independent
//! telemetry.

use preimpl_cnn::cnn::cycles::min_link_depth;
use preimpl_cnn::lint::{analyze_dataflow, fixpoint_intervals, Interval, LintConfig, LintEngine};
use preimpl_cnn::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// The bundled ResNet descriptor with its main-path convolutions widened
/// to `kernel` (and padding keeping shapes closed), which stretches the
/// skip-path skew without changing the topology.
fn skewed_resnet(kernel: u64) -> Network {
    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("models/resnet_small.json");
    let text = std::fs::read_to_string(&path).unwrap();
    let skewed = text
        .replace("\"kernel\": 3", &format!("\"kernel\": {kernel}"))
        .replace("\"pad\": 1", &format!("\"pad\": {}", (kernel - 1) / 2));
    let (import, findings) = preimpl_cnn::model::import_lenient(&skewed, ModelFormat::Json);
    assert!(findings.is_empty(), "{findings:?}");
    import.expect("skewed descriptor imports").network
}

proptest! {
    /// The interval fixpoint terminates on *arbitrary* directed graphs —
    /// self-loops, cycles, disconnected nodes — within its stated
    /// iteration budget, and never reports divergence on a forward DAG.
    #[test]
    fn fixpoint_terminates_on_arbitrary_graphs(
        n in 1usize..12,
        edge_bits in proptest::collection::vec(0u8..2, 144..145),
        depths in proptest::collection::vec(0u64..1_000, 12..13),
        forward_only in 0u8..2,
    ) {
        let forward_only = forward_only == 1;
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        for a in 0..n {
            for b in 0..n {
                let keep = edge_bits[a * 12 + b] == 1 && (!forward_only || a < b);
                if keep {
                    succs[a].push(b);
                    preds[b].push(a);
                }
            }
        }
        let seeds: Vec<(usize, Interval)> = (0..n)
            .filter(|&i| preds[i].is_empty())
            .map(|i| (i, Interval::point(0)))
            .collect();
        let out = fixpoint_intervals(&preds, &succs, &seeds, |p, _, v| v.offset(depths[p]));
        let budget = ((n as u64) + 1) * (8 + 2) * 4 + 1024;
        prop_assert!(out.iterations <= budget, "{} > {budget}", out.iterations);
        if forward_only {
            prop_assert!(!out.diverged, "DAG widened: {out:?}");
            // On a forward DAG every seeded-reachable value is finite.
            for v in out.values.into_iter().flatten() {
                prop_assert!(!v.is_top());
            }
        }
    }

    /// The FIFO sizing rule is monotone in skew and exact at zero: more
    /// cycles of skew can never need a *shallower* FIFO, and zero skew
    /// needs exactly the one slot in flight.
    #[test]
    fn min_depth_is_monotone_in_skew(
        skew in 0u64..10_000,
        delta in 1u64..1_000,
        tokens in 1u64..100_000,
        frame in 1u64..100_000,
    ) {
        let base = min_link_depth(skew, tokens, frame);
        let more = min_link_depth(skew + delta, tokens, frame);
        prop_assert!(more >= base, "skew {skew}+{delta}: {more} < {base}");
        prop_assert_eq!(min_link_depth(0, tokens, frame), 1);
    }
}

/// Network-level monotonicity: widening the ResNet main-path kernels
/// strictly stretches the add2 skip skew, so the analysis' deepest FIFO
/// requirement is non-decreasing in kernel size — and crosses the default
/// capacity (64) past kernel 3, which is what the CI trigger relies on.
#[test]
fn resnet_skip_min_depth_grows_with_kernel() {
    let mut last = 0u64;
    for kernel in [3u64, 5, 7, 9] {
        let network = skewed_resnet(kernel);
        let analysis = analyze_dataflow(&network, Granularity::Layer);
        assert!(!analysis.diverged, "kernel {kernel} diverged");
        let deepest = analysis.max_min_depth();
        assert!(
            deepest >= last,
            "kernel {kernel}: {deepest} < previous {last}"
        );
        last = deepest;
        let engine = LintEngine::new(LintConfig::new());
        let report = engine.lint_dataflow(&network, Granularity::Layer, false, &Obs::null());
        if kernel == 3 {
            assert!(
                report.is_clean(),
                "kernel {kernel}: {}",
                report.render_text()
            );
        } else {
            assert!(
                report.diagnostics.iter().any(|d| d.code == "PL0400"),
                "kernel {kernel} must trip the deadlock finding: {}",
                report.render_text()
            );
            assert!(
                report.diagnostics.iter().any(|d| d.code == "PL0401"
                    && d.message.contains(&format!("minimum depth {deepest}"))),
                "PL0401 must carry the computed minimum: {}",
                report.render_text()
            );
        }
    }
}

/// Autosizing is self-consistent by construction: linting against the
/// depths the analysis itself computed can never find an undersized link,
/// whatever the skew.
#[test]
fn autosized_capacities_always_lint_clean() {
    let engine = LintEngine::new(LintConfig::new());
    for network in [
        models::lenet5(),
        models::alexnet_like(),
        models::resnet_small(),
        models::cifar10_quick(),
        skewed_resnet(7),
        skewed_resnet(9),
    ] {
        let report = engine.lint_dataflow(&network, Granularity::Layer, true, &Obs::null());
        assert!(
            !report
                .diagnostics
                .iter()
                .any(|d| d.code == "PL0400" || d.code == "PL0401"),
            "{}: {}",
            network.name,
            report.render_text()
        );
    }
}

/// The acceptance scenario end-to-end: the skewed ResNet trips the lint
/// gate at the default link depth, but under `with_fifo_autosize` the
/// same model flows to completion with the computed depths installed on
/// the stitched nets — and the run's telemetry is byte-identical at
/// `PI_THREADS` 1 and 4.
#[test]
fn skewed_resnet_flows_under_fifo_autosize() {
    let device = Device::xcku5p_like();
    let network = skewed_resnet(7);
    let base = FlowConfig::new()
        .with_seeds([1])
        .with_lint(LintConfig::new().with_deny_warnings(true));
    // The dataflow gate guards the db build too, so pre-implementation
    // itself must run under autosize (the fingerprint ignores the knob:
    // the same checkpoints serve both configs).
    let (db, _) =
        build_component_db(&network, &device, &base.clone().with_fifo_autosize(true)).unwrap();

    // Gate trips without autosizing: the skip FIFO cannot absorb the skew.
    let err = run_pre_implemented_flow(&network, &db, &device, &base).unwrap_err();
    match err {
        preimpl_cnn::flow::FlowError::LintFailed(report) => {
            assert!(
                report.diagnostics.iter().any(|d| d.code == "PL0400"),
                "{}",
                report.render_text()
            );
        }
        other => panic!("expected LintFailed, got {other}"),
    }

    // With autosizing the identical inputs flow to completion and the
    // deepest computed requirement lands on a stitched net.
    let analysis = analyze_dataflow(&network, Granularity::Layer);
    let deepest = analysis.max_min_depth();
    assert!(deepest > preimpl_cnn::netlist::DEFAULT_LINK_FIFO_DEPTH);
    let mut renders = Vec::new();
    for threads in [1usize, 4] {
        rayon::set_num_threads(threads);
        let sink = Arc::new(MemorySink::new());
        let cfg = base
            .clone()
            .with_fifo_autosize(true)
            .with_obs(Obs::new(sink.clone()));
        let (design, report) = run_pre_implemented_flow(&network, &db, &device, &cfg).unwrap();
        assert!(design.fully_routed());
        assert!(
            report.lint.as_ref().expect("lint ran").is_clean(),
            "{}",
            report.lint.unwrap().render_text()
        );
        assert!(
            design.top_nets().iter().any(|n| n.fifo_depth == deepest),
            "no stitched net carries the computed depth {deepest}: {:?}",
            design
                .top_nets()
                .iter()
                .map(|n| (&n.name, n.fifo_depth))
                .collect::<Vec<_>>()
        );
        renders.push(RunReport::from_events(&sink.snapshot()).render_text());
    }
    assert_eq!(renders[0], renders[1], "telemetry depends on thread count");
}
