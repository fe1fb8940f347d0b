//! Property and acceptance tests of the link FIFO sizing and the `pi-lint`
//! dataflow analysis that re-derives it: FIFO minima are monotone in path
//! skew, every bundled network fits the standard link depth (ResNet-small's
//! skip link at exactly 44), and the skewed-ResNet scenario flows
//! end-to-end under a plain config — its deep skip FIFO derived, not
//! configured — with thread-count-independent telemetry.

use preimpl_cnn::cnn::cycles::{link_min_depths, min_link_depth};
use preimpl_cnn::lint::{analyze_dataflow, LintConfig};
use preimpl_cnn::netlist::DEFAULT_LINK_FIFO_DEPTH;
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
/// requirement is non-decreasing in kernel size — and exceeds the
/// standard depth (64) past kernel 3.
#[test]
fn resnet_skip_min_depth_grows_with_kernel() {
    let mut last = 0u64;
    for kernel in [3u64, 5, 7, 9] {
        let network = skewed_resnet(kernel);
        let analysis = analyze_dataflow(&network, Granularity::Layer).unwrap();
        let deepest = analysis.max_min_depth();
        assert!(
            deepest >= last,
            "kernel {kernel}: {deepest} < previous {last}"
        );
        last = deepest;
        assert_eq!(
            deepest > DEFAULT_LINK_FIFO_DEPTH,
            kernel > 3,
            "kernel {kernel}: deepest requirement {deepest}"
        );
    }
}

/// Every bundled network, at the granularity it ships with, needs no link
/// deeper than the standard depth: deriving depths from the rate model
/// leaves each of their stitched FIFOs at `DEFAULT_LINK_FIFO_DEPTH`. The
/// deepest of them is ResNet-small's skip link into `add2+relu2b`: 43
/// cycles of path skew at one token per cycle, plus the one in flight. A
/// change there means the rate model moved.
#[test]
fn bundled_networks_fit_the_standard_link_depth() {
    for (network, granularity) in [
        (models::lenet5(), Granularity::Layer),
        (models::cifar10_quick(), Granularity::Layer),
        (models::resnet_small(), Granularity::Layer),
        (models::alexnet_like(), Granularity::Layer),
        (models::vgg16(), Granularity::Block),
    ] {
        let deepest = link_min_depths(&network, granularity)
            .unwrap()
            .into_values()
            .max()
            .unwrap_or(1);
        assert!(
            deepest <= DEFAULT_LINK_FIFO_DEPTH,
            "{}: deepest requirement {deepest}",
            network.name
        );
        if network.name == "resnet-small" {
            assert_eq!(deepest, 44, "{}", network.name);
        }
    }
}

/// The acceptance scenario end-to-end: under a plain config with a
/// `deny_warnings` lint policy, the skewed ResNet flows to completion with
/// its deepest computed requirement installed on a stitched net — and the
/// run's telemetry is byte-identical at `PI_THREADS` 1 and 4.
#[test]
fn skewed_resnet_flows_with_derived_link_depths() {
    let device = Device::xcku5p_like();
    let network = skewed_resnet(7);
    let base = FlowConfig::new()
        .with_seeds([1])
        .with_lint(LintConfig::new().with_deny_warnings(true));
    let (db, _) = build_component_db(&network, &device, &base).unwrap();

    let analysis = analyze_dataflow(&network, Granularity::Layer).unwrap();
    let deepest = analysis.max_min_depth();
    assert!(deepest > DEFAULT_LINK_FIFO_DEPTH);
    let mut renders = Vec::new();
    for threads in [1usize, 4] {
        rayon::set_num_threads(threads);
        let sink = Arc::new(MemorySink::new());
        let cfg = base.clone().with_obs(Obs::new(sink.clone()));
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
