//! Property and acceptance tests of the link FIFO sizing and the dataflow
//! analysis that re-derives it (`support/dataflow.rs`): FIFO minima are monotone in path
//! skew, every bundled network fits the standard link depth (ResNet-small's
//! skip link at exactly 44), and the skewed-ResNet scenario flows
//! end-to-end under a plain config — its deep skip FIFO derived, not
//! configured — with thread-count-independent telemetry.

#[path = "support/dataflow.rs"]
mod dataflow;

use dataflow::{analyze as analyze_dataflow, edge_flows, EdgeFlow};
use preimpl_cnn::cnn::cycles::{self, link_min_depths, min_link_depth};
use preimpl_cnn::cnn::graph::ComponentEdge;
use preimpl_cnn::lint::{LintConfig, LintEngine};
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
    let import = preimpl_cnn::model::import_lenient(&skewed, ModelFormat::Json)
        .expect("skewed descriptor imports");
    assert!(import.findings.is_empty(), "{:?}", import.findings);
    import.network
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

/// The acceptance scenario end-to-end: under a plain config, the skewed
/// ResNet flows to completion with its deepest computed requirement
/// installed on a stitched net, the design it returns lints clean under a
/// `deny_warnings` policy — and the run's telemetry, that lint included, is
/// byte-identical at `PI_THREADS` 1 and 4.
#[test]
fn skewed_resnet_flows_with_derived_link_depths() {
    let device = Device::xcku5p_like();
    let network = skewed_resnet(7);
    let base = FlowConfig::new().with_seeds([1]);
    let engine = LintEngine::new(LintConfig::new().with_deny_warnings(true));
    let (db, _) = build_component_db(&network, &device, &base).unwrap();

    let analysis = analyze_dataflow(&network, Granularity::Layer).unwrap();
    let deepest = analysis.max_min_depth();
    assert!(deepest > DEFAULT_LINK_FIFO_DEPTH);
    let mut renders = Vec::new();
    for threads in [1usize, 4] {
        rayon::set_num_threads(threads);
        let sink = Arc::new(MemorySink::new());
        let cfg = base.clone().with_obs(Obs::new(sink.clone()));
        let (design, _) = run_pre_implemented_flow(&network, &db, &device, &cfg).unwrap();
        assert!(design.fully_routed());
        let lint = engine.lint_design(&design, cfg.obs());
        assert!(!lint.gate(true), "{}", lint.render_text());
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

#[test]
fn linear_chains_have_unit_depths() {
    let a = analyze_dataflow(&models::lenet5(), Granularity::Layer).unwrap();
    assert!(!a.edges.is_empty());
    for e in &a.edges {
        assert_eq!(e.min_depth, 1, "{e:?}");
    }
}

#[test]
fn resnet_skip_edges_need_skew_buffering_within_default_capacity() {
    let a = analyze_dataflow(&models::resnet_small(), Granularity::Layer).unwrap();
    let skips: Vec<&EdgeFlow> = a.edges.iter().filter(|e| e.skew_cycles > 0).collect();
    assert_eq!(skips.len(), 2, "two skip operands: {:?}", a.edges);
    for e in &skips {
        assert!(
            e.min_depth > 1 && e.min_depth <= DEFAULT_LINK_FIFO_DEPTH,
            "{e:?}"
        );
    }
}

#[test]
fn arrivals_do_not_depend_on_link_order() {
    let net = models::resnet_small();
    let comps = net.components(Granularity::Layer).unwrap();
    let rates = cycles::component_rates(&net, &comps).unwrap();
    let links = net.component_edges(&comps);
    let reversed: Vec<ComponentEdge> = links.iter().rev().copied().collect();
    let depths = |links: &[ComponentEdge]| {
        let mut d: Vec<(usize, usize, u64)> = edge_flows(&rates, links)
            .iter()
            .map(|e| (e.source, e.sink, e.min_depth))
            .collect();
        d.sort_unstable();
        d
    };
    let forward = depths(&links);
    assert!(forward.iter().any(|&(_, _, d)| d > 1), "{forward:?}");
    assert_eq!(forward, depths(&reversed));
}

#[test]
fn a_cyclic_graph_is_left_to_the_graph_pass() {
    use preimpl_cnn::cnn::{Layer, Shape};
    let mut n = Network::new("cyclic");
    let input = n.add_node("input", Layer::Input(Shape::new(1, 8, 8)));
    let a = n.add_node("a", Layer::Relu);
    let b = n.add_node("b", Layer::Relu);
    n.add_edge(input, a);
    n.add_edge(a, b);
    n.add_edge(b, a);
    assert!(analyze_dataflow(&n, Granularity::Layer).is_err());
    let engine = LintEngine::new(LintConfig::new());
    let graph = engine.lint_network(&n, Granularity::Layer, &Obs::null());
    assert!(
        graph.diagnostics.iter().any(|d| d.code == "PL0203"),
        "{graph:?}"
    );
}
