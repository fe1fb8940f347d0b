//! Streaming dataflow analysis of a stitched pipeline: the independent
//! reference for the flow's link FIFO sizing.
//!
//! The stitcher turns a CNN into a chain of pre-implemented components
//! linked by stream FIFOs. On linear chains any FIFO depth works: the
//! producer fills, the consumer drains, backpressure throttles. On
//! reconvergent topologies (ResNet skips joining at an Eltwise) the early
//! operand's FIFO must absorb the *path latency skew* — every token the
//! short path produces while the long path is still filling its pipeline.
//! If the skew exceeded the link capacity, backpressure would propagate to
//! the shared ancestor, the long path would starve, and the pipeline would
//! deadlock. The flow therefore never picks a capacity: it sizes every
//! link FIFO from the rate model ([`pi_cnn::cycles::link_min_depths`], one
//! forward sweep that assumes the component DAG is well formed), never
//! below the standard depth, so no link it builds can be undersized.
//!
//! This module re-derives the same depths independently
//! (`tests/model_import_props.rs` holds the two equal) over networks the
//! judge ([`Network::defects`]) accepts. A component's first-token
//! *arrival* (cycles from frame start) is the longest path to it from the
//! input, each producer adding its pipeline depth. Unlike the sizer, which
//! sweeps components in topological order and assumes every link points
//! forward, this pass relaxes every link until nothing changes, so the
//! link order does not matter. Per-component quantities — pipeline depth,
//! tokens out, frame cycles — are read from the model's
//! [`pi_cnn::cycles::ComponentRate`], and the skew → depth rule is the
//! model's [`pi_cnn::cycles::min_link_depth`]; only the arrival
//! propagation is this pass's own.
//!
//! There are no findings. Token balance holds by construction on a judged
//! network: a component link leaves the producer's last node and enters
//! the consumer's first node, whose shapes the judge requires to agree.

use pi_cnn::cycles::{self, ComponentRate};
use pi_cnn::graph::{ComponentEdge, Granularity, Network};
use pi_cnn::CnnError;
use std::collections::BTreeMap;

/// One analyzed inter-component stream link.
#[derive(Debug, Clone)]
pub struct EdgeFlow {
    /// Producer component index (order of `Network::components`).
    pub source: usize,
    /// Consumer component index.
    pub sink: usize,
    /// Consumer port the stitcher assigns (`din`, or `din2` for a join's
    /// second operand).
    pub port: &'static str,
    /// Synchronization wait this operand sees at the consumer: the gap
    /// between its own earliest arrival and the join's latest operand.
    pub skew_cycles: u64,
    /// Minimum FIFO depth that absorbs the skew without backpressure: the
    /// tokens queued during pipeline fill plus the one in flight at the
    /// consumer.
    pub min_depth: u64,
}

/// The analysis result: per-link flows.
#[derive(Debug, Clone)]
pub struct DataflowAnalysis {
    pub edges: Vec<EdgeFlow>,
}

impl DataflowAnalysis {
    /// Computed minimum depth per component edge — comparable key for key
    /// with [`pi_cnn::cycles::link_min_depths`].
    pub fn depth_map(&self) -> BTreeMap<(usize, usize), u64> {
        self.edges
            .iter()
            .map(|e| ((e.source, e.sink), e.min_depth))
            .collect()
    }

    /// Largest computed minimum depth over all links (1 when no links).
    pub fn max_min_depth(&self) -> u64 {
        self.edges.iter().map(|e| e.min_depth).max().unwrap_or(1)
    }
}

/// Run the dataflow analysis over a network at the given granularity: the
/// actors are the fused components the stitcher will instantiate, and
/// rates come from the model. A network the judge rejects is `Err` with
/// its first defect.
pub fn analyze(network: &Network, granularity: Granularity) -> Result<DataflowAnalysis, CnnError> {
    let comps = network.components(granularity)?;
    let rates = cycles::component_rates(network, &comps)?;
    // The same component graph the stitcher wires from.
    let links = network.component_edges(&comps);
    Ok(DataflowAnalysis {
        edges: edge_flows(&rates, &links),
    })
}

/// Per-link flows. A link's operand "arrives" at the consumer after the
/// producer's pipeline: `arrival(src) + depth(src)`. A synchronizing
/// consumer fires at its latest operand; everything an earlier operand
/// produces until then queues in its link FIFO.
fn edge_flows(rates: &[ComponentRate], links: &[ComponentEdge]) -> Vec<EdgeFlow> {
    let fires = arrivals(rates, links);
    links
        .iter()
        .map(|link| {
            let producer = &rates[link.source];
            let skew = fires[link.sink] - (fires[link.source] + producer.depth_cycles);
            EdgeFlow {
                source: link.source,
                sink: link.sink,
                port: link
                    .port()
                    .expect("a judged network feeds a component at most two streams"),
                skew_cycles: skew,
                min_depth: cycles::min_link_depth(skew, producer.tokens_out, producer.frame_cycles),
            }
        })
        .collect()
}

/// First-token arrival of each component: the longest path to it from the
/// input, each producer adding its pipeline depth. Every link is relaxed
/// until nothing changes. A longest path has fewer links than there are
/// components, so on the judged (acyclic) graph the last round changes
/// nothing, whatever order the links come in.
fn arrivals(rates: &[ComponentRate], links: &[ComponentEdge]) -> Vec<u64> {
    let mut fires = vec![0u64; rates.len()];
    for _ in 0..rates.len() {
        let mut changed = false;
        for link in links {
            let delivered = fires[link.source] + rates[link.source].depth_cycles;
            if delivered > fires[link.sink] {
                fires[link.sink] = delivered;
                changed = true;
            }
        }
        if !changed {
            return fires;
        }
    }
    unreachable!("a judged component graph has no cycle")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_cnn::models;
    use pi_netlist::DEFAULT_LINK_FIFO_DEPTH;

    #[test]
    fn linear_chains_have_unit_depths() {
        let a = analyze(&models::lenet5(), Granularity::Layer).unwrap();
        assert!(!a.edges.is_empty());
        for e in &a.edges {
            assert_eq!(e.min_depth, 1, "{e:?}");
        }
    }

    #[test]
    fn resnet_skip_edges_need_skew_buffering_within_default_capacity() {
        let a = analyze(&models::resnet_small(), Granularity::Layer).unwrap();
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
        use crate::diag::LintConfig;
        use crate::engine::LintEngine;
        use pi_cnn::layer::{Layer, Shape};
        use pi_obs::Obs;
        let mut n = Network::new("cyclic");
        let input = n.add_node("input", Layer::Input(Shape::new(1, 8, 8)));
        let a = n.add_node("a", Layer::Relu);
        let b = n.add_node("b", Layer::Relu);
        n.add_edge(input, a);
        n.add_edge(a, b);
        n.add_edge(b, a);
        assert!(analyze(&n, Granularity::Layer).is_err());
        let engine = LintEngine::new(LintConfig::new());
        let graph = engine.lint_network(&n, Granularity::Layer, &Obs::null());
        assert!(
            graph.diagnostics.iter().any(|d| d.code == "PL0203"),
            "{graph:?}"
        );
    }
}
