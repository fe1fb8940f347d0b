//! Streaming dataflow analysis of a stitched pipeline: the independent
//! test reference for the flow's link FIFO sizing, shared by
//! `tests/model_import_props.rs` and `tests/dataflow_props.rs` (each
//! reads part of it, hence the `dead_code` allowance).
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
//! link FIFO from the rate model (`cycles::link_min_depths`, one forward
//! sweep that assumes the component DAG is well formed), never below the
//! standard depth, so no link it builds can be undersized.
//!
//! This module re-derives the same depths independently
//! (`tests/model_import_props.rs` holds the two equal) over networks the
//! judge (`Network::defects`) accepts. A component's first-token
//! *arrival* (cycles from frame start) is the longest path to it from the
//! input, each producer adding its pipeline depth. Unlike the sizer, which
//! sweeps components in topological order and assumes every link points
//! forward, this pass relaxes every link until nothing changes, so the
//! link order does not matter. Per-component quantities — pipeline depth,
//! tokens out, frame cycles — are read from the model's
//! `cycles::ComponentRate`, and the skew → depth rule is the model's
//! `cycles::min_link_depth`; only the arrival propagation is this pass's
//! own.
//!
//! There are no findings. Token balance holds by construction on a judged
//! network: a component link leaves the producer's last node and enters
//! the consumer's first node, whose shapes the judge requires to agree.

#![allow(dead_code)]

use preimpl_cnn::cnn::cycles::{self, ComponentRate};
use preimpl_cnn::cnn::graph::{ComponentEdge, Granularity, Network};
use preimpl_cnn::cnn::CnnError;
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
    /// with `cycles::link_min_depths`.
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
pub fn edge_flows(rates: &[ComponentRate], links: &[ComponentEdge]) -> Vec<EdgeFlow> {
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
