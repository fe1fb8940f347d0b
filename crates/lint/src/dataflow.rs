//! `PL04xx` — streaming dataflow analysis of a stitched pipeline.
//!
//! The stitcher turns a CNN into a chain of pre-implemented components
//! linked by stream FIFOs. On linear chains any FIFO depth works: the
//! producer fills, the consumer drains, backpressure throttles. On
//! reconvergent topologies (ResNet skips joining at an Eltwise) the early
//! operand's FIFO must absorb the *path latency skew* — every token the
//! short path produces while the long path is still filling its pipeline.
//! If the skew exceeds the link capacity, backpressure propagates to the
//! shared ancestor, the long path starves, and the pipeline deadlocks: a
//! cyclic wait no amount of runtime can clear.
//!
//! This is the *checker*. The flow sizes link FIFOs from the rate model
//! ([`pi_cnn::cycles::link_min_depths`], one forward sweep that assumes
//! the component DAG is well formed); this pass re-derives the same depths
//! independently and is the one that keeps going when the graph is not.
//! It propagates first-token *arrival intervals* (cycles from frame
//! start) over the component graph with the worklist fixpoint core in
//! [`crate::engine`]: a component's arrival is the synchronizing `sup` of
//! each predecessor's arrival offset by that predecessor's pipeline
//! depth. Per-component quantities — pipeline depth, tokens in and out,
//! frame cycles — are read from the model's
//! [`pi_cnn::cycles::ComponentRate`], and the skew → depth rule is the
//! model's [`pi_cnn::cycles::min_link_depth`]; only the arrival
//! propagation is this pass's own. Per-edge token counts are also
//! balance-checked (SDF consistency: producer tokens per frame must equal
//! what the consumer port expects).
//!
//! Findings: `PL0400` (join skew unbuffereable within capacity — the
//! deadlock), `PL0401` (any link whose computed minimum exceeds capacity),
//! `PL0402` (token-rate imbalance), `PL0403` (fixpoint widened to top
//! before stabilizing — cyclic graph, nothing proven). When the graph is
//! too broken for the rate model (cycles, shape failures) the analysis
//! falls back to a unit-rate node-level graph so it still terminates and
//! still reports divergence instead of crashing or silently passing.

use crate::diag::Diagnostic;
use crate::engine::{fixpoint_intervals, FixpointOutcome, Interval};
use pi_cnn::graph::{Granularity, Network};
use pi_cnn::{cycles, CnnError};
use pi_netlist::DEFAULT_LINK_FIFO_DEPTH;
use std::collections::BTreeMap;

/// One analyzed inter-component stream link.
#[derive(Debug, Clone)]
pub struct EdgeFlow {
    /// Producer component index (order of `Network::components`).
    pub source: usize,
    /// Consumer component index.
    pub sink: usize,
    pub source_name: String,
    pub sink_name: String,
    /// Consumer port the stitcher assigns (`din`, or `din2` for a join's
    /// second operand).
    pub port: &'static str,
    /// Tokens the producer emits per frame (its output elements).
    pub tokens_per_frame: u64,
    /// Tokens the consumer port expects per frame.
    pub expected_tokens: u64,
    /// Synchronization wait this operand sees at the consumer: the gap
    /// between its own earliest arrival and the join's latest operand.
    pub skew_cycles: u64,
    /// Minimum FIFO depth that absorbs the skew without backpressure: the
    /// tokens queued during pipeline fill plus the one in flight at the
    /// consumer. [`Interval::TOP_HI`] when the fixpoint widened to top.
    pub min_depth: u64,
    /// True when the consumer synchronizes two operand streams — the
    /// reconvergent case where an undersized FIFO deadlocks rather than
    /// merely throttles.
    pub reconvergent: bool,
}

/// The analysis result: per-link flows plus fixpoint bookkeeping — what
/// the `lint` bench bin measures.
#[derive(Debug, Clone)]
pub struct DataflowAnalysis {
    pub network_name: String,
    /// Actors the fixpoint ran over (components, or nodes in fallback).
    pub actors: usize,
    pub edges: Vec<EdgeFlow>,
    /// Node evaluations the worklist performed before stabilizing.
    pub iterations: u64,
    /// The fixpoint widened to top — bounds below are not trustworthy.
    pub diverged: bool,
    /// The rate model could not run (graph cycle or shape failure); the
    /// analysis degraded to a unit-rate node-level graph. The message
    /// explains why.
    pub fallback: Option<String>,
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

    /// Evaluate the flows against the link capacity the stitcher builds:
    /// [`DEFAULT_LINK_FIFO_DEPTH`], or with `autosize` each link's own
    /// minimum — what the flow installs from the rate model under
    /// `with_fifo_autosize`, and equal to the depth computed here
    /// (`tests/model_import_props.rs` holds the two together) — so
    /// `PL0400`/`PL0401` cannot fire and only rate imbalance and
    /// divergence remain.
    pub fn lint(&self, autosize: bool) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let net = &self.network_name;
        if let Some(why) = &self.fallback {
            out.push(Diagnostic::new(
                "PL0403",
                format!("network:{net}/dataflow"),
                format!(
                    "rate model unavailable ({why}); fell back to the \
                     unit-rate node graph — FIFO bounds not proven"
                ),
            ));
        }
        if self.diverged {
            out.push(Diagnostic::new(
                "PL0403",
                format!("network:{net}/dataflow"),
                format!(
                    "fixpoint widened to top after {} iterations over {} \
                     actors (cyclic dataflow?): occupancy bounds and \
                     deadlock-freedom could not be proven",
                    self.iterations, self.actors
                ),
            ));
        }
        if self.fallback.is_some() {
            // Unit-rate bounds are placeholders; reporting depths computed
            // from them would be noise on top of the PL0403 above.
            return out;
        }
        for e in &self.edges {
            if e.tokens_per_frame != e.expected_tokens {
                out.push(Diagnostic::new(
                    "PL0402",
                    format!("network:{net}/link:{}->{}", e.source_name, e.sink_name),
                    format!(
                        "rate mismatch on `{}`: `{}` produces {} tokens per \
                         frame, `{}` consumes {}",
                        e.port, e.source_name, e.tokens_per_frame, e.sink_name, e.expected_tokens
                    ),
                ));
            }
            if e.min_depth == Interval::TOP_HI {
                continue; // divergence already reported as PL0403
            }
            let capacity = DEFAULT_LINK_FIFO_DEPTH;
            if !autosize && e.min_depth > capacity {
                out.push(Diagnostic::new(
                    "PL0401",
                    format!("network:{net}/link:{}->{}", e.source_name, e.sink_name),
                    format!(
                        "link FIFO undersized: occupancy reaches {} tokens \
                         during pipeline fill, minimum depth {} exceeds \
                         capacity {capacity}",
                        e.min_depth - 1,
                        e.min_depth
                    ),
                ));
                if e.reconvergent {
                    out.push(Diagnostic::new(
                        "PL0400",
                        format!("network:{net}/component:{}", e.sink_name),
                        format!(
                            "potential deadlock at join `{}`: operand from \
                             `{}` must buffer {} cycles of path skew \
                             (≥ {} tokens) but the link FIFO holds \
                             {capacity} — backpressure reaches the shared \
                             producer and both paths stall",
                            e.sink_name, e.source_name, e.skew_cycles, e.min_depth
                        ),
                    ));
                }
            }
        }
        out
    }
}

/// Run the dataflow analysis over a network at the given granularity.
pub fn analyze(network: &Network, granularity: Granularity) -> DataflowAnalysis {
    match analyze_components(network, granularity) {
        Ok(a) => a,
        Err(e) => analyze_fallback(network, e),
    }
}

/// The precise path: actors are the fused components the stitcher will
/// instantiate, rates come from the model.
fn analyze_components(
    network: &Network,
    granularity: Granularity,
) -> Result<DataflowAnalysis, CnnError> {
    let comps = network.components(granularity)?;
    let n = comps.len();
    let rates = cycles::component_rates(network, &comps)?;

    // The same component graph the stitcher wires from.
    let links = network.component_edges(&comps);
    let (preds, outcome) = arrivals(n, links.iter().map(|e| (e.source, e.sink)), |p| {
        rates[p].depth_cycles
    });

    // Per-edge flows. An edge's operand "arrives" at the consumer after
    // the producer's pipeline: A_e = arrival(src) + depth(src). A
    // synchronizing consumer fires at the latest A_e; everything the
    // early operand produces until then queues in its link FIFO.
    let mut edges = Vec::with_capacity(links.len());
    for link in &links {
        let (ca, cb) = (link.source, link.sink);
        let latest = preds[cb]
            .iter()
            .filter_map(|&a| outcome.values[a].map(|v| v.offset(rates[a].depth_cycles).hi))
            .max()
            .unwrap_or(0);
        let producer = &rates[ca];
        let skew = match outcome.values[ca].map(|v| v.offset(producer.depth_cycles)) {
            Some(a) if a.is_top() || latest == Interval::TOP_HI => Interval::TOP_HI,
            Some(a) => latest.saturating_sub(a.lo),
            // Producer unreachable from the input: orphan territory
            // (PL0202); nothing flows, nothing queues.
            None => 0,
        };
        let min_depth = if skew == Interval::TOP_HI {
            Interval::TOP_HI
        } else {
            cycles::min_link_depth(skew, producer.tokens_out, producer.frame_cycles)
        };
        edges.push(EdgeFlow {
            source: ca,
            sink: cb,
            source_name: comps[ca].name.clone(),
            sink_name: comps[cb].name.clone(),
            // A third operand has no port (PL0205 flags the join); it
            // keeps the second's label here.
            port: link.port().unwrap_or("din2"),
            tokens_per_frame: producer.tokens_out,
            expected_tokens: rates[cb].tokens_in,
            skew_cycles: skew,
            min_depth,
            reconvergent: preds[cb].len() >= 2,
        });
    }

    Ok(DataflowAnalysis {
        network_name: network.name.clone(),
        actors: n,
        edges,
        iterations: outcome.iterations,
        diverged: outcome.diverged,
        fallback: None,
    })
}

/// The degraded path: when components/shapes cannot be derived (the graph
/// has a cycle, a layer rejects its shape) run the fixpoint over the raw
/// node graph with unit depths and rates. Guarantees termination and
/// turns a structural cycle into a widening-to-top divergence report
/// instead of an analysis crash.
fn analyze_fallback(network: &Network, why: CnnError) -> DataflowAnalysis {
    let n = network.nodes().len();
    let node_edges = network.edges().iter().map(|(a, b)| (a.index(), b.index()));
    let (_, outcome) = arrivals(n, node_edges, |_| 1);
    DataflowAnalysis {
        network_name: network.name.clone(),
        actors: n,
        edges: Vec::new(),
        iterations: outcome.iterations,
        diverged: outcome.diverged,
        fallback: Some(why.to_string()),
    }
}

/// First-token arrival interval of each of `n` actors: actors without a
/// producer fire at cycle 0 and every edge delays its producer's arrival
/// by `depth_of(producer)`. Returns the predecessor lists alongside.
fn arrivals(
    n: usize,
    edges: impl Iterator<Item = (usize, usize)>,
    depth_of: impl Fn(usize) -> u64,
) -> (Vec<Vec<usize>>, FixpointOutcome) {
    let mut preds = vec![Vec::new(); n];
    let mut succs = vec![Vec::new(); n];
    for (a, b) in edges {
        if a < n && b < n {
            preds[b].push(a);
            succs[a].push(b);
        }
    }
    let seeds: Vec<(usize, Interval)> = (0..n)
        .filter(|&i| preds[i].is_empty())
        .map(|i| (i, Interval::point(0)))
        .collect();
    let outcome = fixpoint_intervals(&preds, &succs, &seeds, |p, _n, v| v.offset(depth_of(p)));
    (preds, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_cnn::models;

    #[test]
    fn linear_chains_have_unit_depths() {
        let a = analyze(&models::lenet5(), Granularity::Layer);
        assert!(a.fallback.is_none() && !a.diverged, "{a:?}");
        assert!(!a.edges.is_empty());
        for e in &a.edges {
            assert_eq!(e.min_depth, 1, "{e:?}");
            assert_eq!(e.tokens_per_frame, e.expected_tokens, "{e:?}");
            assert!(!e.reconvergent);
        }
        assert!(a.lint(false).is_empty());
    }

    #[test]
    fn resnet_skip_edges_need_skew_buffering_within_default_capacity() {
        let a = analyze(&models::resnet_small(), Granularity::Layer);
        assert!(a.fallback.is_none() && !a.diverged, "{a:?}");
        let skips: Vec<&EdgeFlow> = a
            .edges
            .iter()
            .filter(|e| e.reconvergent && e.skew_cycles > 0)
            .collect();
        assert_eq!(skips.len(), 2, "two skip operands: {:?}", a.edges);
        for e in &skips {
            assert!(
                e.min_depth > 1 && e.min_depth <= DEFAULT_LINK_FIFO_DEPTH,
                "{e:?}"
            );
        }
        assert!(a.lint(false).is_empty());
    }

    #[test]
    fn cyclic_graph_falls_back_and_reports_divergence() {
        use pi_cnn::layer::{Layer, Shape};
        let mut n = Network::new("cyclic");
        let input = n.add_node("input", Layer::Input(Shape::new(1, 8, 8)));
        let a = n.add_node("a", Layer::Relu);
        let b = n.add_node("b", Layer::Relu);
        n.add_edge(input, a);
        n.add_edge(a, b);
        n.add_edge(b, a);
        let out = analyze(&n, Granularity::Layer);
        assert!(out.fallback.is_some());
        assert!(out.diverged, "{out:?}");
        let diags = out.lint(false);
        assert!(diags.iter().any(|d| d.code == "PL0403"), "{diags:?}");
    }
}
