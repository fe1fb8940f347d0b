//! The per-component performance model of the generated streaming
//! accelerators: what a component costs and how fast it streams.
//!
//! One [`ComponentRate`] per component answers every question the rest of
//! the system asks about it, and this module is the only place any of it
//! is computed:
//!
//! * **Pipeline latency** (Table III, nanoseconds): the fill depth of one
//!   component's pipeline — shift registers, MAC array, adder tree, output
//!   stage — divided by its clock. The "full network" latency is the sum
//!   over the execution schedule.
//! * **Frame latency** (Fig. 7 / Table IV, milliseconds): how long one
//!   input image takes end-to-end, dominated by MACs divided by the DSPs
//!   working on them.
//! * **Engine width**: the lane/folding rules ([`conv_lanes`],
//!   [`fc_dsps`], the controller DSP counts) that decide how many DSPs a
//!   component gets. `pi-synth`'s generators instantiate what these rules
//!   say, so the model's `dsps` *is* the netlist's.
//! * **Link FIFO depth**: a reconvergent operand waits for the longer
//!   path; [`min_link_depth`] is the depth that absorbs the wait and
//!   [`link_min_depths`] applies it to every link of a network.
//!
//! Readers: `pi-synth` sizes lanes from it, `pi-flow` sizes FIFOs and
//! prints latency from it, and `pi-lint` checks the checkpoints' measured
//! values against it. The test reference `tests/support/dataflow.rs`
//! re-derives the link depths by its own longest path, and tier-1 holds
//! [`link_min_depths`] equal to it.

use crate::graph::{Component, Granularity, Network};
use crate::layer::{Layer, Shape};
use crate::CnnError;
use std::collections::BTreeMap;

/// Sustained MAC-array efficiency of the streaming engines: boundary
/// effects, line-buffer refills and FIFO stalls cost ~30%.
pub const MAC_EFFICIENCY_NUM: u64 = 7;
pub const MAC_EFFICIENCY_DEN: u64 = 10;

/// Frame-cycle budget each engine is sized for: lanes are provisioned so a
/// layer streams one frame in roughly this many cycles, balancing the
/// pipeline (every streaming accelerator generator does this; it is also
/// what keeps VGG-16's total DSP demand in the Table II band).
pub const TARGET_FRAME_CYCLES: u64 = 8_000_000;

/// DSPs in a source memory controller's address arithmetic. Every
/// component has one on `din`; a join has a second on `din2`.
pub const SOURCE_CTRL_DSPS: u64 = 2;
/// DSPs in the sink memory controller (sequential writes only).
pub const SINK_CTRL_DSPS: u64 = 1;

/// Output-channel lanes instantiated per convolution engine, proportional
/// to the layer's MAC load: heavy layers get wide arrays, light layers fold
/// onto a single k×k lane.
pub fn conv_lanes(macs: u64, taps: u64) -> u64 {
    macs.div_ceil(taps.max(1) * TARGET_FRAME_CYCLES)
        .clamp(1, 40)
}

/// DSP MACs in the folded fully-connected engine, MAC-load proportional
/// with a minimum that keeps the accumulator tree busy.
pub fn fc_dsps(macs: u64) -> u64 {
    macs.div_ceil(TARGET_FRAME_CYCLES).clamp(4, 128)
}

/// Pipeline fill depth of one layer in clock cycles.
///
/// * conv: k·k systolic stages + an adder tree over k·k·C_in partial
///   products + 4 memory-controller/output stages,
/// * pool: window fill + comparator tree + 2 control stages,
/// * relu: a single stage,
/// * fc: treated as a convolution with kernel = input size, folded —
///   depth is the accumulation tree over the input plus control.
fn layer_pipeline_depth(layer: &Layer, input: Shape) -> u64 {
    match layer {
        Layer::Input(_) => 0,
        Layer::Conv(p) => {
            let taps = u64::from(p.kernel) * u64::from(p.kernel);
            taps + ceil_log2(taps * u64::from(input.channels)) + 4
        }
        Layer::Pool(p) => {
            let taps = u64::from(p.window) * u64::from(p.window);
            taps + ceil_log2(taps) + 2
        }
        Layer::Relu => 1,
        Layer::Fc(_) => ceil_log2(input.elements()) + 6,
        // Join: one stream-alignment stage plus the ALU stage.
        Layer::Eltwise(_) => 2,
    }
}

/// What one component costs and how fast it streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComponentRate {
    /// Pipeline fill depth: the component's layers fill back-to-back.
    pub depth_cycles: u64,
    /// MACs performed on one frame.
    pub macs: u64,
    /// DSPs the generators instantiate: MAC lanes plus controller address
    /// arithmetic.
    pub dsps: u64,
    /// Cycles to stream one frame through the component's engines.
    pub frame_cycles: u64,
    /// Tokens emitted per frame.
    pub tokens_out: u64,
}

impl ComponentRate {
    /// The only place a component's cost is derived from its layers.
    fn of(network: &Network, shapes: &[Shape], component: &Component) -> Result<Self, CnnError> {
        let mut depth_cycles = 0;
        let mut macs = 0;
        let mut dsps = SOURCE_CTRL_DSPS + SINK_CTRL_DSPS;
        for id in &component.nodes {
            let layer = &network.node(*id).layer;
            let input = shapes[id.index()];
            depth_cycles += layer_pipeline_depth(layer, input);
            let layer_macs = layer.macs(input)?;
            macs += layer_macs;
            dsps += match layer {
                Layer::Conv(p) => {
                    let taps = u64::from(p.kernel) * u64::from(p.kernel);
                    conv_lanes(layer_macs, taps) * taps
                }
                Layer::Fc(_) => fc_dsps(layer_macs),
                // The second operand stream has its own source controller.
                Layer::Eltwise(_) => SOURCE_CTRL_DSPS,
                Layer::Input(_) | Layer::Pool(_) | Layer::Relu => 0,
            };
        }
        let tokens_out = component.output_shape.elements();
        Ok(ComponentRate {
            depth_cycles,
            macs,
            dsps,
            frame_cycles: frame_cycles(macs, tokens_out, dsps),
            tokens_out,
        })
    }

    /// The same component served by `dsps` MAC units — the width a
    /// checkpoint actually measured, when that is what should be reported.
    pub fn at_width(self, dsps: u64) -> Self {
        ComponentRate {
            dsps,
            frame_cycles: frame_cycles(self.macs, self.tokens_out, dsps),
            ..self
        }
    }
}

/// The model of every component in `components` (as returned by
/// [`Network::components`]), in one shape walk.
pub fn component_rates(
    network: &Network,
    components: &[Component],
) -> Result<Vec<ComponentRate>, CnnError> {
    let shapes = network.input_shapes()?;
    components
        .iter()
        .map(|c| ComponentRate::of(network, &shapes, c))
        .collect()
}

/// Pipeline depth of one fused component — what a checkpoint records as
/// its `latency_cycles`.
pub fn component_pipeline_depth(network: &Network, component: &Component) -> Result<u64, CnnError> {
    let rates = component_rates(network, std::slice::from_ref(component))?;
    Ok(rates[0].depth_cycles)
}

/// Cycles to stream one frame through an engine with `dsps` MAC units.
/// Non-MAC components (pool, relu) stream at one element per cycle.
pub fn frame_cycles(macs: u64, elements: u64, dsps: u64) -> u64 {
    if macs == 0 {
        // Element-wise/pooling engines: output-rate limited.
        return elements;
    }
    let ideal = macs.div_ceil(dsps.max(1));
    ideal * MAC_EFFICIENCY_DEN / MAC_EFFICIENCY_NUM
}

/// Minimum link FIFO depth for an operand that waits `skew_cycles` at a
/// synchronizing consumer while its producer keeps emitting
/// `tokens_per_frame` tokens over `frame_cycles` cycles: the tokens
/// emitted during the wait, rounded up, plus the one in flight at the
/// consumer.
pub fn min_link_depth(skew_cycles: u64, tokens_per_frame: u64, frame_cycles: u64) -> u64 {
    skew_cycles
        .saturating_mul(tokens_per_frame)
        .div_ceil(frame_cycles.max(1))
        + 1
}

/// Minimum FIFO depth of every stream link of the network, keyed by
/// component edge `(source, sink)`. A component fires when the first token
/// of its latest operand arrives — the longest path from the input, each
/// component adding its pipeline depth — and every earlier operand queues
/// for the difference. Components come in topological order and links
/// only point forward, so one sweep settles when each component fires and
/// when its own first token is delivered downstream.
pub fn link_min_depths(
    network: &Network,
    granularity: Granularity,
) -> Result<BTreeMap<(usize, usize), u64>, CnnError> {
    let components = network.components(granularity)?;
    let rates = component_rates(network, &components)?;
    let edges = network.component_edges(&components);
    let mut fires = vec![0u64; components.len()];
    let mut delivers = vec![0u64; components.len()];
    for c in 0..components.len() {
        let operands = edges.iter().filter(|e| e.sink == c);
        fires[c] = operands.map(|e| delivers[e.source]).max().unwrap_or(0);
        delivers[c] = fires[c] + rates[c].depth_cycles;
    }
    Ok(edges
        .iter()
        .map(|e| {
            let skew = fires[e.sink] - delivers[e.source];
            let producer = &rates[e.source];
            let depth = min_link_depth(skew, producer.tokens_out, producer.frame_cycles);
            ((e.source, e.sink), depth)
        })
        .collect())
}

/// Latency in nanoseconds of `cycles` at `fmax_mhz`.
pub fn latency_ns(cycles: u64, fmax_mhz: f64) -> f64 {
    assert!(fmax_mhz > 0.0, "fmax must be positive");
    cycles as f64 * 1000.0 / fmax_mhz
}

/// Latency in milliseconds of `cycles` at `fmax_mhz`.
pub fn latency_ms(cycles: u64, fmax_mhz: f64) -> f64 {
    latency_ns(cycles, fmax_mhz) / 1.0e6
}

/// Ceiling log2 (0 and 1 map to 0).
pub fn ceil_log2(x: u64) -> u64 {
    if x <= 1 {
        0
    } else {
        64 - u64::from((x - 1).leading_zeros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    #[test]
    fn log2_ceiling_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(25), 5);
        assert_eq!(ceil_log2(1024), 10);
    }

    #[test]
    fn conv_depth_grows_with_channels() {
        // The paper observes conv2 (more parameters) is slower/deeper than
        // conv1; our depth model preserves that ordering.
        let net = models::lenet5();
        let comps = net.components(Granularity::Layer).unwrap();
        let d_conv1 = component_pipeline_depth(&net, &comps[0]).unwrap();
        let d_conv2 = component_pipeline_depth(&net, &comps[2]).unwrap();
        assert!(d_conv2 > d_conv1);
        // Pool components are much shallower than convs.
        let d_pool = component_pipeline_depth(&net, &comps[1]).unwrap();
        assert!(d_pool < d_conv1 / 2);
    }

    #[test]
    fn lane_rules_balance_the_pipeline() {
        // LeNet conv1 (118k MACs) folds onto one 5x5 lane.
        assert_eq!(conv_lanes(117_600, 25), 1);
        // A heavy VGG conv (1.85G MACs, 3x3) gets a wide array.
        let heavy = conv_lanes(1_850_000_000, 9);
        assert!((20..=40).contains(&heavy), "lanes = {heavy}");
        // Lanes scale down with lighter layers.
        assert!(conv_lanes(462_000_000, 9) < heavy);
        assert_eq!(fc_dsps(48_000), 4);
        assert_eq!(fc_dsps(102_000_000), 13);
    }

    #[test]
    fn a_join_counts_both_source_controllers() {
        let net = models::resnet_small();
        let comps = net.components(Granularity::Layer).unwrap();
        let rates = component_rates(&net, &comps).unwrap();
        for (c, r) in comps.iter().zip(&rates) {
            let expected = match c.kind_tag.as_str() {
                "add" => 2 * SOURCE_CTRL_DSPS + SINK_CTRL_DSPS,
                "pool" => SOURCE_CTRL_DSPS + SINK_CTRL_DSPS,
                _ => continue,
            };
            assert_eq!(r.dsps, expected, "{}", c.name);
            assert_eq!((r.macs, r.frame_cycles), (0, r.tokens_out), "{}", c.name);
        }
        assert_eq!(comps.iter().filter(|c| c.kind_tag == "add").count(), 2);
    }

    #[test]
    fn min_link_depth_is_tight() {
        assert_eq!(min_link_depth(0, 100, 10), 1);
        assert_eq!(min_link_depth(10, 1, 1), 11);
        // One token per 4 cycles, 43-cycle wait: ceil(43/4)+1.
        assert_eq!(min_link_depth(43, 1, 4), 12);
        assert_eq!(min_link_depth(5, 3, 0), 16, "a zero frame time is clamped");
    }

    #[test]
    fn only_skip_operands_need_more_than_the_slot_in_flight() {
        let chain = link_min_depths(&models::lenet5(), Granularity::Layer).unwrap();
        assert_eq!(chain.len(), 5);
        assert!(chain.values().all(|&d| d == 1), "{chain:?}");

        let net = models::resnet_small();
        let depths = link_min_depths(&net, Granularity::Layer).unwrap();
        let comps = net.components(Granularity::Layer).unwrap();
        assert_eq!(depths.len(), net.component_edges(&comps).len());
        let deep: Vec<_> = depths.iter().filter(|(_, &d)| d > 1).collect();
        assert_eq!(deep.len(), 2, "one skip operand per join: {depths:?}");
        for ((_, sink), _) in deep {
            assert_eq!(comps[*sink].kind_tag, "add");
        }
        // Err exactly where `components()` errs.
        let empty = Network::new("empty");
        assert_eq!(
            link_min_depths(&empty, Granularity::Layer).err(),
            empty.components(Granularity::Layer).err()
        );
    }

    #[test]
    fn frame_cycles_scale_with_dsps() {
        let slow = frame_cycles(1_000_000, 0, 10);
        let fast = frame_cycles(1_000_000, 0, 100);
        assert!(slow > fast * 9); // near-linear scaling
                                  // Element-wise engines stream at output rate.
        assert_eq!(frame_cycles(0, 784, 16), 784);
    }

    #[test]
    fn latency_conversions() {
        assert!((latency_ns(100, 500.0) - 200.0).abs() < 1e-9);
        assert!((latency_ms(1_000_000, 200.0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn vgg_frame_latency_lands_in_paper_band() {
        // Sanity: 15.3G MACs on ~2100 DSPs at 200 MHz should be tens of ms,
        // the order Fig. 7 reports for baseline VGG.
        let net = models::vgg16();
        let stats = net.stats().unwrap();
        let cycles = frame_cycles(stats.total_macs(), 0, 2100);
        let ms = latency_ms(cycles, 200.0);
        assert!((20.0..120.0).contains(&ms), "VGG latency {ms} ms");
    }
}
