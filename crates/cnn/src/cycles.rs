//! Cycle and latency model of the generated streaming accelerators.
//!
//! Two distinct figures appear in the paper's evaluation:
//!
//! * **Pipeline latency** (Table III, nanoseconds): the fill depth of one
//!   component's pipeline — shift registers, MAC array, adder tree, output
//!   stage — divided by its clock. The "full network" latency is the sum
//!   over the execution schedule.
//! * **Frame latency** (Fig. 7 / Table IV, milliseconds): how long one
//!   input image takes end-to-end, dominated by MACs divided by the DSPs
//!   working on them.
//!
//! Both are computed here from layer geometry so that changing the clock
//! (what the flows optimize) changes latency exactly the way the paper's
//! numbers move.

use crate::graph::{Component, Network};
use crate::layer::{Layer, Shape};
use crate::CnnError;

/// Sustained MAC-array efficiency of the streaming engines: boundary
/// effects, line-buffer refills and FIFO stalls cost ~30%.
pub const MAC_EFFICIENCY_NUM: u64 = 7;
pub const MAC_EFFICIENCY_DEN: u64 = 10;

/// Pipeline fill depth of one layer in clock cycles.
///
/// * conv: k·k systolic stages + an adder tree over k·k·C_in partial
///   products + 4 memory-controller/output stages,
/// * pool: window fill + comparator tree + 2 control stages,
/// * relu: a single stage,
/// * fc: treated as a convolution with kernel = input size, folded —
///   depth is the accumulation tree over the input plus control.
pub fn layer_pipeline_depth(layer: &Layer, input: Shape) -> u64 {
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
        Layer::Fc(p) => {
            let _ = p;
            ceil_log2(input.elements()) + 6
        }
        // Join: one stream-alignment stage plus the ALU stage.
        Layer::Eltwise(_) => 2,
    }
}

/// Pipeline depth of a fused component: its layers fill back-to-back.
pub fn component_pipeline_depth(network: &Network, component: &Component) -> Result<u64, CnnError> {
    let shapes = network.input_shapes()?;
    Ok(component
        .nodes
        .iter()
        .map(|id| layer_pipeline_depth(&network.node(*id).layer, shapes[id.index()]))
        .sum())
}

/// Total MACs a component performs on one frame.
pub fn component_macs(network: &Network, component: &Component) -> Result<u64, CnnError> {
    let shapes = network.input_shapes()?;
    component
        .nodes
        .iter()
        .map(|id| network.node(*id).layer.macs(shapes[id.index()]))
        .sum()
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

/// Latency in nanoseconds of `cycles` at `fmax_mhz`.
pub fn latency_ns(cycles: u64, fmax_mhz: f64) -> f64 {
    assert!(fmax_mhz > 0.0, "fmax must be positive");
    cycles as f64 * 1000.0 / fmax_mhz
}

/// Latency in milliseconds of `cycles` at `fmax_mhz`.
pub fn latency_ms(cycles: u64, fmax_mhz: f64) -> f64 {
    latency_ns(cycles, fmax_mhz) / 1.0e6
}

fn ceil_log2(x: u64) -> u64 {
    if x <= 1 {
        0
    } else {
        64 - u64::from((x - 1).leading_zeros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Granularity;
    use crate::models;

    #[test]
    fn ceil_log2_values() {
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
