//! Bit-accurate fixed-point reference inference.
//!
//! These routines define the function the generated accelerators must
//! compute. No test simulates a generated netlist against them: the
//! netlists are structural (placed, routed, timed), not executable, and
//! `tests/model_consistency.rs` checks this model only against the graph's
//! shape propagation, ReLU non-negativity and a float reference.
//! Convolution parallelizes over output channels with rayon — the
//! reference model is itself an honest parallel workload.
//!
//! Determinism audit: the three parallel regions here (`conv2d` output
//! planes, the `conv2d_im2col` GEMM rows, `fully_connected` outputs) are
//! pure integer arithmetic over disjoint output slices and emit no
//! telemetry, and the parallel iterators return results in input index
//! order at every thread count — so inference is byte-identical regardless
//! of `PI_THREADS`. Any telemetry added inside these closures must go
//! through `pi_obs::BufferedObs` (buffer per item, flush in index order),
//! like the parallel regions in `pi-flow`.

use crate::graph::{Network, NodeId};
use crate::layer::{ConvParams, EltwiseOp, FcParams, Layer, PoolKind, PoolParams};
use crate::tensor::{requantize_acc, Tensor};
use crate::CnnError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::collections::HashMap;

/// Weights of one parameterized layer, in Q8.8.
#[derive(Debug, Clone)]
pub struct LayerWeights {
    /// Conv: `[out_c][in_c][k][k]` flattened. FC: `[out][in]` flattened.
    pub kernel: Vec<i16>,
    pub bias: Vec<i16>,
}

/// Weights for every parameterized node of a network.
#[derive(Debug, Clone, Default)]
pub struct Weights {
    by_node: HashMap<NodeId, LayerWeights>,
}

impl Weights {
    /// Deterministic pseudo-random weights in (-0.5, 0.5) — the stand-in for
    /// trained parameters (the paper hard-codes weights in ROM; the flow
    /// never looks at their values, only their count).
    pub fn random(network: &Network, seed: u64) -> Result<Weights, CnnError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let shapes = network.input_shapes()?;
        let mut by_node = HashMap::new();
        for (i, node) in network.nodes().iter().enumerate() {
            let input = shapes[i];
            let (kernel_len, bias_len) = match node.layer {
                Layer::Conv(p) => (
                    (p.kernel * p.kernel * input.channels * p.out_channels) as usize,
                    p.out_channels as usize,
                ),
                Layer::Fc(p) => (
                    (input.elements() * u64::from(p.out_features)) as usize,
                    p.out_features as usize,
                ),
                _ => continue,
            };
            let mut gen =
                |n: usize| -> Vec<i16> { (0..n).map(|_| rng.gen_range(-128..=127)).collect() };
            by_node.insert(
                NodeId(i as u32),
                LayerWeights {
                    kernel: gen(kernel_len),
                    bias: gen(bias_len),
                },
            );
        }
        Ok(Weights { by_node })
    }

    pub fn get(&self, id: NodeId) -> Option<&LayerWeights> {
        self.by_node.get(&id)
    }

    /// Total parameter count stored.
    pub fn parameter_count(&self) -> usize {
        self.by_node
            .values()
            .map(|w| w.kernel.len() + w.bias.len())
            .sum()
    }
}

/// 2-D convolution over all channels (valid/same per padding), stride
/// supported, Q8.8 in/out with i32 accumulation.
pub fn conv2d(input: &Tensor, p: &ConvParams, w: &LayerWeights) -> Result<Tensor, CnnError> {
    let out_shape = p.output_shape(input.shape())?;
    let in_c = input.channels;
    let k = p.kernel;
    expect_len(
        w.kernel.len(),
        (k * k * in_c * p.out_channels) as usize,
        "conv kernel",
    )?;
    expect_len(w.bias.len(), p.out_channels as usize, "conv bias")?;

    let mut out = Tensor::zeros(out_shape.channels, out_shape.height, out_shape.width);
    let plane = (out_shape.height * out_shape.width) as usize;
    let planes: Vec<Vec<i16>> = (0..p.out_channels)
        .into_par_iter()
        .map(|oc| {
            let mut data = vec![0i16; plane];
            let wbase = (oc * in_c * k * k) as usize;
            for oy in 0..out_shape.height {
                for ox in 0..out_shape.width {
                    let mut acc = i32::from(w.bias[oc as usize]) << crate::tensor::FRAC_BITS;
                    for ic in 0..in_c {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = i64::from(oy * p.stride + ky) - i64::from(p.padding);
                                let ix = i64::from(ox * p.stride + kx) - i64::from(p.padding);
                                let v = input.get_padded(ic, iy, ix);
                                let wv = w.kernel[wbase + ((ic * k + ky) * k + kx) as usize];
                                acc = acc.saturating_add(i32::from(v) * i32::from(wv));
                            }
                        }
                    }
                    data[(oy * out_shape.width + ox) as usize] = requantize_acc(acc);
                }
            }
            data
        })
        .collect();
    for (oc, data) in planes.into_iter().enumerate() {
        out.channel_mut(oc as u32).copy_from_slice(&data);
    }
    Ok(out)
}

/// Convolution by explicit im2col + matrix multiply — an independent
/// implementation used to cross-check [`conv2d`] (the accelerator's systolic
/// dataflow corresponds to the direct form; GEMM-based CPU references use
/// this one). Bit-identical results are a property test.
pub fn conv2d_im2col(input: &Tensor, p: &ConvParams, w: &LayerWeights) -> Result<Tensor, CnnError> {
    let out_shape = p.output_shape(input.shape())?;
    let k = p.kernel;
    let in_c = input.channels;
    expect_len(
        w.kernel.len(),
        (k * k * in_c * p.out_channels) as usize,
        "conv kernel",
    )?;
    expect_len(w.bias.len(), p.out_channels as usize, "conv bias")?;

    // Column matrix: one row per output position, one column per tap.
    let taps = (k * k * in_c) as usize;
    let positions = (out_shape.height * out_shape.width) as usize;
    let mut cols = vec![0i16; positions * taps];
    for oy in 0..out_shape.height {
        for ox in 0..out_shape.width {
            let row = (oy * out_shape.width + ox) as usize;
            let mut t = 0usize;
            for ic in 0..in_c {
                for ky in 0..k {
                    for kx in 0..k {
                        let iy = i64::from(oy * p.stride + ky) - i64::from(p.padding);
                        let ix = i64::from(ox * p.stride + kx) - i64::from(p.padding);
                        cols[row * taps + t] = input.get_padded(ic, iy, ix);
                        t += 1;
                    }
                }
            }
        }
    }

    // GEMM: [out_c x taps] * [taps x positions].
    let mut out = Tensor::zeros(out_shape.channels, out_shape.height, out_shape.width);
    let planes: Vec<Vec<i16>> = (0..p.out_channels as usize)
        .into_par_iter()
        .map(|oc| {
            let wrow = &w.kernel[oc * taps..(oc + 1) * taps];
            (0..positions)
                .map(|pos| {
                    let mut acc = i32::from(w.bias[oc]) << crate::tensor::FRAC_BITS;
                    for (v, wv) in cols[pos * taps..(pos + 1) * taps].iter().zip(wrow) {
                        acc = acc.saturating_add(i32::from(*v) * i32::from(*wv));
                    }
                    requantize_acc(acc)
                })
                .collect()
        })
        .collect();
    for (oc, data) in planes.into_iter().enumerate() {
        out.channel_mut(oc as u32).copy_from_slice(&data);
    }
    Ok(out)
}

/// Max pooling.
pub fn maxpool(input: &Tensor, p: &PoolParams) -> Result<Tensor, CnnError> {
    let out_shape = p.output_shape(input.shape())?;
    let mut out = Tensor::zeros(out_shape.channels, out_shape.height, out_shape.width);
    for c in 0..out_shape.channels {
        for oy in 0..out_shape.height {
            for ox in 0..out_shape.width {
                let mut best = i16::MIN;
                for wy in 0..p.window {
                    for wx in 0..p.window {
                        best = best.max(input.get(c, oy * p.stride + wy, ox * p.stride + wx));
                    }
                }
                out.set(c, oy, ox, best);
            }
        }
    }
    Ok(out)
}

/// Average pooling: window mean in Q8.8 (floor division — the hardware's
/// adder tree feeds a truncating constant divider).
pub fn avgpool(input: &Tensor, p: &PoolParams) -> Result<Tensor, CnnError> {
    let out_shape = p.output_shape(input.shape())?;
    let mut out = Tensor::zeros(out_shape.channels, out_shape.height, out_shape.width);
    let count = i32::from(p.window as u16) * i32::from(p.window as u16);
    for c in 0..out_shape.channels {
        for oy in 0..out_shape.height {
            for ox in 0..out_shape.width {
                let mut acc = 0i32;
                for wy in 0..p.window {
                    for wx in 0..p.window {
                        acc += i32::from(input.get(c, oy * p.stride + wy, ox * p.stride + wx));
                    }
                }
                out.set(c, oy, ox, acc.div_euclid(count) as i16);
            }
        }
    }
    Ok(out)
}

/// Pooling, dispatched on the reduction kind.
pub fn pool(input: &Tensor, p: &PoolParams) -> Result<Tensor, CnnError> {
    match p.kind {
        PoolKind::Max => maxpool(input, p),
        PoolKind::Average => avgpool(input, p),
    }
}

/// Element-wise two-input join in Q8.8: saturating add, or multiply with
/// requantization.
pub fn eltwise(op: EltwiseOp, a: &Tensor, b: &Tensor) -> Result<Tensor, CnnError> {
    if a.shape() != b.shape() {
        return Err(CnnError::ShapeMismatch(format!(
            "join operands disagree: {} vs {}",
            a.shape(),
            b.shape()
        )));
    }
    let data = a
        .raw()
        .iter()
        .zip(b.raw())
        .map(|(&x, &y)| match op {
            EltwiseOp::Add => x.saturating_add(y),
            EltwiseOp::Mul => requantize_acc(i32::from(x) * i32::from(y)),
        })
        .collect();
    Ok(Tensor::from_raw(a.channels, a.height, a.width, data))
}

/// Rectified linear unit.
pub fn relu(input: &Tensor) -> Tensor {
    let data = input.raw().iter().map(|&v| v.max(0)).collect();
    Tensor::from_raw(input.channels, input.height, input.width, data)
}

/// Fully connected layer over the flattened input.
pub fn fully_connected(input: &Tensor, p: &FcParams, w: &LayerWeights) -> Result<Tensor, CnnError> {
    let in_len = input.len();
    expect_len(
        w.kernel.len(),
        in_len * p.out_features as usize,
        "fc kernel",
    )?;
    expect_len(w.bias.len(), p.out_features as usize, "fc bias")?;
    let raw = input.raw();
    let data: Vec<i16> = (0..p.out_features as usize)
        .into_par_iter()
        .map(|o| {
            let row = &w.kernel[o * in_len..(o + 1) * in_len];
            let mut acc = i32::from(w.bias[o]) << crate::tensor::FRAC_BITS;
            for (v, wv) in raw.iter().zip(row) {
                acc = acc.saturating_add(i32::from(*v) * i32::from(*wv));
            }
            requantize_acc(acc)
        })
        .collect();
    Ok(Tensor::from_raw(p.out_features, 1, 1, data))
}

/// Run one layer.
pub fn apply_layer(
    layer: &Layer,
    input: &Tensor,
    weights: Option<&LayerWeights>,
) -> Result<Tensor, CnnError> {
    match layer {
        Layer::Input(shape) => {
            if input.shape() != *shape {
                return Err(CnnError::ShapeMismatch(format!(
                    "input tensor {} does not match declared input {}",
                    input.shape(),
                    shape
                )));
            }
            Ok(input.clone())
        }
        Layer::Conv(p) => conv2d(
            input,
            p,
            weights.ok_or_else(|| CnnError::BadGraph("conv missing weights".to_string()))?,
        ),
        Layer::Pool(p) => pool(input, p),
        Layer::Relu => Ok(relu(input)),
        Layer::Fc(p) => fully_connected(
            input,
            p,
            weights.ok_or_else(|| CnnError::BadGraph("fc missing weights".to_string()))?,
        ),
        // Joins take two operands; forward_trace feeds them via `eltwise`.
        Layer::Eltwise(_) => Err(CnnError::BadGraph(
            "join layer needs two operands (use forward_trace)".to_string(),
        )),
    }
}

/// Forward propagation through the whole network, returning the output of
/// every node in topological order (last entry = network output). Joins
/// receive both predecessor outputs; every other layer follows the
/// first-predecessor rule.
pub fn forward_trace(
    network: &Network,
    weights: &Weights,
    input: &Tensor,
) -> Result<Vec<(NodeId, Tensor)>, CnnError> {
    network.bfs()?; // reachability + unique-input validation
    let order = network.topo_order()?;
    let mut outputs: HashMap<NodeId, Tensor> = HashMap::with_capacity(order.len());
    let mut trace = Vec::with_capacity(order.len());
    for id in order {
        let node = network.node(id);
        let preds: Vec<NodeId> = network.predecessors(id).collect();
        let fetch = |p: &NodeId| -> Result<Tensor, CnnError> {
            outputs
                .get(p)
                .cloned()
                .ok_or_else(|| CnnError::BadGraph("predecessor not yet computed".to_string()))
        };
        let out = match (&node.layer, preds.as_slice()) {
            (Layer::Eltwise(op), [a, b]) => eltwise(*op, &fetch(a)?, &fetch(b)?)?,
            (Layer::Eltwise(_), _) => {
                return Err(CnnError::BadGraph(format!(
                    "join {} has {} predecessors, needs exactly 2",
                    node.name,
                    preds.len()
                )))
            }
            (_, []) => apply_layer(&node.layer, input, weights.get(id))?,
            (_, [p, ..]) => apply_layer(&node.layer, &fetch(p)?, weights.get(id))?,
        };
        outputs.insert(id, out.clone());
        trace.push((id, out));
    }
    Ok(trace)
}

/// Forward propagation returning only the network output.
pub fn forward(network: &Network, weights: &Weights, input: &Tensor) -> Result<Tensor, CnnError> {
    forward_trace(network, weights, input)?
        .pop()
        .map(|(_, t)| t)
        .ok_or_else(|| CnnError::BadGraph("empty network".to_string()))
}

fn expect_len(got: usize, want: usize, what: &str) -> Result<(), CnnError> {
    if got != want {
        return Err(CnnError::ShapeMismatch(format!(
            "{what}: expected {want} values, got {got}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Shape;
    use crate::models;
    use crate::tensor::quantize;

    #[test]
    fn identity_conv_passes_signal() {
        // 1x3x3 input, 1 output channel, 3x3 kernel = delta at center.
        let p = ConvParams {
            kernel: 3,
            stride: 1,
            padding: 1,
            out_channels: 1,
        };
        let mut kernel = vec![0i16; 9];
        kernel[4] = quantize(1.0);
        let w = LayerWeights {
            kernel,
            bias: vec![0],
        };
        let input = Tensor::from_f32(1, 3, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        let out = conv2d(&input, &p, &w).unwrap();
        assert_eq!(out.raw(), input.raw());
    }

    #[test]
    fn conv_matches_hand_computation() {
        // 1x2x2 input, 2x2 kernel of ones, valid -> single output = sum.
        let p = ConvParams {
            kernel: 2,
            stride: 1,
            padding: 0,
            out_channels: 1,
        };
        let w = LayerWeights {
            kernel: vec![quantize(1.0); 4],
            bias: vec![quantize(0.5)],
        };
        let input = Tensor::from_f32(1, 2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let out = conv2d(&input, &p, &w).unwrap();
        assert_eq!(out.get(0, 0, 0), quantize(10.5));
    }

    #[test]
    fn im2col_matches_direct_convolution() {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for (cin, cout, k, size, stride, pad) in [
            (1, 2, 3, 8, 1, 0),
            (3, 4, 3, 9, 1, 1),
            (2, 3, 5, 12, 2, 2),
            (4, 1, 1, 6, 1, 0),
        ] {
            let p = ConvParams {
                kernel: k,
                stride,
                padding: pad,
                out_channels: cout,
            };
            let data: Vec<i16> = (0..cin * size * size)
                .map(|_| rng.gen_range(-300..300))
                .collect();
            let input = Tensor::from_raw(cin, size, size, data);
            let w = LayerWeights {
                kernel: (0..(k * k * cin * cout) as usize)
                    .map(|_| rng.gen_range(-100..100))
                    .collect(),
                bias: (0..cout as usize).map(|_| rng.gen_range(-50..50)).collect(),
            };
            let direct = conv2d(&input, &p, &w).unwrap();
            let gemm = conv2d_im2col(&input, &p, &w).unwrap();
            assert_eq!(direct, gemm, "mismatch for k={k} cin={cin} stride={stride}");
        }
    }

    #[test]
    fn maxpool_and_relu() {
        let input = Tensor::from_raw(1, 2, 2, vec![-5, 9, 3, 1]);
        let p = PoolParams::max(2, 2);
        let pooled = maxpool(&input, &p).unwrap();
        assert_eq!(pooled.get(0, 0, 0), 9);
        let r = relu(&input);
        assert_eq!(r.raw(), &[0, 9, 3, 1]);
    }

    #[test]
    fn avgpool_and_eltwise() {
        let input = Tensor::from_raw(1, 2, 2, vec![-4, 8, 4, 0]);
        let p = PoolParams::average(2, 2);
        assert_eq!(avgpool(&input, &p).unwrap().get(0, 0, 0), 2);
        let a = Tensor::from_f32(1, 1, 2, &[1.0, -2.0]);
        let b = Tensor::from_f32(1, 1, 2, &[0.5, 3.0]);
        let sum = eltwise(EltwiseOp::Add, &a, &b).unwrap();
        assert_eq!(sum.raw(), &[quantize(1.5), quantize(1.0)]);
        let prod = eltwise(EltwiseOp::Mul, &a, &b).unwrap();
        assert_eq!(prod.raw(), &[quantize(0.5), quantize(-6.0)]);
        // Operand shape disagreement is an error, not a panic.
        let c = Tensor::zeros(1, 2, 2);
        assert!(eltwise(EltwiseOp::Add, &a, &c).is_err());
    }

    #[test]
    fn forward_through_resnet_joins_both_branches() {
        let net = models::resnet_small();
        let weights = Weights::random(&net, 11).unwrap();
        let input = Tensor::zeros(3, 32, 32);
        let trace = forward_trace(&net, &weights, &input).unwrap();
        assert_eq!(trace.len(), net.nodes().len());
        let out = &trace.last().unwrap().1;
        assert_eq!(out.shape(), Shape::new(10, 1, 1));
        // Determinism across runs.
        let again = forward(&net, &weights, &input).unwrap();
        assert_eq!(*out, again);
    }

    #[test]
    fn fc_computes_dot_products() {
        let input = Tensor::from_f32(1, 1, 2, &[1.0, 2.0]);
        let p = FcParams { out_features: 2 };
        let w = LayerWeights {
            kernel: vec![
                quantize(1.0),
                quantize(1.0), // row 0: sum
                quantize(1.0),
                quantize(-1.0), // row 1: difference
            ],
            bias: vec![0, 0],
        };
        let out = fully_connected(&input, &p, &w).unwrap();
        assert_eq!(out.get(0, 0, 0), quantize(3.0));
        assert_eq!(out.get(1, 0, 0), quantize(-1.0));
    }

    #[test]
    fn forward_through_lenet_is_deterministic() {
        let net = models::lenet5();
        let weights = Weights::random(&net, 7).unwrap();
        let input = Tensor::zeros(1, 32, 32);
        let a = forward(&net, &weights, &input).unwrap();
        let b = forward(&net, &weights, &input).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.shape(), Shape::new(10, 1, 1));
    }

    #[test]
    fn trace_has_one_entry_per_node() {
        let net = models::toy();
        let weights = Weights::random(&net, 3).unwrap();
        let input = Tensor::zeros(1, 8, 8);
        let trace = forward_trace(&net, &weights, &input).unwrap();
        assert_eq!(trace.len(), net.nodes().len());
    }

    #[test]
    fn wrong_input_shape_is_rejected() {
        let net = models::toy();
        let weights = Weights::random(&net, 3).unwrap();
        let input = Tensor::zeros(1, 4, 4);
        assert!(forward(&net, &weights, &input).is_err());
    }

    #[test]
    fn weight_counts_match_stats() {
        let net = models::lenet5();
        let weights = Weights::random(&net, 1).unwrap();
        let stats = net.stats().unwrap();
        assert_eq!(weights.parameter_count() as u64, stats.total_weights());
    }
}
