//! Reference network definitions: LeNet-5 and VGG-16 as evaluated in the
//! paper, plus small synthetic networks for tests and examples.

use crate::graph::Network;
use crate::layer::{ConvParams, EltwiseOp, FcParams, Layer, PoolParams, Shape};

fn conv(out_channels: u32, kernel: u32, padding: u32) -> Layer {
    Layer::Conv(ConvParams {
        kernel,
        stride: 1,
        padding,
        out_channels,
    })
}

fn pool2() -> Layer {
    Layer::Pool(PoolParams::max(2, 2))
}

fn fc(out_features: u32) -> Layer {
    Layer::Fc(FcParams { out_features })
}

/// LeNet-5 as the paper builds it: two convolutions (5×5, valid padding,
/// stride 1), max-pool + ReLU after each, and two fully-connected layers
/// implemented as convolutions with kernel = input size.
///
/// Note: the paper's Table I quotes 26 K conv weights / 1.9 M conv MACs for
/// LeNet, which is inconsistent with its own per-layer counts (156 + 2416
/// parameters, 117 600 + 240 000 multiplications). We implement the canonical
/// network — whose counts match the paper's per-layer numbers exactly — and
/// record the Table I discrepancy in EXPERIMENTS.md.
pub fn lenet5() -> Network {
    let mut n = Network::new("lenet5");
    n.push_layer("input", Layer::Input(Shape::new(1, 32, 32)));
    n.push_layer("conv1", conv(6, 5, 0));
    n.push_layer("pool1", pool2());
    n.push_layer("relu1", Layer::Relu);
    n.push_layer("conv2", conv(16, 5, 0));
    n.push_layer("pool2", pool2());
    n.push_layer("relu2", Layer::Relu);
    n.push_layer("fc1", fc(120));
    n.push_layer("fc2", fc(10));
    n
}

/// VGG-16: thirteen 3×3 stride-1 same-padding convolutions in five blocks
/// with max-pooling between blocks, followed by three fully-connected
/// layers. Conv weights ≈ 14.7 M and FC weights ≈ 124 M, matching the
/// paper's Table I.
pub fn vgg16() -> Network {
    let mut n = Network::new("vgg16");
    n.push_layer("input", Layer::Input(Shape::new(3, 224, 224)));
    let blocks: [(u32, u32); 5] = [(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)];
    for (b, (channels, convs)) in blocks.iter().enumerate() {
        for c in 0..*convs {
            n.push_layer(format!("conv{}_{}", b + 1, c + 1), conv(*channels, 3, 1));
            n.push_layer(format!("relu{}_{}", b + 1, c + 1), Layer::Relu);
        }
        n.push_layer(format!("pool{}", b + 1), pool2());
    }
    n.push_layer("fc1", fc(4096));
    n.push_layer("relu_fc1", Layer::Relu);
    n.push_layer("fc2", fc(4096));
    n.push_layer("relu_fc2", Layer::Relu);
    n.push_layer("fc3", fc(1000));
    n
}

/// AlexNet-style network: large strided first convolution (11×11, stride
/// 4), 3×3 overlapping pooling, and the classic 4096-wide classifier.
/// Exercises the stride>1 and large-kernel paths of every generator.
pub fn alexnet_like() -> Network {
    let mut n = Network::new("alexnet-like");
    n.push_layer("input", Layer::Input(Shape::new(3, 227, 227)));
    n.push_layer(
        "conv1",
        Layer::Conv(ConvParams {
            kernel: 11,
            stride: 4,
            padding: 0,
            out_channels: 96,
        }),
    );
    n.push_layer("relu1", Layer::Relu);
    n.push_layer("pool1", Layer::Pool(PoolParams::max(3, 2)));
    n.push_layer(
        "conv2",
        Layer::Conv(ConvParams {
            kernel: 5,
            stride: 1,
            padding: 2,
            out_channels: 256,
        }),
    );
    n.push_layer("relu2", Layer::Relu);
    n.push_layer("pool2", Layer::Pool(PoolParams::max(3, 2)));
    n.push_layer("conv3", conv(384, 3, 1));
    n.push_layer("relu3", Layer::Relu);
    n.push_layer("conv4", conv(384, 3, 1));
    n.push_layer("relu4", Layer::Relu);
    n.push_layer("conv5", conv(256, 3, 1));
    n.push_layer("relu5", Layer::Relu);
    n.push_layer("pool5", Layer::Pool(PoolParams::max(3, 2)));
    n.push_layer("fc1", fc(4096));
    n.push_layer("relu_fc1", Layer::Relu);
    n.push_layer("fc2", fc(4096));
    n.push_layer("relu_fc2", Layer::Relu);
    n.push_layer("fc3", fc(1000));
    n
}

/// CIFAR-10 "quick" network (the Caffe example the fpgaConvNet-style
/// prototxt descriptor in `models/cifar10_quick.prototxt` mirrors): three
/// 5×5 same-padded convolutions with 3×3 stride-2 pooling — max after
/// conv1, average after conv2/conv3 — and a 64-wide classifier head.
pub fn cifar10_quick() -> Network {
    let mut n = Network::new("cifar10-quick");
    n.push_layer("input", Layer::Input(Shape::new(3, 32, 32)));
    n.push_layer("conv1", conv(32, 5, 2));
    n.push_layer("pool1", Layer::Pool(PoolParams::max(3, 2)));
    n.push_layer("relu1", Layer::Relu);
    n.push_layer("conv2", conv(32, 5, 2));
    n.push_layer("relu2", Layer::Relu);
    n.push_layer("pool2", Layer::Pool(PoolParams::average(3, 2)));
    n.push_layer("conv3", conv(64, 5, 2));
    n.push_layer("relu3", Layer::Relu);
    n.push_layer("pool3", Layer::Pool(PoolParams::average(3, 2)));
    n.push_layer("fc1", fc(64));
    n.push_layer("fc2", fc(10));
    n
}

/// A small ResNet: stem convolution, two residual blocks with identity
/// skip connections (the branching topology that forces the flow off the
/// linear-chain assumption), average pooling and a 10-class head.
pub fn resnet_small() -> Network {
    let mut n = Network::new("resnet-small");
    n.push_layer("input", Layer::Input(Shape::new(3, 32, 32)));
    n.push_layer("conv1", conv(16, 3, 1));
    let mut tail = n.push_layer("relu1", Layer::Relu);
    for b in 1..=2u32 {
        let ca = n.add_node(format!("conv{b}a"), conv(16, 3, 1));
        n.add_edge(tail, ca);
        let ra = n.add_node(format!("relu{b}a"), Layer::Relu);
        n.add_edge(ca, ra);
        let cb = n.add_node(format!("conv{b}b"), conv(16, 3, 1));
        n.add_edge(ra, cb);
        // Main path first so shape propagation reads the conv output;
        // the identity skip joins as the second operand.
        let join = n.add_node(format!("add{b}"), Layer::Eltwise(EltwiseOp::Add));
        n.add_edge(cb, join);
        n.add_edge(tail, join);
        tail = n.add_node(format!("relu{b}b"), Layer::Relu);
        n.add_edge(join, tail);
    }
    let pool = n.add_node("pool1", Layer::Pool(PoolParams::average(2, 2)));
    n.add_edge(tail, pool);
    let head = n.add_node("fc1", fc(10));
    n.add_edge(pool, head);
    n
}

/// Minimal two-layer network for unit tests.
pub fn toy() -> Network {
    let mut n = Network::new("toy");
    n.push_layer("input", Layer::Input(Shape::new(1, 8, 8)));
    n.push_layer("conv1", conv(2, 3, 0));
    n.push_layer("pool1", pool2());
    n.push_layer("relu1", Layer::Relu);
    n.push_layer("fc1", fc(4));
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Granularity, NodeId};

    #[test]
    fn lenet_structure_matches_paper() {
        let n = lenet5();
        let s = n.stats().unwrap();
        assert_eq!(s.conv_layers, 2);
        assert_eq!(s.fc_layers, 2);
        // Canonical per-layer counts the paper quotes in the text.
        assert_eq!(s.conv_weights, 156 + 2416);
        assert_eq!(s.conv_macs, 117_600 + 240_000);
        // Components at layer granularity: conv1 / pool1+relu1 / conv2 /
        // pool2+relu2 / fc1 / fc2 — Table III's six components.
        let comps = n.components(Granularity::Layer).unwrap();
        assert_eq!(comps.len(), 6);
        assert_eq!(comps[1].name, "pool1+relu1");
    }

    #[test]
    fn lenet_output_is_ten_classes() {
        assert_eq!(lenet5().output_shape().unwrap(), Shape::new(10, 1, 1));
    }

    #[test]
    fn vgg16_matches_table1() {
        let n = vgg16();
        let s = n.stats().unwrap();
        assert_eq!(s.conv_layers, 13);
        assert_eq!(s.fc_layers, 3);
        // Paper Table I: 14.7M conv weights, 15.3G conv MACs, 124M FC
        // weights / MACs, 138M total weights, 15.5G total MACs.
        assert!((14_000_000..15_500_000).contains(&s.conv_weights));
        assert!((15_000_000_000..15_700_000_000).contains(&s.conv_macs));
        assert!((123_000_000..125_000_000).contains(&s.fc_weights));
        assert!((123_000_000..125_000_000).contains(&s.fc_macs));
        assert!((137_000_000..140_000_000).contains(&s.total_weights()));
    }

    #[test]
    fn vgg16_block_granularity_gives_twelve_components() {
        // 5 conv blocks + 4 standalone pools (pool5 fuses nowhere; it is its
        // own component) + 3 FCs... the paper labels 12 components for VGG.
        let comps = vgg16().components(Granularity::Block).unwrap();
        assert_eq!(comps.len(), 13); // 5 conv blocks + 5 pools + 3 fc
    }

    #[test]
    fn alexnet_matches_published_counts() {
        let n = alexnet_like();
        let s = n.stats().unwrap();
        assert_eq!(s.conv_layers, 5);
        assert_eq!(s.fc_layers, 3);
        // conv1: 227x227 s4 valid -> 55x55.
        let shapes = n.input_shapes().unwrap();
        assert_eq!(shapes[2], crate::layer::Shape::new(96, 55, 55));
        // AlexNet: ~61M parameters, ~0.7G conv MACs.
        assert!(
            (58_000_000..64_000_000).contains(&s.total_weights()),
            "{}",
            s.total_weights()
        );
        assert!(
            (600_000_000..1_200_000_000).contains(&s.conv_macs),
            "{}",
            s.conv_macs
        );
        // 3x3-stride-2 pooling produces the classic 6x6x256 feature map.
        assert_eq!(n.components(Granularity::Layer).unwrap().len(), 11);
    }

    #[test]
    fn toy_model_is_valid() {
        assert!(toy().validate().is_ok());
        assert_eq!(toy().output_shape().unwrap(), Shape::new(4, 1, 1));
    }

    #[test]
    fn cifar10_quick_shapes_match_caffe() {
        let n = cifar10_quick();
        let shapes = n.input_shapes().unwrap();
        // conv1 same-padded, pools are 3x3 stride 2: 32 -> 15 -> 7 -> 3.
        assert_eq!(shapes[2], Shape::new(32, 32, 32));
        assert_eq!(shapes[4], Shape::new(32, 15, 15));
        assert_eq!(shapes[7], Shape::new(32, 7, 7));
        assert_eq!(shapes[10], Shape::new(64, 3, 3));
        assert_eq!(n.output_shape().unwrap(), Shape::new(10, 1, 1));
    }

    #[test]
    fn resnet_small_branches_and_rejoins() {
        let n = resnet_small();
        assert!(n.validate().is_ok());
        assert_eq!(n.output_shape().unwrap(), Shape::new(10, 1, 1));
        // Each residual block keeps 16x32x32 through the join.
        let shapes = n.input_shapes().unwrap();
        let join = n
            .nodes()
            .iter()
            .position(|node| node.name == "add1")
            .unwrap();
        assert_eq!(shapes[join], Shape::new(16, 32, 32));
        // The skip source fans out to two consumers.
        let relu1 = NodeId(2);
        assert_eq!(n.successors(relu1).count(), 2);
        // Components: conv1+relu1 / (conva+relua / convb / add+relub) x2 /
        // pool / fc — joins and fanout points never fuse across branches.
        let comps = n.components(Granularity::Layer).unwrap();
        assert_eq!(comps.len(), 9);
        assert_eq!(comps[0].name, "conv1+relu1");
        assert_eq!(comps[3].name, "add1+relu1b");
        assert!(comps[3].signature(&n).starts_with("add+relu"));
    }
}
