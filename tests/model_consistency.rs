//! Cross-model consistency: the synthesized hardware and the latency model
//! must agree with each other — the checks that keep the cycle model honest.

use preimpl_cnn::cnn::graph::Granularity;
use preimpl_cnn::cnn::{cycles, models};
use preimpl_cnn::synth::{synth_component, SynthOptions};

#[test]
fn synthesized_dsps_match_the_analytic_estimate() {
    // The rate model's `dsps` is what the latency report divides MACs by
    // and what PL0307 holds checkpoints to; the netlist generators must
    // instantiate exactly that many — on every zoo network, joins (two
    // source controllers) included.
    let vgg = SynthOptions::vgg_like();
    for (network, opts) in [
        (models::lenet5(), SynthOptions::lenet_like()),
        (models::vgg16(), vgg),
        (models::alexnet_like(), vgg),
        (models::cifar10_quick(), vgg),
        (models::resnet_small(), vgg),
    ] {
        for gran in [Granularity::Layer, Granularity::Block] {
            let comps = network.components(gran).expect("components");
            let rates = cycles::component_rates(&network, &comps).expect("rates");
            for (comp, rate) in comps.iter().zip(&rates) {
                let module = synth_component(&network, comp, &opts).expect("synthesizes");
                assert_eq!(
                    module.resources().dsps,
                    rate.dsps,
                    "{} {gran:?} {}: netlist and model disagree",
                    network.name,
                    comp.name
                );
            }
        }
    }
}

#[test]
fn rom_capacity_covers_the_weights_it_stores() {
    // LeNet hard-codes weights in ROM; every parameterized component's BRAM
    // count must cover its weight storage at 16 bits/weight.
    let network = models::lenet5();
    let shapes = network.input_shapes().expect("shapes");
    for comp in network.components(Granularity::Layer).expect("components") {
        let module =
            synth_component(&network, &comp, &SynthOptions::lenet_like()).expect("synthesizes");
        let weights: u64 = comp
            .nodes
            .iter()
            .map(|id| network.node(*id).layer.weights(shapes[id.index()]))
            .sum();
        let needed = (weights * 16).div_ceil(36 * 1024);
        assert!(
            module.resources().brams >= needed,
            "{}: {} BRAMs cannot hold {} weights",
            comp.name,
            module.resources().brams,
            weights
        );
    }
}

#[test]
fn frame_cycles_are_bounded_below_by_ideal_macs_per_dsp() {
    let network = models::vgg16();
    let comps = network.components(Granularity::Block).expect("components");
    let rates = cycles::component_rates(&network, &comps).expect("rates");
    for (comp, rate) in comps.iter().zip(&rates) {
        if rate.macs == 0 {
            continue;
        }
        assert!(
            rate.frame_cycles >= rate.macs / rate.dsps,
            "{}: {} cycles below the ideal {}",
            comp.name,
            rate.frame_cycles,
            rate.macs / rate.dsps
        );
    }
}

#[test]
fn pipeline_depth_orders_components_like_the_paper() {
    // Table III ordering: conv2 deeper than conv1, pools shallow, FCs in
    // between.
    let network = models::lenet5();
    let comps = network.components(Granularity::Layer).expect("components");
    let depth = |i: usize| cycles::component_pipeline_depth(&network, &comps[i]).expect("depth");
    let (conv1, pool1, conv2, fc1) = (depth(0), depth(1), depth(2), depth(4));
    assert!(conv2 > conv1, "conv2 {conv2} <= conv1 {conv1}");
    assert!(pool1 < conv1);
    assert!(fc1 < conv1);
}
