//! Cross-model consistency: the synthesized hardware and the latency model
//! must agree with each other — the checks that keep the cycle model honest.

use preimpl_cnn::cnn::graph::Granularity;
use preimpl_cnn::cnn::{cycles, models};
use preimpl_cnn::fabric::Device;
use preimpl_cnn::netlist::{Endpoint, Module};
use preimpl_cnn::synth::cle::{partition_conv_layers, synth_cle};
use preimpl_cnn::synth::{
    synth_component, synth_kernel, synth_network_flat, KernelKind, SynthOptions,
};

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

/// Incoming nets a slice can take: 8 six-input LUTs.
const SLICE_FANIN: usize = 8 * 6;

/// Panic naming `what` when a cell of `module` takes more nets than
/// [`SLICE_FANIN`].
fn assert_fanin_within_budget(module: &Module, what: &str) {
    let mut fanin = vec![0usize; module.cells().len()];
    for net in module.nets() {
        for sink in &net.sinks {
            if let Endpoint::Cell(c) = sink {
                fanin[c.index()] += 1;
            }
        }
    }
    let (widest, &n) = fanin.iter().enumerate().max_by_key(|(_, &n)| n).unwrap();
    assert!(
        n <= SLICE_FANIN,
        "{what}: cell {} takes {n} nets",
        module.cells()[widest].name
    );
}

#[test]
fn no_synthesized_cell_takes_more_nets_than_its_luts_have_inputs() {
    // AlexNet's 11x11 conv1 used to wire 212 adder-tree chains into one
    // output slice, the monolithic overhead tied 326 chains into VGG-16's
    // last sink, and a 40-lane CLE wired 80 weight buffers into its
    // control slice; every generator now stays within the budget.
    let vgg = SynthOptions::vgg_like();
    for (network, opts) in [
        (models::lenet5(), SynthOptions::lenet_like()),
        (models::vgg16(), vgg),
        (models::alexnet_like(), vgg),
        (models::cifar10_quick(), vgg),
        (models::resnet_small(), vgg),
    ] {
        for gran in [Granularity::Layer, Granularity::Block] {
            for comp in &network.components(gran).expect("components") {
                let module = synth_component(&network, comp, &opts).expect("synthesizes");
                let what = format!("{} {gran:?} {}", network.name, comp.name);
                assert_fanin_within_budget(&module, &what);
            }
            let flat = synth_network_flat(&network, gran, &opts.monolithic()).expect("synthesizes");
            assert_fanin_within_budget(&flat, &format!("{} {gran:?} flat", network.name));
        }
    }
    let vgg16 = models::vgg16();
    for q in [1, 2, 4] {
        let partition = partition_conv_layers(&vgg16, q).expect("partitions");
        for (g, group) in partition.groups.iter().enumerate() {
            let module = synth_cle(&vgg16, group, &vgg).expect("synthesizes");
            assert_fanin_within_budget(&module, &format!("CLE Q = {q}, group {g}"));
        }
    }
    for kind in KernelKind::ALL {
        let module = synth_kernel(kind, 3, 3).expect("synthesizes");
        assert_fanin_within_budget(&module, kind.abbrev());
    }
}

/// Distinct nets one cell may drive. A cell has its tile to itself, so its
/// routes leave through the four neighbouring tiles: 4 × 64 = 256 wires on
/// every catalog part, the hard ceiling. The bound leaves 32 of them to
/// routes passing through; the widest cell it admits is AlexNet conv1's
/// `mac120` DSP, at 213 nets.
const CELL_FANOUT: usize = 224;

/// Panic naming `what` when a cell of `module` drives more nets than
/// [`CELL_FANOUT`].
fn assert_fanout_within_budget(module: &Module, what: &str) {
    let mut fanout = vec![0usize; module.cells().len()];
    for net in module.nets() {
        if let Endpoint::Cell(c) = net.source {
            fanout[c.index()] += 1;
        }
    }
    let (widest, &n) = fanout.iter().enumerate().max_by_key(|(_, &n)| n).unwrap();
    assert!(
        n <= CELL_FANOUT,
        "{what}: cell {} drives {n} nets",
        module.cells()[widest].name
    );
}

#[test]
fn no_synthesized_cell_drives_more_nets_than_its_tile_can_route_out() {
    // Flat VGG-16's first source controller used to drive one net per
    // monolithic overhead chain, 323 in all, which no router can fit
    // through its four neighbours' 256 wires.
    for part in ["xcku5p-like", "xcku060-like", "test-part"] {
        let capacity = Device::catalog(part).unwrap().route_capacity();
        assert!(CELL_FANOUT < 4 * usize::from(capacity), "{part}");
    }
    let vgg = SynthOptions::vgg_like();
    for (network, opts) in [
        (models::lenet5(), SynthOptions::lenet_like()),
        (models::vgg16(), vgg),
        (models::alexnet_like(), vgg),
        (models::cifar10_quick(), vgg),
        (models::resnet_small(), vgg),
    ] {
        for gran in [Granularity::Layer, Granularity::Block] {
            for comp in &network.components(gran).expect("components") {
                let module = synth_component(&network, comp, &opts).expect("synthesizes");
                let what = format!("{} {gran:?} {}", network.name, comp.name);
                assert_fanout_within_budget(&module, &what);
            }
            let flat = synth_network_flat(&network, gran, &opts.monolithic()).expect("synthesizes");
            assert_fanout_within_budget(&flat, &format!("{} {gran:?} flat", network.name));
        }
    }
}
