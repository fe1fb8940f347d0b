//! Cross-model consistency: the synthesized hardware and the latency model
//! must agree with each other — the checks that keep the cycle model honest.

use preimpl_cnn::cnn::graph::Granularity;
use preimpl_cnn::cnn::{cycles, models};
use preimpl_cnn::fabric::Device;
use preimpl_cnn::netlist::{CellKind, Endpoint, Module, ModuleDefectKind, CELL_FANOUT_BUDGET};
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

/// Calls `check` on every module the synthesizer emits for the zoo: each
/// component and the flat netlist at both granularities, VGG-16's CLEs at
/// Q = 1, 2 and 4, and every kernel, with a name for its failure message.
fn for_each_synthesized_module(mut check: impl FnMut(&Module, &str)) {
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
                check(&module, &format!("{} {gran:?} {}", network.name, comp.name));
            }
            let flat = synth_network_flat(&network, gran, &opts.monolithic()).expect("synthesizes");
            check(&flat, &format!("{} {gran:?} flat", network.name));
        }
    }
    let vgg16 = models::vgg16();
    for q in [1, 2, 4] {
        let partition = partition_conv_layers(&vgg16, q).expect("partitions");
        for (g, group) in partition.groups.iter().enumerate() {
            let module = synth_cle(&vgg16, group, &vgg).expect("synthesizes");
            check(&module, &format!("CLE Q = {q}, group {g}"));
        }
    }
    for kind in KernelKind::ALL {
        let module = synth_kernel(kind, 3, 3).expect("synthesizes");
        check(&module, kind.abbrev());
    }
}

/// Panic naming `what` when the module judge finds a `kind` defect in
/// `module`.
fn assert_no_defect_of(kind: ModuleDefectKind, module: &Module, what: &str) {
    let defects: Vec<_> = module
        .defects()
        .into_iter()
        .filter(|d| d.kind == kind)
        .collect();
    assert!(defects.is_empty(), "{what}: {defects:?}");
}

#[test]
fn no_synthesized_cell_takes_more_nets_than_its_luts_have_inputs() {
    // The judge's fan-in budget is the synthesizer's rule: AlexNet's 11x11
    // conv1 used to wire 212 adder-tree chains into one output slice, the
    // monolithic overhead tied 326 chains into VGG-16's last sink, and a
    // 40-lane CLE wired 80 weight buffers into its control slice.
    // The judge budgets slices only; a hard block is held to a full
    // slice's inputs.
    let hard_block_fanin = CellKind::full_slice().fanin_budget().unwrap();
    for_each_synthesized_module(|module, what| {
        assert_no_defect_of(ModuleDefectKind::FanIn, module, what);
        let mut fanin = vec![0usize; module.cells().len()];
        for sink in module.nets().iter().flat_map(|net| &net.sinks) {
            if let Endpoint::Cell(c) = sink {
                fanin[c.index()] += 1;
            }
        }
        for (cell, n) in module.cells().iter().zip(fanin) {
            let hard = cell.kind.fanin_budget().is_none();
            assert!(
                !hard || n <= hard_block_fanin,
                "{what}: cell {} takes {n} nets",
                cell.name
            );
        }
    });
}

#[test]
fn no_synthesized_cell_drives_more_nets_than_its_tile_can_route_out() {
    // Flat VGG-16's first source controller used to drive one net per
    // monolithic overhead chain, 323 in all, more than its four
    // neighbours' 256 wires can route out.
    for part in ["xcku5p-like", "xcku060-like", "test-part"] {
        let capacity = Device::catalog(part).unwrap().route_capacity();
        assert!(CELL_FANOUT_BUDGET < 4 * usize::from(capacity), "{part}");
    }
    for_each_synthesized_module(|module, what| {
        assert_no_defect_of(ModuleDefectKind::FanOut, module, what)
    });
}
