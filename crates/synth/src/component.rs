//! Component synthesis: one fused component → one OOC module with the
//! paper's standard interface (clock, source, sink, control).

use crate::conv::emit_conv_engine;
use crate::eltwise::emit_eltwise_stage;
use crate::fc::emit_fc_engine;
use crate::memctrl::{emit_memctrl, CtrlSide};
use crate::pool::{emit_pool_engine, emit_relu_stage};
use crate::{SynthError, SynthOptions};
use pi_cnn::graph::{Component, Network};
use pi_cnn::layer::Layer;
use pi_netlist::{Endpoint, Module, ModuleBuilder, Net, StreamRole};

/// Synthesize one component of a network into an OOC module.
///
/// Interface contract (paper §IV-B3): every component exposes
/// * `clk` — clock input,
/// * `din` — the *source* stream (fed by the upstream memory controller),
/// * `en`  — control input,
/// * `dout` — the *sink* stream.
///
/// Join components (leading layer is an element-wise add/mul) additionally
/// expose `din2`, the second operand stream, with its own source
/// controller — the stitcher routes the skip connection there.
///
/// Internally: source memory controller → the fused layer engines in
/// schedule order → sink controller.
pub fn synth_component(
    network: &Network,
    component: &Component,
    opts: &SynthOptions,
) -> Result<Module, SynthError> {
    let shapes = network.input_shapes()?;
    let mut b = ModuleBuilder::new(component.name.clone());
    let clk = b.input("clk", StreamRole::Clock, 1);
    let din = b.input("din", StreamRole::Source, opts.data_width);
    let en = b.input("en", StreamRole::Control, 1);
    let dout = b.output("dout", StreamRole::Sink, opts.data_width);
    // Joins never fuse into a producer, so an Eltwise node is always the
    // component's leading node.
    let is_join = component
        .nodes
        .first()
        .is_some_and(|id| network.node(*id).layer.is_join());
    let din2 = is_join.then(|| b.input("din2", StreamRole::Source, opts.data_width));

    // Source interface.
    let mut cursor = emit_memctrl(&mut b, "src", CtrlSide::Source, Endpoint::Port(din));
    let Endpoint::Cell(src_out_cell) = cursor else {
        unreachable!("memctrl returns a cell endpoint")
    };
    // Control enable terminates in the source controller.
    b.net(Net::new("en_net", Endpoint::Port(en), vec![cursor]));
    // Clock: partially routed to the first cell (HD.CLK_SRC analog).
    b.net(
        Net::new(
            "clk_net",
            Endpoint::Port(clk),
            vec![Endpoint::Cell(src_out_cell)],
        )
        .clock(),
    );

    // Layer engines in schedule order.
    for (idx, node_id) in component.nodes.iter().enumerate() {
        let node = network.node(*node_id);
        let input_shape = shapes[node_id.index()];
        let prefix = format!("e{idx}_{}", node.layer.kind_tag());
        cursor = match &node.layer {
            Layer::Conv(p) => emit_conv_engine(&mut b, &prefix, p, input_shape, opts, cursor),
            Layer::Pool(p) => emit_pool_engine(&mut b, &prefix, p, input_shape, opts, cursor),
            Layer::Relu => emit_relu_stage(&mut b, &prefix, input_shape, cursor),
            Layer::Fc(p) => emit_fc_engine(&mut b, &prefix, p, input_shape, opts, cursor),
            Layer::Input(_) => cursor,
            Layer::Eltwise(_) => {
                let din2 = din2.expect("join component declares din2");
                let src2 = emit_memctrl(
                    &mut b,
                    &format!("{prefix}_src2"),
                    CtrlSide::Source,
                    Endpoint::Port(din2),
                );
                emit_eltwise_stage(&mut b, &prefix, input_shape, cursor, src2)
            }
        };
    }

    // Sink interface.
    let snk = emit_memctrl(&mut b, "snk", CtrlSide::Sink, cursor);
    b.connect("dout_net", snk, [Endpoint::Port(dout)]);

    Ok(b.finish()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_cnn::graph::Granularity;
    use pi_cnn::models;

    #[test]
    fn lenet_components_synthesize() {
        let net = models::lenet5();
        let opts = SynthOptions::lenet_like();
        let comps = net.components(Granularity::Layer).unwrap();
        assert_eq!(comps.len(), 6);
        let modules: Vec<Module> = comps
            .iter()
            .map(|c| synth_component(&net, c, &opts).unwrap())
            .collect();
        // conv components hold DSP arrays; pool components only the
        // controller's address DSPs.
        assert!(modules[0].resources().dsps >= 25);
        assert!(modules[1].resources().dsps <= 4);
        // Every component implements the interface contract.
        for m in &modules {
            assert!(m.port_by_name("clk").is_some());
            assert!(m.port_by_name("din").is_some());
            assert!(m.port_by_name("dout").is_some());
            assert!(m.port_by_name("en").is_some());
            assert!(m.validate().is_ok());
        }
    }

    #[test]
    fn fused_component_contains_both_engines() {
        let net = models::lenet5();
        let opts = SynthOptions::lenet_like();
        let comps = net.components(Granularity::Layer).unwrap();
        // pool1+relu1
        let m = synth_component(&net, &comps[1], &opts).unwrap();
        assert!(m.cells().iter().any(|c| c.name.starts_with("e0_pool")));
        assert!(m.cells().iter().any(|c| c.name.starts_with("e1_relu")));
    }

    #[test]
    fn lenet_totals_are_in_calibration_band() {
        let net = models::lenet5();
        let opts = SynthOptions::lenet_like();
        let comps = net.components(Granularity::Layer).unwrap();
        let total: pi_fabric::ResourceCount = comps
            .iter()
            .map(|c| synth_component(&net, c, &opts).unwrap().resources())
            .sum();
        // Same order of magnitude as the paper's LeNet row of Table II.
        assert!((8_000..60_000).contains(&total.luts), "LUTs {}", total.luts);
        assert!((40..250).contains(&total.dsps), "DSPs {}", total.dsps);
        assert!((20..500).contains(&total.brams), "BRAMs {}", total.brams);
    }

    #[test]
    fn vgg_totals_match_table2_band() {
        let net = models::vgg16();
        let opts = SynthOptions::vgg_like();
        let comps = net.components(Granularity::Block).unwrap();
        let total: pi_fabric::ResourceCount = comps
            .iter()
            .map(|c| synth_component(&net, c, &opts).unwrap().resources())
            .sum();
        // Paper: ~261-283 k LUTs, ~2100 DSPs, 786-854 BRAM.
        assert!(
            (200_000..340_000).contains(&total.luts),
            "LUTs {}",
            total.luts
        );
        assert!((1_600..2_700).contains(&total.dsps), "DSPs {}", total.dsps);
        assert!((400..1_100).contains(&total.brams), "BRAMs {}", total.brams);
    }
}
