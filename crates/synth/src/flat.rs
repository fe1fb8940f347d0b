//! Monolithic network synthesis: the whole CNN as one flat module — the
//! input of the traditional baseline flow.

use crate::conv::emit_conv_engine;
use crate::emit::FanIn;
use crate::fc::emit_fc_engine;
use crate::memctrl::{emit_memctrl, CtrlSide};
use crate::pool::{emit_pool_engine, emit_relu_stage};
use crate::{cost, SynthError, SynthMode, SynthOptions};
use pi_cnn::graph::{Granularity, Network};
use pi_cnn::layer::Layer;
use pi_netlist::{
    Cell, CellKind, Endpoint, Module, ModuleBuilder, Net, StreamRole, CELL_FANOUT_BUDGET,
};

/// Synthesize the whole network into one flat module.
///
/// In [`SynthMode::Monolithic`] the module additionally gets I/O buffers
/// (this is a top-level design, not OOC) and the documented global overhead:
/// replicated control and fanout-buffer slices plus conservatively inferred
/// BRAMs, sized as a percentage of the base design (see [`cost`]).
pub fn synth_network_flat(
    network: &Network,
    granularity: Granularity,
    opts: &SynthOptions,
) -> Result<Module, SynthError> {
    let comps = network.components(granularity)?;
    let shapes = network.input_shapes()?;
    let mut b = ModuleBuilder::new(format!("{}_flat", network.name));
    let clk = b.input("clk", StreamRole::Clock, 1);
    let din = b.input("din", StreamRole::Source, opts.data_width);
    let en = b.input("en", StreamRole::Control, 1);
    let dout = b.output("dout", StreamRole::Sink, opts.data_width);

    // Top-level designs get I/O buffers; OOC does not (the paper's OOC
    // motivation).
    let mut cursor: Endpoint = Endpoint::Port(din);
    let obuf = if opts.mode == SynthMode::Monolithic {
        let ibuf = b.cell(Cell::new("ibuf", CellKind::IoBuf));
        b.connect("ibuf_net", cursor, [Endpoint::Cell(ibuf)]);
        cursor = Endpoint::Cell(ibuf);
        Some(b.cell(Cell::new("obuf", CellKind::IoBuf)))
    } else {
        None
    };

    // Emit every component back to back, each with its interface
    // controllers, exactly as the streamed architecture schedules them.
    let mut first_ctrl: Option<Endpoint> = None;
    for (ci, comp) in comps.iter().enumerate() {
        let src = emit_memctrl(&mut b, &format!("c{ci}_src"), CtrlSide::Source, cursor);
        if ci == 0 {
            b.net(Net::new("en_net", Endpoint::Port(en), vec![src]));
            // Clock: lands on the first controller (HD.CLK_SRC analog for
            // the monolithic top, a real clock root either way).
            b.net(Net::new("clk_net", Endpoint::Port(clk), vec![src]).clock());
            first_ctrl = Some(src);
        }
        cursor = src;
        for (li, node_id) in comp.nodes.iter().enumerate() {
            let node = network.node(*node_id);
            let input_shape = shapes[node_id.index()];
            let prefix = format!("c{ci}_e{li}_{}", node.layer.kind_tag());
            cursor = match &node.layer {
                Layer::Conv(p) => emit_conv_engine(&mut b, &prefix, p, input_shape, opts, cursor),
                Layer::Pool(p) => emit_pool_engine(&mut b, &prefix, p, input_shape, opts, cursor),
                Layer::Relu => emit_relu_stage(&mut b, &prefix, input_shape, cursor),
                Layer::Fc(p) => emit_fc_engine(&mut b, &prefix, p, input_shape, opts, cursor),
                Layer::Input(_) => cursor,
                // The flat baseline threads components linearly; a join's
                // second operand arrives over the same stream (the monolithic
                // flow models resources and timing, not function).
                Layer::Eltwise(_) => {
                    crate::eltwise::emit_eltwise_stage(&mut b, &prefix, input_shape, cursor, cursor)
                }
            };
        }
        cursor = emit_memctrl(&mut b, &format!("c{ci}_snk"), CtrlSide::Sink, cursor);
    }

    // Monolithic overhead, sized from the base design.
    if opts.mode == SynthMode::Monolithic {
        let first_cell_after_input = first_ctrl.expect("networks have at least one component");
        let base = b.resources_so_far();
        let extra_lut_slices =
            (base.luts * cost::MONOLITHIC_LUT_OVERHEAD_PCT / 100).div_ceil(8) as usize;
        let extra_ff_slices =
            (base.ffs * cost::MONOLITHIC_FF_OVERHEAD_PCT / 100).div_ceil(16) as usize;
        let extra_brams = (base.brams * cost::MONOLITHIC_BRAM_OVERHEAD_PCT / 100) as usize;

        // Every overhead chain's tail ties into the output path so the
        // cells are live.
        let chains = [extra_lut_slices, extra_ff_slices, extra_brams]
            .iter()
            .map(|n| n.div_ceil(16))
            .sum();
        let mut tails = FanIn::new(&b, cursor, chains);
        // Each chain's head is its own net from the first controller,
        // unless that would have the controller drive more nets than its
        // tile can route out: then one net feeds every head.
        let shared_head = b.fanout(first_cell_after_input) + chains > CELL_FANOUT_BUDGET;
        let head_input = (!shared_head).then_some(first_cell_after_input);
        let mut heads = Vec::new();
        let mut add_overhead = |b: &mut ModuleBuilder, tag: &str, n: usize, kind: CellKind| {
            let mut remaining = n;
            let mut g = 0usize;
            while remaining > 0 {
                let len = remaining.min(16);
                let chain = crate::emit::emit_chain(
                    b,
                    &format!("ovh_{tag}{g}"),
                    len,
                    |i| Cell::new(format!("ovh_{tag}{g}_{i}"), kind),
                    head_input,
                );
                heads.push(Endpoint::Cell(chain[0]));
                let tail = Endpoint::Cell(*chain.last().expect("len >= 1"));
                tails.feed(b, format!("ovh_{tag}{g}_out"), tail);
                remaining -= len;
                g += 1;
            }
        };
        // Fanout-buffer logic (LUT-heavy) and pipeline registers (FF-heavy).
        add_overhead(
            &mut b,
            "lut",
            extra_lut_slices,
            CellKind::Slice { luts: 8, ffs: 4 },
        );
        add_overhead(
            &mut b,
            "ff",
            extra_ff_slices,
            CellKind::Slice { luts: 1, ffs: 16 },
        );
        add_overhead(&mut b, "bram", extra_brams, CellKind::Bram);
        if shared_head {
            b.connect("ovh_in", first_cell_after_input, heads);
        }
        tails.finish(&mut b, "ovh_tail");
    }

    // Output buffer (monolithic) or direct port connection (OOC).
    match obuf {
        Some(ob) => {
            b.connect("obuf_in", cursor, [Endpoint::Cell(ob)]);
            b.connect("dout_net", Endpoint::Cell(ob), [Endpoint::Port(dout)]);
        }
        None => {
            b.connect("dout_net", cursor, [Endpoint::Port(dout)]);
        }
    }

    Ok(b.finish()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth_component;
    use pi_cnn::models;
    use pi_fabric::ResourceCount;

    #[test]
    fn monolithic_lenet_exceeds_ooc_component_sum() {
        let net = models::lenet5();
        let ooc = SynthOptions::lenet_like();
        let mono = SynthOptions::lenet_like().monolithic();
        let flat = synth_network_flat(&net, Granularity::Layer, &mono).unwrap();
        let comps = net.components(Granularity::Layer).unwrap();
        let sum: ResourceCount = comps
            .iter()
            .map(|c| synth_component(&net, c, &ooc).unwrap().resources())
            .sum();
        let fr = flat.resources();
        // The monolithic design pays the documented overhead: Table II's
        // "classic implementation uses more resources" observation.
        assert!(fr.luts > sum.luts, "mono {} <= ooc {}", fr.luts, sum.luts);
        assert!(fr.ffs > sum.ffs);
        assert!(fr.brams >= sum.brams);
        // And it has I/O buffers, which OOC must not have.
        assert_eq!(fr.ios, 2);
        assert_eq!(sum.ios, 0);
        // Overhead stays single-digit-percent scale, not a blowup.
        assert!(fr.luts < sum.luts * 13 / 10);
    }

    #[test]
    fn ooc_flat_has_no_iobufs() {
        let net = models::toy();
        let flat =
            synth_network_flat(&net, Granularity::Layer, &SynthOptions::lenet_like()).unwrap();
        assert_eq!(flat.resources().ios, 0);
    }

    #[test]
    fn flat_module_is_structurally_valid() {
        let net = models::lenet5();
        let flat = synth_network_flat(
            &net,
            Granularity::Layer,
            &SynthOptions::lenet_like().monolithic(),
        )
        .unwrap();
        assert!(flat.validate().is_ok());
        assert!(flat.cells().len() > 1000);
    }
}
