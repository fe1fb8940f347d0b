//! Convolution engine generator (paper Fig. 4a/4b).

use crate::cost;
use crate::emit::{emit_chain, emit_fanout, emit_mac_lane, emit_merge, LaneSpec};
use crate::SynthOptions;
use pi_cnn::cycles;
use pi_cnn::layer::{ConvParams, Shape};
use pi_netlist::{Cell, CellKind, Endpoint, ModuleBuilder};

/// Emit a convolution engine fed by `input`, returning its output endpoint.
///
/// Structure: line-buffer BRAMs → control → per-output-channel-group MAC
/// lanes (window shift register, systolic DSP cascade, adder tree) → merge.
/// Weights come from on-chip ROM (`weights_on_chip`) or per-lane stream
/// buffers.
pub fn emit_conv_engine(
    b: &mut ModuleBuilder,
    prefix: &str,
    p: &ConvParams,
    input_shape: Shape,
    opts: &SynthOptions,
    input: Endpoint,
) -> Endpoint {
    let w = u64::from(opts.data_width);
    let taps = u64::from(p.kernel) * u64::from(p.kernel);
    let macs = p.macs(input_shape).unwrap_or(taps);
    let lanes = cycles::conv_lanes(macs, taps);

    // Line buffers: (k-1) image rows of all input channels.
    let lb_bits = u64::from(p.kernel.saturating_sub(1))
        * u64::from(input_shape.width)
        * u64::from(input_shape.channels)
        * w;
    let n_lb = cost::brams_for_bits(lb_bits).max(1) as usize;
    let lb = emit_chain(
        b,
        &format!("{prefix}_lb"),
        n_lb,
        |i| Cell::new(format!("{prefix}_lb{i}"), CellKind::Bram),
        Some(input),
    );
    let lb_out = Endpoint::Cell(*lb.last().expect("n_lb >= 1"));

    // Weight storage.
    let n_weight_brams = if opts.weights_on_chip {
        cost::brams_for_bits(p.weights(input_shape.channels) * w).max(1)
    } else {
        lanes // one stream buffer per lane
    } as usize;
    let weight_cells = emit_chain(
        b,
        &format!("{prefix}_wrom"),
        n_weight_brams,
        |i| Cell::new(format!("{prefix}_wrom{i}"), CellKind::Bram),
        None,
    );

    // Engine controller.
    let ctrl = b.cell(Cell::new(
        format!("{prefix}_ctrl"),
        crate::emit::out_slice(),
    ));
    // Weight storage feeds the controller, which schedules the lanes.
    for (i, wc) in weight_cells.iter().enumerate() {
        b.connect(
            format!("{prefix}_wfeed{i}"),
            Endpoint::Cell(*wc),
            [Endpoint::Cell(ctrl)],
        );
    }

    // MAC lanes.
    let comb_len = cost::comb_chain_len(taps * u64::from(input_shape.channels));
    let lane_slices = (cost::CONV_LUT_PER_DSP * taps / 8) as usize;
    let win_slices = (taps * w).div_ceil(16) as usize;
    let extra = lane_slices.saturating_sub(win_slices + comb_len + 1);
    let spec = LaneSpec {
        taps: taps as usize,
        win_slices,
        comb_len,
        extra_slices: extra,
    };
    let mut lane_outs = Vec::with_capacity(lanes as usize);
    let mut lane_heads = Vec::with_capacity(lanes as usize);
    for l in 0..lanes {
        let lane_prefix = format!("{prefix}_l{l}");
        let head = b.cell(Cell::new(
            format!("{lane_prefix}_head"),
            crate::emit::win_slice(),
        ));
        b.connect(
            format!("{lane_prefix}_feed"),
            lb_out,
            [Endpoint::Cell(head)],
        );
        lane_heads.push(Endpoint::Cell(head));
        lane_outs.push(emit_mac_lane(b, &lane_prefix, spec, Endpoint::Cell(head)));
    }
    // Control broadcast to lane heads.
    emit_fanout(
        b,
        &format!("{prefix}_cbc"),
        Endpoint::Cell(ctrl),
        &lane_heads,
        8,
    );

    emit_merge(b, &format!("{prefix}_join"), &lane_outs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_netlist::StreamRole;

    fn build(p: ConvParams, shape: Shape, opts: SynthOptions) -> pi_netlist::Module {
        let mut b = ModuleBuilder::new("conv");
        let din = b.input("din", StreamRole::Source, 16);
        let dout = b.output("dout", StreamRole::Sink, 16);
        let out = emit_conv_engine(&mut b, "c", &p, shape, &opts, Endpoint::Port(din));
        b.connect("o", out, [Endpoint::Port(dout)]);
        b.finish().unwrap()
    }

    #[test]
    fn lenet_conv1_resources() {
        let p = ConvParams {
            kernel: 5,
            stride: 1,
            padding: 0,
            out_channels: 6,
        };
        let m = build(p, Shape::new(1, 32, 32), SynthOptions::lenet_like());
        let r = m.resources();
        // One lane of 25 DSPs.
        assert_eq!(r.dsps, 25);
        // ~120 LUT/DSP.
        assert!((2000..4000).contains(&r.luts), "LUTs = {}", r.luts);
        // Line buffer + weight ROM.
        assert!(r.brams >= 2);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn vgg_conv_is_wider_and_deeper() {
        let small = ConvParams {
            kernel: 3,
            stride: 1,
            padding: 1,
            out_channels: 64,
        };
        let big = ConvParams {
            kernel: 3,
            stride: 1,
            padding: 1,
            out_channels: 512,
        };
        let ms = build(small, Shape::new(3, 224, 224), SynthOptions::vgg_like());
        let mb = build(big, Shape::new(512, 28, 28), SynthOptions::vgg_like());
        // conv1_1 (87M MACs) folds narrow; conv4-class (1.85G MACs) is wide.
        assert_eq!(ms.resources().dsps, 2 * 9);
        assert_eq!(mb.resources().dsps, 26 * 9);
        // Deeper input -> longer combinational chains.
        let depth = |m: &pi_netlist::Module| m.cells().iter().filter(|c| !c.registered).count();
        assert!(depth(&mb) > depth(&ms));
    }

    #[test]
    fn stream_mode_uses_per_lane_weight_buffers() {
        let p = ConvParams {
            kernel: 3,
            stride: 1,
            padding: 1,
            out_channels: 512,
        };
        let on_chip = build(p, Shape::new(512, 14, 14), SynthOptions::lenet_like());
        let streamed = build(p, Shape::new(512, 14, 14), SynthOptions::vgg_like());
        // 512ch x 512ch x 3x3 weights in ROM is far more BRAM than 26
        // stream buffers.
        assert!(on_chip.resources().brams > streamed.resources().brams);
    }
}
