//! Fully-connected engine generator. The paper implements FC layers as
//! convolutions whose kernel equals the input size; the engine is therefore
//! a folded MAC array with a deep accumulation tree.

use crate::cost;
use crate::emit::{emit_chain, emit_fanout, emit_mac_lane, emit_merge, LaneSpec};
use crate::SynthOptions;
use pi_cnn::cycles;
use pi_cnn::layer::{FcParams, Shape};
use pi_netlist::{Cell, CellKind, Endpoint, ModuleBuilder};

/// Emit a fully-connected engine fed by `input`.
pub fn emit_fc_engine(
    b: &mut ModuleBuilder,
    prefix: &str,
    p: &FcParams,
    input_shape: Shape,
    opts: &SynthOptions,
    input: Endpoint,
) -> Endpoint {
    let w = u64::from(opts.data_width);
    let in_elems = input_shape.elements();
    let dsps = cycles::fc_dsps(p.macs(input_shape));

    // Input activation buffer.
    let n_in = cost::brams_for_bits(in_elems * w).max(1) as usize;
    let inbuf = emit_chain(
        b,
        &format!("{prefix}_ibuf"),
        n_in,
        |i| Cell::new(format!("{prefix}_ibuf{i}"), CellKind::Bram),
        Some(input),
    );
    let ibuf_out = Endpoint::Cell(*inbuf.last().expect("n_in >= 1"));

    // Weight storage: full ROM on-chip, or double buffers when streamed.
    let n_w = if opts.weights_on_chip {
        cost::brams_for_bits(p.weights(input_shape) * w).max(1)
    } else {
        (dsps * 2).max(2)
    } as usize;
    let wrom = emit_chain(
        b,
        &format!("{prefix}_wrom"),
        n_w,
        |i| Cell::new(format!("{prefix}_wrom{i}"), CellKind::Bram),
        None,
    );
    let ctrl = b.cell(Cell::new(
        format!("{prefix}_ctrl"),
        crate::emit::out_slice(),
    ));
    for (i, wc) in wrom.iter().enumerate() {
        b.connect(
            format!("{prefix}_wfeed{i}"),
            Endpoint::Cell(*wc),
            [Endpoint::Cell(ctrl)],
        );
    }

    // MAC lanes: one DSP each, folded over the input vector.
    let comb_len = cost::comb_chain_len(in_elems);
    let lane_slices = (cost::FC_LUT_PER_DSP / 8) as usize;
    let spec = LaneSpec {
        taps: 1,
        win_slices: 2,
        comb_len,
        extra_slices: lane_slices.saturating_sub(2 + comb_len + 1),
    };
    let mut lane_outs = Vec::with_capacity(dsps as usize);
    let mut heads = Vec::with_capacity(dsps as usize);
    for l in 0..dsps {
        let lp = format!("{prefix}_l{l}");
        let head = b.cell(Cell::new(format!("{lp}_head"), crate::emit::win_slice()));
        b.connect(format!("{lp}_feed"), ibuf_out, [Endpoint::Cell(head)]);
        heads.push(Endpoint::Cell(head));
        lane_outs.push(emit_mac_lane(b, &lp, spec, Endpoint::Cell(head)));
    }
    emit_fanout(b, &format!("{prefix}_cbc"), Endpoint::Cell(ctrl), &heads, 8);

    emit_merge(b, &format!("{prefix}_join"), &lane_outs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_netlist::StreamRole;

    fn build(out_features: u32, shape: Shape, opts: SynthOptions) -> pi_netlist::Module {
        let mut b = ModuleBuilder::new("fc");
        let din = b.input("din", StreamRole::Source, 16);
        let dout = b.output("dout", StreamRole::Sink, 16);
        let p = FcParams { out_features };
        let out = emit_fc_engine(&mut b, "f", &p, shape, &opts, Endpoint::Port(din));
        b.connect("o", out, [Endpoint::Port(dout)]);
        b.finish().unwrap()
    }

    #[test]
    fn lenet_fc1_resources() {
        let m = build(120, Shape::new(16, 5, 5), SynthOptions::lenet_like());
        let r = m.resources();
        assert_eq!(r.dsps, 4);
        // 48120 weights * 16 bits -> ~21 ROM BRAMs plus the input buffer.
        assert!((20..30).contains(&r.brams), "brams = {}", r.brams);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn vgg_fc_is_wide() {
        let m = build(4096, Shape::new(512, 7, 7), SynthOptions::vgg_like());
        // 102M MACs -> 13 MAC-budgeted lanes.
        assert_eq!(m.resources().dsps, 13);
        // Streamed weights: double buffers, not the 50k BRAMs a full ROM
        // would need.
        assert!(m.resources().brams < 400);
    }

    #[test]
    fn deeper_inputs_make_deeper_trees() {
        // A tiny input folds to a 1-level tree; a wide one hits the
        // pipelining cap.
        let shallow = build(10, Shape::new(2, 1, 1), SynthOptions::lenet_like());
        let deep = build(10, Shape::new(512, 7, 7), SynthOptions::vgg_like());
        let comb = |m: &pi_netlist::Module| m.cells().iter().filter(|c| !c.registered).count();
        assert!(comb(&deep) > comb(&shallow));
    }
}
