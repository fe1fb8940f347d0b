//! Memory controller / streaming interface generator (paper Fig. 5).
//!
//! Components whose input boundary re-tiles the feature map (a convolution
//! consuming pooled maps, an FC consuming flattened maps) need an address
//! generator plus FIFO queues; element-wise boundaries do not — that rule is
//! what decides component fusion.

use crate::cost;
use crate::emit::{emit_chain, out_slice, tree_slice};
use pi_cnn::cycles;
use pi_netlist::{Cell, CellKind, Endpoint, ModuleBuilder};

/// Which side of a component the controller serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlSide {
    /// "Source" interface: reads feature maps from memory and feeds the
    /// compute units.
    Source,
    /// "Sink" interface: writes feature maps back to on-chip memory.
    Sink,
}

/// Emit a memory controller fed by `input`, returning its output endpoint.
/// The sink side is roughly a third the logic of the source side (no jogging
/// address patterns, just sequential writes).
pub fn emit_memctrl(
    b: &mut ModuleBuilder,
    prefix: &str,
    side: CtrlSide,
    input: Endpoint,
) -> Endpoint {
    let slices = match side {
        CtrlSide::Source => cost::MEMCTRL_SLICES,
        CtrlSide::Sink => cost::MEMCTRL_SLICES / 3,
    } as usize;
    let dsps = match side {
        CtrlSide::Source => cycles::SOURCE_CTRL_DSPS,
        CtrlSide::Sink => cycles::SINK_CTRL_DSPS,
    } as usize;
    let brams = match side {
        CtrlSide::Source => cost::MEMCTRL_FIFO_BRAMS,
        CtrlSide::Sink => cost::MEMCTRL_FIFO_BRAMS / 2,
    } as usize;

    // FIFO queues.
    let fifo = emit_chain(
        b,
        &format!("{prefix}_fifo"),
        brams,
        |i| Cell::new(format!("{prefix}_fifo{i}"), CellKind::Bram),
        Some(input),
    );
    let fifo_out = Endpoint::Cell(*fifo.last().expect("brams >= 1"));

    // Address arithmetic DSPs.
    let addr = emit_chain(
        b,
        &format!("{prefix}_addr"),
        dsps,
        |i| Cell::new(format!("{prefix}_addr{i}"), CellKind::Dsp),
        Some(fifo_out),
    );
    let addr_out = Endpoint::Cell(*addr.last().expect("dsps >= 1"));

    // Control logic slices, in locality-friendly chains of 16.
    let mut remaining = slices;
    let mut chain_idx = 0usize;
    let out = b.cell(Cell::new(format!("{prefix}_out"), out_slice()));
    while remaining > 0 {
        let len = remaining.min(16);
        let prefix_c = format!("{prefix}_g{chain_idx}");
        let chain = emit_chain(
            b,
            &prefix_c,
            len,
            |i| Cell::new(format!("{prefix_c}_{i}"), tree_slice()),
            Some(addr_out),
        );
        b.connect(
            format!("{prefix_c}_out"),
            Endpoint::Cell(*chain.last().expect("len >= 1")),
            [Endpoint::Cell(out)],
        );
        remaining -= len;
        chain_idx += 1;
    }
    Endpoint::Cell(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_netlist::StreamRole;

    fn build(side: CtrlSide) -> pi_netlist::Module {
        let mut b = ModuleBuilder::new("mc");
        let din = b.input("din", StreamRole::Source, 16);
        let dout = b.output("dout", StreamRole::Sink, 16);
        let out = emit_memctrl(&mut b, "mc", side, Endpoint::Port(din));
        b.connect("o", out, [Endpoint::Port(dout)]);
        b.finish().unwrap()
    }

    #[test]
    fn source_controller_resources() {
        let m = build(CtrlSide::Source);
        let r = m.resources();
        assert_eq!(r.dsps, cycles::SOURCE_CTRL_DSPS);
        assert_eq!(r.brams, cost::MEMCTRL_FIFO_BRAMS);
        assert!(r.luts >= cost::MEMCTRL_SLICES * 8 - 64);
    }

    #[test]
    fn sink_is_smaller_than_source() {
        let src = build(CtrlSide::Source).resources();
        let snk = build(CtrlSide::Sink).resources();
        assert!(snk.luts < src.luts);
        assert!(snk.brams < src.brams);
    }
}
