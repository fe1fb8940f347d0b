//! Convolutional Layer Engines (CLEs): the paper's §III second architecture
//! class, after Shen et al. — instead of one dedicated engine per layer
//! (streaming), `Q < L` shared engines each process a *group* of
//! consecutive convolution layers one at a time, with the group assignment
//! balancing compute so no CLE starves the others.
//!
//! CLEs are what makes this class "suitable for the pre-implemented flow":
//! all Q engines are instances of the *same* module, so one checkpoint is
//! implemented once and replicated Q times — the purest form of the paper's
//! reuse story.

use crate::cost;
use crate::emit::{emit_chain, emit_fanout, emit_mac_lane, emit_merge, FanIn, LaneSpec};
use crate::memctrl::{emit_memctrl, CtrlSide};
use crate::{SynthError, SynthOptions};
use pi_cnn::graph::{Network, NodeId};
use pi_cnn::layer::Layer;
use pi_netlist::{Cell, CellKind, Endpoint, Module, ModuleBuilder, Net, StreamRole};

/// Assignment of a network's convolution layers to `q` CLEs.
#[derive(Debug, Clone)]
pub struct ClePartition {
    /// One group of conv-layer node ids per CLE, in schedule order within
    /// each group.
    pub groups: Vec<Vec<NodeId>>,
    /// MAC load per group.
    pub macs: Vec<u64>,
}

impl ClePartition {
    /// Load imbalance: max group MACs over mean group MACs (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        let max = self.macs.iter().copied().max().unwrap_or(0) as f64;
        let mean = self.macs.iter().sum::<u64>() as f64 / self.macs.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Partition the network's convolution layers over `q` CLEs with the
/// longest-processing-time greedy rule (heaviest layer to the least-loaded
/// engine), then restore schedule order within each group.
pub fn partition_conv_layers(network: &Network, q: usize) -> Result<ClePartition, SynthError> {
    assert!(q > 0, "need at least one CLE");
    let shapes = network.input_shapes()?;
    let mut convs: Vec<(NodeId, u64)> = Vec::new();
    for (i, node) in network.nodes().iter().enumerate() {
        if let Layer::Conv(_) = node.layer {
            let macs = node.layer.macs(shapes[i])?;
            convs.push((NodeId(i as u32), macs));
        }
    }
    let q = q.min(convs.len().max(1));
    let mut order = convs.clone();
    order.sort_by_key(|&(_, m)| std::cmp::Reverse(m));
    let mut groups: Vec<Vec<NodeId>> = vec![Vec::new(); q];
    let mut macs = vec![0u64; q];
    for (id, m) in order {
        let lightest = (0..q).min_by_key(|&i| macs[i]).expect("q >= 1");
        groups[lightest].push(id);
        macs[lightest] += m;
    }
    for g in &mut groups {
        g.sort(); // schedule order
    }
    Ok(ClePartition { groups, macs })
}

/// Synthesize one CLE: a shared convolution engine sized for the *largest*
/// layer it must run (the fixed-CLE inefficiency Shen et al. criticize is
/// real — smaller layers under-use the array), with a layer sequencer, the
/// source/sink interfaces, and double-buffered weight storage.
pub fn synth_cle(
    network: &Network,
    group: &[NodeId],
    opts: &SynthOptions,
) -> Result<Module, SynthError> {
    let shapes = network.input_shapes()?;
    let w = u64::from(opts.data_width);

    // Envelope over the assigned layers.
    let mut max_taps = 1u64;
    let mut max_lb_bits = 0u64;
    let mut total_macs = 0u64;
    let mut max_comb = 1usize;
    for id in group {
        let input = shapes[id.index()];
        let Layer::Conv(p) = network.node(*id).layer else {
            return Err(SynthError::Cnn(pi_cnn::CnnError::BadGraph(format!(
                "CLE group contains non-conv node {}",
                network.node(*id).name
            ))));
        };
        let taps = u64::from(p.kernel) * u64::from(p.kernel);
        max_taps = max_taps.max(taps);
        total_macs += p.macs(input)?;
        max_lb_bits = max_lb_bits.max(
            u64::from(p.kernel.saturating_sub(1))
                * u64::from(input.width)
                * u64::from(input.channels)
                * w,
        );
        max_comb = max_comb.max(cost::comb_chain_len(taps * u64::from(input.channels)));
    }
    // Lanes sized for the group's total MAC load (the CLE runs its layers
    // back to back, so the budget covers the sum).
    let lanes = pi_cnn::cycles::conv_lanes(total_macs, max_taps);

    let mut b = ModuleBuilder::new(format!("cle_{}l", group.len()));
    let clk = b.input("clk", StreamRole::Clock, 1);
    let din = b.input("din", StreamRole::Source, opts.data_width);
    let en = b.input("en", StreamRole::Control, 1);
    let dout = b.output("dout", StreamRole::Sink, opts.data_width);

    let src = emit_memctrl(&mut b, "src", CtrlSide::Source, Endpoint::Port(din));
    b.net(Net::new("en_net", Endpoint::Port(en), vec![src]));
    b.net(Net::new("clk_net", Endpoint::Port(clk), vec![src]).clock());

    // Layer sequencer: per assigned layer, a configuration slice chain (the
    // FSM that re-programs dimensions/strides between layers).
    let seq = emit_chain(
        &mut b,
        "seq",
        (group.len() * 4).max(4),
        |i| Cell::new(format!("seq{i}"), crate::emit::out_slice()),
        Some(src),
    );
    let seq_out = Endpoint::Cell(*seq.last().expect("non-empty"));

    // Line buffer sized for the widest assigned layer.
    let n_lb = cost::brams_for_bits(max_lb_bits).max(1) as usize;
    let lb = emit_chain(
        &mut b,
        "lb",
        n_lb,
        |i| Cell::new(format!("lb{i}"), CellKind::Bram),
        Some(seq_out),
    );
    let lb_out = Endpoint::Cell(*lb.last().expect("n_lb >= 1"));

    // Double-buffered weights: 2 BRAMs per lane (ping-pong while the other
    // layer's weights stream in).
    let wbufs = emit_chain(
        &mut b,
        "wbuf",
        (lanes * 2).max(2) as usize,
        |i| Cell::new(format!("wbuf{i}"), CellKind::Bram),
        None,
    );
    let ctrl = b.cell(Cell::new("ctrl", crate::emit::out_slice()));
    let mut feeds = FanIn::new(&b, Endpoint::Cell(ctrl), wbufs.len());
    for (i, wc) in wbufs.iter().enumerate() {
        feeds.feed(&mut b, format!("wfeed{i}"), Endpoint::Cell(*wc));
    }
    feeds.finish(&mut b, "wfeed");

    // The shared MAC array.
    let spec = LaneSpec {
        taps: max_taps as usize,
        win_slices: (max_taps * w).div_ceil(16) as usize,
        comb_len: max_comb,
        extra_slices: (cost::CONV_LUT_PER_DSP * max_taps / 8) as usize,
    };
    let mut lane_outs = Vec::with_capacity(lanes as usize);
    let mut heads = Vec::with_capacity(lanes as usize);
    for l in 0..lanes {
        let lp = format!("l{l}");
        let head = b.cell(Cell::new(format!("{lp}_head"), crate::emit::win_slice()));
        b.connect(format!("{lp}_feed"), lb_out, [Endpoint::Cell(head)]);
        heads.push(Endpoint::Cell(head));
        lane_outs.push(emit_mac_lane(&mut b, &lp, spec, Endpoint::Cell(head)));
    }
    emit_fanout(&mut b, "cbc", Endpoint::Cell(ctrl), &heads, 8);
    let merged = emit_merge(&mut b, "join", &lane_outs);

    let snk = emit_memctrl(&mut b, "snk", CtrlSide::Sink, merged);
    b.connect("dout_net", snk, [Endpoint::Port(dout)]);
    Ok(b.finish()?)
}

/// Cycles for one frame through a CLE: the assigned layers run
/// sequentially on the shared array.
pub fn cle_frame_cycles(network: &Network, group: &[NodeId], dsps: u64) -> Result<u64, SynthError> {
    let shapes = network.input_shapes()?;
    let mut total = 0u64;
    for id in group {
        let macs = network.node(*id).layer.macs(shapes[id.index()])?;
        total += pi_cnn::cycles::frame_cycles(macs, 0, dsps);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_cnn::models;

    #[test]
    fn partition_balances_macs() {
        let net = models::vgg16();
        let p = partition_conv_layers(&net, 4).unwrap();
        assert_eq!(p.groups.len(), 4);
        assert_eq!(p.groups.iter().map(|g| g.len()).sum::<usize>(), 13);
        // LPT keeps imbalance modest on VGG's layer mix.
        assert!(p.imbalance() < 1.5, "imbalance {}", p.imbalance());
        // Groups preserve schedule order internally.
        for g in &p.groups {
            assert!(g.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn q_larger_than_layer_count_clamps() {
        let net = models::toy(); // one conv layer
        let p = partition_conv_layers(&net, 8).unwrap();
        assert_eq!(p.groups.len(), 1);
        assert_eq!(p.groups[0].len(), 1);
    }

    #[test]
    fn cle_module_has_the_shared_array_shape() {
        let net = models::lenet5();
        let p = partition_conv_layers(&net, 1).unwrap();
        let m = synth_cle(&net, &p.groups[0], &SynthOptions::vgg_like()).unwrap();
        assert!(m.validate().is_ok());
        let r = m.resources();
        // One shared 5x5 array (both LeNet convs are 5x5) + controllers.
        assert!(r.dsps >= 25);
        // Double-buffered weights, not a full ROM.
        assert!(r.brams < 40);
        assert!(m.port_by_name("din").is_some() && m.port_by_name("dout").is_some());
    }

    #[test]
    fn cle_rejects_non_conv_nodes() {
        let net = models::toy();
        // Node 2 is the pool layer.
        let err = synth_cle(&net, &[NodeId(2)], &SynthOptions::vgg_like());
        assert!(err.is_err());
    }

    #[test]
    fn sequential_layers_cost_the_sum_of_their_macs() {
        let net = models::lenet5();
        let p = partition_conv_layers(&net, 1).unwrap();
        let cycles = cle_frame_cycles(&net, &p.groups[0], 25).unwrap();
        // 357.6k MACs on 25 DSPs at 70% efficiency.
        assert!(cycles > 357_600 / 25);
        assert!(cycles < 357_600);
    }
}
