//! Resource cost model: the named area constants every generator sizes
//! itself with. The rules that decide *how many DSPs* an engine gets — the
//! frame-cycle budget, conv lanes, FC folding, controller address DSPs —
//! are the performance model's ([`pi_cnn::cycles`]); the generators read
//! them from there, so the model's DSP count is the netlist's.
//!
//! Calibration targets (see EXPERIMENTS.md): VGG-16 lands near the paper's
//! Table II (~283 k LUTs, ~2100 DSPs, several hundred BRAM on the
//! xcku5p-like part); LeNet lands in the same order of magnitude as the
//! paper's LeNet row. The *relative* monolithic-vs-OOC gap comes from
//! [`MONOLITHIC_LUT_OVERHEAD_PCT`] and friends, which model the global
//! fanout buffering, control replication and conservative BRAM inference
//! vendor synthesis exhibits on large designs (§V-C of the paper).

/// Logic (LUTs) accompanying each DSP MAC lane tap in a convolution engine:
/// operand muxing, partial-sum handling, its share of the adder tree.
pub const CONV_LUT_PER_DSP: u64 = 120;

/// Logic per DSP in the folded fully-connected engine (more reuse, less
/// routing logic per MAC).
pub const FC_LUT_PER_DSP: u64 = 120;

/// Slices in a memory controller (address generators, burst logic,
/// FIFO control) — Fig. 5's interface block.
pub const MEMCTRL_SLICES: u64 = 190;
/// BRAMs in a memory controller's FIFO queues.
pub const MEMCTRL_FIFO_BRAMS: u64 = 4;

/// Bits per block RAM.
pub const BRAM_BITS: u64 = 36 * 1024;

/// Extra slice fraction (percent) the monolithic flow pays: replicated
/// control, fanout buffering the global optimizer inserts.
pub const MONOLITHIC_LUT_OVERHEAD_PCT: u64 = 9;
/// Extra BRAM fraction (percent) from conservative monolithic BRAM
/// inference.
pub const MONOLITHIC_BRAM_OVERHEAD_PCT: u64 = 6;
/// Extra register fraction (percent) from monolithic fanout pipelining.
pub const MONOLITHIC_FF_OVERHEAD_PCT: u64 = 12;

/// Channel lanes in a pooling engine.
pub fn pool_lanes(in_channels: u32) -> u64 {
    u64::from(in_channels).div_ceil(4).clamp(1, 16)
}

/// BRAMs needed to hold `bits` of storage.
pub fn brams_for_bits(bits: u64) -> u64 {
    bits.div_ceil(BRAM_BITS)
}

/// Longest unregistered chain the generators allow. Deeper trees get
/// pipeline registers inserted — the paper's own fix ("inserting pipeline
/// elements such as FFs on the critical path improves the timing
/// performance, while increasing the overall latency").
pub const MAX_COMB_CHAIN: usize = 3;

/// Combinational chain length of an adder/comparator tree reducing `taps`
/// operands: the tree has `ceil(log2(taps))` levels, the generators
/// register every second level, and chains longer than [`MAX_COMB_CHAIN`]
/// are pipelined. This single rule is what makes deep-input layers slower
/// (the paper's conv2-vs-conv1 and VGG-component observations).
pub fn comb_chain_len(taps: u64) -> usize {
    (pi_cnn::cycles::ceil_log2(taps).div_ceil(2))
        .max(1)
        .min(MAX_COMB_CHAIN as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_lanes_follow_the_channel_count() {
        assert_eq!(pool_lanes(6), 2);
        assert_eq!(pool_lanes(512), 16);
    }

    #[test]
    fn bram_sizing() {
        assert_eq!(brams_for_bits(0), 0);
        assert_eq!(brams_for_bits(1), 1);
        assert_eq!(brams_for_bits(BRAM_BITS), 1);
        assert_eq!(brams_for_bits(BRAM_BITS + 1), 2);
    }

    #[test]
    fn comb_chain_grows_logarithmically() {
        // A 2x2 pooling window -> shallow chain.
        let shallow = comb_chain_len(4);
        // VGG conv5: 9 taps * 512 channels -> deeper (pipelined-capped).
        let deep = comb_chain_len(9 * 512);
        assert!(deep > shallow);
        assert_eq!(comb_chain_len(1), 1);
        // Deep trees are pipelined rather than left combinational.
        assert_eq!(comb_chain_len(u64::MAX), MAX_COMB_CHAIN);
    }
}
