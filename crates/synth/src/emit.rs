//! Low-level netlist emission helpers shared by every generator.
//!
//! The helpers keep connectivity *local by construction* — chains and small
//! fan-out groups — because that locality is what placement quality acts on:
//! a good placer keeps chain neighbours adjacent, a rushed one stretches
//! them, and the delay model turns that stretch into the Fmax differences
//! the paper measures.

use pi_netlist::{Cell, CellId, CellKind, Endpoint, ModuleBuilder};

/// A shift-register slice: FF-dominated.
pub fn win_slice() -> CellKind {
    CellKind::Slice { luts: 2, ffs: 16 }
}

/// An adder/comparator-tree slice: LUT-dominated.
pub fn tree_slice() -> CellKind {
    CellKind::Slice { luts: 8, ffs: 8 }
}

/// Propagation delay of a combinational tree level (a wide carry/compare
/// function, slower than a plain LUT hop). Feeds the STA's comb model.
pub const TREE_COMB_DELAY_PS: u32 = 250;

/// An output/requantization slice.
pub fn out_slice() -> CellKind {
    CellKind::Slice { luts: 8, ffs: 16 }
}

/// Incoming nets an [`out_slice`] can take: the module judge's budget for
/// its 8 LUTs ([`CellKind::fanin_budget`]).
fn out_fanin() -> usize {
    out_slice().fanin_budget().expect("a slice has LUT inputs")
}

/// Feeds wired into one sink cell within [`out_fanin`], the one fan-in
/// rule every generator follows. When the sink's nets so far plus
/// the announced feeds fit the budget, each feed is its own net into the
/// sink, added as it is fed; above it the feeds merge first
/// ([`emit_merge`]) and one net carries the result into the sink.
pub struct FanIn {
    sink: Endpoint,
    /// The feeds held back for the merge; `None` while wiring directly.
    merged: Option<Vec<Endpoint>>,
}

impl FanIn {
    /// Announce `feeds` nets into `sink`.
    pub fn new(b: &ModuleBuilder, sink: Endpoint, feeds: usize) -> Self {
        let over = b.fanin(sink) + feeds > out_fanin();
        FanIn {
            sink,
            merged: over.then(Vec::new),
        }
    }

    /// Wire one feed: a net named `name` into the sink, or held for the merge.
    pub fn feed(&mut self, b: &mut ModuleBuilder, name: String, source: Endpoint) {
        match &mut self.merged {
            Some(ends) => ends.push(source),
            None => {
                b.connect(name, source, [self.sink]);
            }
        }
    }

    /// Emit the merge tree (cells `{prefix}_m…`, net `{prefix}_out` into
    /// the sink) when the feeds did not fit.
    pub fn finish(self, b: &mut ModuleBuilder, prefix: &str) {
        if let Some(ends) = self.merged {
            let merged = emit_merge(b, prefix, &ends);
            b.connect(format!("{prefix}_out"), merged, [self.sink]);
        }
    }
}

/// Emit `n` cells connected in a chain (cell i drives cell i+1), the first
/// fed by `input` when given. `make` builds each cell from its index.
/// Returns the created ids (empty `n` returns an empty vector).
pub fn emit_chain(
    b: &mut ModuleBuilder,
    prefix: &str,
    n: usize,
    mut make: impl FnMut(usize) -> Cell,
    input: Option<Endpoint>,
) -> Vec<CellId> {
    let mut ids = Vec::with_capacity(n);
    for i in 0..n {
        let id = b.cell(make(i));
        if i == 0 {
            if let Some(src) = input {
                b.connect(format!("{prefix}_in"), src, [Endpoint::Cell(id)]);
            }
        } else {
            b.connect(
                format!("{prefix}_c{i}"),
                Endpoint::Cell(ids[i - 1]),
                [Endpoint::Cell(id)],
            );
        }
        ids.push(id);
    }
    ids
}

/// Emit one net from `source` to many sinks, split into groups of at most
/// `max_fanout` sinks per net (models fanout buffering).
pub fn emit_fanout(
    b: &mut ModuleBuilder,
    prefix: &str,
    source: Endpoint,
    sinks: &[Endpoint],
    max_fanout: usize,
) {
    for (g, group) in sinks.chunks(max_fanout.max(1)).enumerate() {
        b.connect(format!("{prefix}_f{g}"), source, group.to_vec());
    }
}

/// Specification of one MAC lane of a convolution/FC engine.
#[derive(Debug, Clone, Copy)]
pub struct LaneSpec {
    /// DSP MACs in the systolic cascade.
    pub taps: usize,
    /// Shift-register slices feeding the cascade.
    pub win_slices: usize,
    /// Combinational adder-tree chain length (the timing-critical part).
    pub comb_len: usize,
    /// Registered tree slices carrying the remaining LUT budget.
    pub extra_slices: usize,
}

/// Emit one MAC lane. Structure (Fig. 4a of the paper):
///
/// ```text
/// input -> [win sr]...[win sr] -> DSP -> DSP -> ... -> [comb tree]...
///            -> { extra registered tree chains } -> [out slice]
/// ```
///
/// Returns the lane's output endpoint.
pub fn emit_mac_lane(
    b: &mut ModuleBuilder,
    prefix: &str,
    spec: LaneSpec,
    input: Endpoint,
) -> Endpoint {
    // Window shift register.
    let win = emit_chain(
        b,
        &format!("{prefix}_win"),
        spec.win_slices,
        |i| Cell::new(format!("{prefix}_win{i}"), win_slice()),
        Some(input),
    );
    let win_out = win.last().copied().map(Endpoint::Cell).unwrap_or(input);

    // Systolic DSP cascade.
    let dsps = emit_chain(
        b,
        &format!("{prefix}_mac"),
        spec.taps,
        |i| Cell::new(format!("{prefix}_mac{i}"), CellKind::Dsp),
        Some(win_out),
    );
    let mac_out = dsps.last().copied().map(Endpoint::Cell).unwrap_or(win_out);

    // Combinational adder-tree chain: the path STA sees.
    let tree = emit_chain(
        b,
        &format!("{prefix}_tree"),
        spec.comb_len,
        |i| {
            Cell::new(format!("{prefix}_tree{i}"), tree_slice())
                .combinational()
                .with_delay_ps(TREE_COMB_DELAY_PS)
        },
        Some(mac_out),
    );
    let tree_out = tree.last().copied().map(Endpoint::Cell).unwrap_or(mac_out);

    // Output/requantization stage.
    let out = b.cell(Cell::new(format!("{prefix}_out"), out_slice()));
    b.connect(format!("{prefix}_treeout"), tree_out, [Endpoint::Cell(out)]);

    // Extra registered tree slices: chains of 8 hanging between the MAC
    // output and the output stage. They carry area without adding
    // combinational depth.
    let mut ends = FanIn::new(b, Endpoint::Cell(out), spec.extra_slices.div_ceil(8));
    let mut remaining = spec.extra_slices;
    let mut chain_idx = 0usize;
    while remaining > 0 {
        let len = remaining.min(8);
        let chain = emit_chain(
            b,
            &format!("{prefix}_x{chain_idx}"),
            len,
            |i| Cell::new(format!("{prefix}_x{chain_idx}_{i}"), tree_slice()),
            Some(mac_out),
        );
        if let Some(&last) = chain.last() {
            let name = format!("{prefix}_x{chain_idx}_out");
            ends.feed(b, name, Endpoint::Cell(last));
        }
        remaining -= len;
        chain_idx += 1;
    }
    ends.finish(b, &format!("{prefix}_xm"));

    Endpoint::Cell(out)
}

/// Merge many lane outputs into one stream: a small registered tree of
/// slices with fanin grouped by 8.
pub fn emit_merge(b: &mut ModuleBuilder, prefix: &str, inputs: &[Endpoint]) -> Endpoint {
    assert!(!inputs.is_empty(), "merge needs at least one input");
    if inputs.len() == 1 {
        return inputs[0];
    }
    let mut level = 0usize;
    let mut current: Vec<Endpoint> = inputs.to_vec();
    while current.len() > 1 {
        let mut next = Vec::with_capacity(current.len().div_ceil(8));
        for (g, group) in current.chunks(8).enumerate() {
            let m = b.cell(Cell::new(format!("{prefix}_m{level}_{g}"), tree_slice()));
            for (i, src) in group.iter().enumerate() {
                b.connect(
                    format!("{prefix}_m{level}_{g}_{i}"),
                    *src,
                    [Endpoint::Cell(m)],
                );
            }
            next.push(Endpoint::Cell(m));
        }
        current = next;
        level += 1;
    }
    current[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_netlist::ModuleBuilder;

    fn feed(b: &mut ModuleBuilder) -> Endpoint {
        Endpoint::Cell(b.cell(Cell::new("feed", out_slice())))
    }

    #[test]
    fn chain_connects_sequentially() {
        let mut b = ModuleBuilder::new("t");
        let f = feed(&mut b);
        let ids = emit_chain(
            &mut b,
            "ch",
            3,
            |i| Cell::new(format!("s{i}"), tree_slice()),
            Some(f),
        );
        assert_eq!(ids.len(), 3);
        // sink the tail so validation passes
        let tail = Endpoint::Cell(*ids.last().unwrap());
        let sink = b.cell(Cell::new("sink", out_slice()));
        b.connect("out", tail, [Endpoint::Cell(sink)]);
        let m = b.finish().unwrap();
        assert_eq!(m.cells().len(), 5);
        assert_eq!(m.nets().len(), 4);
    }

    #[test]
    fn lane_has_expected_resources() {
        let mut b = ModuleBuilder::new("t");
        let f = feed(&mut b);
        let spec = LaneSpec {
            taps: 9,
            win_slices: 9,
            comb_len: 3,
            extra_slices: 20,
        };
        let out = emit_mac_lane(&mut b, "lane", spec, f);
        let sink = b.cell(Cell::new("sink", out_slice()));
        b.connect("out", out, [Endpoint::Cell(sink)]);
        let m = b.finish().unwrap();
        let r = m.resources();
        assert_eq!(r.dsps, 9);
        // 9 win + 3 comb + 20 extra + 1 out + feed + sink slices
        assert_eq!(m.cells().len(), 9 + 9 + 3 + 20 + 1 + 2);
        // Combinational cells exist and are exactly the tree chain.
        let comb = m.cells().iter().filter(|c| !c.registered).count();
        assert_eq!(comb, 3);
    }

    #[test]
    fn a_wide_lane_merges_its_chain_ends_within_the_out_budget() {
        let mut b = ModuleBuilder::new("t");
        let f = feed(&mut b);
        let spec = LaneSpec {
            taps: 1,
            win_slices: 1,
            comb_len: 1,
            extra_slices: 8 * out_fanin(),
        };
        let out = emit_mac_lane(&mut b, "lane", spec, f);
        let Endpoint::Cell(out) = out else {
            unreachable!("a lane ends in its out cell")
        };
        let m = b.finish().unwrap();
        let fanin = m
            .nets()
            .iter()
            .filter(|n| n.sinks.contains(&Endpoint::Cell(out)));
        // The tree plus one merged net instead of 48 chain ends.
        assert_eq!(fanin.count(), 2);
    }

    #[test]
    fn merge_reduces_to_single_output() {
        let mut b = ModuleBuilder::new("t");
        let feeds: Vec<Endpoint> = (0..20).map(|_| feed(&mut b)).collect();
        let out = emit_merge(&mut b, "mrg", &feeds);
        let sink = b.cell(Cell::new("sink", out_slice()));
        b.connect("out", out, [Endpoint::Cell(sink)]);
        let m = b.finish().unwrap();
        // 20 inputs -> 3 first-level + 1 second-level merge slices.
        assert_eq!(m.cells().len(), 20 + 3 + 1 + 1);
    }

    #[test]
    fn fanout_groups_sinks() {
        let mut b = ModuleBuilder::new("t");
        let f = feed(&mut b);
        let sinks: Vec<Endpoint> = (0..10)
            .map(|i| Endpoint::Cell(b.cell(Cell::new(format!("k{i}"), tree_slice()))))
            .collect();
        emit_fanout(&mut b, "bc", f, &sinks, 4);
        // sink the leaves
        let out = b.cell(Cell::new("o", out_slice()));
        for (i, s) in sinks.iter().enumerate() {
            b.connect(format!("l{i}"), *s, [Endpoint::Cell(out)]);
        }
        let m = b.finish().unwrap();
        // 10 sinks at max fanout 4 -> 3 broadcast nets.
        let bc_nets = m
            .nets()
            .iter()
            .filter(|n| n.name.starts_with("bc_f"))
            .count();
        assert_eq!(bc_nets, 3);
    }
}
