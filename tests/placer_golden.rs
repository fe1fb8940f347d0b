//! Bit-identity of the annealer, pinned in tier-1.
//!
//! The hashes below were captured at the commit *before* the move kernel
//! was rewritten (PR 12). Any change to which moves are tried, how a move
//! is priced, the RNG stream or the f64 summation order changes a hash.
//! A PR that intends to change placements re-captures them and says so.

use preimpl_cnn::flow::{plan_partpins, size_pblock};
use preimpl_cnn::netlist::{Cell, CellKind, Endpoint, ModuleBuilder, StableHasher, StreamRole};
use preimpl_cnn::pnr::{place_module_obs, PlaceOptions};
use preimpl_cnn::prelude::*;
use preimpl_cnn::synth::synth_component;

fn chain_module(n: usize) -> Module {
    let mut b = ModuleBuilder::new("chain");
    let din = b.input("din", StreamRole::Source, 16);
    let dout = b.output("dout", StreamRole::Sink, 16);
    let ids: Vec<_> = (0..n)
        .map(|i| b.cell(Cell::new(format!("s{i}"), CellKind::full_slice())))
        .collect();
    b.connect("in", Endpoint::Port(din), [Endpoint::Cell(ids[0])]);
    for i in 1..n {
        b.connect(
            format!("n{i}"),
            Endpoint::Cell(ids[i - 1]),
            [Endpoint::Cell(ids[i])],
        );
    }
    b.connect("out", Endpoint::Cell(ids[n - 1]), [Endpoint::Port(dout)]);
    b.finish().unwrap()
}

/// `StableHasher` over `(cell index, col, row)` of every cell, then
/// `moves`, `accepted` and `final_cost.to_bits()`.
fn fingerprint(mut m: Module, device: &Device, opts: &PlaceOptions) -> u64 {
    let stats = place_module_obs(&mut m, device, opts, &Obs::null()).expect("placeable");
    let mut h = StableHasher::new();
    for (i, c) in m.cells().iter().enumerate() {
        let at = c.placement.expect("fully placed");
        h.write_usize(i);
        h.write_u16(at.col);
        h.write_u16(at.row);
    }
    h.write_u64(stats.moves);
    h.write_u64(stats.accepted);
    h.write_u64(stats.final_cost.to_bits());
    h.finish()
}

/// The way `build_component` places a component: synthesize, size the
/// pblock, plan partpins, anneal inside the pblock at the flow's effort.
fn component_fingerprints(
    network: &Network,
    granularity: Granularity,
    name: &str,
    synth: &SynthOptions,
) -> [u64; 3] {
    let device = Device::xcku5p_like();
    let comps = network.components(granularity).expect("components");
    let comp = comps
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("no component {name}"));
    let mut proto = synth_component(network, comp, synth).expect("synth");
    let pblock = size_pblock(&proto.resources(), &device, 0.7).expect("pblock");
    proto.pblock = Some(pblock);
    plan_partpins(&mut proto, &pblock).expect("partpins");
    [1, 2, 3].map(|seed| {
        fingerprint(
            proto.clone(),
            &device,
            &PlaceOptions {
                seed,
                effort: 2.0,
                region: Some(pblock),
            },
        )
    })
}

#[test]
fn chain_full_device_matches_parent_commit() {
    let device = Device::test_part();
    let got = [1, 2, 3].map(|seed| {
        fingerprint(
            chain_module(60),
            &device,
            &PlaceOptions {
                seed,
                effort: 1.0,
                region: None,
            },
        )
    });
    assert_eq!(
        got,
        [0x1d230db4469fa679, 0xc92e9251acb4823e, 0xf3b0d522abd7d119],
        "{got:#x?}"
    );
}

#[test]
fn lenet_conv_in_sized_pblock_matches_parent_commit() {
    let got = component_fingerprints(
        &models::lenet5(),
        Granularity::Layer,
        "conv2",
        &SynthOptions::lenet_like(),
    );
    assert_eq!(
        got,
        [0x1f6a40956305764d, 0x7a3b8c3909a43d15, 0x8667543c2dc6d893],
        "{got:#x?}"
    );
}

#[test]
fn vgg_block_matches_parent_commit() {
    let got = component_fingerprints(
        &models::vgg16(),
        Granularity::Block,
        "conv5_1+relu5_1+conv5_2+relu5_2+conv5_3+relu5_3",
        &SynthOptions::vgg_like(),
    );
    assert_eq!(
        got,
        [0xa61840e7c8b4eec7, 0x08bf8dd08c854e18, 0xd6d5c97d2bdfa100],
        "{got:#x?}"
    );
}
