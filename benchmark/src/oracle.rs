//! Correctness oracle, independent of the flow's own bookkeeping: the
//! hand-written `expected.json` (descriptor arithmetic / paper Table I)
//! plus a from-scratch legality walk over the delivered design. Every
//! miss is returned as a message and counted as a failed op — never a
//! panic.

use pi_cnn::Network;
use pi_fabric::{Device, TileCoord};
use pi_flow::PreImplReport;
use pi_netlist::Design;
use serde_json::Value;
use std::collections::HashSet;

pub struct Expected {
    pub nodes: u64,
    pub components: u64,
    pub stitched_nets: u64,
    pub weights: u64,
    pub macs: u64,
}

pub fn expected(name: &str) -> Option<Expected> {
    let all: Value = serde_json::from_str(include_str!("../expected.json")).ok()?;
    let row = all.get(name)?;
    let field = |k: &str| match row.get(k) {
        Some(Value::U64(n)) => Some(*n),
        _ => None,
    };
    Some(Expected {
        nodes: field("nodes")?,
        components: field("components")?,
        stitched_nets: field("stitched_nets")?,
        weights: field("weights")?,
        macs: field("macs")?,
    })
}

fn expect_eq(out: &mut Vec<String>, name: &str, what: &str, got: u64, want: u64) {
    if got != want {
        out.push(format!("{name}: {what} {got}, expected {want}"));
    }
}

/// The imported network against the descriptor arithmetic.
pub fn check_network(name: &str, network: &Network) -> Vec<String> {
    let mut out = Vec::new();
    let Some(want) = expected(name) else {
        return vec![format!("{name}: no row in expected.json")];
    };
    expect_eq(
        &mut out,
        name,
        "nodes",
        network.nodes().len() as u64,
        want.nodes,
    );
    match network.stats() {
        Ok(stats) => {
            expect_eq(
                &mut out,
                name,
                "weights",
                stats.total_weights(),
                want.weights,
            );
            expect_eq(&mut out, name, "MACs", stats.total_macs(), want.macs);
        }
        Err(e) => out.push(format!("{name}: stats: {e}")),
    }
    out
}

/// Every cell on a unique legal site and every net routed.
pub fn check_layout(name: &str, design: &Design, device: &Device) -> Vec<String> {
    let mut out = Vec::new();
    if !design.fully_routed() {
        out.push(format!("{name}: {} nets unrouted", design.unrouted_nets()));
    }
    let mut taken: HashSet<TileCoord> = HashSet::new();
    let (mut unplaced, mut illegal, mut shared) = (0u64, 0u64, 0u64);
    for cell in design.instances().iter().flat_map(|i| i.module.cells()) {
        let Some(at) = cell.placement else {
            unplaced += 1;
            continue;
        };
        if !matches!(device.site_at(at), Ok(Some(site)) if site == cell.kind.site()) {
            illegal += 1;
        }
        if !taken.insert(at) {
            shared += 1;
        }
    }
    for (what, n) in [
        ("unplaced cells", unplaced),
        ("cells on a site of the wrong kind", illegal),
        ("cells sharing a site", shared),
    ] {
        if n > 0 {
            out.push(format!("{name}: {n} {what}"));
        }
    }
    out
}

/// An assembled design against the expected structure and legality.
pub fn check_assembled(
    name: &str,
    design: &Design,
    report: &PreImplReport,
    device: &Device,
) -> Vec<String> {
    let mut out = check_layout(name, design, device);
    if let Some(want) = expected(name) {
        let compose = &report.compose;
        expect_eq(
            &mut out,
            name,
            "components",
            compose.component_signatures.len() as u64,
            want.components,
        );
        expect_eq(
            &mut out,
            name,
            "stitched nets",
            compose.stitched_nets as u64,
            want.stitched_nets,
        );
        expect_eq(
            &mut out,
            name,
            "instances",
            design.instances().len() as u64,
            want.components,
        );
        expect_eq(
            &mut out,
            name,
            "top nets",
            design.top_nets().len() as u64,
            want.stitched_nets,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_zoo_network_has_a_row_that_matches_its_descriptor() {
        for net in crate::zoo::zoo() {
            let network = net.import().expect("imports");
            assert_eq!(check_network(net.name, &network), Vec::<String>::new());
        }
        assert!(expected("no-such-network").is_none());
    }
}
