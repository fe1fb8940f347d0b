//! Congestion-aware timing-driven component placement (paper §IV-B4).
//!
//! Components arrive pre-implemented inside pblocks; placing a component
//! means choosing a legal relocation anchor. The cost model is the paper's:
//!
//! * **timing cost (Eq. 1)** — Σ HPWL between connected components' pblock
//!   centers,
//! * **congestion (Eq. 2–3)** — component overlaps per tile, normalized by
//!   the pblock area; overlap with an already-placed component is illegal,
//!   and crowding (overlap of the margin-expanded pblock) is penalized.
//!
//! Each component takes its cheapest legal candidate. The paper's
//! threshold-and-unplace retry loop is not modelled: here it never lowered
//! the cost it exists to lower (DESIGN.md §8).

use crate::relocate::valid_anchor_columns;
use crate::StitchError;
use pi_fabric::{Device, Pblock, TileCoord};
use pi_netlist::Checkpoint;
use pi_obs::Obs;
use serde::{Deserialize, Serialize};

/// Options for component placement.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct ComponentPlacerOptions {
    /// Weight of the congestion term against the timing term.
    pub congestion_weight: f64,
}

impl Default for ComponentPlacerOptions {
    fn default() -> Self {
        ComponentPlacerOptions {
            congestion_weight: 25.0,
        }
    }
}

/// Result of component placement: one anchor (pblock lower-left corner) per
/// component, in input order.
#[derive(Debug, Clone)]
pub struct PlacementOutcome {
    pub anchors: Vec<TileCoord>,
    /// Eq. 1 total over all edges.
    pub timing_cost: f64,
    /// Eq. 3 congestion total.
    pub congestion_cost: f64,
}

/// All legal anchors for a checkpoint on the device, row-major.
fn anchor_candidates(cp: &Checkpoint, device: &Device) -> Vec<TileCoord> {
    let pb = cp.meta.pblock;
    let height = pb.height();
    let cols = valid_anchor_columns(&pb, device);
    // Rows step in 8-tile increments — the same quantum pblock heights use,
    // so stacked components leave no forced gaps; columns come from the
    // compatibility check.
    const ROW_STEP: u16 = 8;
    let mut anchors = Vec::new();
    for dcol in cols {
        let col = i32::from(pb.col_lo) + dcol;
        debug_assert!(col >= 0);
        let mut row = 0u16;
        while row + height <= device.rows() {
            anchors.push(TileCoord::new(col as u16, row));
            row += ROW_STEP.min(height);
        }
    }
    anchors
}

fn pblock_at(cp: &Checkpoint, anchor: TileCoord) -> Pblock {
    let pb = cp.meta.pblock;
    Pblock::new(
        anchor.col,
        anchor.col + pb.width() - 1,
        anchor.row,
        anchor.row + pb.height() - 1,
    )
}

/// Margin (tiles) around a pblock considered "crowded" for Eq. 2.
const CROWDING_MARGIN: u16 = 2;

fn expanded(pb: &Pblock, device: &Device) -> Pblock {
    Pblock::new(
        pb.col_lo.saturating_sub(CROWDING_MARGIN),
        (pb.col_hi + CROWDING_MARGIN).min(device.cols() - 1),
        pb.row_lo.saturating_sub(CROWDING_MARGIN),
        (pb.row_hi + CROWDING_MARGIN).min(device.rows() - 1),
    )
}

/// Eq. 2–3: crowding of a candidate against already-placed pblocks,
/// normalized by the candidate's area.
fn congestion_cost(candidate: &Pblock, placed: &[Pblock], device: &Device) -> f64 {
    let grown = expanded(candidate, device);
    let overlap: u64 = placed
        .iter()
        .map(|p| u64::from(grown.overlap_area(p)))
        .sum();
    overlap as f64 / f64::from(candidate.area())
}

/// Partition-pin offsets of a component's stream interface, relative to the
/// pblock's lower-left corner. The paper's Eq. 1 measures wirelength
/// between components; what actually gets wired is partition pin to
/// partition pin, so that is what the cost uses.
#[derive(Debug, Clone, Copy)]
struct PinOffsets {
    din: (u16, u16),
    dout: (u16, u16),
}

fn pin_offsets(cp: &Checkpoint) -> PinOffsets {
    let pb = cp.meta.pblock;
    let rel = |name: &str| -> (u16, u16) {
        cp.module
            .port_by_name(name)
            .and_then(|(_, p)| p.partpin)
            .map(|pp| {
                (
                    pp.col.saturating_sub(pb.col_lo),
                    pp.row.saturating_sub(pb.row_lo),
                )
            })
            .unwrap_or((pb.width() / 2, pb.height() / 2))
    };
    PinOffsets {
        din: rel("din"),
        dout: rel("dout"),
    }
}

/// Eq. 1 per-edge term: wirelength between the source component's `dout`
/// partition pin and the sink component's `din` partition pin.
fn edge_cost(
    src_anchor: TileCoord,
    src_pins: &PinOffsets,
    dst_anchor: TileCoord,
    dst_pins: &PinOffsets,
) -> f64 {
    let a = TileCoord::new(
        src_anchor.col + src_pins.dout.0,
        src_anchor.row + src_pins.dout.1,
    );
    let b = TileCoord::new(
        dst_anchor.col + dst_pins.din.0,
        dst_anchor.row + dst_pins.din.1,
    );
    f64::from(pi_fabric::coords::hpwl(&[a, b]))
}

/// Place a set of components connected by `edges` (indices into
/// `checkpoints`). Components are processed big-rocks-first so the rigid
/// rectangles pack, each taking its cheapest legal location, then
/// BFS-order refinement sweeps pull every component toward its
/// neighbours' partition pins.
pub fn place_components(
    checkpoints: &[&Checkpoint],
    edges: &[(usize, usize)],
    device: &Device,
    opts: &ComponentPlacerOptions,
) -> Result<PlacementOutcome, StitchError> {
    place_components_obs(checkpoints, edges, device, opts, &Obs::null())
}

/// [`place_components`] with telemetry under the `stitch::placer` scope:
/// the Eq. 1–3 cost of every chosen candidate and the final placement
/// costs.
pub fn place_components_obs(
    checkpoints: &[&Checkpoint],
    edges: &[(usize, usize)],
    device: &Device,
    opts: &ComponentPlacerOptions,
    obs: &Obs,
) -> Result<PlacementOutcome, StitchError> {
    let obs = obs.scoped("stitch::placer");
    let n = checkpoints.len();
    let place_span = obs.span_with(
        "place_components",
        &[("components", n.into()), ("edges", edges.len().into())],
    );
    let pins: Vec<PinOffsets> = checkpoints.iter().map(|cp| pin_offsets(cp)).collect();

    // Timing cost of component i sitting at `anchor`, against every placed
    // neighbour.
    let timing_of = |i: usize, anchor: TileCoord, anchors: &[Option<TileCoord>]| -> f64 {
        edges
            .iter()
            .filter_map(|&(a, b)| {
                if a == i {
                    anchors[b].map(|t| edge_cost(anchor, &pins[i], t, &pins[b]))
                } else if b == i {
                    anchors[a].map(|t| edge_cost(t, &pins[a], anchor, &pins[i]))
                } else {
                    None
                }
            })
            .sum()
    };

    // Process big components first (classic big-rocks floorplanning):
    // placing the large rigid rectangles before the small ones keeps the
    // free space in large windows. Ties resolve to BFS order, preserving
    // Algorithm 1's discovery order among equals.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(checkpoints[i].meta.pblock.area()), i));

    let mut anchors: Vec<Option<TileCoord>> = vec![None; n];
    let mut placed_pblocks: Vec<Pblock> = Vec::with_capacity(n);
    for (step, &i) in order.iter().enumerate() {
        let cp = checkpoints[i];
        // Score all legal candidates.
        let scored: Vec<(f64, TileCoord)> = anchor_candidates(cp, device)
            .into_iter()
            .filter_map(|anchor| {
                let pb = pblock_at(cp, anchor);
                if placed_pblocks.iter().any(|p| p.overlaps(&pb)) {
                    return None; // hard illegal: components may not overlap
                }
                let t = timing_of(i, anchor, &anchors);
                let g = congestion_cost(&pb, &placed_pblocks, device);
                Some((t + opts.congestion_weight * g, anchor))
            })
            .collect();
        // The cheapest one; ties resolve bottom-left (row-major), so
        // components form shelves from the bottom of the chip upward.
        let Some(&(score, anchor)) = scored.iter().min_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then_with(|| (a.1.row, a.1.col).cmp(&(b.1.row, b.1.col)))
        }) else {
            return Err(StitchError::NoValidLocation {
                component: cp.meta.signature.clone(),
                tried: anchor_candidates(cp, device).len(),
            });
        };

        if obs.enabled() {
            // Eq. 1 / Eq. 3 split of the chosen candidate's cost.
            let t = timing_of(i, anchor, &anchors);
            let g = congestion_cost(&pblock_at(cp, anchor), &placed_pblocks, device);
            obs.point(
                "candidate",
                &[
                    ("component", cp.meta.signature.as_str().into()),
                    ("step", step.into()),
                    ("candidates", scored.len().into()),
                    ("timing_cost", t.into()),
                    ("congestion_cost", g.into()),
                    ("score", score.into()),
                    ("anchor_col", anchor.col.into()),
                    ("anchor_row", anchor.row.into()),
                ],
            );
        }
        anchors[i] = Some(anchor);
        placed_pblocks.push(pblock_at(cp, anchor));
    }

    // Refinement sweeps in BFS order: every component moves to the legal
    // anchor minimizing its partition-pin wirelength now that all
    // neighbours exist. This is what keeps inter-component hops — the
    // assembled design's critical paths — short.
    for _sweep in 0..3 {
        let mut moved = false;
        for i in 0..n {
            let cp = checkpoints[i];
            let current = anchors[i].expect("all placed");
            let others: Vec<Pblock> = (0..n)
                .filter(|&j| j != i)
                .map(|j| pblock_at(checkpoints[j], anchors[j].expect("placed")))
                .collect();
            let mut best = (
                timing_of(i, current, &anchors)
                    + opts.congestion_weight
                        * congestion_cost(&pblock_at(cp, current), &others, device),
                current,
            );
            for anchor in anchor_candidates(cp, device) {
                let pb = pblock_at(cp, anchor);
                if others.iter().any(|p| p.overlaps(&pb)) {
                    continue;
                }
                let cost = timing_of(i, anchor, &anchors)
                    + opts.congestion_weight * congestion_cost(&pb, &others, device);
                if cost + 1e-9 < best.0 {
                    best = (cost, anchor);
                }
            }
            if best.1 != current {
                anchors[i] = Some(best.1);
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }

    // Final costs over the complete placement.
    let final_anchors: Vec<TileCoord> = anchors.iter().map(|a| a.expect("all placed")).collect();
    let mut total_t = 0.0;
    for &(a, b) in edges {
        total_t += edge_cost(final_anchors[a], &pins[a], final_anchors[b], &pins[b]);
    }
    let mut total_g = 0.0;
    for (i, &anchor) in final_anchors.iter().enumerate() {
        let pb = pblock_at(checkpoints[i], anchor);
        let others: Vec<Pblock> = final_anchors
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(j, &a)| pblock_at(checkpoints[j], a))
            .collect();
        total_g += congestion_cost(&pb, &others, device);
    }
    if obs.enabled() {
        obs.point(
            "placement_done",
            &[
                ("components", n.into()),
                ("timing_cost", total_t.into()),
                ("congestion_cost", total_g.into()),
            ],
        );
    }
    place_span.end();
    Ok(PlacementOutcome {
        anchors: final_anchors,
        timing_cost: total_t,
        congestion_cost: total_g,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_netlist::{Cell, CellKind, CheckpointMeta, Endpoint, ModuleBuilder, StreamRole};

    fn checkpoint(name: &str, pb: Pblock, device: &Device) -> Checkpoint {
        let mut b = ModuleBuilder::new(name);
        let din = b.input("din", StreamRole::Source, 16);
        let dout = b.output("dout", StreamRole::Sink, 16);
        let c = b.cell(Cell::new("c", CellKind::full_slice()));
        b.connect("i", Endpoint::Port(din), [Endpoint::Cell(c)]);
        b.connect("o", Endpoint::Cell(c), [Endpoint::Port(dout)]);
        let mut m = b.finish().unwrap();
        m.set_placement(pi_netlist::CellId(0), TileCoord::new(pb.col_lo, pb.row_lo))
            .unwrap();
        m.pblock = Some(pb);
        m.lock();
        Checkpoint {
            meta: CheckpointMeta {
                signature: name.to_string(),
                fmax_mhz: 500.0,
                resources: m.resources(),
                pblock: pb,
                device: device.name().to_string(),
                latency_cycles: 4,
            },
            module: m,
        }
    }

    #[test]
    fn chain_places_without_overlap() {
        let device = Device::test_part();
        let pb = Pblock::new(1, 8, 0, 9);
        let cps: Vec<Checkpoint> = (0..4)
            .map(|i| checkpoint(&format!("c{i}"), pb, &device))
            .collect();
        let refs: Vec<&Checkpoint> = cps.iter().collect();
        let edges = [(0, 1), (1, 2), (2, 3)];
        let out =
            place_components(&refs, &edges, &device, &ComponentPlacerOptions::default()).unwrap();
        assert_eq!(out.anchors.len(), 4);
        // Pairwise disjoint pblocks.
        for i in 0..4 {
            for j in (i + 1)..4 {
                let a = pblock_at(&cps[i], out.anchors[i]);
                let b = pblock_at(&cps[j], out.anchors[j]);
                assert!(!a.overlaps(&b), "{a} overlaps {b}");
            }
        }
        assert!(out.timing_cost > 0.0);
    }

    #[test]
    fn connected_components_stay_close() {
        let device = Device::xcku5p_like();
        let pb = Pblock::new(1, 16, 0, 29);
        let cps: Vec<Checkpoint> = (0..3)
            .map(|i| checkpoint(&format!("c{i}"), pb, &device))
            .collect();
        let refs: Vec<&Checkpoint> = cps.iter().collect();
        let edges = [(0, 1), (1, 2)];
        let out =
            place_components(&refs, &edges, &device, &ComponentPlacerOptions::default()).unwrap();
        // Each connected pair within a pblock-height-ish distance, not flung
        // across the chip.
        for &(a, b) in &edges {
            let ca = pblock_at(&cps[a], out.anchors[a]).center();
            let cb = pblock_at(&cps[b], out.anchors[b]).center();
            assert!(
                ca.manhattan(&cb) < 120,
                "components {a},{b} are {} tiles apart",
                ca.manhattan(&cb)
            );
        }
    }

    #[test]
    fn too_many_components_is_an_error() {
        let device = Device::test_part();
        // Each component needs a 17-column-wide pblock; the test part fits
        // only a couple.
        let pb = Pblock::new(1, 16, 0, 39);
        let cps: Vec<Checkpoint> = (0..5)
            .map(|i| checkpoint(&format!("c{i}"), pb, &device))
            .collect();
        let refs: Vec<&Checkpoint> = cps.iter().collect();
        let edges: Vec<(usize, usize)> = (0..4).map(|i| (i, i + 1)).collect();
        let r = place_components(&refs, &edges, &device, &ComponentPlacerOptions::default());
        assert!(matches!(r, Err(StitchError::NoValidLocation { .. })));
    }

    #[test]
    fn pin_offsets_fall_back_to_the_center() {
        let device = Device::test_part();
        let pb = Pblock::new(1, 8, 0, 9);
        let cp = checkpoint("c", pb, &device);
        // The test checkpoint has no partpins set, so both offsets default
        // to the pblock center.
        let o = pin_offsets(&cp);
        assert_eq!(o.din, (pb.width() / 2, pb.height() / 2));
        assert_eq!(o.dout, o.din);
    }

    #[test]
    fn refinement_pulls_connected_components_together() {
        // Chain of four: after placement, total edge cost must be no worse
        // than the trivial stacked arrangement's.
        let device = Device::xcku5p_like();
        let pb = Pblock::new(1, 16, 0, 31);
        let cps: Vec<Checkpoint> = (0..4)
            .map(|i| checkpoint(&format!("c{i}"), pb, &device))
            .collect();
        let refs: Vec<&Checkpoint> = cps.iter().collect();
        let edges = [(0, 1), (1, 2), (2, 3)];
        let out =
            place_components(&refs, &edges, &device, &ComponentPlacerOptions::default()).unwrap();
        // Stacked vertically, center-to-center HPWL per edge = pblock
        // height (32); three edges -> 96. Refinement must land at or below
        // a loose multiple of that.
        assert!(
            out.timing_cost <= 96.0 * 2.0,
            "timing cost {}",
            out.timing_cost
        );
    }

    #[test]
    fn determinism() {
        let device = Device::test_part();
        let pb = Pblock::new(1, 8, 0, 9);
        let cps: Vec<Checkpoint> = (0..3)
            .map(|i| checkpoint(&format!("c{i}"), pb, &device))
            .collect();
        let refs: Vec<&Checkpoint> = cps.iter().collect();
        let edges = [(0, 1), (1, 2)];
        let a =
            place_components(&refs, &edges, &device, &ComponentPlacerOptions::default()).unwrap();
        let b =
            place_components(&refs, &edges, &device, &ComponentPlacerOptions::default()).unwrap();
        assert_eq!(a.anchors, b.anchors);
    }
}
