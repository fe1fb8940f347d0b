//! Simulated-annealing placement.
//!
//! One engine serves both flows:
//! * the OOC flow places a single module inside a tight pblock
//!   ([`place_module_obs`]),
//! * the monolithic baseline places the whole flat design across the chip
//!   (same entry point, region = full device),
//! * the assembled flow never calls this: its instances arrive locked and
//!   component-level placement is the stitcher's job.
//!
//! Cost = Σ over nets of HPWL × timing weight; combinational nets weigh
//! more because every tile they stretch costs picoseconds on a critical
//! path. Moves are range-limited, with the window shrinking as the
//! temperature drops (classic VPR-style schedule).

use crate::PnrError;
use pi_fabric::{Device, Pblock, SiteKind, TileCoord};
use pi_netlist::{Endpoint, Module};
use pi_obs::Obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Placement options.
#[derive(Debug, Clone, Copy)]
pub struct PlaceOptions {
    /// RNG seed — same seed, same placement.
    pub seed: u64,
    /// Move budget multiplier. 1.0 is the default effort; the performance-
    /// exploration loop raises it for small OOC modules.
    pub effort: f64,
    /// Placement region; `None` means the full device (monolithic default).
    pub region: Option<Pblock>,
}

impl Default for PlaceOptions {
    fn default() -> Self {
        PlaceOptions {
            seed: 1,
            effort: 1.0,
            region: None,
        }
    }
}

/// Statistics from one placement run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlaceStats {
    pub moves: u64,
    pub accepted: u64,
    pub initial_cost: f64,
    pub final_cost: f64,
}

/// Weight applied to nets with combinational endpoints: they shape the
/// critical path, so the annealer works harder on them.
const COMB_NET_WEIGHT: f64 = 2.5;

/// Bounding box of a net's endpoints, rebuilt by a branch-free min/max
/// fold whenever one of them moves. Synthesis caps fan-out at 8 sinks
/// (`pi_synth`'s `emit_fanout`), so no net has more than 9 endpoints and
/// the mean is 2.0 movable ones: a moved endpoint is nearly always alone on
/// its boundary, the one case incremental boundary counts (VPR's trick for
/// high-fanout nets) cannot settle without rescanning the net anyway. The
/// fold is that rescan, with nothing to keep in sync.
#[derive(Clone, Copy)]
struct Bbox {
    cmin: u16,
    cmax: u16,
    rmin: u16,
    rmax: u16,
}

impl Bbox {
    /// The fold identity. It has no cost; every modeled net holds at least
    /// one movable cell, so a folded box is never empty.
    const EMPTY: Bbox = Bbox {
        cmin: u16::MAX,
        cmax: 0,
        rmin: u16::MAX,
        rmax: 0,
    };

    #[inline]
    fn with(self, at: TileCoord) -> Bbox {
        Bbox {
            cmin: self.cmin.min(at.col),
            cmax: self.cmax.max(at.col),
            rmin: self.rmin.min(at.row),
            rmax: self.rmax.max(at.row),
        }
    }

    #[inline]
    fn cost(self, weight: f64) -> f64 {
        weight * f64::from(self.cmax - self.cmin) + weight * f64::from(self.rmax - self.rmin)
    }
}

/// Compressed rows of ids: row `i` is `items[ptr[i]..ptr[i + 1]]`.
struct Csr {
    ptr: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    #[inline]
    fn row(&self, i: usize) -> &[u32] {
        &self.items[self.ptr[i] as usize..self.ptr[i + 1] as usize]
    }

    fn rows(&self) -> usize {
        self.ptr.len() - 1
    }

    /// The inverse relation over `n` ids: row `j` lists, ascending, the
    /// rows of `self` that contain `j`.
    fn transposed(&self, n: usize) -> Csr {
        let mut ptr = vec![0u32; n + 1];
        for &j in &self.items {
            ptr[j as usize + 1] += 1;
        }
        for j in 0..n {
            ptr[j + 1] += ptr[j];
        }
        let mut next = ptr.clone();
        let mut items = vec![0u32; self.items.len()];
        for i in 0..self.rows() {
            for &j in self.row(i) {
                items[next[j as usize] as usize] = i as u32;
                next[j as usize] += 1;
            }
        }
        Csr { ptr, items }
    }
}

/// Union of two ascending duplicate-free id lists, in the same form.
fn merge_sorted(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Base number of moves per cell; total budget is
/// `effort × MOVES_PER_CELL × n × ln(n)`.
const MOVES_PER_CELL: f64 = 24.0;

/// Hard cap on total annealing moves — the "default effort" ceiling a
/// vendor tool runs with. Very large monolithic designs hit this cap and
/// get proportionally less optimization per cell, which is exactly the
/// effect the paper exploits by pre-implementing small modules.
const MOVE_CAP: u64 = 40_000_000;

/// Marks an unoccupied site in the occupancy grid.
const FREE: u32 = u32::MAX;

/// Place all movable cells of a module. Fixed cells keep their placement
/// and block their sites. Returns statistics for reports, and emits one
/// `anneal_round` point per temperature step (cost, temperature, window,
/// acceptance rate) under the `pnr::place` scope.
pub fn place_module_obs(
    module: &mut Module,
    device: &Device,
    opts: &PlaceOptions,
    obs: &Obs,
) -> Result<PlaceStats, PnrError> {
    let obs = obs.scoped("pnr::place").with_seed(opts.seed);
    let region = opts.region.unwrap_or_else(|| device.full_pblock());
    region.validate(device)?;

    // Dense per-cell tables, and which cell sits on each site. The grid
    // spans the device, not the region: Iob cells may be placed outside it
    // (see the fallback below).
    let n_cells = module.cells().len();
    let cell_kind: Vec<SiteKind> = module.cells().iter().map(|c| c.kind.site()).collect();
    let cell_fixed: Vec<bool> = module.cells().iter().map(|c| c.fixed).collect();
    let rows = usize::from(device.rows());
    let site_index = |at: TileCoord| usize::from(at.col) * rows + usize::from(at.row);
    let mut occupant: Vec<u32> = vec![FREE; usize::from(device.cols()) * rows];
    let mut positions: Vec<TileCoord> = vec![TileCoord::new(0, 0); n_cells];
    let mut movable: Vec<u32> = Vec::with_capacity(n_cells);
    for (i, cell) in module.cells().iter().enumerate() {
        if cell.fixed {
            let at = cell
                .placement
                .ok_or_else(|| PnrError::Unplaced(format!("fixed cell {}", cell.name)))?;
            // A fixed cell off the device blocks no site a move can target.
            if device.in_bounds(at) {
                occupant[site_index(at)] = i as u32;
            }
            positions[i] = at;
        } else {
            movable.push(i as u32);
        }
    }

    let mut rng = StdRng::seed_from_u64(opts.seed);

    // Free sites per kind inside the region.
    let free_in = |pb: &Pblock, kind: SiteKind| -> Vec<TileCoord> {
        device
            .sites_in(pb, kind)
            .filter(|&c| occupant[site_index(c)] == FREE)
            .collect()
    };
    let mut free_sites = SiteKind::ALL.map(|kind| free_in(&region, kind));
    // Iob cells may sit outside CLB-focused pblocks: fall back to the whole
    // device's IO columns for them.
    let io_sites = &mut free_sites[SiteKind::Iob.index()];
    if io_sites.is_empty() {
        *io_sites = free_in(&device.full_pblock(), SiteKind::Iob);
    }

    // Initial placement: shuffle each kind's sites (in `SiteKind::ALL`
    // order — the shuffles consume the RNG stream) and deal them out.
    for sites in &mut free_sites {
        shuffle(sites, &mut rng);
    }
    let mut demand = [0usize; 5];
    for &i in &movable {
        demand[cell_kind[i as usize].index()] += 1;
    }
    for kind in SiteKind::ALL {
        let (needed, available) = (demand[kind.index()], free_sites[kind.index()].len());
        if needed > available {
            return Err(PnrError::Unplaceable {
                kind: kind.short_name(),
                needed,
                available,
            });
        }
    }
    let mut next_site = [0usize; 5];
    for &i in &movable {
        let k = cell_kind[i as usize].index();
        let at = free_sites[k][next_site[k]];
        next_site[k] += 1;
        positions[i as usize] = at;
        occupant[site_index(at)] = i;
    }
    let site_count = free_sites.map(|sites| sites.len());

    // Net model: row `n` of `nets` holds net `n`'s movable cells (each
    // once); its fixed endpoints — fixed cells and partition pins — are
    // folded into the constant `net_fixed[n]`. Unplanned ports resolve to
    // nothing, and nets without a movable cell are not modeled.
    let mut nets = Csr {
        ptr: vec![0],
        items: Vec::new(),
    };
    let mut net_fixed: Vec<Bbox> = Vec::new();
    let mut net_weight: Vec<f64> = Vec::new();
    let mut last_net = vec![u32::MAX; n_cells];
    for net in module.nets() {
        if net.is_clock {
            continue;
        }
        let id = net_weight.len() as u32;
        let mut fixed = Bbox::EMPTY;
        let mut comb = false;
        for e in net.endpoints() {
            match e {
                Endpoint::Cell(c) => {
                    let i = c.index();
                    comb |= !module.cells()[i].registered;
                    if cell_fixed[i] {
                        fixed = fixed.with(positions[i]);
                    } else if last_net[i] != id {
                        last_net[i] = id;
                        nets.items.push(i as u32);
                    }
                }
                Endpoint::Port(pid) => {
                    if let Some(pp) = module.ports()[pid.index()].partpin {
                        fixed = fixed.with(pp);
                    }
                }
            }
        }
        if nets.items.len() == nets.ptr[id as usize] as usize {
            continue; // nothing movable on this net
        }
        nets.ptr.push(nets.items.len() as u32);
        net_fixed.push(fixed);
        net_weight.push(if comb { COMB_NET_WEIGHT } else { 1.0 });
    }
    let cell_nets = nets.transposed(n_cells);

    // Cached per-net boxes. `fold` recomputes one from the current
    // positions; the cost it yields is pure u16 min/max, so it does not
    // depend on the order endpoints are visited in.
    let fold = |n: usize, positions: &[TileCoord]| {
        nets.row(n)
            .iter()
            .fold(net_fixed[n], |bb, &c| bb.with(positions[c as usize]))
    };
    let mut boxes: Vec<Bbox> = (0..nets.rows()).map(|n| fold(n, &positions)).collect();
    let initial_cost: f64 = boxes
        .iter()
        .zip(&net_weight)
        .map(|(bb, &w)| bb.cost(w))
        .sum();
    let mut stats = PlaceStats {
        initial_cost,
        final_cost: initial_cost,
        ..Default::default()
    };

    if movable.len() > 1 && !boxes.is_empty() {
        let n = movable.len() as f64;
        let budget =
            ((opts.effort * MOVES_PER_CELL * n * n.ln().max(1.0)) as u64).clamp(200, MOVE_CAP);
        let rounds = 48u64;
        let moves_per_round = (budget / rounds).max(1);
        let mut cost = initial_cost;
        let mut temp = (initial_cost / boxes.len() as f64).max(1.0);
        let span = u32::from(region.width()).max(u32::from(region.height()));
        let col_site: Vec<Option<SiteKind>> = (0..device.cols())
            .map(|c| device.column_kind(c).and_then(|k| k.site()))
            .collect();
        let (col_lo, col_hi) = (i32::from(region.col_lo), i32::from(region.col_hi));
        let (row_lo, row_hi) = (i32::from(region.row_lo), i32::from(region.row_hi));
        // Move-loop scratch, reused so the hot path allocates nothing.
        let mut merged: Vec<u32> = Vec::new();
        let mut proposed: Vec<Bbox> = Vec::new();

        let anneal_span = obs.span_with(
            "anneal",
            &[
                ("cells", movable.len().into()),
                ("nets", boxes.len().into()),
                ("rounds", rounds.into()),
                ("moves_per_round", moves_per_round.into()),
            ],
        );
        for round in 0..rounds {
            // Range limit shrinks geometrically with the round index.
            let frac = 1.0 - (round as f64 / rounds as f64);
            let window = ((f64::from(span) * frac * frac) as u32).max(3);
            let mut round_accepted = 0u64;
            for _ in 0..moves_per_round {
                stats.moves += 1;
                let cell = movable[rng.gen_range(0..movable.len())] as usize;
                let kind = cell_kind[cell];
                if site_count[kind.index()] < 2 {
                    continue;
                }
                let cur = positions[cell];
                // Propose a target *inside* the range window. Sampling the
                // window directly (instead of rejection-sampling the whole
                // region) keeps the proposal rate constant as the window
                // shrinks — otherwise fine-tuning rounds do nothing and
                // stretched nets survive to the critical path.
                let w = window as i32;
                let mut target = None;
                for _ in 0..8 {
                    let col = i32::from(cur.col) + rng.gen_range(-w..=w);
                    let row = i32::from(cur.row) + rng.gen_range(-w..=w);
                    if col < col_lo || col > col_hi || row < row_lo || row > row_hi {
                        continue;
                    }
                    let cand = TileCoord::new(col as u16, row as u16);
                    if cand != cur && col_site[col as usize] == Some(kind) {
                        target = Some(cand);
                        break;
                    }
                }
                let Some(target) = target else {
                    // Eight tries found no other same-kind site in the
                    // window: the move is skipped, not retried elsewhere.
                    // Common where the kind is sparse or the region narrow
                    // (~30 % of proposals in 64×8 pblocks end here).
                    continue;
                };
                let swap_with = occupant[site_index(target)];
                if swap_with != FREE && cell_fixed[swap_with as usize] {
                    continue;
                }

                // Price the move: apply it to `positions` only, fold the
                // affected nets' proposed boxes into scratch, and compare
                // with the cached ones. Both sums run left to right over
                // ascending net ids.
                let affected: &[u32] = if swap_with == FREE {
                    cell_nets.row(cell)
                } else {
                    let other = cell_nets.row(swap_with as usize);
                    merge_sorted(cell_nets.row(cell), other, &mut merged);
                    &merged
                };
                positions[cell] = target;
                if swap_with != FREE {
                    positions[swap_with as usize] = cur;
                }
                let (mut before, mut after) = (0.0f64, 0.0f64);
                proposed.clear();
                for &ni in affected {
                    let (ni, bb) = (ni as usize, fold(ni as usize, &positions));
                    before += boxes[ni].cost(net_weight[ni]);
                    after += bb.cost(net_weight[ni]);
                    proposed.push(bb);
                }
                let delta = after - before;
                let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temp).exp();
                if accept {
                    stats.accepted += 1;
                    round_accepted += 1;
                    cost += delta;
                    for (&ni, &bb) in affected.iter().zip(&proposed) {
                        boxes[ni as usize] = bb;
                    }
                    occupant[site_index(cur)] = swap_with;
                    occupant[site_index(target)] = cell as u32;
                } else {
                    // A reject restores the two positions and nothing else.
                    positions[cell] = cur;
                    if swap_with != FREE {
                        positions[swap_with as usize] = target;
                    }
                }
            }
            if obs.enabled() {
                obs.point(
                    "anneal_round",
                    &[
                        ("round", round.into()),
                        ("temp", temp.into()),
                        ("cost", cost.into()),
                        ("window", window.into()),
                        ("accepted", round_accepted.into()),
                        ("rejected", (moves_per_round - round_accepted).into()),
                        (
                            "accept_rate",
                            (round_accepted as f64 / moves_per_round as f64).into(),
                        ),
                    ],
                );
            }
            temp *= 0.82;
        }
        anneal_span.end();
        stats.final_cost = cost;
    }

    // Commit placements.
    for &i in &movable {
        module.set_placement(pi_netlist::CellId(i), positions[i as usize])?;
    }
    Ok(stats)
}

/// Fisher–Yates with our seeded RNG (avoids pulling in rand's slice trait
/// for one call site).
fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_netlist::{Cell, CellId, CellKind, ModuleBuilder, Net, StreamRole};
    use proptest::prelude::*;
    use std::collections::HashMap;

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

    #[test]
    fn places_all_cells_in_region() {
        let device = Device::test_part();
        let mut m = chain_module(30);
        let region = Pblock::new(1, 7, 0, 19);
        let opts = PlaceOptions {
            seed: 3,
            effort: 1.0,
            region: Some(region),
        };
        place_module_obs(&mut m, &device, &opts, &Obs::null()).unwrap();
        assert!(m.fully_placed());
        for c in m.cells() {
            assert!(region.contains(c.placement.unwrap()), "{:?}", c.placement);
        }
        // No two cells share a site.
        let mut seen = std::collections::HashSet::new();
        for c in m.cells() {
            assert!(seen.insert(c.placement.unwrap()));
        }
    }

    #[test]
    fn annealing_reduces_wirelength() {
        let device = Device::test_part();
        let mut m = chain_module(60);
        let opts = PlaceOptions {
            seed: 11,
            effort: 2.0,
            region: None,
        };
        let stats = place_module_obs(&mut m, &device, &opts, &Obs::null()).unwrap();
        assert!(
            stats.final_cost < stats.initial_cost,
            "no improvement: {} -> {}",
            stats.initial_cost,
            stats.final_cost
        );
        // A 60-cell chain placed well should have near-minimal wirelength:
        // each hop a few tiles at most on average.
        assert!(m.wirelength() < 60 * 6);
    }

    #[test]
    fn cached_cost_matches_rescan_after_annealing() {
        // `final_cost` is accumulated from per-move deltas over millions
        // of moves; it must equal the HPWL cost recomputed from the final
        // placement. Any difference means the cached boxes diverged from
        // the positions (a missed commit or a bad revert).
        let device = Device::test_part();
        let mut m = chain_module(50);
        let opts = PlaceOptions {
            seed: 23,
            effort: 1.5,
            region: None,
        };
        let stats = place_module_obs(&mut m, &device, &opts, &Obs::null()).unwrap();
        let mut total = 0.0f64;
        for net in m.nets() {
            if net.is_clock {
                continue;
            }
            let mut pts: Vec<TileCoord> = Vec::new();
            let mut comb = false;
            let mut movable = false;
            for e in net.endpoints() {
                match e {
                    Endpoint::Cell(c) => {
                        let cell = &m.cells()[c.index()];
                        comb |= !cell.registered;
                        movable |= !cell.fixed;
                        pts.push(cell.placement.unwrap());
                    }
                    Endpoint::Port(p) => {
                        if let Some(pp) = m.ports()[p.index()].partpin {
                            pts.push(pp);
                        }
                    }
                }
            }
            if !movable || pts.is_empty() {
                continue;
            }
            let w = if comb { COMB_NET_WEIGHT } else { 1.0 };
            let (mut cmin, mut cmax, mut rmin, mut rmax) = (u16::MAX, 0u16, u16::MAX, 0u16);
            for p in &pts {
                cmin = cmin.min(p.col);
                cmax = cmax.max(p.col);
                rmin = rmin.min(p.row);
                rmax = rmax.max(p.row);
            }
            total += w * f64::from(cmax - cmin) + w * f64::from(rmax - rmin);
        }
        assert!(
            (stats.final_cost - total).abs() < 1e-6,
            "cached cost {} diverged from rescan {}",
            stats.final_cost,
            total
        );
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let device = Device::test_part();
        let opts = PlaceOptions {
            seed: 42,
            effort: 1.0,
            region: None,
        };
        let mut a = chain_module(40);
        let mut b = chain_module(40);
        place_module_obs(&mut a, &device, &opts, &Obs::null()).unwrap();
        place_module_obs(&mut b, &device, &opts, &Obs::null()).unwrap();
        for (ca, cb) in a.cells().iter().zip(b.cells()) {
            assert_eq!(ca.placement, cb.placement);
        }
    }

    #[test]
    fn region_too_small_is_an_error() {
        let device = Device::test_part();
        let mut m = chain_module(100);
        let opts = PlaceOptions {
            seed: 1,
            effort: 1.0,
            region: Some(Pblock::new(1, 2, 0, 3)), // 8 slices for 100 cells
        };
        match place_module_obs(&mut m, &device, &opts, &Obs::null()) {
            Err(PnrError::Unplaceable {
                needed, available, ..
            }) => {
                assert_eq!(needed, 100);
                assert!(available < 100);
            }
            other => panic!("expected Unplaceable, got {other:?}"),
        }
    }

    #[test]
    fn fixed_cells_do_not_move() {
        let device = Device::test_part();
        let mut m = chain_module(10);
        let at = TileCoord::new(3, 3);
        m.set_placement(pi_netlist::CellId(0), at).unwrap();
        m.cells_mut().unwrap()[0].fixed = true;
        place_module_obs(&mut m, &device, &PlaceOptions::default(), &Obs::null()).unwrap();
        assert_eq!(m.cells()[0].placement, Some(at));
    }

    #[test]
    fn dsp_cells_land_on_dsp_columns() {
        let device = Device::test_part();
        let mut b = ModuleBuilder::new("mix");
        let din = b.input("din", StreamRole::Source, 16);
        let s = b.cell(Cell::new("s", CellKind::full_slice()));
        let d = b.cell(Cell::new("d", CellKind::Dsp));
        let r = b.cell(Cell::new("r", CellKind::Bram));
        let dout = b.output("dout", StreamRole::Sink, 16);
        b.connect("a", Endpoint::Port(din), [Endpoint::Cell(s)]);
        b.connect("b", Endpoint::Cell(s), [Endpoint::Cell(d)]);
        b.connect("c", Endpoint::Cell(d), [Endpoint::Cell(r)]);
        b.connect("e", Endpoint::Cell(r), [Endpoint::Port(dout)]);
        let mut m = b.finish().unwrap();
        place_module_obs(&mut m, &device, &PlaceOptions::default(), &Obs::null()).unwrap();
        let kind_at = |i: usize| {
            device
                .tile_kind(m.cells()[i].placement.unwrap())
                .unwrap()
                .site()
                .unwrap()
        };
        assert_eq!(kind_at(0), SiteKind::Slice);
        assert_eq!(kind_at(1), SiteKind::Dsp48);
        assert_eq!(kind_at(2), SiteKind::Ramb36);
    }

    /// The annealer written the obvious way, as the oracle for the dense
    /// kernel: no net index, no cached boxes, no pre-folded fixed
    /// endpoints. Every move scans every net of the netlist for the moved
    /// cells and prices the hits by walking their endpoints; sites are
    /// tracked in a `HashMap`. It draws from the RNG in the same order and
    /// sums in the same order, so everything it returns must match the
    /// kernel bit for bit.
    fn place_module_reference(
        module: &mut Module,
        device: &Device,
        opts: &PlaceOptions,
    ) -> PlaceStats {
        let region = opts.region.unwrap_or_else(|| device.full_pblock());
        let cells = module.cells().to_vec();
        let mut occupied: HashMap<TileCoord, usize> = HashMap::new();
        let mut positions: Vec<Option<TileCoord>> = vec![None; cells.len()];
        let mut movable = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            if cell.fixed {
                let at = cell.placement.expect("fixed cells are placed");
                occupied.insert(at, i);
                positions[i] = Some(at);
            } else {
                movable.push(i);
            }
        }
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let mut free_sites: HashMap<SiteKind, Vec<TileCoord>> = HashMap::new();
        for kind in SiteKind::ALL {
            let mut sites: Vec<TileCoord> = device
                .sites_in(&region, kind)
                .filter(|c| !occupied.contains_key(c))
                .collect();
            if kind == SiteKind::Iob && sites.is_empty() {
                sites = device
                    .sites_in(&device.full_pblock(), kind)
                    .filter(|c| !occupied.contains_key(c))
                    .collect();
            }
            free_sites.insert(kind, sites);
        }
        for kind in SiteKind::ALL {
            shuffle(free_sites.get_mut(&kind).unwrap(), &mut rng);
        }
        let mut next_site: HashMap<SiteKind, usize> = HashMap::new();
        for &i in &movable {
            let kind = cells[i].kind.site();
            let cursor = next_site.entry(kind).or_insert(0);
            let at = free_sites[&kind][*cursor];
            *cursor += 1;
            positions[i] = Some(at);
            occupied.insert(at, i);
        }

        // Weighted HPWL of one net from its endpoints; `None` for nets the
        // placer does not model (clocks, nets without a movable cell).
        let net_cost = |net: &Net, positions: &[Option<TileCoord>]| -> Option<f64> {
            if net.is_clock {
                return None;
            }
            let mut pts: Vec<TileCoord> = Vec::new();
            let (mut comb, mut any_movable) = (false, false);
            for e in net.endpoints() {
                match e {
                    Endpoint::Cell(c) => {
                        comb |= !cells[c.index()].registered;
                        any_movable |= !cells[c.index()].fixed;
                        pts.push(positions[c.index()].expect("placed"));
                    }
                    Endpoint::Port(p) => pts.extend(module.ports()[p.index()].partpin),
                }
            }
            let w = if comb { COMB_NET_WEIGHT } else { 1.0 };
            let dc = pts.iter().map(|p| p.col).max()? - pts.iter().map(|p| p.col).min()?;
            let dr = pts.iter().map(|p| p.row).max()? - pts.iter().map(|p| p.row).min()?;
            any_movable.then(|| w * f64::from(dc) + w * f64::from(dr))
        };
        let on_net = |net: &Net, cell: Option<usize>| {
            cell.is_some_and(|c| {
                net.endpoints()
                    .any(|e| e == Endpoint::Cell(CellId(c as u32)))
            })
        };
        let initial: Vec<f64> = module
            .nets()
            .iter()
            .filter_map(|n| net_cost(n, &positions))
            .collect();
        let initial_cost: f64 = initial.iter().sum();
        let mut stats = PlaceStats {
            initial_cost,
            final_cost: initial_cost,
            ..Default::default()
        };
        if movable.len() > 1 && !initial.is_empty() {
            let n = movable.len() as f64;
            let budget =
                ((opts.effort * MOVES_PER_CELL * n * n.ln().max(1.0)) as u64).clamp(200, MOVE_CAP);
            let moves_per_round = (budget / 48).max(1);
            let mut cost = initial_cost;
            let mut temp = (initial_cost / initial.len() as f64).max(1.0);
            let span = u32::from(region.width()).max(u32::from(region.height()));
            for round in 0..48u64 {
                let frac = 1.0 - (round as f64 / 48.0);
                let w = ((f64::from(span) * frac * frac) as u32).max(3) as i32;
                for _ in 0..moves_per_round {
                    stats.moves += 1;
                    let cell = movable[rng.gen_range(0..movable.len())];
                    let kind = cells[cell].kind.site();
                    if free_sites[&kind].len() < 2 {
                        continue;
                    }
                    let cur = positions[cell].expect("placed");
                    let target = (0..8).find_map(|_| {
                        let (dcol, drow) = (rng.gen_range(-w..=w), rng.gen_range(-w..=w));
                        cur.translated(dcol, drow).filter(|&cand| {
                            cand != cur
                                && region.contains(cand)
                                && device.site_at(cand).ok().flatten() == Some(kind)
                        })
                    });
                    let Some(target) = target else { continue };
                    let swap_with = occupied.get(&target).copied();
                    if swap_with.is_some_and(|o| cells[o].fixed) {
                        continue;
                    }
                    let price = |positions: &[Option<TileCoord>]| -> f64 {
                        module
                            .nets()
                            .iter()
                            .filter(|n| on_net(n, Some(cell)) || on_net(n, swap_with))
                            .filter_map(|n| net_cost(n, positions))
                            .sum()
                    };
                    let before = price(&positions);
                    positions[cell] = Some(target);
                    if let Some(o) = swap_with {
                        positions[o] = Some(cur);
                    }
                    let delta = price(&positions) - before;
                    if delta <= 0.0 || rng.gen::<f64>() < (-delta / temp).exp() {
                        stats.accepted += 1;
                        cost += delta;
                        occupied.remove(&cur);
                        occupied.insert(target, cell);
                        if let Some(o) = swap_with {
                            occupied.insert(cur, o);
                        }
                    } else {
                        positions[cell] = Some(cur);
                        if let Some(o) = swap_with {
                            positions[o] = Some(target);
                        }
                    }
                }
                temp *= 0.82;
            }
            stats.final_cost = cost;
        }
        for &i in &movable {
            module
                .set_placement(CellId(i as u32), positions[i].expect("placed"))
                .expect("movable cells accept a placement");
        }
        stats
    }

    /// A module with everything the kernel special-cases: fixed cells (in
    /// the region, outside it and off the device), planned and unplanned
    /// ports, a clock net, combinational cells, DSP/BRAM cells, an I/O
    /// buffer, a net that lists one cell twice and a 40-endpoint net,
    /// plus the random 3-pin nets in `wiring`.
    fn mixed_module(slices: usize, hard: usize, wiring: &[(usize, usize, usize)]) -> Module {
        let mut b = ModuleBuilder::new("mixed");
        let din = b.input("din", StreamRole::Source, 16);
        let dout = b.output("dout", StreamRole::Sink, 16);
        let loose = b.input("loose", StreamRole::Source, 1);
        let mut ids = Vec::new();
        for i in 0..slices {
            let cell = Cell::new(format!("s{i}"), CellKind::full_slice());
            ids.push(b.cell(if i % 3 == 0 {
                cell.combinational()
            } else {
                cell
            }));
        }
        for i in 0..hard {
            ids.push(b.cell(Cell::new(format!("d{i}"), CellKind::Dsp)));
            ids.push(b.cell(Cell::new(format!("r{i}"), CellKind::Bram)));
        }
        ids.push(b.cell(Cell::new("io", CellKind::IoBuf)));
        let cell = |i: usize| Endpoint::Cell(ids[i % ids.len()]);
        b.connect("in", Endpoint::Port(din), [cell(0), cell(1)]);
        b.connect("out", cell(2), [Endpoint::Port(dout), cell(ids.len() - 1)]);
        b.connect("unplanned", Endpoint::Port(loose), [cell(3)]);
        b.net(Net::new("clk", cell(4), vec![cell(5), cell(6)]).clock());
        b.connect("twice", cell(7), [cell(8), cell(7)]);
        b.connect("wide", cell(9), (10..49).map(cell));
        for (n, &(a, x, y)) in wiring.iter().enumerate() {
            b.connect(format!("w{n}"), cell(a), [cell(x), cell(y)]);
        }
        let mut m = b.finish().unwrap();
        let anchors = [(3, 3), (5, 7), (20, 30), (300, 300)];
        for (cell, (col, row)) in m.cells_mut().unwrap().iter_mut().zip(anchors) {
            cell.placement = Some(TileCoord::new(col, row));
            cell.fixed = true;
        }
        let ports = m.ports_mut().unwrap();
        ports[0].partpin = Some(TileCoord::new(4, 0));
        ports[1].partpin = Some(TileCoord::new(12, 19));
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// The dense kernel and the naive reference agree bit for bit:
        /// same placements, same move and accept counts, same costs.
        #[test]
        fn kernel_matches_naive_reference(
            slices in 12usize..40,
            hard in 1usize..4,
            wiring in proptest::collection::vec((0usize..64, 0usize..64, 0usize..64), 8..48),
            seed in 1u64..1000,
            in_pblock in 0u8..2,
        ) {
            let device = Device::test_part();
            // The pblock holds no I/O column, so the I/O buffer falls back
            // to a device I/O site outside the region.
            let region = (in_pblock == 1).then(|| Pblock::new(1, 16, 0, 19));
            let opts = PlaceOptions { seed, effort: 1.0, region };
            let mut fast = mixed_module(slices, hard, &wiring);
            let mut naive = fast.clone();
            let got = place_module_obs(&mut fast, &device, &opts, &Obs::null()).unwrap();
            let want = place_module_reference(&mut naive, &device, &opts);
            for (a, b) in fast.cells().iter().zip(naive.cells()) {
                prop_assert_eq!(a.placement, b.placement, "cell {}", &a.name);
            }
            prop_assert_eq!(got.moves, want.moves);
            prop_assert_eq!(got.accepted, want.accepted);
            prop_assert_eq!(got.initial_cost.to_bits(), want.initial_cost.to_bits());
            prop_assert_eq!(got.final_cost.to_bits(), want.final_cost.to_bits());
            let io = fast.cells().last().unwrap().placement.unwrap();
            prop_assert_eq!(device.site_at(io).unwrap(), Some(SiteKind::Iob));
            prop_assert!(region.is_none_or(|r| !r.contains(io)));
        }
    }

    #[test]
    fn merge_sorted_is_the_deduplicated_union() {
        let mut out = vec![99];
        merge_sorted(&[1, 4, 5, 9], &[0, 4, 9, 12, 13], &mut out);
        assert_eq!(out, [0, 1, 4, 5, 9, 12, 13]);
        merge_sorted(&[], &[2, 3], &mut out);
        assert_eq!(out, [2, 3]);
    }
}
