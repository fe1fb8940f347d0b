//! PathFinder-style negotiated-congestion routing on a tile-level
//! routing-resource graph.
//!
//! Every tile boundary offers [`RouteOptions::capacity`] wires. Each
//! negotiation iteration routes the still-unrouted nets **in parallel**
//! against a frozen snapshot of the congestion state, then merges the
//! proposed routes sequentially in a deterministic (criticality) order —
//! a proposal that lands on a tile the merge has already filled to
//! capacity is re-routed on the spot against the live state. Overused
//! tiles then get history costs, the nets through them are ripped up, and
//! the loop repeats — the classic negotiation, parallelized without
//! giving up byte-identical results at any `PI_THREADS`.
//!
//! Two quality levers ride on top of the negotiation:
//!
//! * **Steiner decomposition** — multi-terminal nets are decomposed into a
//!   rectilinear Steiner topology ([`steiner_topology`]: Prim over the
//!   terminals plus greedy Hanan-point insertion) before any A* runs, so
//!   the router walks short two-pin segments with tight per-segment
//!   bounding boxes instead of one fan-out star over the whole net bbox.
//!   Already-routed tree tiles are zero-cost sources for every later
//!   segment.
//! * **Slack-aware ordering** — per-net STA slacks are refreshed from the
//!   live congestion map every iteration; nets route most-negative-slack
//!   first ([`criticality_order`]) and the history/congestion share of
//!   [`Costs::node_cost`] is priced by criticality, so critical nets take
//!   direct paths and non-critical nets absorb the detours.
//!
//! The **incremental mode** is the flow's productivity lever: locked
//! routes seed the occupancy map and are never touched, so an assembled
//! design only pays for its inter-component nets.
//!
//! [`route_module_obs`] and [`route_design_obs`] are two thin fronts over
//! one body, [`route_into`]: task collection, occupancy seeding and route
//! write-back all read the nets through [`pi_netlist::NetView`], where a
//! module is the one-instance case of a design. One routing run builds one
//! `timing::TimingGraph`: every iteration's slack ordering re-analyzes it, and
//! the compile tail (`compile::report_routed`) takes the run's final timing
//! report from the same graph instead of building a second one. The
//! [`CongestionMap`] each analysis reads carries a summed-area table, so a
//! timing edge's congestion term is four lookups, not a box walk.

use crate::timing::TimingGraph;
use crate::PnrError;
use pi_fabric::{Device, TileCoord, TileKind};
use pi_netlist::{Design, Module, NetView, Route, Slot};
use pi_obs::Obs;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Routing options.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct RouteOptions {
    /// Negotiation iterations before giving up on congestion.
    pub max_iters: usize,
    /// Wires available per tile.
    pub capacity: u16,
}

impl Default for RouteOptions {
    fn default() -> Self {
        RouteOptions {
            max_iters: 8,
            // Wires per tile. Sized so a chip-filling monolithic design
            // (~26 average occupancy) negotiates to legality with headroom.
            capacity: 64,
        }
    }
}

/// Statistics from a routing run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouteStats {
    /// Nets actually routed in this run (locked nets are not counted).
    pub routed_nets: usize,
    /// Nets with fewer than two located endpoints (trivially routed).
    pub trivial_nets: usize,
    /// Total tiles occupied by the routes created in this run.
    pub wirelength: u64,
    /// Tiles still over capacity after negotiation (0 = fully legal).
    pub overused_tiles: usize,
    /// Negotiation iterations used.
    pub iterations: usize,
    /// A* open-set pops across the whole run — the router's work metric.
    pub expansions: u64,
    /// Two-pin segments routed through Steiner decomposition.
    pub steiner_segments: u64,
    /// Rip-ups of timing-critical (negative-slack) nets — these route
    /// first, at reduced congestion pricing, in the next iteration.
    pub criticality_reroutes: u64,
    /// Snapshot proposals that collided with an earlier merge (tile at
    /// capacity) and were re-routed against the live state.
    pub parallel_conflicts: u64,
}

/// Post-routing channel-occupancy map, consumed by the timing model's
/// congestion term (one box mean per timing edge).
#[derive(Debug, Clone)]
pub struct CongestionMap {
    cols: u16,
    rows: u16,
    capacity: u16,
    occ: Vec<u16>,
    /// Summed-area table over `occ`, column-major with a zero first column
    /// and row: entry `(c, r)` at `c * (rows + 1) + r` is the exact sum of
    /// every tile left of column `c` and above row `r`.
    sums: Vec<u64>,
}

impl CongestionMap {
    /// The map of a column-major occupancy grid (`occ[col * rows + row]`).
    fn new(rows: u16, capacity: u16, occ: Vec<u16>) -> CongestionMap {
        let rows_n = usize::from(rows);
        let cols = occ.len() / rows_n;
        let stride = rows_n + 1;
        let mut sums = vec![0u64; (cols + 1) * stride];
        for c in 0..cols {
            let mut column = 0u64;
            for r in 0..rows_n {
                column += u64::from(occ[c * rows_n + r]);
                sums[(c + 1) * stride + r + 1] = sums[c * stride + r + 1] + column;
            }
        }
        CongestionMap {
            cols: cols as u16,
            rows,
            capacity,
            occ,
            sums,
        }
    }

    /// Mean occupancy fraction over the bounding box of two endpoints —
    /// the local congestion a wire between them experiences. Four lookups
    /// in the summed-area table give the box's exact `u64` sum, so the
    /// mean is bit-equal to summing the box tile by tile. The box is
    /// clamped to the grid; one wholly off the grid reads 0.
    pub fn span_fraction(&self, a: TileCoord, b: TileCoord) -> f64 {
        // Half-open box [c0, c1) x [r0, r1), clamped to the grid.
        let (rows, cols) = (usize::from(self.rows), usize::from(self.cols));
        let c0 = usize::from(a.col.min(b.col));
        let c1 = (usize::from(a.col.max(b.col)) + 1).min(cols);
        let r0 = usize::from(a.row.min(b.row));
        let r1 = (usize::from(a.row.max(b.row)) + 1).min(rows);
        if c0 >= c1 || r0 >= r1 {
            return 0.0;
        }
        let at = |c: usize, r: usize| self.sums[c * (rows + 1) + r];
        let sum = (at(c1, r1) + at(c0, r0)) - (at(c0, r1) + at(c1, r0));
        let n = ((c1 - c0) * (r1 - r0)) as u64;
        sum as f64 / n as f64 / f64::from(self.capacity)
    }

    /// Tiles over capacity.
    pub fn overused(&self) -> usize {
        self.occ.iter().filter(|&&o| o > self.capacity).count()
    }
}

/// The shared congestion state: per-tile occupancy, history and base
/// costs. Frozen (shared immutably) while a wave of nets routes in
/// parallel; mutated only by the sequential merge and rip-up phases.
struct Costs {
    cols: u16,
    rows: u16,
    occ: Vec<u16>,
    hist: Vec<f32>,
    /// Per-tile base cost: 1 for fabric, higher for discontinuities.
    base: Vec<f32>,
}

impl Costs {
    fn new(device: &Device) -> Costs {
        let cols = device.cols();
        let rows = device.rows();
        let n = cols as usize * rows as usize;
        let mut base = vec![1.0f32; n];
        for c in 0..cols {
            let kind = device.column_kind(c).expect("column in range");
            let extra = match kind {
                TileKind::Io => 3.0,
                TileKind::Gap => 1.0,
                _ => 0.0,
            };
            if extra > 0.0 {
                for r in 0..rows {
                    base[c as usize * rows as usize + r as usize] += extra;
                }
            }
        }
        Costs {
            cols,
            rows,
            occ: vec![0; n],
            hist: vec![0.0; n],
            base,
        }
    }

    fn tiles(&self) -> usize {
        self.base.len()
    }

    #[inline]
    fn idx(&self, at: TileCoord) -> usize {
        at.col as usize * self.rows as usize + at.row as usize
    }

    #[inline]
    fn coord(&self, idx: usize) -> TileCoord {
        TileCoord::new(
            (idx / self.rows as usize) as u16,
            (idx % self.rows as usize) as u16,
        )
    }

    /// Tile cost for one step. `pricing` scales the negotiated share
    /// (history + congestion) by net criticality: 1.0 is the neutral
    /// PathFinder price, <1 lets a critical net shoulder through
    /// congestion for a direct path, >1 pushes a non-critical net around
    /// it. The base cost is never scaled — distance stays distance.
    fn node_cost(&self, idx: usize, capacity: u16, pricing: f32) -> f32 {
        let occ = self.occ[idx];
        let over = if occ >= capacity {
            8.0 + 4.0 * f32::from(occ - capacity)
        } else {
            // Soft pressure keeps channels balanced before they overflow.
            f32::from(occ) / f32::from(capacity)
        };
        self.base[idx] + pricing * (self.hist[idx] + over)
    }

    /// A read-only snapshot in the map form the timing model consumes.
    fn congestion_snapshot(&self, capacity: u16) -> CongestionMap {
        CongestionMap::new(self.rows, capacity, self.occ.clone())
    }
}

/// Per-worker A* scratch, generation-stamped to avoid clearing. One lives
/// per OS thread (thread-local) so parallel waves never contend; results
/// depend only on [`Costs`], never on which scratch ran the search.
struct Scratch {
    gen: Vec<u32>,
    gscore: Vec<f32>,
    came: Vec<u32>,
    generation: u32,
    /// Open-set heap, kept here so one allocation serves the thousands of
    /// A* calls a routing run makes (cleared, not dropped, between calls).
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// Reconstructed path of the last successful A* (sink→tree order).
    path: Vec<usize>,
    /// Nodes popped off the open set across every A* call on this scratch.
    expansions: u64,
    /// A* invocations (one per two-pin segment or net sink attempted).
    astar_calls: u64,
}

impl Scratch {
    fn new(tiles: usize) -> Scratch {
        Scratch {
            gen: vec![0; tiles],
            gscore: vec![0.0; tiles],
            came: vec![u32::MAX; tiles],
            generation: 0,
            heap: BinaryHeap::new(),
            path: Vec::new(),
            expansions: 0,
            astar_calls: 0,
        }
    }

    /// A* from any of `sources` to `sink`, restricted to a bounding box.
    /// On success fills `self.path` with the tiles sink→source-tree
    /// (inclusive) and returns `true`; on failure returns `false` with the
    /// path empty. Both the open heap and the path vector are reused
    /// allocations — the router's inner loop runs allocation-free after
    /// warm-up.
    fn astar(
        &mut self,
        costs: &Costs,
        sources: &[usize],
        sink: usize,
        bbox: (u16, u16, u16, u16),
        capacity: u16,
        pricing: f32,
    ) -> bool {
        self.path.clear();
        self.astar_calls += 1;
        self.generation += 1;
        let gen = self.generation;
        let rows = costs.rows as usize;
        let sink_at = costs.coord(sink);
        // On uncongested fabric every tile in the monotone rectangle
        // between the endpoints shares the same f = g + h, and index-order
        // ties make A* sweep that whole plateau. Preferring the deepest
        // node (largest g) on f-ties marches straight at the sink instead:
        // same path cost, a fraction of the pops.
        let tie = |g: f32| -> u64 { u64::MAX - to_key(g) };
        // Take the heap out so pushing/popping does not alias the borrows
        // of the scratch arrays below; returned (cleared) on every exit.
        let mut heap = std::mem::take(&mut self.heap);
        for &s in sources {
            self.gen[s] = gen;
            self.gscore[s] = 0.0;
            self.came[s] = u32::MAX;
            let h = costs.coord(s).manhattan(&sink_at) as f32;
            heap.push(Reverse((to_key(h), tie(0.0), s)));
        }
        let (c0, c1, r0, r1) = bbox;
        let mut found = false;
        while let Some(Reverse((_, _, node))) = heap.pop() {
            self.expansions += 1;
            if node == sink {
                // Reconstruct.
                self.path.push(node);
                let mut cur = node;
                while self.came[cur] != u32::MAX {
                    cur = self.came[cur] as usize;
                    self.path.push(cur);
                }
                found = true;
                break;
            }
            let at = costs.coord(node);
            let g = self.gscore[node];
            let neighbours = [
                (at.col > c0).then(|| node - rows),
                (at.col < c1).then(|| node + rows),
                (at.row > r0).then(|| node - 1),
                (at.row < r1).then(|| node + 1),
            ];
            for n in neighbours.into_iter().flatten() {
                let ng = g + costs.node_cost(n, capacity, pricing);
                if self.gen[n] != gen || ng < self.gscore[n] {
                    self.gen[n] = gen;
                    self.gscore[n] = ng;
                    self.came[n] = node as u32;
                    let h = costs.coord(n).manhattan(&sink_at) as f32;
                    heap.push(Reverse((to_key(ng + h), tie(ng), n)));
                }
            }
        }
        heap.clear();
        self.heap = heap;
        found
    }
}

thread_local! {
    /// One scratch per worker thread, sized lazily for the current grid.
    /// Scratch identity cannot influence results (generation stamps make
    /// every A* self-contained), so thread scheduling stays invisible.
    static TL_SCRATCH: RefCell<Option<Scratch>> = const { RefCell::new(None) };
}

fn with_scratch<R>(tiles: usize, f: impl FnOnce(&mut Scratch) -> R) -> R {
    TL_SCRATCH.with(|cell| {
        let mut slot = cell.borrow_mut();
        let scratch = slot.get_or_insert_with(|| Scratch::new(tiles));
        if scratch.gen.len() != tiles {
            *scratch = Scratch::new(tiles);
        }
        f(scratch)
    })
}

/// Order-preserving f32 → u64 key for the binary heap.
///
/// Invariant: for finite costs `a <= b`, `to_key(a) <= to_key(b)`. The
/// `max(0.0)` clamps negatives — and NaN, whose `max` is the other operand
/// — to zero; the ×1024 scale and the saturating `as` cast are both
/// monotone. Resolution is 1/1024: costs closer than that may tie, which
/// only reorders equal-key pops, never best-first order. Above
/// 2^24/1024 = 16384 the f32 mantissa step exceeds the quantization step,
/// so distinct f32 costs still map to distinct-or-ordered keys; history
/// costs (+1.5 per overused tile per iteration) therefore cannot break
/// heap order no matter how long negotiation runs, and saturation would
/// need costs near 1.8e16 — far beyond any run. Infinity saturates to
/// `u64::MAX`, i.e. sorts last, which is the right behaviour for an
/// unreachable-cost sentinel.
#[inline]
fn to_key(f: f32) -> u64 {
    (f.max(0.0) * 1024.0) as u64
}

/// Rectilinear Steiner topology over a set of terminals (first terminal =
/// driver). Returns tree edges `(from, to)` in route order: every edge's
/// `from` point is already connected when the edge comes up, so a router
/// can walk the list and treat the accumulated tree as its source set.
///
/// Construction: Prim's MST over Manhattan distance (deterministic
/// index-order tie-breaks), then one greedy pass of Hanan-point insertion
/// — for each tree node with two or more neighbours, the median point of
/// the node and its two best neighbours replaces the two edges when that
/// strictly shortens the tree. Total edge length never exceeds the star
/// topology (every spanning tree is at most the star; insertion only
/// shortens), which is the wirelength bound `tests/router_props.rs`
/// property-checks.
pub fn steiner_topology(terminals: &[TileCoord]) -> Vec<(TileCoord, TileCoord)> {
    // Dedup by tile, preserving first-seen order (driver stays first).
    let mut pts: Vec<TileCoord> = Vec::with_capacity(terminals.len());
    for t in terminals {
        if !pts.contains(t) {
            pts.push(*t);
        }
    }
    if pts.len() < 2 {
        return Vec::new();
    }
    let dist = |a: TileCoord, b: TileCoord| a.manhattan(&b) as u64;

    // Prim from the driver; ties break toward the lower index.
    let n_terms = pts.len();
    let mut in_tree = vec![false; n_terms];
    let mut best: Vec<(u64, usize)> = (0..n_terms).map(|i| (dist(pts[0], pts[i]), 0)).collect();
    in_tree[0] = true;
    // adj over `pts` indices; Steiner points are appended as they appear.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n_terms];
    for _ in 1..n_terms {
        let mut pick = usize::MAX;
        for i in 0..n_terms {
            if !in_tree[i] && (pick == usize::MAX || best[i].0 < best[pick].0) {
                pick = i;
            }
        }
        let (_, from) = best[pick];
        in_tree[pick] = true;
        adj[from].push(pick);
        adj[pick].push(from);
        for i in 0..n_terms {
            if !in_tree[i] {
                let d = dist(pts[pick], pts[i]);
                if d < best[i].0 {
                    best[i] = (d, pick);
                }
            }
        }
    }

    // Greedy Hanan-point insertion: for node b and neighbours a, c, the
    // median point strictly shortens d(a,b)+d(b,c) whenever the three
    // spans overlap. One pass in index order keeps it deterministic.
    let med = |a: u16, b: u16, c: u16| {
        let mut v = [a, b, c];
        v.sort_unstable();
        v[1]
    };
    for b in 0..n_terms {
        loop {
            let nbrs = adj[b].clone();
            if nbrs.len() < 2 {
                break;
            }
            let mut cut = None;
            for (i, &a) in nbrs.iter().enumerate() {
                for &c in nbrs.iter().skip(i + 1) {
                    let s = TileCoord::new(
                        med(pts[a].col, pts[b].col, pts[c].col),
                        med(pts[a].row, pts[b].row, pts[c].row),
                    );
                    let old = dist(pts[a], pts[b]) + dist(pts[b], pts[c]);
                    let new = dist(pts[a], s) + dist(pts[b], s) + dist(pts[c], s);
                    if new < old && cut.map(|(g, _, _, _)| old - new > g).unwrap_or(true) {
                        cut = Some((old - new, a, c, s));
                    }
                }
            }
            let Some((_, a, c, s)) = cut else { break };
            let si = pts.len();
            pts.push(s);
            adj.push(Vec::new());
            for (x, y) in [(a, b), (b, c)] {
                adj[x].retain(|&v| v != y);
                adj[y].retain(|&v| v != x);
            }
            for x in [a, b, c] {
                adj[x].push(si);
                adj[si].push(x);
            }
        }
    }

    // Orient: BFS from the driver, neighbours in index order.
    let mut order = Vec::with_capacity(pts.len().saturating_sub(1));
    let mut seen = vec![false; pts.len()];
    let mut queue = std::collections::VecDeque::from([0usize]);
    seen[0] = true;
    while let Some(u) = queue.pop_front() {
        let mut nbrs = adj[u].clone();
        nbrs.sort_unstable();
        for v in nbrs {
            if !seen[v] {
                seen[v] = true;
                order.push((pts[u], pts[v]));
                queue.push_back(v);
            }
        }
    }
    order
}

/// Deterministic criticality order: indices sorted most-negative-slack
/// first, ties broken by index. Always a permutation of `0..slacks.len()`
/// (property-checked in `tests/router_props.rs`).
pub fn criticality_order(slacks: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..slacks.len()).collect();
    order.sort_by(|&a, &b| slacks[a].total_cmp(&slacks[b]).then(a.cmp(&b)));
    order
}

/// One routable net: located endpoints (source first) and where to write
/// the result.
struct Task {
    endpoints: Vec<TileCoord>,
    slot: Slot,
}

/// One net's routing attempt against a (frozen or live) cost state.
struct NetAttempt {
    /// Tree tiles in growth order, first = driver tile; `None` = failed
    /// (nothing was applied — attempts never mutate the cost state).
    tree: Option<Vec<usize>>,
    expansions: u64,
    astar_calls: u64,
    steiner_segments: u64,
}

/// Route one net against `costs` without mutating anything. Multi-terminal
/// nets take the Steiner path; nets whose topology has fewer than two
/// segments take the plain distance-ordered star.
fn route_net(
    costs: &Costs,
    scratch: &mut Scratch,
    endpoints: &[TileCoord],
    opts: &RouteOptions,
    margin: i32,
    pricing: f32,
) -> NetAttempt {
    let exp0 = scratch.expansions;
    let calls0 = scratch.astar_calls;
    let mut tree: Vec<usize> = Vec::new();
    tree.push(costs.idx(endpoints[0]));
    let mut steiner_segments = 0u64;
    let mut ok = true;

    let segs = steiner_topology(endpoints);
    if segs.len() >= 2 {
        // Two-pin segments with tight per-segment boxes. The segment's
        // `from` end is already in the tree; every tree tile inside the
        // box is a free source, so segments share trunks.
        let mut seg_sources: Vec<usize> = Vec::new();
        for (a, b) in segs {
            let sink = costs.idx(b);
            if tree.contains(&sink) {
                continue;
            }
            let bbox = bbox_of(&[a, b], margin, costs.cols, costs.rows);
            let (c0, c1, r0, r1) = bbox;
            seg_sources.clear();
            seg_sources.extend(tree.iter().copied().filter(|&t| {
                let at = costs.coord(t);
                at.col >= c0 && at.col <= c1 && at.row >= r0 && at.row <= r1
            }));
            if seg_sources.is_empty() {
                // `a` is a bbox corner and always in the tree.
                seg_sources.push(costs.idx(a));
            }
            if scratch.astar(costs, &seg_sources, sink, bbox, opts.capacity, pricing) {
                steiner_segments += 1;
                for i in (0..scratch.path.len()).rev() {
                    let p = scratch.path[i];
                    if !tree.contains(&p) {
                        tree.push(p);
                    }
                }
            } else {
                ok = false;
                break;
            }
        }
    } else {
        // Star: sinks by distance from the driver, whole-net box.
        let bbox = bbox_of(endpoints, margin, costs.cols, costs.rows);
        let mut sinks: Vec<TileCoord> = endpoints[1..].to_vec();
        sinks.sort_by_key(|s| s.manhattan(&endpoints[0]));
        for &sink in &sinks {
            let sidx = costs.idx(sink);
            if tree.contains(&sidx) {
                continue;
            }
            if scratch.astar(costs, &tree, sidx, bbox, opts.capacity, pricing) {
                // A* reconstructs sink→tree; append in reverse so the
                // route tiles read as a forward (tree→sink) path.
                for i in (0..scratch.path.len()).rev() {
                    let p = scratch.path[i];
                    if !tree.contains(&p) {
                        tree.push(p);
                    }
                }
            } else {
                ok = false;
                break;
            }
        }
    }

    NetAttempt {
        tree: ok.then_some(tree),
        expansions: scratch.expansions - exp0,
        astar_calls: scratch.astar_calls - calls0,
        steiner_segments,
    }
}

/// Per-iteration slack feedback: maps the live congestion state to
/// `(per-task slack ps, clock period ps)`. `None` means "no timing data
/// this iteration" (e.g. STA failed on a combinational loop) and the
/// router falls back to index order at neutral pricing.
type SlackFn<'a> = &'a dyn Fn(&CongestionMap) -> Option<(Vec<f64>, f64)>;

/// The negotiation engine shared by module- and design-level entry points.
/// Emits one `pathfinder_iter` point per negotiation iteration when the
/// handle is enabled, plus one `steiner_net` point per decomposed
/// multi-terminal net (buffered per net, flushed in merge order, so the
/// stream is byte-identical at any `PI_THREADS`).
fn run(
    costs: &mut Costs,
    tasks: &[Task],
    opts: &RouteOptions,
    obs: &Obs,
    slack_fn: SlackFn,
) -> (Vec<Option<Route>>, RouteStats) {
    let mut stats = RouteStats::default();
    let mut routes: Vec<Option<Route>> = (0..tasks.len()).map(|_| None).collect();
    let tiles = costs.tiles();
    // Merge-phase scratch for conflict re-routes (workers use their own).
    let mut merge_scratch = Scratch::new(tiles);
    let pathfinder_span = obs.span_with("pathfinder", &[("tasks", tasks.len().into())]);

    // Margin grows with negotiation iterations so desperate nets may detour.
    for iter in 0..opts.max_iters.max(1) {
        stats.iterations = iter + 1;
        let margin = 6 + 6 * iter as i32;

        // Trivial nets (fewer than two located endpoints) route once.
        if iter == 0 {
            for (ti, task) in tasks.iter().enumerate() {
                if task.endpoints.len() < 2 {
                    routes[ti] = Some(Route::default());
                    stats.trivial_nets += 1;
                }
            }
        }
        let mut pending: Vec<usize> = (0..tasks.len())
            .filter(|&ti| routes[ti].is_none())
            .collect();

        // Slack feedback: refresh per-net criticality from the live
        // congestion state, order this wave most-critical-first and price
        // each net's congestion share by its criticality.
        let mut slacks: Option<Vec<f64>> = None;
        let mut pricing: Vec<f32> = Vec::new();
        if !pending.is_empty() {
            if let Some((s, period)) = slack_fn(&costs.congestion_snapshot(opts.capacity)) {
                debug_assert_eq!(s.len(), tasks.len());
                let period = period.max(1.0);
                pricing = s
                    .iter()
                    .map(|&sl| {
                        let crit = (1.0 - sl / period).clamp(0.0, 1.0) as f32;
                        1.25 - 0.75 * crit
                    })
                    .collect();
                let pending_slacks: Vec<f64> = pending.iter().map(|&ti| s[ti]).collect();
                pending = criticality_order(&pending_slacks)
                    .into_iter()
                    .map(|i| pending[i])
                    .collect();
                slacks = Some(s);
            }
        }
        let price_of = |ti: usize| -> f32 {
            if pricing.is_empty() {
                1.0
            } else {
                pricing[ti]
            }
        };

        // Proposal wave: every pending net routes against the frozen
        // iteration-start snapshot, in parallel. Results are collected in
        // wave order (the pool guarantees index order), so the schedule
        // cannot leak into routes or telemetry.
        let snap: &Costs = costs;
        let items: Vec<(usize, pi_obs::BufferedObs)> =
            pending.iter().map(|&ti| (ti, obs.buffered())).collect();
        let proposals: Vec<(usize, NetAttempt, pi_obs::BufferedObs)> = items
            .into_par_iter()
            .map(|(ti, buf)| {
                let attempt = with_scratch(tiles, |scratch| {
                    route_net(
                        snap,
                        scratch,
                        &tasks[ti].endpoints,
                        opts,
                        margin,
                        price_of(ti),
                    )
                });
                if buf.obs().enabled() && attempt.steiner_segments >= 2 {
                    buf.obs().point(
                        "steiner_net",
                        &[
                            ("net", ti.into()),
                            ("segments", attempt.steiner_segments.into()),
                            ("expansions", attempt.expansions.into()),
                        ],
                    );
                }
                (ti, attempt, buf)
            })
            .collect();

        // Deterministic merge, in wave (criticality) order: apply each
        // proposal unless an earlier merge already filled one of its tiles
        // to capacity — those conflicts re-route immediately against the
        // live state.
        let mut iter_exp = 0u64;
        let mut iter_calls = 0u64;
        let mut iter_steiner = 0u64;
        let mut iter_conflicts = 0u64;
        for (ti, attempt, buf) in proposals {
            buf.flush_into(obs);
            iter_exp += attempt.expansions;
            iter_calls += attempt.astar_calls;
            iter_steiner += attempt.steiner_segments;
            let mut tree = attempt.tree;
            if let Some(t) = &tree {
                if t[1..].iter().any(|&x| costs.occ[x] >= opts.capacity) {
                    iter_conflicts += 1;
                    let retry = route_net(
                        costs,
                        &mut merge_scratch,
                        &tasks[ti].endpoints,
                        opts,
                        margin,
                        price_of(ti),
                    );
                    iter_exp += retry.expansions;
                    iter_calls += retry.astar_calls;
                    iter_steiner += retry.steiner_segments;
                    tree = retry.tree;
                }
            }
            if let Some(t) = tree {
                for &x in &t[1..] {
                    costs.occ[x] += 1;
                }
                let tiles: Vec<TileCoord> = t.iter().map(|&p| costs.coord(p)).collect();
                routes[ti] = Some(Route { tiles });
            }
        }
        stats.expansions += iter_exp;
        stats.steiner_segments += iter_steiner;
        stats.parallel_conflicts += iter_conflicts;

        // Negotiate: find overused tiles, rip up offenders, raise history.
        let overused: Vec<usize> = costs
            .occ
            .iter()
            .enumerate()
            .filter(|(_, &o)| o > opts.capacity)
            .map(|(i, _)| i)
            .collect();
        let done = overused.is_empty() && routes.iter().all(|r| r.is_some());
        for &t in &overused {
            costs.hist[t] += 1.5;
        }
        let overused_count = overused.len();
        let mut ripups = 0usize;
        let mut crit_reroutes = 0u64;
        if !done && iter + 1 < opts.max_iters {
            let over_set: std::collections::HashSet<usize> = overused.into_iter().collect();
            for (ti, route) in routes.iter_mut().enumerate() {
                let Some(r) = route else { continue };
                if r.tiles.is_empty() {
                    continue;
                }
                if r.tiles.iter().any(|&t| over_set.contains(&costs.idx(t))) {
                    for &t in &r.tiles[1..] {
                        let i = costs.idx(t);
                        costs.occ[i] = costs.occ[i].saturating_sub(1);
                    }
                    *route = None;
                    ripups += 1;
                    if slacks.as_ref().map(|s| s[ti] < 0.0).unwrap_or(false) {
                        // A timing-critical net goes back in the queue; it
                        // routes first, at reduced congestion pricing, next
                        // iteration.
                        crit_reroutes += 1;
                    }
                }
            }
        }
        stats.criticality_reroutes += crit_reroutes;
        // Stall detection: when every net is routed and the rip-up pass
        // found nothing to rip, the residual overuse is not attributable
        // to any net this run owns (it was seeded by locked instance
        // routes) — further iterations can only raise history on tiles
        // nobody crosses.
        let stalled = !done && ripups == 0 && routes.iter().all(|r| r.is_some());
        if obs.enabled() {
            obs.point(
                "pathfinder_iter",
                &[
                    ("iter", iter.into()),
                    ("overused", overused_count.into()),
                    ("ripups", ripups.into()),
                    ("expansions", iter_exp.into()),
                    ("astar_calls", iter_calls.into()),
                    (
                        "unrouted",
                        routes.iter().filter(|r| r.is_none()).count().into(),
                    ),
                    (
                        "hist_total",
                        costs.hist.iter().map(|&h| f64::from(h)).sum::<f64>().into(),
                    ),
                    ("steiner_segments", iter_steiner.into()),
                    ("criticality_reroutes", crit_reroutes.into()),
                    ("parallel_conflicts", iter_conflicts.into()),
                ],
            );
        }
        if done || stalled {
            break;
        }
    }
    pathfinder_span.end();

    stats.overused_tiles = costs.occ.iter().filter(|&&o| o > opts.capacity).count();
    stats.routed_nets = routes.iter().filter(|r| r.is_some()).count() - stats.trivial_nets;
    stats.wirelength = routes.iter().flatten().map(|r| r.tiles.len() as u64).sum();
    (routes, stats)
}

fn bbox_of(pts: &[TileCoord], margin: i32, cols: u16, rows: u16) -> (u16, u16, u16, u16) {
    let mut c0 = u16::MAX;
    let mut c1 = 0;
    let mut r0 = u16::MAX;
    let mut r1 = 0;
    for p in pts {
        c0 = c0.min(p.col);
        c1 = c1.max(p.col);
        r0 = r0.min(p.row);
        r1 = r1.max(p.row);
    }
    let lo = |v: u16| (i32::from(v) - margin).max(0) as u16;
    let hi = |v: u16, max: u16| ((i32::from(v) + margin) as u16).min(max - 1);
    (lo(c0), hi(c1, cols), lo(r0), hi(r1, rows))
}

/// What a routing run writes its routes back into. A module is the
/// one-instance case of a design, so both go through [`route_into`].
pub(crate) enum Target<'a> {
    Module(&'a mut Module),
    Design(&'a mut Design),
}

impl Target<'_> {
    fn view(&self) -> NetView<'_> {
        match self {
            Target::Module(m) => (&**m).into(),
            Target::Design(d) => (&**d).into(),
        }
    }

    fn set_route(&mut self, slot: Slot, route: Option<Route>) -> Result<(), PnrError> {
        match slot {
            Slot::Intra { inst, net } => {
                let module = match self {
                    Target::Module(m) => &mut **m,
                    Target::Design(d) => &mut d.instances_mut()[inst].module,
                };
                // Instances may be locked (their unrouted nets should not
                // exist), so go through the unlocked path only.
                if !module.locked {
                    module.nets_mut()?[net].route = route;
                }
            }
            Slot::Top { net } => match self {
                Target::Design(d) => d.top_nets_mut()[net].route = route,
                Target::Module(_) => unreachable!("a module has no top nets"),
            },
        }
        Ok(())
    }
}

/// The one routing body: collect the unrouted nets of `target`, seed the
/// occupancy map from the routes it already stores, negotiate, write the
/// new routes back. Returns the stats, the final congestion map and the
/// run's timing graph — built once, re-analyzed every iteration for the
/// slack ordering, and valid after write-back because routing moves no
/// placement: the compile tail takes its final report from it.
pub(crate) fn route_into(
    mut target: Target<'_>,
    device: &Device,
    opts: &RouteOptions,
    obs: &Obs,
) -> Result<(RouteStats, CongestionMap, TimingGraph), PnrError> {
    if let Target::Module(module) = &mut target {
        // A bare module is routed to be written: refuse a locked one.
        module.nets_mut()?;
    }
    let obs = obs.scoped("pnr::route");
    let mut costs = Costs::new(device);
    let view = target.view();
    let mut tasks = Vec::new();
    for net in view.nets() {
        match net.route() {
            // Seed occupancy with whatever is already routed (locked or
            // not). A *stored* route occupies every one of its tiles,
            // source tile included; a route laid by this run occupies all
            // but its source tile (the merge in [`run`] skips `t[0]`). The
            // asymmetry is kept bit-exact here, its only seeding site.
            // Off-grid tiles occupy nothing: they are the DRC's
            // `RouteOffGrid`, not a tile to charge.
            Some(route) => {
                for &t in route.tiles.iter().filter(|&&t| device.in_bounds(t)) {
                    let i = costs.idx(t);
                    costs.occ[i] += 1;
                }
            }
            None => tasks.push(Task {
                endpoints: net.terminals(),
                slot: net.slot(),
            }),
        }
    }
    let graph = TimingGraph::build(view);
    let slack_fn = |map: &CongestionMap| {
        let slots = tasks.iter().map(|t| t.slot);
        graph.net_slacks(view, slots, device, Some(map)).ok()
    };
    let (routes, stats) = run(&mut costs, &tasks, opts, &obs, &slack_fn);
    for (task, route) in tasks.iter().zip(routes) {
        target.set_route(task.slot, route)?;
    }
    let map = CongestionMap::new(costs.rows, opts.capacity, costs.occ);
    Ok((stats, map, graph))
}

/// Route all unrouted non-clock nets of one module. Returns stats plus the
/// resulting congestion map (used by congestion-aware timing), and emits
/// one `pathfinder_iter` point per negotiation iteration (overused tiles,
/// rip-ups, history-cost growth, Steiner/criticality/conflict counters)
/// under the `pnr::route` scope.
pub fn route_module_obs(
    module: &mut Module,
    device: &Device,
    opts: &RouteOptions,
    obs: &Obs,
) -> Result<(RouteStats, CongestionMap), PnrError> {
    let (stats, map, _) = route_into(Target::Module(module), device, opts, obs)?;
    Ok((stats, map))
}

/// Route an assembled design: locked module routes seed the congestion map
/// and only unrouted nets (typically the inter-component ones) are routed.
/// Returns stats plus the final congestion map for timing. Telemetry as in
/// [`route_module_obs`].
pub fn route_design_obs(
    design: &mut Design,
    device: &Device,
    opts: &RouteOptions,
    obs: &Obs,
) -> Result<(RouteStats, CongestionMap), PnrError> {
    let (stats, map, _) = route_into(Target::Design(design), device, opts, obs)?;
    Ok((stats, map))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::{place_module_obs, PlaceOptions};
    use pi_netlist::{Cell, CellKind, Endpoint, ModuleBuilder, StreamRole};

    fn placed_chain(n: usize, device: &Device, seed: u64) -> Module {
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
        let mut m = b.finish().unwrap();
        place_module_obs(
            &mut m,
            device,
            &PlaceOptions {
                seed,
                effort: 1.0,
                region: None,
            },
            &Obs::null(),
        )
        .unwrap();
        m
    }

    #[test]
    fn routes_all_nets() {
        let device = Device::test_part();
        let mut m = placed_chain(40, &device, 5);
        let (stats, _) =
            route_module_obs(&mut m, &device, &RouteOptions::default(), &Obs::null()).unwrap();
        assert!(m.fully_routed());
        assert_eq!(stats.overused_tiles, 0);
        assert!(stats.wirelength > 0);
        assert!(stats.expansions > 0);
        // The port-connected nets are trivial (no partpins planned).
        assert_eq!(stats.trivial_nets, 2);
    }

    #[test]
    fn routes_form_connected_paths() {
        let device = Device::test_part();
        let mut m = placed_chain(10, &device, 7);
        let _ = route_module_obs(&mut m, &device, &RouteOptions::default(), &Obs::null()).unwrap();
        for net in m.nets() {
            let Some(route) = &net.route else { continue };
            if route.tiles.len() < 2 {
                continue;
            }
            // Every consecutive pair of tiles is grid-adjacent or a tree
            // branch point (distance can jump when starting a new branch,
            // but for 2-pin chains it is a simple path).
            if net.degree() == 2 {
                for w in route.tiles.windows(2) {
                    assert!(w[0].manhattan(&w[1]) <= 1, "{:?}", w);
                }
            }
        }
    }

    #[test]
    fn locked_routes_are_untouched_and_seed_congestion() {
        let device = Device::test_part();
        let mut m = placed_chain(10, &device, 9);
        let _ = route_module_obs(&mut m, &device, &RouteOptions::default(), &Obs::null()).unwrap();
        let saved: Vec<_> = m.nets().iter().map(|n| n.route.clone()).collect();
        m.lock();
        // Re-running the router on a locked module routes nothing new.
        let mut design = Design::new("d", "test-part", pi_netlist::DesignKind::Assembled);
        design.add_instance("a", m);
        let (stats, map) =
            route_design_obs(&mut design, &device, &RouteOptions::default(), &Obs::null()).unwrap();
        assert_eq!(stats.routed_nets, 0);
        for (net, old) in design.instances()[0].module.nets().iter().zip(saved) {
            assert_eq!(net.route, old);
        }
        assert!(map.overused() == 0);
    }

    #[test]
    fn to_key_is_monotone_up_to_saturation() {
        // Heap order must survive costs far beyond the base-cost scale:
        // negotiation adds +1.5 history per overused tile per iteration,
        // and path costs accumulate over long detours.
        let samples: [f32; 11] = [
            0.0, 0.25, 0.5, 1.0, 7.5, 100.0, 1000.0, 16384.0, 1.0e6, 3.4e7, 1.0e10,
        ];
        for w in samples.windows(2) {
            assert!(
                to_key(w[0]) < to_key(w[1]),
                "to_key({}) = {} !< to_key({}) = {}",
                w[0],
                to_key(w[0]),
                w[1],
                to_key(w[1])
            );
        }
        // NaN and negatives clamp to zero instead of poisoning the heap.
        assert_eq!(to_key(f32::NAN), 0);
        assert_eq!(to_key(-3.0), 0);
        // Infinity saturates to the largest key (sorts last).
        assert_eq!(to_key(f32::INFINITY), u64::MAX);
        // Sub-resolution differences may tie but never invert.
        assert!(to_key(1.0) <= to_key(1.0 + 1.0 / 2048.0));
    }

    #[test]
    fn astar_detours_around_huge_history_costs() {
        // A wall of enormous history cost must still leave A* best-first:
        // the router funnels through the single cheap gap rather than
        // paying the wall (a broken key quantization would pop wall tiles
        // as if they were cheap).
        let device = Device::test_part();
        let mut costs = Costs::new(&device);
        let mut scratch = Scratch::new(costs.tiles());
        let wall_col = 5u16;
        for r in 1..costs.rows {
            let i = costs.idx(TileCoord::new(wall_col, r));
            costs.hist[i] = 1.0e6;
        }
        let src = costs.idx(TileCoord::new(2, 3));
        let sink = costs.idx(TileCoord::new(8, 3));
        let bbox = (0, costs.cols - 1, 0, costs.rows - 1);
        assert!(scratch.astar(&costs, &[src], sink, bbox, 64, 1.0));
        let crossings: Vec<TileCoord> = scratch
            .path
            .iter()
            .map(|&p| costs.coord(p))
            .filter(|c| c.col == wall_col)
            .collect();
        assert_eq!(
            crossings,
            vec![TileCoord::new(wall_col, 0)],
            "path must cross the wall exactly once, through the gap"
        );
        // The reused path buffer serves a second query unchanged.
        assert!(scratch.astar(&costs, &[src], sink, bbox, 64, 1.0));
        assert!(!scratch.path.is_empty());
    }

    #[test]
    fn f_ties_march_straight_at_the_sink() {
        // On empty fabric every tile in the monotone rectangle between the
        // endpoints shares the same f-score; preferring the deepest node on
        // ties must find a Manhattan-minimal path without sweeping that
        // plateau (index-order ties pop most of its 20 x 14 tiles).
        let device = Device::test_part();
        let mut costs = Costs::new(&device);
        // Uniform fabric: the plateau argument is about equal step costs
        // (Io/Gap columns would perturb f and hide the effect).
        costs.base.fill(1.0);
        let (from, to) = (TileCoord::new(1, 1), TileCoord::new(20, 14));
        let bbox = (0, costs.cols - 1, 0, costs.rows - 1);
        let mut scratch = Scratch::new(costs.tiles());
        assert!(scratch.astar(&costs, &[costs.idx(from)], costs.idx(to), bbox, 64, 1.0));
        let steps = from.manhattan(&to) as usize;
        assert_eq!(
            scratch.path.len(),
            steps + 1,
            "path must be Manhattan-minimal"
        );
        assert!(
            scratch.expansions <= 2 * (steps as u64 + 1),
            "{} pops for a {steps}-step path",
            scratch.expansions
        );
    }

    #[test]
    fn negotiation_stops_when_overuse_is_not_rippable() {
        // Overuse seeded by locked instance routes cannot be fixed by
        // ripping up nets this run owns: the loop detects the stall and
        // stops after one iteration instead of spinning to max_iters,
        // raising history on tiles nobody crosses.
        let device = Device::test_part();
        let tasks = vec![Task {
            endpoints: vec![TileCoord::new(1, 1), TileCoord::new(4, 1)],
            slot: Slot::Top { net: 0 },
        }];
        let opts = RouteOptions::default();
        let mut costs = Costs::new(&device);
        let far = costs.idx(TileCoord::new(20, 10));
        costs.occ[far] = opts.capacity + 1;
        let (routes, stats) = run(&mut costs, &tasks, &opts, &Obs::null(), &|_| None);
        assert!(routes[0].is_some());
        assert_eq!(stats.iterations, 1);
        assert_eq!(stats.overused_tiles, 1);
    }

    #[test]
    fn congestion_negotiation_resolves_hotspots() {
        // Many parallel nets forced through a narrow region.
        let device = Device::test_part();
        let mut b = ModuleBuilder::new("hot");
        let din = b.input("din", StreamRole::Source, 16);
        let dout = b.output("dout", StreamRole::Sink, 16);
        let n = 60;
        let mut left = Vec::new();
        let mut right = Vec::new();
        for i in 0..n {
            left.push(b.cell(Cell::new(format!("l{i}"), CellKind::full_slice())));
            right.push(b.cell(Cell::new(format!("r{i}"), CellKind::full_slice())));
        }
        b.connect("in", Endpoint::Port(din), [Endpoint::Cell(left[0])]);
        for i in 0..n {
            b.connect(
                format!("x{i}"),
                Endpoint::Cell(left[i]),
                [Endpoint::Cell(right[i])],
            );
        }
        b.connect("out", Endpoint::Cell(right[n - 1]), [Endpoint::Port(dout)]);
        let mut m = b.finish().unwrap();
        // Manually place: left column cluster and right column cluster.
        for (i, &id) in left.iter().enumerate() {
            m.set_placement(id, TileCoord::new(1, (i % 20) as u16)).ok();
        }
        for (i, &id) in right.iter().enumerate() {
            m.set_placement(id, TileCoord::new(24, (i % 20) as u16))
                .ok();
        }
        // Fill remaining placements for validity (cells may share tiles in
        // this synthetic stress test; the router only cares about coords).
        let opts = RouteOptions {
            max_iters: 10,
            capacity: 8,
        };
        let (stats, map) = route_module_obs(&mut m, &device, &opts, &Obs::null()).unwrap();
        assert_eq!(stats.overused_tiles, 0, "negotiation failed");
        assert_eq!(map.overused(), 0);
    }

    #[test]
    fn steiner_topology_spans_terminals_within_star_length() {
        // A T-shaped terminal set: the Steiner point (5,5) saves wire over
        // both the star and the terminal-only MST.
        let terms = [
            TileCoord::new(5, 0),
            TileCoord::new(0, 5),
            TileCoord::new(10, 5),
            TileCoord::new(5, 10),
        ];
        let edges = steiner_topology(&terms);
        let total: u64 = edges.iter().map(|(a, b)| a.manhattan(b) as u64).sum();
        let star: u64 = terms[1..]
            .iter()
            .map(|t| t.manhattan(&terms[0]) as u64)
            .sum();
        assert!(total <= star, "steiner {total} > star {star}");
        // The optimal rectilinear Steiner tree here is 20 (three arms of 5
        // plus the stem); the greedy insertion must find it.
        assert_eq!(total, 20);
        // Every terminal is reachable through the edge list.
        let mut reach: Vec<TileCoord> = vec![terms[0]];
        for (a, b) in &edges {
            assert!(reach.contains(a), "edge source {a:?} not yet in tree");
            reach.push(*b);
        }
        for t in &terms {
            assert!(reach.contains(t), "terminal {t:?} not spanned");
        }
    }

    #[test]
    fn steiner_routing_connects_high_fanout_nets() {
        let device = Device::test_part();
        let mut b = ModuleBuilder::new("fan");
        let din = b.input("din", StreamRole::Source, 8);
        let src = b.cell(Cell::new("src", CellKind::full_slice()));
        let sinks: Vec<_> = (0..6)
            .map(|i| b.cell(Cell::new(format!("k{i}"), CellKind::full_slice())))
            .collect();
        b.connect("in", Endpoint::Port(din), [Endpoint::Cell(src)]);
        b.connect(
            "fan",
            Endpoint::Cell(src),
            sinks.iter().map(|&s| Endpoint::Cell(s)).collect::<Vec<_>>(),
        );
        let mut m = b.finish().unwrap();
        m.set_placement(src, TileCoord::new(12, 10)).unwrap();
        let spots = [(2, 2), (2, 18), (22, 2), (22, 18), (12, 2), (12, 18)];
        for (&id, &(c, r)) in sinks.iter().zip(spots.iter()) {
            m.set_placement(id, TileCoord::new(c, r)).unwrap();
        }
        let (stats, _) =
            route_module_obs(&mut m, &device, &RouteOptions::default(), &Obs::null()).unwrap();
        assert!(stats.steiner_segments > 0, "fan-out net not decomposed");
        let net = m.nets().iter().find(|n| n.name == "fan").unwrap();
        let route = net.route.as_ref().unwrap();
        for t in [TileCoord::new(12, 10)].iter().chain(
            spots
                .iter()
                .map(|&(c, r)| TileCoord::new(c, r))
                .collect::<Vec<_>>()
                .iter(),
        ) {
            assert!(route.tiles.contains(t), "terminal {t:?} not on the route");
        }
    }

    /// Reference: the box mean summed tile by tile.
    fn brute_box_mean(map: &CongestionMap, a: TileCoord, b: TileCoord) -> f64 {
        let (c0, c1) = (a.col.min(b.col), a.col.max(b.col));
        let (r0, r1) = (a.row.min(b.row), a.row.max(b.row));
        let mut sum = 0u64;
        let mut n = 0u64;
        for c in c0..=c1 {
            for r in r0..=r1 {
                sum += u64::from(map.occ[c as usize * map.rows as usize + r as usize]);
                n += 1;
            }
        }
        sum as f64 / n as f64 / f64::from(map.capacity)
    }

    proptest::proptest! {
        /// The summed-area lookup equals the brute-force box mean bit for
        /// bit on random maps, for random boxes, every 1x1 box and the
        /// full grid.
        #[test]
        fn span_fraction_is_the_exact_box_mean(
            cols in 1u16..14,
            rows in 1u16..14,
            capacity in 1u16..80,
            raw in proptest::collection::vec(0u16..u16::MAX, 196..197),
            boxes in proptest::collection::vec((0u16..14, 0u16..14, 0u16..14, 0u16..14), 1..24),
        ) {
            let occ: Vec<u16> = raw[..cols as usize * rows as usize].to_vec();
            let map = CongestionMap::new(rows, capacity, occ);
            let mut probes: Vec<(TileCoord, TileCoord)> = boxes
                .iter()
                .map(|&(c0, r0, c1, r1)| {
                    (TileCoord::new(c0 % cols, r0 % rows), TileCoord::new(c1 % cols, r1 % rows))
                })
                .collect();
            probes.push((TileCoord::new(0, 0), TileCoord::new(cols - 1, rows - 1)));
            probes.push((TileCoord::new(cols - 1, 0), TileCoord::new(0, rows - 1)));
            for c in 0..cols {
                for r in 0..rows {
                    probes.push((TileCoord::new(c, r), TileCoord::new(c, r)));
                }
            }
            for (a, b) in probes {
                let (got, want) = (map.span_fraction(a, b), brute_box_mean(&map, a, b));
                proptest::prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?}-{:?}", a, b);
            }
        }
    }

    #[test]
    fn span_fraction_clamps_its_box_to_the_grid() {
        let map = CongestionMap::new(2, 4, vec![1, 2, 3, 4]);
        let inside = map.span_fraction(TileCoord::new(1, 0), TileCoord::new(1, 1));
        assert_eq!(inside, 7.0 / 2.0 / 4.0);
        // Past the last column and row: only the on-grid part is averaged.
        let over = map.span_fraction(TileCoord::new(1, 0), TileCoord::new(5, 9));
        assert_eq!(over, inside);
        let outside = TileCoord::new(2, 0);
        assert_eq!(map.span_fraction(outside, outside), 0.0);
    }

    #[test]
    fn criticality_order_sorts_most_negative_first() {
        let slacks = [120.0, -450.0, 0.0, -450.0, f64::INFINITY];
        assert_eq!(criticality_order(&slacks), vec![1, 3, 2, 0, 4]);
        assert!(criticality_order(&[]).is_empty());
    }
}
