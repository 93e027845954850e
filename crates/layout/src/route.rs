//! ANAGRAM-II-style maze routing with analog net classes.
//!
//! "Its companion, ANAGRAM II, was a maze-style detailed area router
//! capable of supporting several forms of symmetric differential routing,
//! mechanisms for tagging compatible and incompatible classes of wires
//! (e.g., noisy and sensitive wires), parasitic crosstalk avoidance, and
//! over-the-device routing" (§3.1). All four capabilities are here:
//!
//! * cost-based maze expansion over a 2-layer grid: an A* search bounded
//!   by distance and by how deep in a device the target pin sits, which
//!   returns exactly the path an uninformed Dijkstra search returns,
//! * [`NetClass`] tags with adjacency penalties between incompatible nets,
//! * over-the-device routing at a cost premium,
//! * mirrored routing of differential pairs about a symmetry axis,
//!
//! plus the rip-up-and-reroute loop every production maze router needs.
//!
//! Per-pass candidate paths are planned speculatively in parallel through
//! `ams-exec` against a snapshot of the fabric, then committed serially
//! in net order (stale plans are recomputed), so the routing result is
//! identical at any thread count.

use ams_guard::budget;
use ams_guard::fault::{self, FaultKind};
use std::cmp::Reverse;
// det-lint: allow(hash-collection): wavefront membership test; expansion order comes from the BinaryHeap
use std::collections::{BinaryHeap, HashSet};

/// Signal compatibility class of a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetClass {
    /// Quiet, interference-prone analog net.
    Sensitive,
    /// Aggressor net (clocks, digital, large swings).
    Noisy,
    /// Neither.
    Neutral,
}

impl NetClass {
    /// Whether two classes must be kept apart.
    pub fn incompatible(self, other: NetClass) -> bool {
        matches!(
            (self, other),
            (NetClass::Sensitive, NetClass::Noisy) | (NetClass::Noisy, NetClass::Sensitive)
        )
    }
}

/// A grid cell address: `layer` 0 = metal-1 (horizontal bias), 1 = metal-2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cell {
    /// Routing layer index (0 or 1).
    pub layer: u8,
    /// Column.
    pub x: u16,
    /// Row.
    pub y: u16,
}

/// A net to route.
#[derive(Debug, Clone)]
pub struct RouteNet {
    /// Net name.
    pub name: String,
    /// Compatibility class.
    pub class: NetClass,
    /// Terminals in grid coordinates (layer 0).
    pub terminals: Vec<(u16, u16)>,
}

/// Router cost model and effort.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Cost of one grid step. At least 1 (0 counts as 1): the search
    /// replays its path on the premise that every move costs at least one.
    pub step_cost: u32,
    /// Cost of a via (layer change).
    pub via_cost: u32,
    /// Extra cost for cells over device bodies (`None` forbids them).
    pub over_device_cost: Option<u32>,
    /// Extra cost per incompatible-class adjacent cell.
    pub crosstalk_penalty: u32,
    /// Rip-up-and-reroute passes after a failure.
    pub rip_up_passes: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            step_cost: 1,
            via_cost: 6,
            over_device_cost: Some(25),
            crosstalk_penalty: 40,
            rip_up_passes: 3,
        }
    }
}

impl RouterConfig {
    /// A completion-over-quality configuration used as the degradation
    /// fallback when routing with the nominal costs leaves failed nets:
    /// more rip-up passes, cheap over-device routing, and a reduced
    /// crosstalk penalty so congested channels can still close.
    pub fn relaxed(&self) -> Self {
        RouterConfig {
            over_device_cost: Some(self.over_device_cost.unwrap_or(25).min(8)),
            crosstalk_penalty: self.crosstalk_penalty / 4,
            rip_up_passes: self.rip_up_passes.max(2) * 2,
            ..self.clone()
        }
    }
}

/// One routed net.
#[derive(Debug, Clone)]
pub struct RoutedNet {
    /// Net name.
    pub name: String,
    /// Cells occupied by the net's wiring.
    pub path: Vec<Cell>,
    /// Number of vias used.
    pub vias: usize,
}

/// Result of routing a cell.
#[derive(Debug, Clone)]
pub struct RouteResult {
    /// Successfully routed nets.
    pub routed: Vec<RoutedNet>,
    /// Names of nets that could not be routed.
    pub failed: Vec<String>,
    /// Total wire cells used.
    pub wirelength: usize,
    /// Total vias.
    pub vias: usize,
    /// Crosstalk exposure: count of same-layer adjacencies between cells of
    /// incompatible nets (the quantity ANAGRAM II minimizes).
    pub crosstalk_adjacencies: usize,
}

/// The routing fabric: a 2-layer grid with device obstacles.
#[derive(Debug, Clone)]
pub struct Router {
    width: u16,
    height: u16,
    /// Per cell: Some(net index) when occupied by wiring.
    occupancy: Vec<Option<u16>>,
    /// Layer-0/1-independent flag: cell sits over a device body.
    over_device: Vec<bool>,
    /// Hard blockages (keep-outs).
    blocked: Vec<bool>,
    /// Pin reservations: cell usable only by this net.
    reserved: Vec<Option<u16>>,
}

impl Router {
    /// Creates an empty fabric of `width × height` cells and two layers.
    ///
    /// # Panics
    ///
    /// Panics on a zero-sized grid.
    pub fn new(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "empty routing grid");
        let n = 2 * width as usize * height as usize;
        Router {
            width,
            height,
            occupancy: vec![None; n],
            over_device: vec![false; n],
            blocked: vec![false; n],
            reserved: vec![None; n],
        }
    }

    fn idx(&self, c: Cell) -> usize {
        (c.layer as usize * self.height as usize + c.y as usize) * self.width as usize
            + c.x as usize
    }

    /// Marks a rectangle of cells (both layers) as lying over a device.
    pub fn mark_device(&mut self, x0: u16, y0: u16, x1: u16, y1: u16) {
        for layer in 0..2u8 {
            for y in y0..=y1.min(self.height - 1) {
                for x in x0..=x1.min(self.width - 1) {
                    let i = self.idx(Cell { layer, x, y });
                    self.over_device[i] = true;
                }
            }
        }
    }

    /// Hard-blocks a cell on both layers.
    pub fn block(&mut self, x: u16, y: u16) {
        for layer in 0..2u8 {
            let i = self.idx(Cell { layer, x, y });
            self.blocked[i] = true;
        }
    }

    /// Routes all nets, with rip-up-and-reroute on failure. Symmetric
    /// differential pairs `(i, j, axis_x)` route net `i` first, then net
    /// `j` as its mirror about the vertical grid line `axis_x` when the
    /// mirrored path is free (falling back to plain routing otherwise).
    /// A net with a terminal on an earlier net's terminal cell fails
    /// unrouted: wiring it would short the two nets.
    pub fn route(
        &mut self,
        nets: &[RouteNet],
        sym_pairs: &[(usize, usize, u16)],
        config: &RouterConfig,
    ) -> RouteResult {
        let _span = ams_trace::span("layout.route");
        let mut expansions = 0u64;
        let mut ripups = 0u64;
        let mut mirrored_ok = 0u64;
        // Reserve every net's pin cells so other nets cannot wire over them.
        // The first net to claim a cell keeps it. A net with a pin on
        // another net's cell cannot route without shorting the two, so it
        // fails without a search.
        let mut shorted = vec![false; nets.len()];
        for (ni, net) in nets.iter().enumerate() {
            for &(x, y) in &net.terminals {
                for layer in 0..2u8 {
                    let i = self.idx(Cell { layer, x, y });
                    match self.reserved[i] {
                        None => self.reserved[i] = Some(ni as u16),
                        Some(owner) => shorted[ni] |= usize::from(owner) != ni,
                    }
                }
            }
        }
        let mut order: Vec<usize> = (0..nets.len()).collect();
        // Mirror partners route directly after their reference net.
        let mut mirrored: Vec<Option<(usize, u16)>> = vec![None; nets.len()];
        for &(a, b, axis) in sym_pairs {
            mirrored[b] = Some((a, axis));
            // Ensure a comes before b in the order.
            let pa = order.iter().position(|&k| k == a).expect("valid index");
            let pb = order.iter().position(|&k| k == b).expect("valid index");
            if pb < pa {
                order.swap(pa, pb);
            }
        }

        let mut paths: Vec<Option<RoutedNet>> = vec![None; nets.len()];
        // Maze expansions attributable to each net (speculative planning
        // plus serial recomputes), for the per-net telemetry events.
        let mut net_expansions: Vec<u64> = vec![0; nets.len()];
        let mut budget_stop = false;
        let mut spec_planned = 0u64;
        let mut spec_committed = 0u64;
        'passes: for pass in 0..=config.rip_up_passes {
            let mut all_ok = true;
            // Speculative parallel planning: compute a candidate path for
            // every still-unrouted, non-mirror net against a snapshot of
            // the current fabric (`&self` — no commits). Commits happen
            // serially below in net order, so the result is identical at
            // any thread count; a plan is discarded (and recomputed
            // serially) when an earlier commit invalidated it. Disabled
            // while a fault plan is armed: injected faults fire by global
            // call index, so the `fault::trip` call sequence must match
            // the serial loop exactly.
            let wave: Vec<usize> = if fault::is_armed() {
                Vec::new()
            } else {
                order
                    .iter()
                    .copied()
                    .filter(|&ni| paths[ni].is_none() && mirrored[ni].is_none() && !shorted[ni])
                    .collect()
            };
            let mut plans: Vec<Option<Option<RoutedNet>>> = vec![None; nets.len()];
            if wave.len() >= 2 {
                if !budget::check_in() {
                    budget_stop = true;
                    break 'passes;
                }
                let snapshot = &*self;
                let results = ams_exec::par_map_indexed(&wave, |_, &ni| {
                    let mut exp = 0u64;
                    let p = snapshot.route_one_plan(ni as u16, &nets[ni], nets, config, &mut exp);
                    (exp, p)
                });
                spec_planned += wave.len() as u64;
                for (&ni, (exp, p)) in wave.iter().zip(results) {
                    expansions += exp;
                    net_expansions[ni] += exp;
                    plans[ni] = Some(p);
                }
            }
            // Cells committed since the snapshot: a speculative plan is
            // only trusted while it neither overlaps these nor gains a
            // same-layer adjacency to an incompatible net among them.
            let mut wave_cells: HashSet<Cell> = HashSet::new();
            let mut ripped_this_pass = false;
            for &ni in &order {
                if paths[ni].is_some() || shorted[ni] {
                    continue;
                }
                // Budget checkpoint per net: stop routing and
                // report the rest as failed instead of overrunning.
                if !budget::check_in() {
                    budget_stop = true;
                    break 'passes;
                }
                // Mirrored attempt first.
                if let Some((ref_net, axis)) = mirrored[ni] {
                    if let Some(reference) = &paths[ref_net] {
                        if let Some(m) = self.try_mirror(ni as u16, reference, axis, nets, config) {
                            mirrored_ok += 1;
                            wave_cells.extend(m.path.iter().copied());
                            paths[ni] = Some(m);
                            continue;
                        }
                    }
                }
                let serial_exp_before = expansions;
                let routed = match plans[ni].take() {
                    Some(Some(p))
                        if self.plan_still_valid(&p, nets[ni].class, &wave_cells, nets) =>
                    {
                        spec_committed += 1;
                        for c in &p.path {
                            let i = self.idx(*c);
                            self.occupancy[i] = Some(ni as u16);
                        }
                        Some(p)
                    }
                    // Stale plan: an earlier commit this pass conflicts
                    // with it — recompute against the live fabric.
                    Some(Some(_)) => {
                        self.route_one(ni as u16, &nets[ni], nets, config, &mut expansions)
                    }
                    // The plan failed against the snapshot. Commits only
                    // add occupancy, so the net is still unroutable —
                    // unless a rip-up freed cells since the snapshot.
                    Some(None) if !ripped_this_pass => None,
                    Some(None) => {
                        self.route_one(ni as u16, &nets[ni], nets, config, &mut expansions)
                    }
                    // Not speculated (mirror fallback, tiny wave, faults).
                    None => self.route_one(ni as u16, &nets[ni], nets, config, &mut expansions),
                };
                net_expansions[ni] += expansions - serial_exp_before;
                match routed {
                    Some(p) => {
                        wave_cells.extend(p.path.iter().copied());
                        paths[ni] = Some(p);
                    }
                    None => {
                        all_ok = false;
                        if pass < config.rip_up_passes {
                            // Rip up everything that blocks this net's
                            // terminals' quadrant: simple strategy — rip the
                            // largest routed net and retry later.
                            if let Some((victim, _)) = paths
                                .iter()
                                .enumerate()
                                .filter_map(|(k, p)| p.as_ref().map(|p| (k, p.path.len())))
                                .max_by_key(|&(_, len)| len)
                            {
                                ripups += 1;
                                ripped_this_pass = true;
                                let gone = paths[victim].take().expect("occupied victim");
                                for c in &gone.path {
                                    wave_cells.remove(c);
                                }
                                self.rip_up(gone);
                            }
                        }
                    }
                }
            }
            if all_ok {
                break;
            }
        }
        if budget_stop {
            ams_trace::counter_add("layout.route_budget_stops", 1);
        }

        let mut routed = Vec::new();
        let mut failed = Vec::new();
        for (ni, p) in paths.into_iter().enumerate() {
            if ams_trace::enabled() {
                // Serial summary point in net order — deterministic at any
                // thread count and across rip-up passes.
                ams_trace::emit(ams_trace::TelemetryEvent::RouteNet {
                    net: nets[ni].name.clone(),
                    routed: p.is_some(),
                    expansions: net_expansions[ni],
                });
            }
            match p {
                Some(p) => routed.push(p),
                None => failed.push(nets[ni].name.clone()),
            }
        }
        ams_trace::counter_add("layout.route_runs", 1);
        ams_trace::counter_add("layout.route_expansions", expansions);
        ams_trace::counter_add("layout.route_ripups", ripups);
        ams_trace::counter_add("layout.route_mirrored", mirrored_ok);
        ams_trace::counter_add("layout.route_spec_planned", spec_planned);
        ams_trace::counter_add("layout.route_spec_committed", spec_committed);
        ams_trace::counter_add("layout.route_nets_routed", routed.len() as u64);
        ams_trace::counter_add("layout.route_nets_failed", failed.len() as u64);
        let wirelength = routed.iter().map(|r| r.path.len()).sum();
        let vias = routed.iter().map(|r| r.vias).sum();
        let crosstalk_adjacencies = self.count_crosstalk(nets);
        RouteResult {
            routed,
            failed,
            wirelength,
            vias,
            crosstalk_adjacencies,
        }
    }

    fn rip_up(&mut self, net: RoutedNet) {
        for c in net.path {
            let i = self.idx(c);
            self.occupancy[i] = None;
        }
    }

    fn cell_cost(
        &self,
        c: Cell,
        net_id: u16,
        net_class: NetClass,
        nets: &[RouteNet],
        config: &RouterConfig,
    ) -> Option<u32> {
        let i = self.idx(c);
        if self.blocked[i] || self.occupancy[i].is_some() {
            return None;
        }
        if let Some(owner) = self.reserved[i] {
            if owner != net_id {
                return None;
            }
        }
        let mut cost = config.step_cost.max(1);
        if self.over_device[i] {
            cost += config.over_device_cost?;
        }
        // Crosstalk: same-layer orthogonal neighbors of incompatible class.
        for (dx, dy) in [(1i32, 0i32), (-1, 0), (0, 1), (0, -1)] {
            let nx = c.x as i32 + dx;
            let ny = c.y as i32 + dy;
            if nx < 0 || ny < 0 || nx >= self.width as i32 || ny >= self.height as i32 {
                continue;
            }
            let nc = Cell {
                layer: c.layer,
                x: nx as u16,
                y: ny as u16,
            };
            if let Some(owner) = self.occupancy[self.idx(nc)] {
                if nets[owner as usize].class.incompatible(net_class) {
                    cost += config.crosstalk_penalty;
                }
            }
        }
        Some(cost)
    }

    /// Routes one multi-terminal net by growing a tree terminal by
    /// terminal, committing its cells. Returns `None` when any terminal
    /// is unreachable.
    fn route_one(
        &mut self,
        net_id: u16,
        net: &RouteNet,
        nets: &[RouteNet],
        config: &RouterConfig,
        expansions: &mut u64,
    ) -> Option<RoutedNet> {
        let p = self.route_one_plan(net_id, net, nets, config, expansions)?;
        for c in &p.path {
            let i = self.idx(*c);
            self.occupancy[i] = Some(net_id);
        }
        Some(p)
    }

    /// The planning half of [`Router::route_one`]: computes the path tree
    /// against the current fabric without committing occupancy, so
    /// speculative plans for several nets can run concurrently against
    /// one snapshot.
    fn route_one_plan(
        &self,
        net_id: u16,
        net: &RouteNet,
        nets: &[RouteNet],
        config: &RouterConfig,
        expansions: &mut u64,
    ) -> Option<RoutedNet> {
        // Injection site: fail this routing attempt outright, driving the
        // caller's rip-up loop (and, when injected persistently, leaving
        // the net in `failed`).
        if fault::trip(FaultKind::RouterRipup) {
            return None;
        }
        if net.terminals.is_empty() {
            return Some(RoutedNet {
                name: net.name.clone(),
                path: Vec::new(),
                vias: 0,
            });
        }
        let mut tree: Vec<Cell> = vec![Cell {
            layer: 0,
            x: net.terminals[0].0,
            y: net.terminals[0].1,
        }];
        let mut all_cells: Vec<Cell> = tree.clone();
        let mut vias = 0usize;

        for &(tx, ty) in &net.terminals[1..] {
            let target = Cell {
                layer: 0,
                x: tx,
                y: ty,
            };
            if all_cells.contains(&target) {
                continue;
            }
            let path = self.astar(
                &all_cells, target, net_id, net.class, nets, config, expansions,
            )?;
            for w in path.windows(2) {
                if w[0].layer != w[1].layer {
                    vias += 1;
                }
            }
            for c in &path {
                if !all_cells.contains(c) {
                    all_cells.push(*c);
                }
            }
            tree.push(target);
        }

        Some(RoutedNet {
            name: net.name.clone(),
            path: all_cells,
            vias,
        })
    }

    /// Whether a speculative plan survives the commits made since its
    /// snapshot: none of its cells were taken, and none gained a
    /// same-layer adjacency to an incompatible-class net (which would
    /// have changed the plan's cost, and possibly its shape).
    fn plan_still_valid(
        &self,
        p: &RoutedNet,
        class: NetClass,
        wave_cells: &HashSet<Cell>,
        nets: &[RouteNet],
    ) -> bool {
        for &c in &p.path {
            if self.occupancy[self.idx(c)].is_some() {
                return false;
            }
            for (dx, dy) in [(1i32, 0i32), (-1, 0), (0, 1), (0, -1)] {
                let nx = c.x as i32 + dx;
                let ny = c.y as i32 + dy;
                if nx < 0 || ny < 0 || nx >= self.width as i32 || ny >= self.height as i32 {
                    continue;
                }
                let nc = Cell {
                    layer: c.layer,
                    x: nx as u16,
                    y: ny as u16,
                };
                if !wave_cells.contains(&nc) {
                    continue;
                }
                if let Some(owner) = self.occupancy[self.idx(nc)] {
                    if nets[owner as usize].class.incompatible(class) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// The cheapest path from the partial tree `sources` to `target`, by
    /// A* search. It returns exactly the path a Dijkstra search that pops
    /// in `(cost, Cell)` order and relaxes only on a strict improvement
    /// would return, ties included.
    ///
    /// The bound for a cell `c` at L1 distance `D` from the target is
    /// `step·D + o·min(D, k) + via·[c on layer 1]`, where `o` is the
    /// over-device premium and `k` is the target's
    /// [device depth](Router::device_depth). It is consistent: every move
    /// costs at least `step`, a move that brings `D` below `k` enters a cell
    /// over a device, and the target is on layer 0.
    ///
    /// The heap pops in `(g + h, g, Cell)` order. Along a cheapest path
    /// `g + h` never falls and `g` rises, so every cell a cheapest path to
    /// the target can pass through, or enter one of its cells from, pops
    /// with its exact cost `g` before the target does. The walk back from
    /// the target then takes, at each cell, the neighbour first in
    /// `(g, Cell)` order among those a cheapest path can come from: the
    /// predecessor Dijkstra keeps, since it pops in that order and relaxes
    /// only on a strict improvement. `expansions` counts heap pops.
    #[allow(clippy::too_many_arguments)]
    fn astar(
        &self,
        sources: &[Cell],
        target: Cell,
        net_id: u16,
        class: NetClass,
        nets: &[RouteNet],
        config: &RouterConfig,
        expansions: &mut u64,
    ) -> Option<Vec<Cell>> {
        let step = config.step_cost.max(1);
        let over = config.over_device_cost.unwrap_or(0);
        let depth = self.device_depth(target);
        let bound = |c: Cell| {
            let d = u32::from(c.x.abs_diff(target.x)) + u32::from(c.y.abs_diff(target.y));
            let via = if c.layer == 0 { 0 } else { config.via_cost };
            step.saturating_mul(d)
                .saturating_add(over.saturating_mul(d.min(depth)))
                .saturating_add(via)
        };
        let mut dist = vec![u32::MAX; self.occupancy.len()];
        let mut heap: BinaryHeap<Reverse<(u32, u32, Cell)>> = BinaryHeap::new();
        for &s in sources {
            dist[self.idx(s)] = 0;
            heap.push(Reverse((bound(s), 0, s)));
        }
        loop {
            let Reverse((_, g, c)) = heap.pop()?;
            *expansions += 1;
            if g > dist[self.idx(c)] {
                continue;
            }
            if c == target {
                break;
            }
            for (nc, extra) in self.moves(c, config) {
                if let Some(cost) = self.cell_cost(nc, net_id, class, nets, config) {
                    let ni = self.idx(nc);
                    let nd = g.saturating_add(cost).saturating_add(extra);
                    if nd < dist[ni] {
                        dist[ni] = nd;
                        heap.push(Reverse((nd.saturating_add(bound(nc)), nd, nc)));
                    }
                }
            }
        }
        // Walk back. A move's cost is the cost of the cell it enters plus
        // a direction extra that is the same both ways, so the moves out
        // of `v` name every cell a path can enter `v` from.
        let mut path = vec![target];
        let mut v = target;
        loop {
            let gv = dist[self.idx(v)];
            if gv == 0 {
                break;
            }
            let enter = self
                .cell_cost(v, net_id, class, nets, config)
                .expect("a cell on a found path is passable");
            v = self
                .moves(v, config)
                .filter_map(|(u, extra)| {
                    let gu = dist[self.idx(u)];
                    (gu.saturating_add(enter).saturating_add(extra) == gv).then_some((gu, u))
                })
                .min()
                .expect("a settled cell has a settled predecessor")
                .1;
            path.push(v);
        }
        path.reverse();
        Some(path)
    }

    /// The five moves out of `c`, each with its extra cost: four steps on
    /// `c`'s layer and a via. Layer 0 prefers horizontal and layer 1
    /// vertical wiring: a step across the preferred direction costs one
    /// more. A move's extra is the same in both directions.
    fn moves(&self, c: Cell, config: &RouterConfig) -> impl Iterator<Item = (Cell, u32)> {
        let (h_extra, v_extra) = if c.layer == 0 { (0, 1) } else { (1, 0) };
        [
            (c.x > 0).then(|| (Cell { x: c.x - 1, ..c }, h_extra)),
            (c.x + 1 < self.width).then(|| (Cell { x: c.x + 1, ..c }, h_extra)),
            (c.y > 0).then(|| (Cell { y: c.y - 1, ..c }, v_extra)),
            (c.y + 1 < self.height).then(|| (Cell { y: c.y + 1, ..c }, v_extra)),
            Some((
                Cell {
                    layer: 1 - c.layer,
                    ..c
                },
                config.via_cost,
            )),
        ]
        .into_iter()
        .flatten()
    }

    /// The L1 distance from `c` to the nearest cell not over a device
    /// (0 when `c` itself is clear, `u32::MAX` when no cell is): a path
    /// that ends at `c` crosses at least this many device cells.
    fn device_depth(&self, c: Cell) -> u32 {
        nearest_cell(self.width, self.height, (c.x, c.y), |x, y| {
            !self.over_device[self.idx(Cell { layer: 0, x, y })]
        })
        .map_or(u32::MAX, |(r, _)| r)
    }

    /// Attempts to mirror an already-routed reference path about `axis_x`.
    fn try_mirror(
        &mut self,
        net_id: u16,
        reference: &RoutedNet,
        axis_x: u16,
        nets: &[RouteNet],
        config: &RouterConfig,
    ) -> Option<RoutedNet> {
        let mut mirrored = Vec::with_capacity(reference.path.len());
        for c in &reference.path {
            let mx = 2i32 * axis_x as i32 - c.x as i32;
            if mx < 0 || mx >= self.width as i32 {
                return None;
            }
            let mc = Cell {
                layer: c.layer,
                x: mx as u16,
                y: c.y,
            };
            self.cell_cost(mc, net_id, nets[net_id as usize].class, nets, config)?;
            mirrored.push(mc);
        }
        // Verify the mirrored path covers the net's terminals.
        for &(tx, ty) in &nets[net_id as usize].terminals {
            let t = Cell {
                layer: 0,
                x: tx,
                y: ty,
            };
            if !mirrored.contains(&t) {
                return None;
            }
        }
        for c in &mirrored {
            let i = self.idx(*c);
            self.occupancy[i] = Some(net_id);
        }
        Some(RoutedNet {
            name: nets[net_id as usize].name.clone(),
            path: mirrored,
            vias: reference.vias,
        })
    }

    /// Counts same-layer adjacencies between cells of incompatible nets.
    pub fn count_crosstalk(&self, nets: &[RouteNet]) -> usize {
        let mut count = 0;
        for layer in 0..2u8 {
            for y in 0..self.height {
                for x in 0..self.width {
                    let c = Cell { layer, x, y };
                    let Some(owner) = self.occupancy[self.idx(c)] else {
                        continue;
                    };
                    // Right and up neighbors only (no double counting).
                    for (dx, dy) in [(1u16, 0u16), (0, 1)] {
                        let nx = x + dx;
                        let ny = y + dy;
                        if nx >= self.width || ny >= self.height {
                            continue;
                        }
                        let nc = Cell {
                            layer,
                            x: nx,
                            y: ny,
                        };
                        if let Some(other) = self.occupancy[self.idx(nc)] {
                            if other != owner
                                && nets[owner as usize]
                                    .class
                                    .incompatible(nets[other as usize].class)
                            {
                                count += 1;
                            }
                        }
                    }
                }
            }
        }
        count
    }
}

/// The nearest cell `(x, y)` of a `width × height` grid for which
/// `accept(x, y)` holds, with its L1 distance from `centre`. Scans L1
/// rings outward from `centre`, each in a fixed order, so ties always
/// resolve the same way.
pub(crate) fn nearest_cell(
    width: u16,
    height: u16,
    centre: (u16, u16),
    mut accept: impl FnMut(u16, u16) -> bool,
) -> Option<(u32, (u16, u16))> {
    let (w, h) = (i32::from(width), i32::from(height));
    let (cx, cy) = (i32::from(centre.0), i32::from(centre.1));
    for r in 0..w + h {
        for dx in -r..=r {
            let dy = r - dx.abs();
            for y in [cy - dy, cy + dy] {
                let x = cx + dx;
                if x >= 0 && y >= 0 && x < w && y < h && accept(x as u16, y as u16) {
                    return Some((r as u32, (x as u16, y as u16)));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_prng::{Rng, SeedableRng, SmallRng};

    fn net(name: &str, class: NetClass, terms: &[(u16, u16)]) -> RouteNet {
        RouteNet {
            name: name.to_string(),
            class,
            terminals: terms.to_vec(),
        }
    }

    /// The oracle for [`Router::astar`]: an uninformed Dijkstra search
    /// from the sources that pops in `(cost, Cell)` order, relaxes on a
    /// strict improvement and stops when the target pops.
    #[allow(clippy::too_many_arguments)]
    fn dijkstra(
        r: &Router,
        sources: &[Cell],
        target: Cell,
        net_id: u16,
        class: NetClass,
        nets: &[RouteNet],
        config: &RouterConfig,
        expansions: &mut u64,
    ) -> Option<Vec<Cell>> {
        let n = r.occupancy.len();
        let mut dist = vec![u32::MAX; n];
        let mut prev: Vec<Option<Cell>> = vec![None; n];
        let mut heap: BinaryHeap<Reverse<(u32, Cell)>> = BinaryHeap::new();
        for &s in sources {
            dist[r.idx(s)] = 0;
            heap.push(Reverse((0, s)));
        }
        while let Some(Reverse((d, c))) = heap.pop() {
            *expansions += 1;
            if d > dist[r.idx(c)] {
                continue;
            }
            if c == target {
                let mut path = vec![c];
                let mut cur = c;
                while let Some(p) = prev[r.idx(cur)] {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            let mut push = |nc: Cell, extra: u32| {
                if let Some(step) = r.cell_cost(nc, net_id, class, nets, config) {
                    let ni = r.idx(nc);
                    let nd = d.saturating_add(step).saturating_add(extra);
                    if nd < dist[ni] {
                        dist[ni] = nd;
                        prev[ni] = Some(c);
                        heap.push(Reverse((nd, nc)));
                    }
                }
            };
            let (h_extra, v_extra) = if c.layer == 0 { (0, 1) } else { (1, 0) };
            if c.x > 0 {
                push(Cell { x: c.x - 1, ..c }, h_extra);
            }
            if c.x + 1 < r.width {
                push(Cell { x: c.x + 1, ..c }, h_extra);
            }
            if c.y > 0 {
                push(Cell { y: c.y - 1, ..c }, v_extra);
            }
            if c.y + 1 < r.height {
                push(Cell { y: c.y + 1, ..c }, v_extra);
            }
            push(
                Cell {
                    layer: 1 - c.layer,
                    ..c
                },
                config.via_cost,
            );
        }
        None
    }

    /// A seeded search problem: a fabric with device marks, blocked
    /// cells, wiring and pin reservations of nets of every class, a
    /// multi-cell source tree for net 0, and a layer-0 target that is
    /// sometimes walled in.
    fn random_search(seed: u64) -> (Router, Vec<RouteNet>, Vec<Cell>, Cell) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let w = rng.gen_range(6u32..=32) as u16;
        let h = rng.gen_range(6u32..=32) as u16;
        let mut r = Router::new(w, h);
        let at = |rng: &mut SmallRng| {
            (
                rng.gen_range(0..u32::from(w)) as u16,
                rng.gen_range(0..u32::from(h)) as u16,
            )
        };
        for _ in 0..rng.gen_range(0usize..=4) {
            let (x0, y0) = at(&mut rng);
            let (dx, dy) = (rng.gen_range(0u32..8) as u16, rng.gen_range(0u32..8) as u16);
            r.mark_device(x0, y0, x0.saturating_add(dx), y0.saturating_add(dy));
        }
        for _ in 0..(usize::from(w) * usize::from(h)) / 20 {
            let (x, y) = at(&mut rng);
            r.block(x, y);
        }
        let classes = [NetClass::Sensitive, NetClass::Noisy, NetClass::Neutral];
        let mut nets = vec![net("n0", classes[rng.gen_range(0..3usize)], &[])];
        for (k, &class) in classes.iter().enumerate() {
            let id = k as u16 + 1;
            nets.push(net(&format!("n{id}"), class, &[]));
            // A random walk of this net's wiring, and two pins.
            let (mut x, mut y) = at(&mut rng);
            let layer = rng.gen_range(0u32..2) as u8;
            for _ in 0..rng.gen_range(4usize..24) {
                let i = r.idx(Cell { layer, x, y });
                r.occupancy[i] = Some(id);
                match rng.gen_range(0..4u32) {
                    0 => x = x.saturating_sub(1),
                    1 => x = (x + 1).min(w - 1),
                    2 => y = y.saturating_sub(1),
                    _ => y = (y + 1).min(h - 1),
                }
            }
            for _ in 0..2 {
                let (x, y) = at(&mut rng);
                for layer in 0..2u8 {
                    let i = r.idx(Cell { layer, x, y });
                    r.reserved[i] = Some(id);
                }
            }
        }
        let mut sources = Vec::new();
        let (mut x, mut y) = at(&mut rng);
        let mut layer = 0u8;
        for _ in 0..rng.gen_range(1usize..10) {
            let c = Cell { layer, x, y };
            if !sources.contains(&c) {
                sources.push(c);
            }
            match rng.gen_range(0..5u32) {
                0 => x = x.saturating_sub(1),
                1 => x = (x + 1).min(w - 1),
                2 => y = y.saturating_sub(1),
                3 => y = (y + 1).min(h - 1),
                _ => layer = 1 - layer,
            }
        }
        let target = loop {
            let (x, y) = at(&mut rng);
            let t = Cell { layer: 0, x, y };
            if !sources.contains(&t) {
                break t;
            }
        };
        if rng.gen_range(0..8u32) == 0 {
            for (dx, dy) in [(1i32, 0i32), (-1, 0), (0, 1), (0, -1)] {
                let (nx, ny) = (i32::from(target.x) + dx, i32::from(target.y) + dy);
                if nx >= 0 && ny >= 0 && nx < i32::from(w) && ny < i32::from(h) {
                    r.block(nx as u16, ny as u16);
                }
            }
        }
        (r, nets, sources, target)
    }

    #[test]
    fn astar_returns_dijkstras_path_on_seeded_grids() {
        let configs = [
            RouterConfig::default(),
            RouterConfig::default().relaxed(),
            RouterConfig {
                over_device_cost: None,
                ..Default::default()
            },
            RouterConfig {
                crosstalk_penalty: 0,
                ..Default::default()
            },
        ];
        let (mut astar_pops, mut oracle_pops) = (0u64, 0u64);
        let (mut found, mut missing) = (0, 0);
        for seed in 0..96u64 {
            let (r, nets, sources, target) = random_search(seed);
            for (k, config) in configs.iter().enumerate() {
                let class = nets[0].class;
                let got = r.astar(&sources, target, 0, class, &nets, config, &mut astar_pops);
                let want = dijkstra(
                    &r,
                    &sources,
                    target,
                    0,
                    class,
                    &nets,
                    config,
                    &mut oracle_pops,
                );
                assert_eq!(got, want, "seed {seed}, config {k}");
                match got {
                    Some(_) => found += 1,
                    None => missing += 1,
                }
            }
        }
        // The grids exercise both outcomes, and the bound pays off.
        assert!(
            found > 100 && missing > 10,
            "{found} found, {missing} missing"
        );
        assert!(
            astar_pops < oracle_pops,
            "A* popped {astar_pops}, Dijkstra {oracle_pops}"
        );
    }

    #[test]
    fn routes_simple_two_terminal_net() {
        let mut r = Router::new(20, 20);
        let nets = vec![net("a", NetClass::Neutral, &[(1, 1), (15, 1)])];
        let res = r.route(&nets, &[], &RouterConfig::default());
        assert!(res.failed.is_empty());
        assert_eq!(res.routed.len(), 1);
        // Straight horizontal run on layer 0: 15 cells.
        assert!(
            res.wirelength >= 15 && res.wirelength <= 18,
            "{}",
            res.wirelength
        );
        assert_eq!(res.vias, 0);
    }

    #[test]
    fn routes_multi_terminal_net_as_tree() {
        let mut r = Router::new(20, 20);
        let nets = vec![net("t", NetClass::Neutral, &[(2, 2), (12, 2), (7, 9)])];
        let res = r.route(&nets, &[], &RouterConfig::default());
        assert!(res.failed.is_empty());
        // Tree length beats three separate point-to-point routes.
        assert!(res.wirelength < (10 + 12 + 12));
    }

    #[test]
    fn detours_around_blockage() {
        let mut r = Router::new(20, 20);
        // Wall at x = 10, y = 0..15.
        for y in 0..15 {
            r.block(10, y);
        }
        let nets = vec![net("a", NetClass::Neutral, &[(2, 2), (18, 2)])];
        let res = r.route(&nets, &[], &RouterConfig::default());
        assert!(res.failed.is_empty());
        // Detour makes it longer than the direct 16.
        assert!(res.wirelength > 16 + 10, "wl = {}", res.wirelength);
    }

    #[test]
    fn over_device_routing_is_avoided_when_cheap_path_exists() {
        let mut r = Router::new(20, 10);
        r.mark_device(5, 0, 8, 5);
        let nets = vec![net("a", NetClass::Neutral, &[(2, 2), (12, 2)])];
        let res = r.route(&nets, &[], &RouterConfig::default());
        assert!(res.failed.is_empty());
        let over: usize = res.routed[0]
            .path
            .iter()
            .filter(|c| c.x >= 5 && c.x <= 8 && c.y <= 5)
            .count();
        // Path should hop over the device region (y > 5) rather than cross
        // it, because the detour is shorter than the over-device premium.
        assert_eq!(over, 0, "path crossed the device: {:?}", res.routed[0].path);
    }

    #[test]
    fn over_device_routing_used_when_forced() {
        let mut r = Router::new(20, 6);
        // Device spans the full height: no way around.
        r.mark_device(8, 0, 10, 5);
        let nets = vec![net("a", NetClass::Neutral, &[(2, 2), (16, 2)])];
        let res = r.route(&nets, &[], &RouterConfig::default());
        assert!(res.failed.is_empty(), "failed: {:?}", res.failed);
        // And if over-device routing is forbidden, the route fails.
        let mut r2 = Router::new(20, 6);
        r2.mark_device(8, 0, 10, 5);
        let cfg = RouterConfig {
            over_device_cost: None,
            rip_up_passes: 0,
            ..Default::default()
        };
        let res2 = r2.route(&nets, &[], &cfg);
        assert_eq!(res2.failed, vec!["a".to_string()]);
    }

    #[test]
    fn sensitive_net_avoids_noisy_neighbor() {
        // A noisy wire runs along y=5; a sensitive net from (0,4) to
        // (19,4) would hug it — with the penalty it keeps its distance.
        let mut r = Router::new(20, 12);
        let nets = vec![
            net("clk", NetClass::Noisy, &[(0, 5), (19, 5)]),
            net("in", NetClass::Sensitive, &[(0, 4), (19, 4)]),
        ];
        let res = r.route(&nets, &[], &RouterConfig::default());
        assert!(res.failed.is_empty());
        // Crosstalk adjacency must be (near) zero despite the parallel pins.
        assert!(
            res.crosstalk_adjacencies <= 4,
            "adjacencies = {}",
            res.crosstalk_adjacencies
        );
    }

    #[test]
    fn crosstalk_grows_without_penalty() {
        let build = |penalty: u32| {
            let mut r = Router::new(20, 12);
            let nets = vec![
                net("clk", NetClass::Noisy, &[(0, 5), (19, 5)]),
                net("in", NetClass::Sensitive, &[(0, 4), (19, 4)]),
            ];
            let cfg = RouterConfig {
                crosstalk_penalty: penalty,
                ..Default::default()
            };
            r.route(&nets, &[], &cfg).crosstalk_adjacencies
        };
        let with = build(40);
        let without = build(0);
        assert!(
            with < without,
            "penalty should reduce adjacency: {with} vs {without}"
        );
    }

    #[test]
    fn symmetric_pair_mirrors_exactly() {
        let mut r = Router::new(21, 12);
        // Differential pair symmetric about x=10.
        let nets = vec![
            net("inp", NetClass::Sensitive, &[(2, 2), (6, 8)]),
            net("inn", NetClass::Sensitive, &[(18, 2), (14, 8)]),
        ];
        let res = r.route(&nets, &[(0, 1, 10)], &RouterConfig::default());
        assert!(res.failed.is_empty());
        let a = &res.routed.iter().find(|n| n.name == "inp").unwrap().path;
        let b = &res.routed.iter().find(|n| n.name == "inn").unwrap().path;
        assert_eq!(a.len(), b.len());
        // Every cell mirrors.
        for c in a {
            let mirrored = Cell {
                layer: c.layer,
                x: 20 - c.x,
                y: c.y,
            };
            assert!(b.contains(&mirrored), "missing mirror of {c:?}");
        }
    }

    #[test]
    fn routing_is_thread_count_independent() {
        // Congested scenario with incompatible classes and a symmetric
        // pair: plans go stale and rip-ups fire, exercising every commit
        // path. The result must not depend on the worker count.
        let run = |threads: usize| {
            ams_exec::set_threads(Some(threads));
            let mut r = Router::new(24, 10);
            r.mark_device(10, 3, 13, 6);
            let nets = vec![
                net("clk", NetClass::Noisy, &[(0, 5), (23, 5)]),
                net("in", NetClass::Sensitive, &[(0, 4), (23, 4)]),
                net("a", NetClass::Neutral, &[(2, 1), (20, 8)]),
                net("b", NetClass::Neutral, &[(2, 8), (20, 1)]),
                net("inp", NetClass::Sensitive, &[(8, 0), (8, 9)]),
                net("inn", NetClass::Sensitive, &[(16, 0), (16, 9)]),
            ];
            let res = r.route(&nets, &[(4, 5, 12)], &RouterConfig::default());
            ams_exec::set_threads(None);
            (
                res.routed
                    .iter()
                    .map(|n| (n.name.clone(), n.path.clone(), n.vias))
                    .collect::<Vec<_>>(),
                res.failed.clone(),
                res.wirelength,
                res.vias,
                res.crosstalk_adjacencies,
            )
        };
        let serial = run(1);
        for threads in [2, 8] {
            assert_eq!(run(threads), serial, "threads = {threads}");
        }
    }

    #[test]
    fn a_net_with_a_pin_on_another_nets_pin_fails_unrouted() {
        // `b`'s first pin sits on `a`'s. Routing `b` would short the two
        // nets, so it fails without a search, and `a` routes as if alone.
        let a = net("a", NetClass::Neutral, &[(2, 2), (12, 2)]);
        let b = net("b", NetClass::Neutral, &[(2, 2), (6, 8)]);
        let res = Router::new(16, 12).route(&[a.clone(), b], &[], &RouterConfig::default());
        assert_eq!(res.failed, ["b"]);
        let alone = Router::new(16, 12).route(&[a], &[], &RouterConfig::default());
        assert_eq!(res.routed.len(), 1);
        assert_eq!(res.routed[0].path, alone.routed[0].path);
    }

    #[test]
    fn congestion_triggers_rip_up_and_reroute() {
        // Narrow 3-row corridor; two nets must share it; the first greedy
        // route blocks the second until rip-up rearranges.
        let mut r = Router::new(20, 3);
        let nets = vec![
            net("a", NetClass::Neutral, &[(0, 1), (19, 1)]),
            net("b", NetClass::Neutral, &[(0, 0), (19, 2)]),
        ];
        let res = r.route(&nets, &[], &RouterConfig::default());
        assert!(
            res.failed.is_empty(),
            "rip-up should rescue both nets: {:?}",
            res.failed
        );
    }
}
