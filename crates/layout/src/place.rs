//! KOAN-style device placement by simulated annealing.
//!
//! "The device placer KOAN relied on a very small library of device
//! generators, and migrated important layout optimizations into the placer
//! itself. KOAN could dynamically fold, merge and abut MOS devices … KOAN
//! was based on an efficient simulated annealing algorithm" (§3.1).
//!
//! The move set perturbs position and orientation; the cost function folds
//! in the analog concerns: bounding-box area, net wirelength, overlap,
//! symmetry-group adherence (matched differential structure) and abutment
//! bonuses for stack neighbors (the merge optimization).

use crate::geom::{Orientation, Point, Rect};
use ams_prng::{Rng, SeedableRng, SmallRng};

/// One placeable device.
#[derive(Debug, Clone)]
pub struct PlaceItem {
    /// Instance name.
    pub name: String,
    /// Footprint width (orientation R0), nm.
    pub w: i64,
    /// Footprint height (orientation R0), nm.
    pub h: i64,
    /// Pins: `(net id, offset from item origin)`.
    pub pins: Vec<(usize, Point)>,
}

impl PlaceItem {
    /// Creates an item with pins at its center for every listed net.
    pub fn with_center_pins(name: &str, w: i64, h: i64, nets: &[usize]) -> Self {
        PlaceItem {
            name: name.to_string(),
            w,
            h,
            pins: nets
                .iter()
                .map(|&n| (n, Point::new(w / 2, h / 2)))
                .collect(),
        }
    }
}

/// A symmetry constraint: items `a` and `b` must mirror about a shared
/// vertical axis (`self_symmetric` pins an item on the axis itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymmetryPair {
    /// Left item index.
    pub a: usize,
    /// Right item index (same as `a` for self-symmetric items).
    pub b: usize,
}

/// Abutment hint: the placer is rewarded for butting these two items
/// against each other (diffusion-merge neighbors from the stacker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbutPair {
    /// First item index.
    pub a: usize,
    /// Second item index.
    pub b: usize,
}

/// Cost weights and annealing schedule.
#[derive(Debug, Clone)]
pub struct PlacerConfig {
    /// Weight of cell bounding-box area (per nm²).
    pub w_area: f64,
    /// Weight of half-perimeter wirelength (per nm).
    pub w_wire: f64,
    /// Weight of pairwise overlap (per nm²) — effectively a hard constraint.
    pub w_overlap: f64,
    /// Weight of symmetry deviation (per nm).
    pub w_symmetry: f64,
    /// Weight (bonus) for abutment proximity (per nm of separation).
    pub w_abut: f64,
    /// Required spacing margin between devices, nm.
    pub spacing: i64,
    /// Annealing moves per stage.
    pub moves_per_stage: usize,
    /// Annealing stages.
    pub stages: usize,
    /// RNG seed.
    pub seed: u64,
    /// Enable orientation (rotate/mirror) moves — ablation knob for E3.
    pub orientation_moves: bool,
    /// Enable abutment bonus — ablation knob for E3.
    pub abutment_bonus: bool,
}

impl Default for PlacerConfig {
    fn default() -> Self {
        PlacerConfig {
            w_area: 1.0,
            w_wire: 400.0,
            w_overlap: 2000.0,
            w_symmetry: 3000.0,
            w_abut: 300.0,
            spacing: 2400,
            moves_per_stage: 300,
            stages: 80,
            seed: 1,
            orientation_moves: true,
            abutment_bonus: true,
        }
    }
}

/// A placed item: position of its origin plus orientation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placed {
    /// Origin (lower-left corner of the oriented footprint).
    pub at: Point,
    /// Orientation.
    pub orient: Orientation,
}

/// Result of a placement run.
#[derive(Debug, Clone)]
pub struct PlacementResult {
    /// Final positions, indexed like the input items.
    pub placed: Vec<Placed>,
    /// Bounding-box area, nm².
    pub area: i64,
    /// Total half-perimeter wirelength, nm.
    pub wirelength: i64,
    /// Residual overlap area (0 after successful legalization), nm².
    pub overlap: i64,
    /// Final cost.
    pub cost: f64,
}

struct Evaluator<'a> {
    items: &'a [PlaceItem],
    nets: usize,
    symmetry: &'a [SymmetryPair],
    abut: &'a [AbutPair],
    config: &'a PlacerConfig,
    /// Buffers [`Evaluator::cost`] refills on every call.
    rects: Vec<Rect>,
    lo: Vec<(i64, i64)>,
    hi: Vec<(i64, i64)>,
    axes: Vec<f64>,
}

/// The footprint of item `item` placed at `p`.
fn oriented_rect(item: &PlaceItem, p: &Placed) -> Rect {
    let (w, h) = match p.orient {
        Orientation::R90 | Orientation::R270 => (item.h, item.w),
        _ => (item.w, item.h),
    };
    Rect::with_size(p.at.x, p.at.y, w, h)
}

/// Where pin `pin` of `item` lands when the item is placed at `p`.
fn pin_position(item: &PlaceItem, p: &Placed, pin: usize) -> Point {
    let bbox = Rect::with_size(0, 0, item.w, item.h);
    let (_, off) = item.pins[pin];
    let pr = Rect::new(off.x, off.y, off.x + 1, off.y + 1);
    let t = p.orient.apply(&pr, &bbox);
    Point::new(p.at.x + t.x0, p.at.y + t.y0)
}

impl Evaluator<'_> {
    fn oriented_rect(&self, i: usize, p: &Placed) -> Rect {
        oriented_rect(&self.items[i], p)
    }

    fn cost(&mut self, placed: &[Placed]) -> f64 {
        let rects = &mut self.rects;
        rects.clear();
        rects.extend(
            self.items
                .iter()
                .zip(placed)
                .map(|(it, p)| oriented_rect(it, p)),
        );

        // Bounding-box area.
        let bbox = rects.iter().skip(1).fold(rects[0], |acc, r| acc.union(r));
        let area = bbox.area() as f64;

        // Overlap with spacing margin.
        let mut overlap = 0.0;
        for i in 0..rects.len() {
            for j in i + 1..rects.len() {
                let a = rects[i].expanded(self.config.spacing / 2);
                let b = rects[j].expanded(self.config.spacing / 2);
                overlap += a.overlap_area(&b) as f64;
            }
        }

        // HPWL per net.
        let (lo, hi) = (&mut self.lo, &mut self.hi);
        lo.clear();
        lo.resize(self.nets, (i64::MAX, i64::MAX));
        hi.clear();
        hi.resize(self.nets, (i64::MIN, i64::MIN));
        for (item, p) in self.items.iter().zip(placed) {
            for (k, (net, _)) in item.pins.iter().enumerate() {
                let pt = pin_position(item, p, k);
                let l = &mut lo[*net];
                l.0 = l.0.min(pt.x);
                l.1 = l.1.min(pt.y);
                let h = &mut hi[*net];
                h.0 = h.0.max(pt.x);
                h.1 = h.1.max(pt.y);
            }
        }
        let mut wirelength = 0.0;
        for n in 0..self.nets {
            if hi[n].0 >= lo[n].0 {
                wirelength += ((hi[n].0 - lo[n].0) + (hi[n].1 - lo[n].1)) as f64;
            }
        }

        // Symmetry deviation: mirrored pairs share a vertical axis chosen
        // as the mean of pair midlines; deviation = axis misalignment plus
        // vertical misalignment.
        let mut sym_dev = 0.0;
        if !self.symmetry.is_empty() {
            let axes = &mut self.axes;
            axes.clear();
            axes.extend(self.symmetry.iter().map(|s| {
                let (ra, rb) = (rects[s.a], rects[s.b]);
                (ra.center().x + rb.center().x) as f64 / 2.0
            }));
            let axis = axes.iter().sum::<f64>() / axes.len() as f64;
            for (s, pair_axis) in self.symmetry.iter().zip(axes.iter()) {
                let (ra, rb) = (rects[s.a], rects[s.b]);
                sym_dev += (pair_axis - axis).abs();
                sym_dev += (ra.center().y - rb.center().y).abs() as f64;
                if s.a != s.b {
                    // Mirrored separation must match: |xa - axis| = |xb - axis|
                    let da = axis - ra.center().x as f64;
                    let db = rb.center().x as f64 - axis;
                    sym_dev += (da - db).abs();
                }
            }
        }

        // Abutment bonus: reward small separation between merge partners.
        let mut abut_dist = 0.0;
        if self.config.abutment_bonus {
            for a in self.abut {
                let ra = rects[a.a];
                let rb = rects[a.b];
                abut_dist += ra.spacing_to(&rb) as f64 + (ra.y0 - rb.y0).abs() as f64;
            }
        }

        self.config.w_area * area / 1e6
            + self.config.w_wire * wirelength / 1e3
            + self.config.w_overlap * overlap / 1e4
            + self.config.w_symmetry * sym_dev / 1e3
            + self.config.w_abut * abut_dist / 1e3
    }
}

/// Places the items by simulated annealing.
///
/// # Panics
///
/// Panics if `items` is empty or a pin references `net_count` or higher.
pub fn place(
    items: &[PlaceItem],
    net_count: usize,
    symmetry: &[SymmetryPair],
    abut: &[AbutPair],
    config: &PlacerConfig,
) -> PlacementResult {
    assert!(!items.is_empty(), "nothing to place");
    for it in items {
        for (n, _) in &it.pins {
            assert!(*n < net_count, "pin net {n} out of range");
        }
    }
    let _span = ams_trace::span("layout.place");
    let mut moves_translate = 0u64;
    let mut moves_orient = 0u64;
    let mut moves_swap = 0u64;
    let mut moves_accepted = 0u64;
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut ev = Evaluator {
        items,
        nets: net_count,
        symmetry,
        abut,
        config,
        rects: Vec::new(),
        lo: Vec::new(),
        hi: Vec::new(),
        axes: Vec::new(),
    };

    // Initial placement: diagonal-ish scatter on the spacing grid.
    let span: i64 = items.iter().map(|i| i.w.max(i.h) + config.spacing).sum();
    let mut placed: Vec<Placed> = items
        .iter()
        .map(|_| Placed {
            at: Point::new(rng.gen_range(0..span.max(1)), rng.gen_range(0..span.max(1))),
            orient: Orientation::R0,
        })
        .collect();
    let mut cost = ev.cost(&placed);
    let mut best = placed.clone();
    let mut best_cost = cost;
    let mut t = cost.abs().max(1.0);

    for stage in 0..config.stages {
        let progress = stage as f64 / config.stages as f64;
        let reach = ((span as f64) * (1.0 - progress) * 0.5).max(config.spacing as f64);
        for _ in 0..config.moves_per_stage {
            let i = rng.gen_range(0..items.len());
            let saved = placed[i];
            let mut swapped = false;
            match rng.gen_range(0..10) {
                0..=5 => {
                    // Translate.
                    moves_translate += 1;
                    placed[i].at.x += rng.gen_range(-reach as i64..=reach as i64);
                    placed[i].at.y += rng.gen_range(-reach as i64..=reach as i64);
                }
                6 | 7 if config.orientation_moves => {
                    moves_orient += 1;
                    placed[i].orient = Orientation::ALL[rng.gen_range(0..Orientation::ALL.len())];
                }
                _ => {
                    moves_swap += 1;
                    // Swap positions with another item.
                    let j = rng.gen_range(0..items.len());
                    if i != j {
                        let tmp = placed[i].at;
                        placed[i].at = placed[j].at;
                        placed[j].at = tmp;
                        swapped = true;
                    }
                }
            }
            let new_cost = ev.cost(&placed);
            let d = new_cost - cost;
            if d < 0.0 || rng.gen::<f64>() < (-d / t).exp() {
                moves_accepted += 1;
                cost = new_cost;
                if cost < best_cost {
                    best_cost = cost;
                    best = placed.clone();
                }
            } else {
                // Undo. Restoring item `i` gives back the previous
                // placement exactly, and so its cost, unless the move was
                // a swap: then the partner stays moved, and when that
                // shows in the cost, fall back to the best placement.
                placed[i] = saved;
                if swapped && (ev.cost(&placed) - cost).abs() > 1e-6 {
                    placed = best.clone();
                    cost = best_cost;
                }
            }
        }
        t *= 0.88;
    }

    ams_trace::counter_add("layout.place_runs", 1);
    ams_trace::counter_add(
        "layout.place_moves",
        moves_translate + moves_orient + moves_swap,
    );
    ams_trace::counter_add("layout.place_moves_translate", moves_translate);
    ams_trace::counter_add("layout.place_moves_orient", moves_orient);
    ams_trace::counter_add("layout.place_moves_swap", moves_swap);
    ams_trace::counter_add("layout.place_accepted", moves_accepted);

    // Legalize: remove residual overlaps by nudging along +x.
    let mut placed = best;
    legalize(&ev, &mut placed);
    let cost = ev.cost(&placed);

    // Final metrics.
    let rects: Vec<Rect> = placed
        .iter()
        .enumerate()
        .map(|(i, p)| ev.oriented_rect(i, p))
        .collect();
    let bbox = rects.iter().skip(1).fold(rects[0], |a, r| a.union(r));
    let mut overlap = 0;
    for i in 0..rects.len() {
        for j in i + 1..rects.len() {
            overlap += rects[i].overlap_area(&rects[j]);
        }
    }
    let mut lo = vec![(i64::MAX, i64::MAX); net_count];
    let mut hi = vec![(i64::MIN, i64::MIN); net_count];
    for (item, p) in items.iter().zip(&placed) {
        for (k, (net, _)) in item.pins.iter().enumerate() {
            let pt = pin_position(item, p, k);
            lo[*net].0 = lo[*net].0.min(pt.x);
            lo[*net].1 = lo[*net].1.min(pt.y);
            hi[*net].0 = hi[*net].0.max(pt.x);
            hi[*net].1 = hi[*net].1.max(pt.y);
        }
    }
    let wirelength = (0..net_count)
        .filter(|&n| hi[n].0 >= lo[n].0)
        .map(|n| (hi[n].0 - lo[n].0) + (hi[n].1 - lo[n].1))
        .sum();

    PlacementResult {
        placed,
        area: bbox.area(),
        wirelength,
        overlap,
        cost,
    }
}

/// Pushes overlapping items apart along +x until no overlaps remain.
fn legalize(ev: &Evaluator<'_>, placed: &mut [Placed]) {
    for _pass in 0..200 {
        let rects: Vec<Rect> = placed
            .iter()
            .enumerate()
            .map(|(i, p)| ev.oriented_rect(i, p))
            .collect();
        let mut moved = false;
        for i in 0..rects.len() {
            for j in i + 1..rects.len() {
                if rects[i].intersects(&rects[j]) {
                    // Move the one further right, rightward past the other.
                    let (mv, anchor) = if rects[i].center().x <= rects[j].center().x {
                        (j, i)
                    } else {
                        (i, j)
                    };
                    let shift =
                        rects[anchor].x1 + ev.config.spacing - ev.oriented_rect(mv, &placed[mv]).x0;
                    placed[mv].at.x += shift.max(ev.config.spacing);
                    moved = true;
                    break;
                }
            }
            if moved {
                break;
            }
        }
        if !moved {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(seed: u64) -> PlacerConfig {
        PlacerConfig {
            moves_per_stage: 120,
            stages: 40,
            seed,
            ..Default::default()
        }
    }

    fn four_items() -> (Vec<PlaceItem>, usize) {
        // Four 10×10 µm devices; nets 0..2 chain them.
        let items = vec![
            PlaceItem::with_center_pins("A", 10_000, 10_000, &[0]),
            PlaceItem::with_center_pins("B", 10_000, 10_000, &[0, 1]),
            PlaceItem::with_center_pins("C", 10_000, 10_000, &[1, 2]),
            PlaceItem::with_center_pins("D", 10_000, 10_000, &[2]),
        ];
        (items, 3)
    }

    #[test]
    fn placement_has_no_overlaps() {
        let (items, nets) = four_items();
        let r = place(&items, nets, &[], &[], &quick_config(1));
        assert_eq!(r.overlap, 0, "residual overlap");
        assert!(r.area > 0);
    }

    #[test]
    fn area_is_near_packing_lower_bound() {
        let (items, nets) = four_items();
        let r = place(&items, nets, &[], &[], &quick_config(2));
        // Lower bound: 4 devices of 100 µm² plus spacing — a decent packer
        // should land within 4× of the ideal 400 µm² + margins.
        let ideal = 4.0 * 100.0;
        let got = r.area as f64 / 1e6;
        assert!(got < 4.0 * ideal, "area {got} µm² vs ideal {ideal} µm²");
    }

    #[test]
    fn connected_items_end_up_close() {
        let (items, nets) = four_items();
        let r = place(&items, nets, &[], &[], &quick_config(3));
        // Wirelength should be far below the scattered-start worst case.
        let span: i64 = items.iter().map(|i| i.w + 2400).sum::<i64>();
        assert!(
            r.wirelength < 3 * span,
            "wirelength {} vs span {span}",
            r.wirelength
        );
    }

    #[test]
    fn symmetry_pairs_align() {
        let items = vec![
            PlaceItem::with_center_pins("M1", 12_000, 8_000, &[0]),
            PlaceItem::with_center_pins("M2", 12_000, 8_000, &[0]),
            PlaceItem::with_center_pins("TAIL", 20_000, 8_000, &[0]),
        ];
        let sym = [SymmetryPair { a: 0, b: 1 }];
        let r = place(&items, 1, &sym, &[], &quick_config(4));
        // Mirrored pair: same y, equidistant from the axis between them.
        let ra = r.placed[0];
        let rb = r.placed[1];
        let ya = ra.at.y + 4_000;
        let yb = rb.at.y + 4_000;
        assert!(
            (ya - yb).abs() < 2_000,
            "vertical misalignment {}",
            (ya - yb).abs()
        );
    }

    #[test]
    fn abutment_bonus_pulls_partners_together() {
        let items = vec![
            PlaceItem::with_center_pins("A", 10_000, 10_000, &[0]),
            PlaceItem::with_center_pins("B", 10_000, 10_000, &[0]),
            PlaceItem::with_center_pins("C", 10_000, 10_000, &[]),
            PlaceItem::with_center_pins("D", 10_000, 10_000, &[]),
        ];
        let abut = [AbutPair { a: 0, b: 1 }];
        let with = place(&items, 1, &[], &abut, &quick_config(5));
        let d_with = {
            let ra = Rect::with_size(with.placed[0].at.x, with.placed[0].at.y, 10_000, 10_000);
            let rb = Rect::with_size(with.placed[1].at.x, with.placed[1].at.y, 10_000, 10_000);
            ra.spacing_to(&rb)
        };
        // Partners end up at (near-)minimum spacing.
        assert!(d_with <= 3 * 2400, "abut distance {d_with}");
    }

    #[test]
    fn deterministic_for_seed() {
        let (items, nets) = four_items();
        let a = place(&items, nets, &[], &[], &quick_config(9));
        let b = place(&items, nets, &[], &[], &quick_config(9));
        assert_eq!(a.placed, b.placed);
    }

    #[test]
    #[should_panic(expected = "nothing to place")]
    fn empty_items_panic() {
        place(&[], 0, &[], &[], &PlacerConfig::default());
    }
}
