//! The macrocell-style cell layout flow: stack → place → route → extract.
//!
//! This is the KOAN/ANAGRAM II pipeline of §3.1 end to end: device
//! stacking identifies merge partners, the annealing placer arranges
//! generated devices (honoring symmetry and abutment), the maze router
//! wires them under net-class constraints, and a parasitic extractor
//! estimates per-net wiring capacitance for closing the loop with
//! sensitivity bounds.

use crate::devgen::{self, DeviceLayout};
use crate::geom::Rect;
use crate::place::{place, AbutPair, PlaceItem, PlacerConfig, SymmetryPair};
use crate::route::{nearest_cell, NetClass, RouteNet, RoutedNet, Router, RouterConfig};
use crate::rules::DesignRules;
use crate::stack::DiffusionGraph;
// det-lint: allow(hash-collection): name-to-index lookups; ordered data lives in parallel Vecs
use std::collections::HashMap;
use std::fmt;

/// One device of the cell netlist.
#[derive(Debug, Clone)]
pub enum CellDevice {
    /// MOS transistor.
    Mos {
        /// Instance name.
        name: String,
        /// `"nmos"` or `"pmos"` (controls stacking classes).
        polarity: String,
        /// Width in meters.
        w: f64,
        /// Length in meters.
        l: f64,
        /// Fingers.
        fingers: usize,
        /// Drain / gate / source / bulk net names.
        nets: [String; 4],
    },
    /// Capacitor.
    Cap {
        /// Instance name.
        name: String,
        /// Farads.
        farads: f64,
        /// Plus / minus net names.
        nets: [String; 2],
    },
    /// Resistor.
    Res {
        /// Instance name.
        name: String,
        /// Ohms.
        ohms: f64,
        /// Terminal net names.
        nets: [String; 2],
    },
}

impl CellDevice {
    /// Instance name.
    pub fn name(&self) -> &str {
        match self {
            CellDevice::Mos { name, .. }
            | CellDevice::Cap { name, .. }
            | CellDevice::Res { name, .. } => name,
        }
    }

    /// The routed ports and their nets: a MOS's drain, gate and source,
    /// a capacitor's or resistor's two terminals.
    fn port_nets(&self) -> Vec<(&'static str, &str)> {
        match self {
            CellDevice::Mos { nets, .. } => vec![
                ("d", nets[0].as_str()),
                ("g", nets[1].as_str()),
                ("s", nets[2].as_str()),
            ],
            CellDevice::Cap { nets, .. } | CellDevice::Res { nets, .. } => {
                vec![("p", nets[0].as_str()), ("m", nets[1].as_str())]
            }
        }
    }
}

/// Options controlling the cell layout run.
#[derive(Debug, Clone, Default)]
pub struct CellOptions {
    /// Symmetric device pairs by instance name.
    pub symmetry_pairs: Vec<(String, String)>,
    /// Net classes (default [`NetClass::Neutral`]).
    pub net_classes: HashMap<String, NetClass>,
    /// Placer configuration.
    pub placer: PlacerConfig,
    /// Router configuration.
    pub router: RouterConfig,
}

/// Errors from the cell layout flow.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CellError {
    /// A symmetry pair references an unknown instance.
    UnknownInstance(String),
    /// The netlist is empty.
    Empty,
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::UnknownInstance(n) => write!(f, "unknown instance `{n}`"),
            CellError::Empty => write!(f, "empty cell netlist"),
        }
    }
}

impl std::error::Error for CellError {}

/// A finished cell layout with quality metrics.
#[derive(Debug, Clone)]
pub struct CellLayout {
    /// Placed device layouts (shapes in final positions).
    pub devices: Vec<DeviceLayout>,
    /// Cell bounding box, nm.
    pub bbox: Rect,
    /// Cell area in µm².
    pub area_um2: f64,
    /// Total routed wirelength in µm.
    pub wirelength_um: f64,
    /// Routed via count.
    pub vias: usize,
    /// Diffusion merges achieved by stacking.
    pub merges: usize,
    /// Nets that failed to route.
    pub failed_nets: Vec<String>,
    /// Estimated wiring capacitance per net, farads.
    pub net_caps: HashMap<String, f64>,
    /// Crosstalk adjacency count between incompatible nets.
    pub crosstalk_adjacencies: usize,
}

impl CellLayout {
    /// Whether the layout completed with every net routed.
    pub fn is_complete(&self) -> bool {
        self.failed_nets.is_empty()
    }
}

/// Runs the full macrocell flow on a device-level netlist.
///
/// # Errors
///
/// Returns [`CellError`] for an empty netlist or bad symmetry references.
pub fn layout_cell(
    devices: &[CellDevice],
    rules: &DesignRules,
    options: &CellOptions,
) -> Result<CellLayout, CellError> {
    layout_and_route(devices, rules, options).map(|(layout, ..)| layout)
}

/// [`layout_cell`], also returning the nets handed to the router and the
/// wiring it committed for each routed net.
fn layout_and_route(
    devices: &[CellDevice],
    rules: &DesignRules,
    options: &CellOptions,
) -> Result<(CellLayout, Vec<RouteNet>, Vec<RoutedNet>), CellError> {
    if devices.is_empty() {
        return Err(CellError::Empty);
    }
    let _span = ams_trace::span("layout.cell");
    let index_of: HashMap<&str, usize> = devices
        .iter()
        .enumerate()
        .map(|(i, d)| (d.name(), i))
        .collect();
    for (a, b) in &options.symmetry_pairs {
        for n in [a, b] {
            if !index_of.contains_key(n.as_str()) {
                return Err(CellError::UnknownInstance(n.clone()));
            }
        }
    }

    // --- Stage 1: stacking (merge hints). -------------------------------
    let mut graph = DiffusionGraph::new();
    for d in devices {
        if let CellDevice::Mos {
            name,
            polarity,
            w,
            nets,
            ..
        } = d
        {
            let class = format!("{polarity}:w={:.2e}", w);
            graph.add_device(name, &nets[0], &nets[2], &class);
        }
    }
    let stacking = graph.stack_linear();
    let mut abut_pairs: Vec<AbutPair> = Vec::new();
    for stack in &stacking.stacks {
        for pair in stack.devices.windows(2) {
            abut_pairs.push(AbutPair {
                a: index_of[pair[0].as_str()],
                b: index_of[pair[1].as_str()],
            });
        }
    }

    // --- Stage 2: device generation. -------------------------------------
    let generated: Vec<DeviceLayout> = devices
        .iter()
        .map(|d| match d {
            CellDevice::Mos {
                name,
                w,
                l,
                fingers,
                ..
            } => devgen::mos(name, *w, *l, (*fingers).max(1), rules),
            CellDevice::Cap { name, farads, .. } => devgen::capacitor(name, *farads, 1e-3, rules),
            CellDevice::Res { name, ohms, .. } => devgen::resistor(name, *ohms, 50.0, rules),
        })
        .collect();

    // Net name interning.
    let mut net_ids: HashMap<String, usize> = HashMap::new();
    let mut net_names: Vec<String> = Vec::new();
    let intern =
        |name: &str, net_ids: &mut HashMap<String, usize>, net_names: &mut Vec<String>| -> usize {
            if let Some(&id) = net_ids.get(name) {
                return id;
            }
            let id = net_names.len();
            net_names.push(name.to_string());
            net_ids.insert(name.to_string(), id);
            id
        };

    // --- Stage 3: placement. ---------------------------------------------
    let items: Vec<PlaceItem> = devices
        .iter()
        .zip(&generated)
        .map(|(d, g)| {
            let b = g.bbox();
            let pins = d
                .port_nets()
                .iter()
                .filter_map(|(port, net)| {
                    g.port_center(port).map(|c| {
                        (
                            intern(net, &mut net_ids, &mut net_names),
                            crate::geom::Point::new(c.x - b.x0, c.y - b.y0),
                        )
                    })
                })
                .collect();
            PlaceItem {
                name: d.name().to_string(),
                w: b.width(),
                h: b.height(),
                pins,
            }
        })
        .collect();

    let symmetry: Vec<SymmetryPair> = options
        .symmetry_pairs
        .iter()
        .map(|(a, b)| SymmetryPair {
            a: index_of[a.as_str()],
            b: index_of[b.as_str()],
        })
        .collect();

    let placement = place(
        &items,
        net_names.len(),
        &symmetry,
        &abut_pairs,
        &options.placer,
    );

    // Apply placement to the generated shapes.
    let placed_devices: Vec<DeviceLayout> = generated
        .iter()
        .zip(&placement.placed)
        .map(|(g, p)| {
            let b = g.bbox();
            g.translated(p.at.x - b.x0, p.at.y - b.y0)
        })
        .collect();

    // --- Stage 4: routing. -------------------------------------------------
    let pitch = rules.pitch(crate::geom::Layer::Metal1);
    let bbox = placed_devices
        .iter()
        .map(DeviceLayout::bbox)
        .reduce(|a, b| a.union(&b))
        .expect("non-empty cell");
    let margin = 8 * pitch;
    let origin_x = bbox.x0 - margin;
    let origin_y = bbox.y0 - margin;
    let gw = (((bbox.width() + 2 * margin) / pitch) + 1).clamp(8, 400) as u16;
    let gh = (((bbox.height() + 2 * margin) / pitch) + 1).clamp(8, 400) as u16;
    let mut router = Router::new(gw, gh);

    let to_grid = |x: i64, y: i64| -> (u16, u16) {
        let gx = ((x - origin_x) / pitch).clamp(0, gw as i64 - 1) as u16;
        let gy = ((y - origin_y) / pitch).clamp(0, gh as i64 - 1) as u16;
        (gx, gy)
    };
    for d in &placed_devices {
        let b = d.bbox();
        let (x0, y0) = to_grid(b.x0, b.y0);
        let (x1, y1) = to_grid(b.x1, b.y1);
        router.mark_device(x0, y0, x1, y1);
    }

    // Collect terminals per net. Each port takes the nearest cell that no
    // other net has claimed, so two nets never share a pin cell. (Should
    // every cell be taken, the port keeps the cell under it, and the
    // router reports one of the two nets failed.)
    let mut claims: Vec<Option<usize>> = vec![None; usize::from(gw) * usize::from(gh)];
    let slot = |(x, y): (u16, u16)| usize::from(y) * usize::from(gw) + usize::from(x);
    let mut terminals: Vec<Vec<(u16, u16)>> = vec![Vec::new(); net_names.len()];
    for (d, g) in devices.iter().zip(&placed_devices) {
        for (port, net) in d.port_nets() {
            if let Some(c) = g.port_center(port) {
                let id = net_ids[net];
                let centre = to_grid(c.x, c.y);
                let cell = nearest_cell(gw, gh, centre, |x, y| {
                    claims[slot((x, y))].is_none_or(|owner| owner == id)
                })
                .map_or(centre, |(_, cell)| cell);
                claims[slot(cell)].get_or_insert(id);
                if !terminals[id].contains(&cell) {
                    terminals[id].push(cell);
                }
            }
        }
    }

    let route_nets: Vec<RouteNet> = net_names
        .iter()
        .zip(terminals)
        .map(|(name, terminals)| RouteNet {
            name: name.clone(),
            class: options
                .net_classes
                .get(name)
                .copied()
                .unwrap_or(NetClass::Neutral),
            terminals,
        })
        .collect();

    let route_result = router.route(&route_nets, &[], &options.router);

    // --- Stage 5: extraction. ----------------------------------------------
    // Wiring capacitance: cells × pitch length × areal cap (+ via fringe).
    let cell_cap = rules.metal_cap_af_per_nm2 * (pitch as f64) * (rules.m1_width as f64) * 1e-18;
    let mut net_caps = HashMap::new();
    for rn in &route_result.routed {
        net_caps.insert(rn.name.clone(), rn.path.len() as f64 * cell_cap);
    }

    let layout = CellLayout {
        bbox,
        area_um2: bbox.area() as f64 / 1e6,
        wirelength_um: route_result.wirelength as f64 * pitch as f64 / 1e3,
        vias: route_result.vias,
        merges: stacking.total_merges,
        failed_nets: route_result.failed,
        net_caps,
        crosstalk_adjacencies: route_result.crosstalk_adjacencies,
        devices: placed_devices,
    };
    Ok((layout, route_nets, route_result.routed))
}

/// The two-stage Miller opamp device netlist used by the Fig. 2 experiment.
/// Sizes come from a synthesis result (`w*`/`l` in meters).
#[allow(clippy::too_many_arguments)]
pub fn two_stage_opamp_cell(
    w1: f64,
    w3: f64,
    w5: f64,
    w6: f64,
    w7: f64,
    l: f64,
    cc: f64,
) -> Vec<CellDevice> {
    let mos = |name: &str, pol: &str, w: f64, d: &str, g: &str, s: &str, b: &str| CellDevice::Mos {
        name: name.to_string(),
        polarity: pol.to_string(),
        w,
        l,
        fingers: if w > 50e-6 { 4 } else { 2 },
        nets: [d.to_string(), g.to_string(), s.to_string(), b.to_string()],
    };
    vec![
        mos("M1", "nmos", w1, "d1", "inp", "tail", "gnd"),
        mos("M2", "nmos", w1, "d2", "inn", "tail", "gnd"),
        mos("M3", "pmos", w3, "d1", "d1", "vdd", "vdd"),
        mos("M4", "pmos", w3, "d2", "d1", "vdd", "vdd"),
        mos("M5", "nmos", w5, "tail", "bias", "gnd", "gnd"),
        mos("M6", "pmos", w6, "out", "d2", "vdd", "vdd"),
        mos("M7", "nmos", w7, "out", "bias", "gnd", "gnd"),
        CellDevice::Cap {
            name: "Cc".to_string(),
            farads: cc,
            nets: ["d2".to_string(), "out".to_string()],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_options() -> CellOptions {
        CellOptions {
            symmetry_pairs: vec![
                ("M1".to_string(), "M2".to_string()),
                ("M3".to_string(), "M4".to_string()),
            ],
            net_classes: HashMap::new(),
            placer: PlacerConfig {
                moves_per_stage: 100,
                stages: 30,
                seed: 11,
                ..Default::default()
            },
            router: RouterConfig::default(),
        }
    }

    fn opamp() -> Vec<CellDevice> {
        two_stage_opamp_cell(60e-6, 30e-6, 40e-6, 150e-6, 60e-6, 2.4e-6, 2e-12)
    }

    #[test]
    fn opamp_cell_layout_completes() {
        let cell = layout_cell(&opamp(), &DesignRules::default(), &quick_options()).unwrap();
        assert!(cell.is_complete(), "failed nets: {:?}", cell.failed_nets);
        assert!(cell.area_um2 > 100.0, "area {}", cell.area_um2);
        assert!(cell.wirelength_um > 0.0);
        assert!(cell.merges >= 1, "diff pair should merge at the tail");
        assert_eq!(cell.devices.len(), 8);
    }

    #[test]
    fn extraction_reports_cap_per_routed_net() {
        let cell = layout_cell(&opamp(), &DesignRules::default(), &quick_options()).unwrap();
        for net in ["out", "d1", "d2"] {
            let c = cell.net_caps.get(net).copied().unwrap_or(0.0);
            assert!(c > 0.0, "no parasitic estimate for {net}");
            assert!(c < 10e-12, "absurd parasitic {c} on {net}");
        }
    }

    #[test]
    fn empty_netlist_is_error() {
        assert_eq!(
            layout_cell(&[], &DesignRules::default(), &CellOptions::default()).unwrap_err(),
            CellError::Empty
        );
    }

    #[test]
    fn unknown_symmetry_instance_is_error() {
        let mut opts = quick_options();
        opts.symmetry_pairs.push(("M1".into(), "M99".into()));
        assert!(matches!(
            layout_cell(&opamp(), &DesignRules::default(), &opts),
            Err(CellError::UnknownInstance(_))
        ));
    }

    #[test]
    fn nets_never_share_a_pin_cell_or_a_wire_cell() {
        use ams_prng::{Rng, SeedableRng, SmallRng};
        // Narrow, short-gate devices put a MOS's ports within one routing
        // pitch of each other, so widths are log-uniform over 5–300 µm.
        let mut rng = SmallRng::seed_from_u64(21);
        for case in 0..16 {
            let mut w = || 5e-6 * 60f64.powf(rng.gen_range(0.0..1.0));
            let ws = [w(), w(), w(), w(), w()];
            let l = rng.gen_range(1.2e-6..3e-6);
            let devices = two_stage_opamp_cell(ws[0], ws[1], ws[2], ws[3], ws[4], l, 2e-12);
            let mut options = quick_options();
            options.placer.seed = case;
            let (_, nets, routed) =
                layout_and_route(&devices, &DesignRules::default(), &options).unwrap();
            for (i, a) in nets.iter().enumerate() {
                for b in &nets[i + 1..] {
                    let shared: Vec<_> = a
                        .terminals
                        .iter()
                        .filter(|t| b.terminals.contains(t))
                        .collect();
                    assert!(
                        shared.is_empty(),
                        "case {case}: {} and {} share pin cells {shared:?}",
                        a.name,
                        b.name
                    );
                }
            }
            for (i, a) in routed.iter().enumerate() {
                for b in &routed[i + 1..] {
                    let shared: Vec<_> = a.path.iter().filter(|c| b.path.contains(c)).collect();
                    assert!(
                        shared.is_empty(),
                        "case {case}: {} and {} both wire {shared:?}",
                        a.name,
                        b.name
                    );
                }
            }
        }
    }

    #[test]
    fn different_seeds_give_different_layouts() {
        let a = layout_cell(&opamp(), &DesignRules::default(), &quick_options()).unwrap();
        let mut opts = quick_options();
        opts.placer.seed = 77;
        let b = layout_cell(&opamp(), &DesignRules::default(), &opts).unwrap();
        // Two annealing runs: at least one metric differs.
        assert!(
            a.area_um2 != b.area_um2 || a.wirelength_um != b.wirelength_um,
            "identical layouts from different seeds"
        );
    }
}
