//! Structural MNA analysis: singularity proofs, block structure, and
//! fill-in forecasts computed from the sparsity pattern alone.
//!
//! The heuristic ERC rules (E001–E007) pattern-match known failure
//! *causes*; this module analyzes the failure *mechanism* directly. It
//! rebuilds the DC MNA sparsity pattern the simulator would assemble (see
//! `pattern`) and runs three classic sparse-matrix analyses over it,
//! none of which touches a single matrix value:
//!
//! 1. **Maximum transversal** (`matching`, Duff's MC21) — a perfect
//!    row/column matching proves the pattern structurally nonsingular; a
//!    deficient one yields a Hall-violator witness and an `E008`
//!    diagnostic naming the deficient equations and unknowns.
//! 2. **Block-triangular decomposition** (`btf`, Dulmage–Mendelsohn via
//!    Tarjan SCC) — the fine block count and permutation are recorded for
//!    the solver; electrically independent sub-circuits surface as `W005`.
//! 3. **Fill forecast on the solver's own order** ([`order`]) — computes
//!    the composed BTF∘AMD elimination order the sparse CSC kernel will
//!    use and replays symbolic elimination on it exactly, firing `W006`
//!    when factorization cost will blow up and feeding the
//!    predicted-vs-actual fill trajectory in the bench tables.
//!
//! Results are deterministic: byte-identical diagnostics across runs,
//! seeds, and thread counts. When tracing is enabled the pass records the
//! `lint.structural.{matched,blocks,predicted_fill}` counters.
//!
//! # Example
//!
//! ```
//! use ams_lint::{analyze_deck_structure, RuleCode};
//!
//! // A current source into a capacitor: KCL at `x` has no DC entries.
//! let analysis = analyze_deck_structure("I1 0 x DC 1u\nC1 x 0 1p").unwrap();
//! assert!(!analysis.is_structurally_nonsingular());
//! let report = analysis.report();
//! let diag = report.find(RuleCode::E008StructurallySingular).unwrap();
//! assert!(diag.message.contains("`x`"));
//! ```

mod btf;
mod fillin;
mod matching;
pub mod order;
mod pattern;

use crate::diag::{Diagnostic, Report, RuleCode};
use ams_netlist::{Circuit, DeckMeta, ParsedDeck};
use pattern::MnaPattern;

/// Tunables of the structural pass. The defaults are deliberately
/// conservative: they stay silent on every deck in the toolkit's examples
/// and topology library.
#[derive(Debug, Clone)]
pub struct StructuralConfig {
    /// W006 fires when `predicted_fill > fill_ratio_limit × nnz`.
    pub fill_ratio_limit: f64,
    /// W006 never fires below this system dimension — tiny systems factor
    /// instantly regardless of relative fill.
    pub fill_min_dim: usize,
}

impl Default for StructuralConfig {
    fn default() -> Self {
        StructuralConfig {
            fill_ratio_limit: 16.0,
            fill_min_dim: 64,
        }
    }
}

/// The certificate attached to an `E008`: a set of equations that
/// collectively constrain strictly fewer unknowns (a Hall-condition
/// violation), mapped back to node and instance names.
#[derive(Debug, Clone)]
pub struct SingularWitness {
    /// Number of unmatched pivots (`dim − matched`).
    pub deficiency: usize,
    /// Human descriptions of the deficient equations, ascending by row.
    pub equations: Vec<String>,
    /// Human descriptions of the unknowns those equations touch; always
    /// fewer than `equations`.
    pub unknowns: Vec<String>,
    /// Sorted node names involved, for programmatic consumption.
    pub nodes: Vec<String>,
}

/// Block-triangular (Dulmage–Mendelsohn) decomposition of a structurally
/// nonsingular pattern.
#[derive(Debug, Clone)]
pub struct BtfDecomposition {
    /// Unknowns listed block by block; a block-lower-triangular column
    /// permutation (dependencies first).
    pub perm: Vec<u32>,
    /// `perm[block_ptr[b] as usize..block_ptr[b + 1] as usize]` is block
    /// `b`; length is `num_blocks() + 1`.
    pub block_ptr: Vec<u32>,
}

impl BtfDecomposition {
    /// Number of irreducible diagonal blocks.
    pub fn num_blocks(&self) -> usize {
        self.block_ptr.len().saturating_sub(1)
    }
}

/// Everything the structural pass learned about one circuit.
#[derive(Debug, Clone)]
pub struct StructuralAnalysis {
    /// Total MNA unknowns (non-ground nodes plus branch currents).
    pub dim: usize,
    /// Structurally non-zero entries in the DC pattern.
    pub nnz: usize,
    /// Size of the maximum transversal; `dim` iff nonsingular.
    pub matched: usize,
    /// Present exactly when the pattern is structurally singular.
    pub singular: Option<SingularWitness>,
    /// Fine BTF decomposition; `None` when the pattern is singular.
    pub btf: Option<BtfDecomposition>,
    /// Number of electrically independent diagonal blocks (connected
    /// components of the symmetrized pattern); `1` for a coupled system.
    pub independent_blocks: usize,
    /// Fill-in forecast (matrix positions created by LU beyond the stamped
    /// pattern) replayed symbolically on the composed BTF∘AMD elimination
    /// order — the same order the sparse CSC kernel factors with, so this
    /// number tracks `sim.sparse.fill_in` instead of drifting from it. For
    /// singular patterns (no BTF) it falls back to a plain AMD forecast.
    pub predicted_fill: u64,
    report: Report,
}

impl StructuralAnalysis {
    /// Whether a perfect matching proved the pattern structurally
    /// nonsingular (generic element values admit a unique solution).
    pub fn is_structurally_nonsingular(&self) -> bool {
        self.singular.is_none()
    }

    /// The diagnostics (E008/W005/W006) as a renderable report.
    pub fn report(&self) -> &Report {
        &self.report
    }
}

/// Runs the structural pass on an in-memory circuit with default
/// thresholds (no deck spans available).
pub fn analyze_circuit_structure(ckt: &Circuit) -> StructuralAnalysis {
    analyze(ckt, None, &StructuralConfig::default())
}

/// Runs the structural pass with explicit thresholds.
pub fn analyze_circuit_structure_with(ckt: &Circuit, cfg: &StructuralConfig) -> StructuralAnalysis {
    analyze(ckt, None, cfg)
}

/// Runs the structural pass on a parsed deck, anchoring diagnostics to
/// deck line spans.
pub fn analyze_parsed_structure(parsed: &ParsedDeck) -> StructuralAnalysis {
    analyze(
        &parsed.circuit,
        Some(&parsed.meta),
        &StructuralConfig::default(),
    )
}

/// Parses a deck and runs the structural pass on it.
///
/// # Errors
///
/// Returns the parse error when the deck is malformed.
pub fn analyze_deck_structure(deck: &str) -> Result<StructuralAnalysis, ams_netlist::NetlistError> {
    Ok(analyze_parsed_structure(&ams_netlist::parse_deck_full(
        deck,
    )?))
}

/// Caps witness lists in messages: long enough to act on, short enough to
/// read.
const WITNESS_LIST_CAP: usize = 4;

fn list_capped(items: &[String]) -> String {
    let shown: Vec<&str> = items
        .iter()
        .take(WITNESS_LIST_CAP)
        .map(String::as_str)
        .collect();
    let mut out = shown.join(", ");
    if items.len() > WITNESS_LIST_CAP {
        out.push_str(&format!(" (and {} more)", items.len() - WITNESS_LIST_CAP));
    }
    out
}

fn analyze(ckt: &Circuit, meta: Option<&DeckMeta>, cfg: &StructuralConfig) -> StructuralAnalysis {
    let pat = MnaPattern::build(ckt);
    let dim = pat.dim();
    let m = matching::maximum_transversal(&pat.rows);
    let blocks = btf::independent_blocks(&pat.rows, &m);
    let independent_blocks = blocks.len().max(usize::from(dim > 0));

    let mut diags = Vec::new();
    let mut singular = None;
    let mut btf_out = None;
    let predicted_fill;

    if let Some(w) = matching::hall_witness(&pat.rows, &m) {
        // No BTF exists for a singular pattern; forecast on plain AMD.
        predicted_fill = fillin::forecast_fill(&pat.rows);
        let deficiency = dim - m.size;
        let equations: Vec<String> = w
            .rows
            .iter()
            .map(|&r| pat.equation_desc(r as usize))
            .collect();
        let unknowns: Vec<String> = w
            .cols
            .iter()
            .map(|&c| pat.unknown_desc(c as usize))
            .collect();
        let mut nodes: Vec<String> = w
            .rows
            .iter()
            .chain(w.cols.iter())
            .filter_map(|&u| pat.node_name_of(u as usize))
            .map(str::to_string)
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        let message = if unknowns.is_empty() {
            format!(
                "MNA system is structurally singular: {} {} no DC unknown at all",
                list_capped(&equations),
                if equations.len() == 1 {
                    "involves"
                } else {
                    "involve"
                },
            )
        } else {
            format!(
                "MNA system is structurally singular: {} equation{} ({}) can only pivot on \
                 {} unknown{} ({})",
                equations.len(),
                if equations.len() == 1 { "" } else { "s" },
                list_capped(&equations),
                unknowns.len(),
                if unknowns.len() == 1 { "" } else { "s" },
                list_capped(&unknowns),
            )
        };
        // Anchor the diagnostic to a deck line: a KVL witness row names its
        // instance directly; otherwise use the first device touching a
        // witness node.
        let anchor: Option<String> = w
            .rows
            .iter()
            .find_map(|&r| {
                let r = r as usize;
                (r >= pat.n_signal).then(|| pat.branch_names[r - pat.n_signal].clone())
            })
            .or_else(|| {
                ckt.devices()
                    .find(|(_, d)| {
                        d.nodes()
                            .iter()
                            .any(|n| nodes.iter().any(|w| w == ckt.node_name(*n)))
                    })
                    .map(|(name, _)| name.to_string())
            });
        let span = anchor
            .as_deref()
            .and_then(|a| meta.and_then(|m| m.span_of(a)));
        let mut d = Diagnostic::new(RuleCode::E008StructurallySingular, message)
            .with_nodes(nodes.clone())
            .with_span(span);
        if let Some(a) = anchor {
            d = d.with_instance(a);
        }
        diags.push(d);
        singular = Some(SingularWitness {
            deficiency,
            equations,
            unknowns,
            nodes,
        });
    } else if dim > 0 {
        let fine = btf::btf_fine(&pat.rows, &m);
        // Forecast fill on the exact order the CSC kernel factors with:
        // AMD nested inside the BTF block partition, replayed symbolically.
        let adj = order::symmetrize_pattern(&pat.rows);
        let composed = order::compose_block_order(&adj, &fine.order, &fine.block_ptr);
        predicted_fill = order::elimination_fill(&adj, &composed);
        btf_out = Some(BtfDecomposition {
            perm: fine.order,
            block_ptr: fine.block_ptr,
        });

        if independent_blocks >= 2 {
            // The smallest block is the most likely stray sub-circuit.
            let smallest = blocks.last().expect("at least two blocks");
            let mut names: Vec<String> = smallest
                .iter()
                .filter_map(|&u| pat.node_name_of(u as usize))
                .map(|n| format!("`{n}`"))
                .collect();
            names.sort_unstable();
            diags.push(
                Diagnostic::new(
                    RuleCode::W005BlockStructure,
                    format!(
                        "MNA pattern splits into {independent_blocks} independent blocks \
                         factored as one system; the smallest ({} unknowns) spans {}",
                        smallest.len(),
                        list_capped(&names),
                    ),
                )
                .with_nodes(
                    smallest
                        .iter()
                        .filter_map(|&u| pat.node_name_of(u as usize))
                        .map(str::to_string)
                        .collect(),
                ),
            );
        }
        if dim >= cfg.fill_min_dim && predicted_fill as f64 > cfg.fill_ratio_limit * pat.nnz as f64
        {
            diags.push(Diagnostic::new(
                RuleCode::W006FillInBlowup,
                format!(
                    "symbolic elimination forecasts {predicted_fill} fill-ins over {} stamped \
                     non-zeros ({:.1}x): factorization cost will blow up",
                    pat.nnz,
                    predicted_fill as f64 / (pat.nnz as f64).max(1.0),
                ),
            ));
        }
    } else {
        predicted_fill = 0;
    }

    ams_trace::counter_add("lint.structural.matched", m.size as u64);
    ams_trace::counter_add(
        "lint.structural.blocks",
        btf_out.as_ref().map_or(0, |b| b.num_blocks()) as u64,
    );
    ams_trace::counter_add("lint.structural.predicted_fill", predicted_fill);

    StructuralAnalysis {
        dim,
        nnz: pat.nnz,
        matched: m.size,
        singular,
        btf: btf_out,
        independent_blocks,
        predicted_fill,
        report: Report::new(diags),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_netlist::{parse_deck, Circuit, Device};

    #[test]
    fn rc_divider_is_proven_nonsingular_with_singleton_blocks() {
        let ckt = parse_deck(
            "Vin in 0 DC 1
             R1 in out 1k
             R2 out 0 1k
             C1 out 0 1p",
        )
        .unwrap();
        let a = analyze_circuit_structure(&ckt);
        assert!(a.is_structurally_nonsingular());
        assert_eq!(a.dim, 3);
        assert_eq!(a.matched, 3);
        assert!(a.report().is_clean(), "{}", a.report().render_human());
        let btf = a.btf.as_ref().expect("nonsingular pattern has a BTF");
        assert!(btf.num_blocks() >= 1);
        assert_eq!(btf.perm.len(), 3);
        assert_eq!(a.independent_blocks, 1);
    }

    #[test]
    fn current_source_cutset_is_e008_with_node_witness() {
        let a = analyze_deck_structure("I1 0 x DC 1u\nC1 x 0 1p").unwrap();
        assert!(!a.is_structurally_nonsingular());
        let w = a.singular.as_ref().unwrap();
        assert_eq!(w.deficiency, 1);
        assert_eq!(w.nodes, vec!["x".to_string()]);
        assert!(w.unknowns.is_empty(), "empty KCL row: no unknowns at all");
        let d = a.report().find(RuleCode::E008StructurallySingular).unwrap();
        assert!(d.message.contains("KCL at node `x`"), "{}", d.message);
        assert_eq!(d.span.unwrap().start, 1, "anchored at the I1 card");
    }

    #[test]
    fn shorted_source_is_e008_naming_the_kvl_row() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add("R1", Device::resistor(a, Circuit::GROUND, 1e3));
        ckt.add("V1", Device::vdc(a, a, 1.0));
        let an = analyze_circuit_structure(&ckt);
        let w = an.singular.as_ref().unwrap();
        assert!(w.equations.iter().any(|e| e.contains("`V1`")), "{w:?}");
        let d = an
            .report()
            .find(RuleCode::E008StructurallySingular)
            .unwrap();
        assert_eq!(d.instance.as_deref(), Some("V1"));
    }

    #[test]
    fn two_grounded_subcircuits_are_w005() {
        // Both sub-circuits reach ground, so no E001 fires — but the MNA
        // pattern is block diagonal and the solver can't tell.
        let ckt = parse_deck(
            "V1 a 0 DC 1
             R1 a 0 1k
             V2 b 0 DC 2
             R2 b 0 1k",
        )
        .unwrap();
        let a = analyze_circuit_structure(&ckt);
        assert!(a.is_structurally_nonsingular());
        assert_eq!(a.independent_blocks, 2);
        let d = a.report().find(RuleCode::W005BlockStructure).unwrap();
        assert!(d.message.contains("2 independent blocks"), "{}", d.message);
    }

    #[test]
    fn fill_blowup_fires_only_past_the_configured_threshold() {
        // A dense-ish clique of resistors on few nodes: high relative fill.
        let mut ckt = Circuit::new();
        let nodes: Vec<_> = (0..8).map(|i| ckt.node(&format!("n{i}"))).collect();
        ckt.add("V1", Device::vdc(nodes[0], Circuit::GROUND, 1.0));
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                if (i + j) % 3 != 0 {
                    continue;
                }
                ckt.add(
                    &format!("R{i}_{j}"),
                    Device::resistor(nodes[i], nodes[j], 1e3),
                );
            }
        }
        ckt.add("Rg", Device::resistor(nodes[7], Circuit::GROUND, 1e3));
        let strict = StructuralConfig {
            fill_ratio_limit: 0.0,
            fill_min_dim: 1,
        };
        let a = analyze_circuit_structure_with(&ckt, &strict);
        if a.predicted_fill > 0 {
            assert!(a.report().has_code(RuleCode::W006FillInBlowup));
        }
        let default_cfg = analyze_circuit_structure(&ckt);
        assert!(!default_cfg.report().has_code(RuleCode::W006FillInBlowup));
    }

    #[test]
    fn analysis_is_byte_identical_across_repeats() {
        let deck = "I1 0 x DC 1u\nC1 x 0 1p\nR1 y 0 1k\nV1 y z DC 1\nC2 z 0 1p";
        let first = analyze_deck_structure(deck).unwrap();
        for _ in 0..16 {
            let again = analyze_deck_structure(deck).unwrap();
            assert_eq!(first.report().render_human(), again.report().render_human());
            assert_eq!(first.report().render_json(), again.report().render_json());
        }
    }
}
