//! Backend equivalence: every circuit the toolkit can simulate must produce
//! the same answer on the dense backend and on the sparse backend's
//! KLU-style BTF∘AMD + CSC kernel.
//!
//! Dense LU with partial pivoting is the trusted reference (it is gated by
//! the analytic golden tests). The sparse path shares the Newton loop and
//! the stamps, so any divergence beyond roundoff accumulation is a pivot,
//! ordering, or fill-in bug in `ams_sim::csc`. The gate is 1e-9 —
//! absolute near zero, relative elsewhere — far above the ~1e-13 observed
//! from pivot-order differences, far below any physical effect.
//!
//! Besides the hand-written exemplars and grids, a seeded deck generator
//! (machine-made netlists in the spirit of AMSNet, arXiv:2405.09045, built
//! from the topology library with no dataset) feeds the same bound with
//! hundreds of ERC-clean R/C/MOS/V/I decks, from a few unknowns to past
//! the auto-sparse threshold.

use ams::prelude::*;
use ams_prng::{Rng, SeedableRng, SmallRng};
use ams_sim::Backend;
use ams_topology::BlockClass;

/// |a − b| ≤ 1e-9·max(|b|, 1) element-wise over two solution vectors.
fn assert_vectors_close(dense: &[f64], sparse: &[f64], what: &str) {
    assert_eq!(dense.len(), sparse.len(), "{what}: dimension mismatch");
    for (i, (d, s)) in dense.iter().zip(sparse).enumerate() {
        let tol = 1e-9 * d.abs().max(1.0);
        assert!(
            (d - s).abs() <= tol,
            "{what}: unknown {i} dense {d:.12e} vs sparse {s:.12e}"
        );
    }
}

/// Solves `ckt` on both backends, checks the bound, and returns the dense
/// and the sparse session with their operating points cached.
fn solve_both<'c>(ckt: &'c Circuit, what: &str) -> [SimSession<'c>; 2] {
    let sessions = [Backend::Dense, Backend::Sparse].map(|b| SimSession::with_backend(ckt, b));
    let [dense, sparse] = sessions.each_ref().map(|ses| {
        ses.op()
            .unwrap_or_else(|e| panic!("{what}: {:?} solve failed: {e}", ses.backend()))
            .x
    });
    assert_vectors_close(&dense, &sparse, what);
    sessions
}

/// The six device-level exemplar decks of the topology library — four
/// opamps, the comparator, the pulse frontend.
fn exemplar_decks() -> Vec<(String, String)> {
    let lib = TopologyLibrary::standard();
    [
        BlockClass::Opamp,
        BlockClass::Comparator,
        BlockClass::Adc,
        BlockClass::PulseFrontend,
        BlockClass::Filter,
    ]
    .into_iter()
    .flat_map(|class| lib.of_class(class))
    .filter_map(|t| Some((t.name.to_string(), t.exemplar_deck.clone()?)))
    .collect()
}

/// Every device-level exemplar deck in the topology library — MOS opamps,
/// the comparator, the pulse frontend — biases identically on both
/// backends. These decks exercise the nonlinear stamps (MOS in all
/// regions), controlled sources, and the gmin/source-stepping ladder on
/// small, unsymmetric systems the CSC kernel's AMD ordering and
/// equilibration must handle as well as the grids it was built for.
#[test]
fn every_exemplar_deck_agrees_across_backends() {
    let decks = exemplar_decks();
    // A silent drop here would gut the test.
    assert_eq!(decks.len(), 6, "exemplar coverage shrank");
    for (name, deck) in &decks {
        let ckt = parse_deck(deck).unwrap_or_else(|e| panic!("{name}: parse: {e}"));
        solve_both(&ckt, name);
    }
}

/// 32×32 power grid (≈1k unknowns, past the auto-sparse threshold): the
/// full DC drop map matches between backends, and the map is physically
/// sane — pads sit at VDD minus a small pad-resistance drop, the center
/// tap sees the deepest droop.
#[test]
fn power_grid_32x32_drop_map_agrees() {
    use ams::rail::{GridSpec, PowerGrid};
    let spec = GridSpec::synthetic(32);
    let vdd = spec.vdd;
    let grid = PowerGrid::uniform(spec, 10e-6);
    let ckt = grid.to_circuit();
    let ses = SimSession::with_backend(&ckt, Backend::Sparse);
    let op_sparse = ses.op().expect("sparse 32x32 grid DC");
    let op_dense = SimSession::with_backend(&ckt, Backend::Dense)
        .op()
        .expect("dense 32x32 grid DC");
    assert_vectors_close(&op_dense.x, &op_sparse.x, "32x32 grid");

    // Drop map sanity on the sparse solution.
    let v = |x: usize, y: usize| {
        op_sparse
            .voltage(&ckt, &PowerGrid::node_name(x, y))
            .expect("grid node")
    };
    let v_corner = v(0, 0);
    let v_center = v(16, 16);
    assert!(
        v_corner > vdd - 0.05 && v_corner <= vdd,
        "pad corner at {v_corner} V"
    );
    assert!(v_center < v_corner, "center must droop below the pads");
    assert!(
        v_center > 0.8 * vdd,
        "center droop {v_center} V is unphysically deep"
    );
    // The drop map is monotone along the diagonal from pad to center.
    let mut last = v_corner;
    for d in 1..=16 {
        let vd = v(d, d);
        assert!(
            vd <= last + 1e-9,
            "drop map not monotone at ({d},{d}): {vd} > {last}"
        );
        last = vd;
    }
}

/// Builds one seeded random connected resistor network — ground-anchored
/// chain plus random chords and current injections.
fn random_r_network(rng: &mut SmallRng) -> Circuit {
    let n_nodes = rng.gen_range(3usize..10);
    let mut ckt = Circuit::new();
    let mut nodes = vec![Circuit::GROUND];
    for u in 1..=n_nodes {
        let id = ckt.node(&format!("n{u}"));
        nodes.push(id);
    }
    // Ground-anchored chain keeps the network connected; random chords
    // vary the sparsity pattern and the pivot order.
    for u in 0..n_nodes {
        let ohms = rng.gen_range(10.0..1e3);
        ckt.add(
            &format!("R{u}"),
            Device::resistor(nodes[u], nodes[u + 1], ohms),
        );
    }
    for c in 0..rng.gen_range(0usize..6) {
        let a = rng.gen_range(0usize..=n_nodes);
        let b = rng.gen_range(1usize..=n_nodes);
        if a != b {
            ckt.add(
                &format!("Rc{c}"),
                Device::resistor(nodes[a], nodes[b], rng.gen_range(10.0..1e3)),
            );
        }
    }
    for i in 0..rng.gen_range(1usize..4) {
        let at = rng.gen_range(1usize..=n_nodes);
        ckt.add(
            &format!("I{i}"),
            Device::idc(Circuit::GROUND, nodes[at], rng.gen_range(-1e-3..1e-3)),
        );
    }
    ckt
}

/// Property test: random connected resistor networks with random current
/// injections solve to the same node voltages on both backends — 64
/// networks from each of two seeds.
#[test]
fn random_r_networks_agree_across_backends() {
    for seed in [0x5fa6_0001u64, 0x5fa6_0011] {
        let mut rng = SmallRng::seed_from_u64(seed);
        for case in 0..64 {
            let ckt = random_r_network(&mut rng);
            solve_both(&ckt, &format!("random R network {seed:#x} case {case}"));
        }
    }
}

/// One seeded deck as netlist text: a ladder of `nodes` internal nodes
/// (series resistor to the previous node, shunt resistor to ground),
/// local R/C chords, grounded capacitors, small current injections,
/// diode-connected MOS loads, and a driving voltage source on a node of
/// its own. With `exemplar`, that library deck is included and its `vdd`
/// rail is tied into the ladder through a resistor.
///
/// Every construct is ERC-clean by design: each node has a resistive path
/// to ground, each voltage source owns its node (no loops), the model card
/// is always used, and the shunts bound every node voltage by the sources
/// and a few microamps through at most 100 kΩ, within easy reach of the
/// damped Newton loop.
fn seeded_deck(rng: &mut SmallRng, nodes: usize, exemplar: Option<&str>) -> String {
    use std::fmt::Write;
    assert!(nodes >= 2, "the chord rule needs two ladder nodes");
    let mut deck = String::from("* seeded deck\n");
    if let Some(ex) = exemplar {
        deck.push_str(ex);
        let _ = writeln!(
            deck,
            "Rgtie vdd g{} {:.1}",
            rng.gen_range(1..=nodes),
            rng.gen_range(1e3..1e5)
        );
    }
    let _ = writeln!(deck, ".model gnch nmos vt0=0.7 kp=110u lambda=0.04");
    let _ = writeln!(deck, "Vg gv 0 DC {:.3} AC 1", rng.gen_range(0.5..3.0));
    let _ = writeln!(deck, "Rgv gv g1 {:.1}", rng.gen_range(10.0..1e3));
    for u in 1..=nodes {
        if u > 1 {
            let _ = writeln!(
                deck,
                "Rs{u} g{} g{u} {:.1}",
                u - 1,
                rng.gen_range(10.0..1e3)
            );
        }
        let _ = writeln!(deck, "Rp{u} g{u} 0 {:.1}", rng.gen_range(1e3..1e5));
    }
    for k in 0..rng.gen_range(0..=nodes) {
        let a = rng.gen_range(1..nodes);
        let b = (a + rng.gen_range(1usize..=8)).min(nodes);
        if rng.gen_bool(0.5) {
            let _ = writeln!(deck, "Rq{k} g{a} g{b} {:.1}", rng.gen_range(100.0..1e4));
        } else {
            let _ = writeln!(deck, "Cq{k} g{a} g{b} {:.3}p", rng.gen_range(0.1..10.0));
        }
    }
    for k in 0..rng.gen_range(0..=nodes / 4) {
        let a = rng.gen_range(1..=nodes);
        let _ = writeln!(deck, "Cg{k} g{a} 0 {:.3}p", rng.gen_range(0.1..10.0));
    }
    for k in 0..rng.gen_range(0..4) {
        let a = rng.gen_range(1..=nodes);
        let _ = writeln!(deck, "Ig{k} 0 g{a} DC {:.4}u", rng.gen_range(-5.0..5.0));
    }
    for k in 0..rng.gen_range(1..=nodes.div_ceil(8)) {
        let a = rng.gen_range(1..=nodes);
        let w = rng.gen_range(2.0..50.0);
        let _ = writeln!(deck, "Mg{k} g{a} g{a} 0 0 gnch W={w:.2}u L=1u");
    }
    deck
}

/// The generated-deck oracle: 256 seeded decks — bare ladders and ladders
/// tied to every library exemplar, from a few unknowns to past
/// [`Backend::AUTO_SPARSE_DIM`] — each ERC-clean under `ams_lint` (no
/// diagnostic at all) with no structural error, each solving to the 1e-9
/// dense bound on the sparse backend, each re-solving bit-identically on a
/// fresh sparse session, and each passing the small-signal legs of
/// [`small_signal_agrees`]. Every generated deck is checked; none is
/// skipped. (Structural *warnings* are allowed: every library exemplar
/// already carries a W005, its MNA pattern splitting into independent
/// blocks.)
#[test]
fn seeded_decks_agree_across_backends() {
    let exemplars = exemplar_decks();
    let mut rng = SmallRng::seed_from_u64(0x5fa6_0031);
    let (mut min_dim, mut max_dim) = (usize::MAX, 0);
    for case in 0..256 {
        let nodes = match case % 4 {
            0 => rng.gen_range(2usize..8),
            1 => rng.gen_range(8usize..32),
            2 => rng.gen_range(32usize..96),
            _ => rng.gen_range(96usize..160),
        };
        let exemplar = (case % 3 != 0).then(|| {
            let (_, deck) = &exemplars[rng.gen_range(0..exemplars.len())];
            deck.as_str()
        });
        let deck = seeded_deck(&mut rng, nodes, exemplar);
        let what = format!("seeded deck {case}");

        let erc = ams_lint::lint_deck(&deck).expect("generated deck parses");
        assert!(
            erc.is_clean(),
            "{what} is not ERC-clean:\n{}\n{deck}",
            erc.render_human()
        );
        let structure = ams_lint::analyze_deck_structure(&deck).expect("generated deck parses");
        assert!(
            !structure.report().has_errors(),
            "{what} is not structurally sound:\n{}\n{deck}",
            structure.report().render_human()
        );

        let ckt = parse_deck(&deck).expect("generated deck parses");
        let [dense, sparse] = solve_both(&ckt, &what);
        let x = sparse.op().expect("cached").x;
        small_signal_agrees(&dense, &sparse, &format!("g{}", nodes.div_ceil(2)), &what);
        let again = SimSession::with_backend(&ckt, Backend::Sparse)
            .op()
            .unwrap_or_else(|e| panic!("{what}: repeated sparse solve failed: {e}"))
            .x;
        assert!(
            x.iter()
                .zip(&again)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{what}: repeated sparse solve is not bit-identical"
        );
        min_dim = min_dim.min(x.len());
        max_dim = max_dim.max(x.len());
    }
    assert!(min_dim <= 8, "smallest deck has {min_dim} unknowns");
    assert!(
        max_dim > Backend::AUTO_SPARSE_DIM,
        "largest deck has {max_dim} unknowns"
    );
}

/// The small-signal legs of the oracle on one deck. An AC sweep and the
/// output noise at `out` match dense vs sparse at every frequency point,
/// to the 1e-9 bound (relative for the noise rms). The first 8 AWE moment
/// vectors under the deck's own excitation (`Vg AC 1`) match to 1e-9 of
/// each vector's largest entry: the dense LU against the sparse factor of
/// `G`. And the linearized `G` is the DC Newton matrix at the operating
/// point, the same triplet sequence `dc_system` stamps, bit for bit: both
/// come from one stamp.
fn small_signal_agrees(dense: &SimSession<'_>, sparse: &SimSession<'_>, out: &str, what: &str) {
    let freqs = ams_sim::log_frequencies(1.0, 1e12, 5);
    let ac = |ses: &SimSession<'_>| {
        ses.ac(out, &freqs)
            .unwrap_or_else(|e| panic!("{what}: {:?} AC failed: {e}", ses.backend()))
    };
    for ((f, d), s) in freqs.iter().zip(ac(dense).values).zip(ac(sparse).values) {
        assert!(
            (d - s).abs() <= 1e-9 * d.abs().max(1.0),
            "{what}: AC at {f:e} Hz dense {d:?} vs sparse {s:?}"
        );
    }
    let rms = |ses: &SimSession<'_>| {
        ses.noise(out, &freqs, 300.0)
            .unwrap_or_else(|e| panic!("{what}: {:?} noise failed: {e}", ses.backend()))
            .output_rms
    };
    let (d, s) = (rms(dense), rms(sparse));
    assert!(
        (d - s).abs() <= 1e-9 * d,
        "{what}: noise rms dense {d:e} vs sparse {s:e}"
    );

    let moments = |ses: &SimSession<'_>| {
        let net = ses.linearize().expect("linearizes");
        assert_eq!(net.backend(), ses.backend(), "{what}: net backend");
        ams::awe::Moments::compute(&net, &net.b, 8)
            .unwrap_or_else(|e| panic!("{what}: {:?} moments failed: {e}", ses.backend()))
            .vectors
    };
    for (k, (d, s)) in moments(dense).iter().zip(moments(sparse)).enumerate() {
        let scale = d.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (i, (d, s)) in d.iter().zip(&s).enumerate() {
            assert!(
                (d - s).abs() <= 1e-9 * scale,
                "{what}: moment {k} of unknown {i} dense {d:e} vs sparse {s:e} (scale {scale:e})"
            );
        }
    }

    let x = sparse.op().expect("cached").x;
    let net = sparse.linearize().expect("linearizes");
    let (a, _) = sparse.dc_system(&x);
    let bits = |t: &ams_sim::Triplets<f64>| {
        t.iter()
            .map(|(i, j, v)| (i, j, v.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        bits(net.g()),
        bits(&a),
        "{what}: the linearized G is not the DC system's triplet sequence"
    );
}

/// Runs the same transient on both backends: every time point matches
/// bit for bit, every solution to the 1e-9 bound, and a second sparse run
/// on a fresh session reproduces the first bit for bit.
fn tran_both(ckt: &Circuit, tstop: f64, dt: f64, what: &str) {
    let tran = |backend| {
        SimSession::with_backend(ckt, backend)
            .tran(tstop, dt)
            .unwrap_or_else(|e| panic!("{what}: {backend:?} transient failed: {e}"))
    };
    let dense = tran(Backend::Dense);
    let sparse = tran(Backend::Sparse);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&dense.times),
        bits(&sparse.times),
        "{what}: time points"
    );
    assert!(dense.times.len() > 10, "{what}: too few time points");
    for ((t, d), s) in dense
        .times
        .iter()
        .zip(&dense.solutions)
        .zip(&sparse.solutions)
    {
        assert_vectors_close(d, s, &format!("{what} at t = {t:e}"));
    }
    let again = tran(Backend::Sparse);
    assert_eq!(
        bits(&again.times),
        bits(&sparse.times),
        "{what}: rerun times"
    );
    for (a, s) in again.solutions.iter().zip(&sparse.solutions) {
        assert_eq!(
            bits(a),
            bits(s),
            "{what}: sparse rerun is not bit-identical"
        );
    }
}

/// The transient leg of the oracle. On a linear RAIL grid at a fixed step
/// the sparse kernel serves most steps from cached factors, since the
/// companion matrix does not change; the MOS deck's matrix changes at every
/// Newton iteration, so it refactors throughout. Seeded grids (side, spike
/// tap, segment widths) and a pulse-driven MOS stage must each match the
/// dense reference at every time point.
#[test]
fn transient_agrees_across_backends() {
    use ams::rail::{GridSpec, PowerGrid, Tap, TapKind};
    let mut rng = SmallRng::seed_from_u64(0x5fa6_0041);
    for case in 0..4 {
        let n = rng.gen_range(3usize..=12);
        let mut spec = GridSpec::synthetic(n);
        let period = rng.gen_range(5e-9..10e-9);
        spec.taps.push(Tap {
            name: "spiker".into(),
            x: rng.gen_range(0..n),
            y: rng.gen_range(0..n),
            dc_amps: rng.gen_range(0.02..0.08),
            spike: Some((
                rng.gen_range(0.1..0.3),
                rng.gen_range(0.3e-9..0.5e-9),
                rng.gen_range(1.0e-9..2.0e-9),
                period,
            )),
            kind: TapKind::Digital,
        });
        let mut grid = PowerGrid::uniform(spec, 10e-6);
        for w in &mut grid.widths {
            *w = rng.gen_range(5e-6..20e-6);
        }
        let what = format!("seeded {n}x{n} grid transient (case {case})");
        tran_both(&grid.to_circuit(), period + 2e-9, period / 40.0, &what);
    }

    let mos = parse_deck(
        ".model nch nmos vt0=0.7 kp=110u lambda=0.04
         Vdd vdd 0 DC 5
         Vin g 0 PULSE(0 3 1n 1n 1n 5n 20n)
         RD vdd d 10k
         M1 d g 0 0 nch W=20u L=2u
         CL d 0 1p",
    )
    .expect("MOS deck parses");
    tran_both(&mos, 30e-9, 0.25e-9, "pulse-driven MOS stage transient");
}

/// Same-seed GA synthesis runs stay byte-identical at 1, 2, and 8 exec
/// workers with the sparse backend forced process-wide — the determinism
/// contract of `ams-exec` survives the new solver. Cost bits, champion
/// parameters, and topology must all match exactly, not within tolerance.
#[test]
fn seeded_runs_byte_identical_across_thread_counts_with_sparse() {
    use ams::core::{table1_spec, SimulatedPulseDetectorModel};
    use ams_sizing::{evolve, GaConfig, PerfModel};

    // Process-wide override; every other test here pins its backend
    // explicitly, so none is affected.
    std::env::set_var("AMS_SIM_BACKEND", "sparse");
    assert_eq!(Backend::auto_for(2), Backend::Sparse, "override not active");

    let model = SimulatedPulseDetectorModel::new(Technology::generic_1p2um());
    let models: [&dyn PerfModel; 1] = [&model];
    let ga = GaConfig {
        population: 24,
        generations: 3,
        seed: 17,
        ..Default::default()
    };
    let run = |threads: usize| {
        ams_exec::set_threads(Some(threads));
        let r = evolve(&models, &table1_spec(), &ga);
        ams_exec::set_threads(None);
        (
            r.topology.clone(),
            r.sizing.cost.to_bits(),
            r.sizing.params.clone(),
        )
    };
    let one = run(1);
    let two = run(2);
    let eight = run(8);
    std::env::remove_var("AMS_SIM_BACKEND");
    assert_eq!(one, two, "1-thread vs 2-thread run diverged");
    assert_eq!(one, eight, "1-thread vs 8-thread run diverged");
}
