//! Pins every bit of `SimSession::ac` on three decks: FNV-1a digests of
//! the complex output values of a cascoded CSA like the Table 1 model's,
//! a series RLC deck and a seeded 12×12 RAIL grid, each on the dense and
//! the sparse backend. Any change to the complex stamp, the dense
//! elimination or the sparse factor sequence of a sweep moves a digest.
//!
//! The same decks check `SimSession::ac_scan`: walked in descending and in
//! seeded shuffled order, it returns `ac`'s bits at every frequency on the
//! dense backend and agrees to 1e-9 relative on the sparse one, and a scan
//! dropped early counts only the points it solved under `sim.ac_points`.
//!
//! Trace counters are process-global, so every test in this file
//! serializes on one lock. Every session names its backend, so the pins
//! hold whatever `AMS_SIM_BACKEND` says.

use ams_netlist::{parse_deck, Circuit, Device, SourceWaveform, Technology};
use ams_prng::{Rng, SeedableRng, SmallRng};
use ams_rail::{GridSpec, PowerGrid};
use ams_sim::{log_frequencies, Backend, Complex, SimSession};
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// FNV-1a over the bits of every value's real, then imaginary part.
fn digest(values: &[Complex]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in [v.re, v.im].iter().flat_map(|p| p.to_bits().to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One AC deck: the circuit, its output node and its frequency list.
struct Deck {
    name: &'static str,
    ckt: Circuit,
    out: String,
    freqs: Vec<f64>,
}

/// The Table 1 model's CSA at its manual design point (1.2 mA, 150 mV
/// overdrive, 0.25 pF feedback): a cascoded common-source stage on an
/// ideal load, self-biased through a 20 MΩ feedback resistor and driven by
/// the detector's AC current, over the model's 241-point grid.
fn csa() -> Deck {
    let tech = Technology::generic_1p2um();
    let (id1, vov1, cf) = (1.2e-3, 0.15, 0.25e-12);
    let l = 2.0 * tech.lmin;
    let w1 = tech.nmos.width_for(id1, l, vov1);
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    let mid = ckt.node("mid");
    let out = ckt.node("out");
    let bias = ckt.node("bias");
    let gnd = Circuit::GROUND;
    ckt.add("Vdd", Device::vdc(vdd, gnd, tech.vdd));
    ckt.add(
        "Vb",
        Device::vdc(bias, gnd, tech.nmos.vt0 + 2.0 * vov1 + 0.05),
    );
    ckt.add(
        "Idet",
        Device::Isource {
            plus: gnd,
            minus: inp,
            waveform: SourceWaveform::Dc(1e-9),
            ac_mag: 1.0,
        },
    );
    ckt.add("Rf", Device::resistor(out, inp, 20e6));
    ckt.add("Cf", Device::capacitor(out, inp, cf));
    ckt.add("Cdet", Device::capacitor(inp, gnd, 10e-12));
    ckt.add(
        "M1",
        Device::mos(mid, inp, gnd, gnd, tech.nmos.clone(), w1, l),
    );
    ckt.add(
        "M2",
        Device::mos(out, bias, mid, gnd, tech.nmos.clone(), w1, l),
    );
    ckt.add("Iload", Device::idc(vdd, out, id1));
    ckt.add("Cl", Device::capacitor(out, gnd, 0.3e-12));
    Deck {
        name: "csa",
        ckt,
        out: "out".into(),
        freqs: log_frequencies(1e4, 1e10, 241),
    }
}

/// The series RLC of the `ac` module's tests (resonance near 5 kHz),
/// over four decades around the peak.
fn rlc() -> Deck {
    let ckt = parse_deck(
        "Vin in 0 DC 0 AC 1
         R1 in a 1
         L1 a out 1m
         C1 out 0 1u",
    )
    .expect("RLC deck parses");
    Deck {
        name: "rlc",
        ckt,
        out: "out".into(),
        freqs: log_frequencies(50.0, 500e3, 81),
    }
}

/// A synthetic 12×12 RAIL grid (corner pads, a core tap) with seeded
/// segment widths, probed by a unit AC current at an off-centre node:
/// its supply impedance from 1 MHz to 10 GHz, through the package
/// inductance resonance.
fn grid() -> Deck {
    let mut rng = SmallRng::seed_from_u64(0xac_b175);
    let mut grid = PowerGrid::uniform(GridSpec::synthetic(12), 10e-6);
    for w in &mut grid.widths {
        *w = rng.gen_range(5e-6..20e-6);
    }
    let mut ckt = grid.to_circuit();
    let out = PowerGrid::node_name(4, 7);
    let probe = ckt.node(&out);
    ckt.add(
        "Iprobe",
        Device::Isource {
            plus: probe,
            minus: Circuit::GROUND,
            waveform: SourceWaveform::Dc(0.0),
            ac_mag: 1.0,
        },
    );
    Deck {
        name: "grid12",
        ckt,
        out,
        freqs: log_frequencies(1e6, 1e10, 41),
    }
}

fn decks() -> [Deck; 3] {
    [csa(), rlc(), grid()]
}

const BACKENDS: [Backend; 2] = [Backend::Dense, Backend::Sparse];

fn ac(deck: &Deck, backend: Backend) -> Vec<Complex> {
    SimSession::with_backend(&deck.ckt, backend)
        .ac(&deck.out, &deck.freqs)
        .unwrap_or_else(|e| panic!("{} {backend:?} sweep failed: {e}", deck.name))
        .values
}

#[test]
fn ac_bits_are_pinned_on_both_backends() {
    let _l = lock();
    // Recorded on the tree before `ac` became a collected scan.
    let pins = [
        ("csa", Backend::Dense, 0x1cb0_c670_dde5_7295),
        ("csa", Backend::Sparse, 0x3949_18fd_94ec_087f),
        ("rlc", Backend::Dense, 0x027a_9c6d_f4db_c9df),
        ("rlc", Backend::Sparse, 0x811e_1389_2284_b5a1),
        ("grid12", Backend::Dense, 0x6ef8_4292_cbbf_ae29),
        ("grid12", Backend::Sparse, 0x8d8d_a23f_c92d_19db),
    ];
    let decks = decks();
    let got: Vec<(&str, Backend, u64)> = decks
        .iter()
        .flat_map(|d| BACKENDS.map(|b| (d.name, b, digest(&ac(d, b)))))
        .collect();
    assert_eq!(got, pins, "AC bits moved");
}

/// Indices `0..n` in a seeded Fisher–Yates order.
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

#[test]
fn scans_in_any_order_return_the_sweeps_values() {
    let _l = lock();
    for deck in decks() {
        let n = deck.freqs.len();
        let descending: Vec<usize> = (0..n).rev().collect();
        for backend in BACKENDS {
            let reference = ac(&deck, backend);
            let ses = SimSession::with_backend(&deck.ckt, backend);
            for (label, order) in [
                ("descending", descending.clone()),
                ("shuffled", shuffled(n, 7)),
            ] {
                let scan = ses
                    .ac_scan(&deck.out, order.iter().map(|&i| deck.freqs[i]))
                    .expect("scan starts");
                let mut solved = 0;
                for (&i, point) in order.iter().zip(scan) {
                    let (f, v) = point.expect("scan point solves");
                    assert_eq!(
                        f.to_bits(),
                        deck.freqs[i].to_bits(),
                        "scan yields its input"
                    );
                    let want = reference[i];
                    let what = format!("{} {backend:?} {label} point {i}", deck.name);
                    match backend {
                        Backend::Dense => assert_eq!(
                            (v.re.to_bits(), v.im.to_bits()),
                            (want.re.to_bits(), want.im.to_bits()),
                            "{what}: {v:?} vs {want:?}"
                        ),
                        Backend::Sparse => assert!(
                            (v - want).abs() <= 1e-9 * want.abs(),
                            "{what}: {v:?} vs {want:?}"
                        ),
                    }
                    solved += 1;
                }
                assert_eq!(solved, n, "{} {backend:?} {label}: every point", deck.name);
            }
        }
    }
}

#[test]
fn a_dropped_scan_counts_only_the_points_it_solved() {
    let _l = lock();
    let deck = csa();
    for backend in BACKENDS {
        let ses = SimSession::with_backend(&deck.ckt, backend);
        ses.linearize().expect("CSA biases");
        ams_trace::set_enabled(true);
        let before = ams_trace::snapshot().counters;
        let taken = ses
            .ac_scan(&deck.out, deck.freqs.iter().rev().copied())
            .expect("scan starts")
            .take(17)
            .count();
        let mid = ams_trace::snapshot().counters;
        ses.ac(&deck.out, &deck.freqs).expect("full sweep");
        let after = ams_trace::snapshot().counters;
        ams_trace::set_enabled(false);
        let points = |c: &std::collections::BTreeMap<String, u64>| {
            c.get("sim.ac_points").copied().unwrap_or(0)
        };
        assert_eq!(taken, 17);
        assert_eq!(
            points(&mid) - points(&before),
            17,
            "{backend:?}: dropped scan"
        );
        assert_eq!(
            points(&after) - points(&mid),
            deck.freqs.len() as u64,
            "{backend:?}: full sweep"
        );
    }
}
