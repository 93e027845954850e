//! Deterministic corruption fuzzing of the checkpoint journal parser.
//!
//! A valid journal is mutilated every way a real crash or failing disk
//! can mutilate it — truncation at every prefix length, single-bit flips
//! at every offset, random multi-byte stomps, version skew, magic
//! corruption — and fed through `parse_journal`, `CkptStore::open`, and
//! `CkptStore::recover`. Every outcome must be a structured
//! [`CkptError`] or a successfully (partially) parsed journal — never a
//! panic. Like `parser_fuzz.rs`, this is a pinned-seed corpus: a failure
//! reproduces from its printed case alone.

use ams::ckpt::{parse_journal, CkptError, CkptStore, Salvage, HEADER_LEN};
use ams::prelude::*;
use ams::sizing::{evolve_ckpt, CkptRun, GaConfig, TwoStageModel};
use ams_prng::{Rng, SeedableRng, SmallRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A realistic journal: the GA's actual checkpoint stream (RNG state,
/// population, eval-cache increments, counter deltas) rather than toy
/// bytes, as a file-backed store appends it.
fn valid_journal() -> Vec<u8> {
    // Tests run in parallel: each call writes its own file.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "ams_ckpt_fuzz_appended_{}_{}.ckpt",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    let mut store = CkptStore::create(&path);
    let two = TwoStageModel::new(Technology::generic_1p2um(), 5e-12);
    let spec = Spec::new()
        .require("gain_db", Bound::AtLeast(60.0))
        .minimizing("power_w");
    let cfg = GaConfig {
        population: 8,
        generations: 3,
        ..Default::default()
    };
    evolve_ckpt(&[&two], &spec, &cfg, CkptRun::new(&mut store)).expect("seed GA run succeeds");
    let bytes = std::fs::read(&path).expect("journal file");
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        bytes,
        store.serialize(),
        "appends must build the full image"
    );
    assert!(bytes.len() > 64, "journal should be non-trivial");
    bytes
}

/// Pure-parser leg: structured error or success, never a panic. Cheap
/// enough to run for every mutant.
fn exercise_parse(case: &str, bytes: &[u8]) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Err(err) = parse_journal(bytes) {
            assert_structured(&err);
        }
    }));
    assert!(outcome.is_ok(), "panic escaped parse_journal: {case}");
}

fn assert_structured(err: &CkptError) {
    match err {
        CkptError::Io { .. }
        | CkptError::BadMagic { .. }
        | CkptError::VersionSkew { .. }
        | CkptError::TruncatedHeader { .. }
        | CkptError::TruncatedRecord { .. }
        | CkptError::ChecksumMismatch { .. }
        | CkptError::BadTag { .. }
        | CkptError::OversizeRecord { .. }
        | CkptError::SequenceSkew { .. }
        | CkptError::Decode { .. }
        | CkptError::MissingRecord { .. } => {}
        other => panic!("unclassified error variant: {other:?}"),
    }
}

/// Feeds one mutant through every journal entry point (including the
/// file-backed ones); panics (failing the test) only if a panic escapes
/// the library.
fn exercise(case: &str, bytes: &[u8]) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        // Pure parser.
        let parsed: Result<_, CkptError> = parse_journal(bytes);
        // File-backed open + salvage recovery over the same bytes.
        let path = std::env::temp_dir().join(format!(
            "ams_ckpt_fuzz_{}_{}.ckpt",
            std::process::id(),
            case.replace([' ', ':'], "_")
        ));
        std::fs::write(&path, bytes).expect("write mutant");
        let opened = CkptStore::open(&path);
        let recovered: Result<(CkptStore, Salvage), CkptError> = CkptStore::recover(&path);
        let _ = std::fs::remove_file(&path);
        // Salvage must never invent data: every recovered record must
        // also exist in the fully-valid parse when that parse succeeds.
        if let (Ok(full), Ok((store, salvage))) = (&parsed, &recovered) {
            assert!(
                store.len() <= full.len(),
                "salvage produced more records than a clean parse"
            );
            assert_eq!(
                salvage.recovered,
                store.len(),
                "salvage bookkeeping disagrees with store contents"
            );
        }
        // Structured errors only; match shapes to keep them honest.
        for err in [parsed.err(), opened.err(), recovered.err()]
            .into_iter()
            .flatten()
        {
            assert_structured(&err);
        }
    }));
    assert!(outcome.is_ok(), "panic escaped the journal parser: {case}");
}

#[test]
fn every_truncation_is_structured() {
    let bytes = valid_journal();
    for len in 0..bytes.len() {
        exercise_parse(&format!("truncate {len}"), &bytes[..len]);
        // File-backed open/recover share the parser; spot-check a stride
        // so the test stays fast without losing the filesystem leg.
        if len % 97 == 0 {
            exercise(&format!("truncate(file) {len}"), &bytes[..len]);
        }
    }
}

#[test]
fn every_single_bit_flip_is_structured() {
    let bytes = valid_journal();
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut m = bytes.clone();
            m[i] ^= 1 << bit;
            // Bit flips in the payload must surface as checksum
            // mismatches (or worse) — verified in aggregate below; here
            // we only require no-panic + structured.
            exercise_parse(&format!("bitflip {i}.{bit}"), &m);
        }
    }
}

#[test]
fn seeded_random_stomps_are_structured() {
    let bytes = valid_journal();
    let mut rng = SmallRng::seed_from_u64(0xC0FF_EE00);
    for case in 0..500 {
        let mut m = bytes.clone();
        let stomps = rng.gen_range(1usize..16);
        for _ in 0..stomps {
            let i = rng.gen_range(0usize..m.len());
            m[i] = (rng.gen_range(0u32..256)) as u8;
        }
        // Occasionally also truncate or extend.
        match rng.gen_range(0u32..4) {
            0 => {
                let keep = rng.gen_range(0usize..m.len());
                m.truncate(keep);
            }
            1 => {
                let extra = rng.gen_range(1usize..64);
                for _ in 0..extra {
                    m.push((rng.gen_range(0u32..256)) as u8);
                }
            }
            _ => {}
        }
        exercise(&format!("stomp {case}"), &m);
    }
}

#[test]
fn version_skew_and_bad_magic_are_precise() {
    let bytes = valid_journal();

    // Future format version.
    let mut skew = bytes.clone();
    skew[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        parse_journal(&skew),
        Err(CkptError::VersionSkew { found: 99, .. })
    ));

    // Wrong magic.
    let mut magic = bytes.clone();
    magic[0] = b'X';
    assert!(matches!(
        parse_journal(&magic),
        Err(CkptError::BadMagic { .. })
    ));

    // Header cut short.
    assert!(matches!(
        parse_journal(&bytes[..7]),
        Err(CkptError::TruncatedHeader { len: 7 })
    ));
}

#[test]
fn payload_bit_flip_is_caught_by_the_checksum() {
    let bytes = valid_journal();
    // Flip one bit deep inside the record region (past the 16-byte
    // header and a record prelude, i.e. inside tag/payload bytes).
    let mut m = bytes.clone();
    let i = bytes.len() - 9;
    m[i] ^= 0x10;
    let err = parse_journal(&m).expect_err("corrupted payload must not parse");
    assert!(
        matches!(
            err,
            CkptError::ChecksumMismatch { .. }
                | CkptError::TruncatedRecord { .. }
                | CkptError::OversizeRecord { .. }
                | CkptError::BadTag { .. }
                | CkptError::SequenceSkew { .. }
        ),
        "got {err:?}"
    );
}

#[test]
fn recovery_salvages_the_valid_prefix_of_a_torn_tail() {
    let bytes = valid_journal();
    let records = parse_journal(&bytes).expect("journal is valid");
    // Where each record starts, then the end of the file. A record is a
    // 14-byte prelude, its tag and payload, and an 8-byte CRC.
    let mut boundaries = vec![HEADER_LEN];
    for r in &records {
        boundaries.push(boundaries[boundaries.len() - 1] + 14 + r.tag.len() + r.payload.len() + 8);
    }
    assert_eq!(boundaries[records.len()], bytes.len());
    // Every record boundary, and every cut inside the last record: each
    // prelude, tag, payload and CRC offset.
    let last = boundaries[records.len() - 1];
    let mut cuts = boundaries.clone();
    cuts.extend(last + 1..bytes.len());
    let path = std::env::temp_dir().join(format!("ams_ckpt_fuzz_torn_{}.ckpt", std::process::id()));
    for cut in cuts {
        std::fs::write(&path, &bytes[..cut]).expect("write torn journal");
        let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        // Through the resume entry point: exactly the complete records.
        let (mut store, salvage) = CkptStore::open_or_create(&path).expect("header is intact");
        assert_eq!(store.records(), &records[..complete], "cut at {cut}");
        assert_eq!(salvage.recovered, complete, "cut at {cut}");
        assert_eq!(
            salvage.dropped_bytes,
            cut - boundaries[complete],
            "cut at {cut}"
        );
        assert_eq!(
            salvage.defect.is_some(),
            salvage.dropped_bytes > 0,
            "cut at {cut}: the defect that stopped the scan is reported"
        );
        // The next commit leaves a journal the strict reader accepts.
        store
            .commit("probe", vec![0xA5; 3])
            .expect("commit after salvage");
        let reopened = CkptStore::open(&path).expect("strict parse after the next commit");
        assert_eq!(reopened.len(), complete + 1, "cut at {cut}");
    }
    let _ = std::fs::remove_file(&path);
}
