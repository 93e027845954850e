//! End-to-end crash safety: a child process running checkpointed
//! synthesis is killed for real — `SIGABRT` from inside, `SIGKILL` from
//! outside — and a resumed run against the surviving journal must be
//! byte-identical (result and trace counters) to a run that was never
//! interrupted.
//!
//! A kill can also land mid-append and leave a torn last record, so the
//! resume must also hold for a journal that ends in part of a record or
//! in a record whose checksum fails.
//!
//! The child is `src/bin/ckpt_harness.rs`; see its docs for the
//! transcript format. `exec.steals` is scheduling-dependent and already
//! excluded by the harness itself; everything else must match to the
//! byte.

use ams::ckpt::{parse_journal, CkptRecord, CkptStore};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn harness() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_ckpt_harness"));
    // Pin the eval pool so both sides of the comparison schedule alike
    // (the determinism contract holds at any thread count; pinning just
    // keeps the excluded-counter set minimal).
    c.env("AMS_EXEC_THREADS", "1");
    c
}

fn tmp_journal(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "ams_kill_resume_{name}_{}.ckpt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

fn run_to_completion(journal: &Path, seed: u64) -> String {
    let out = harness()
        .args(["--ckpt", journal.to_str().unwrap()])
        .args(["--seed", &seed.to_string()])
        .args(["--gens", "8"])
        .output()
        .expect("harness spawns");
    assert!(
        out.status.success(),
        "harness failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 transcript");
    assert!(text.ends_with("done\n"), "truncated transcript:\n{text}");
    text
}

/// Waits (bounded) for the parked child to announce it committed its
/// boundary, so the kill lands while the process is alive mid-run.
fn wait_for_park(child: &mut Child) {
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        match lines.next() {
            Some(Ok(line)) if line.starts_with("PARKED") => return,
            Some(Ok(_)) => {}
            Some(Err(e)) => panic!("reading child stdout: {e}"),
            None => panic!("child exited before parking"),
        }
        assert!(Instant::now() < deadline, "child never parked");
    }
}

#[test]
fn sigabrt_mid_run_resumes_byte_identical() {
    let reference = run_to_completion(&tmp_journal("abrt_ref"), 7);
    let journal = tmp_journal("abrt");
    let status = harness()
        .args(["--ckpt", journal.to_str().unwrap()])
        .args(["--seed", "7", "--gens", "8", "--abort-at-gen", "3"])
        .status()
        .expect("harness spawns");
    assert!(!status.success(), "abort leg must die abnormally");
    let resumed = run_to_completion(&journal, 7);
    assert_eq!(
        resumed, reference,
        "resume after SIGABRT diverged from the uninterrupted run"
    );
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn sigkill_while_parked_resumes_byte_identical() {
    let reference = run_to_completion(&tmp_journal("kill_ref"), 9);
    let journal = tmp_journal("kill");
    let mut child = harness()
        .args(["--ckpt", journal.to_str().unwrap()])
        .args(["--seed", "9", "--gens", "8", "--park-at-gen", "2"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("harness spawns");
    wait_for_park(&mut child);
    // SIGKILL: no handlers, no cleanup — the journal on disk is all that
    // survives.
    child.kill().expect("kill -9 the parked child");
    let _ = child.wait();
    let resumed = run_to_completion(&journal, 9);
    assert_eq!(
        resumed, reference,
        "resume after SIGKILL diverged from the uninterrupted run"
    );
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn double_crash_then_resume_is_still_identical() {
    // Two successive crashes at different boundaries, then a final
    // resume: the journal's last-write-wins records must carry the run
    // through both.
    let reference = run_to_completion(&tmp_journal("double_ref"), 11);
    let journal = tmp_journal("double");
    for gen in ["1", "4"] {
        let status = harness()
            .args(["--ckpt", journal.to_str().unwrap()])
            .args(["--seed", "11", "--gens", "8", "--abort-at-gen", gen])
            .status()
            .expect("harness spawns");
        assert!(!status.success());
    }
    let resumed = run_to_completion(&journal, 11);
    assert_eq!(resumed, reference);
    let _ = std::fs::remove_file(&journal);
}

/// Record `index` of `records` as a journal file holds it.
fn record_bytes(records: &[CkptRecord], index: usize) -> Vec<u8> {
    let image = |n: usize| {
        let mut store = CkptStore::in_memory();
        for r in &records[..n] {
            store
                .commit(&r.tag, r.payload.clone())
                .expect("in-memory commit");
        }
        store.serialize()
    };
    let (before, after) = (image(index), image(index + 1));
    after[before.len()..].to_vec()
}

#[test]
fn torn_append_after_sigabrt_resumes_byte_identical() {
    // The uninterrupted run's journal holds the record the aborted run
    // was about to append.
    let reference_journal = tmp_journal("torn_ref");
    let reference = run_to_completion(&reference_journal, 13);
    let full = parse_journal(&std::fs::read(&reference_journal).unwrap()).unwrap();
    let _ = std::fs::remove_file(&reference_journal);

    let crashed = tmp_journal("torn_abrt");
    let status = harness()
        .args(["--ckpt", crashed.to_str().unwrap()])
        .args(["--seed", "13", "--gens", "8", "--abort-at-gen", "3"])
        .status()
        .expect("harness spawns");
    assert!(!status.success(), "abort leg must die abnormally");
    let crashed_bytes = std::fs::read(&crashed).unwrap();
    let _ = std::fs::remove_file(&crashed);
    let committed = parse_journal(&crashed_bytes)
        .expect("the abort leaves whole records")
        .len();
    let next = record_bytes(&full, committed);

    // Cuts inside the 14-byte prelude, the tag, the payload and the CRC.
    let n = next.len();
    let mut tails: Vec<(String, Vec<u8>)> = [1, 8, 13, 17, n / 2, n - 9, n - 1]
        .into_iter()
        .map(|k| (format!("first {k} of {n} bytes"), next[..k].to_vec()))
        .collect();
    let mut flipped = next.clone();
    flipped[n - 3] ^= 0x10;
    tails.push((
        "a whole record with one CRC bit flipped".to_string(),
        flipped,
    ));

    for (what, tail) in tails {
        let journal = tmp_journal("torn");
        let mut bytes = crashed_bytes.clone();
        bytes.extend_from_slice(&tail);
        std::fs::write(&journal, &bytes).unwrap();
        let resumed = run_to_completion(&journal, 13);
        assert_eq!(
            resumed, reference,
            "resume after a torn append ({what}) diverged from the uninterrupted run"
        );
        // The resumed run's first commit rewrote the tear away.
        assert!(
            CkptStore::open(&journal).is_ok(),
            "journal left unparseable after resuming from {what}"
        );
        let _ = std::fs::remove_file(&journal);
    }
}
