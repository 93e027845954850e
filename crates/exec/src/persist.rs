//! Persistent on-disk eval cache: warm-start for repeated synthesis runs.
//!
//! Optimizer front ends open an [`EvalCacheHandle`] at start-of-run. The
//! handle resolves the cache *mode* (off / in-memory / on-disk, selected
//! by an explicit [`EvalCachePolicy`] or the `AMS_EVAL_CACHE` environment
//! variable), loads any previously persisted entries, and commits what the
//! cache gained back to disk at the optimizer's boundaries: each GA
//! generation and polish round, and the end of an anneal.
//!
//! # On-disk format
//!
//! The cache file is an [`ams_ckpt`] journal (magic `AMSCKPT\0`, CRC-64
//! per record) of records tagged [`EVAL_CACHE_RECORD_TAG`]. Each payload is
//! the entry codec also used by the GA checkpoint record:
//!
//! ```text
//! usize n                      entry count
//! n × { u64  tag               canonical cache_tag(evaluator name)
//!       u64s coords            quantized parameter bit patterns
//!       u64  cost_bits }       cost as raw IEEE-754 bits
//! ```
//!
//! The file holds the union of its records. A commit appends one record
//! with the entries new since the handle's last commit, and syncs it; a
//! commit with nothing new writes nothing. It appends only while the file
//! is still the one the handle last read or wrote (same inode, same
//! length). Otherwise another writer has been there, so the commit reads
//! the file, takes the union with the whole cache, rewrites it as one
//! record (temp file, `fsync`, `rename`), and appends to that file from
//! then on.
//!
//! Costs round-trip as raw bits, so a warm-started run returns *exactly*
//! the bytes a cold run would compute — warm vs. cold is bit-exact by
//! construction (the cost functions are deterministic, and the keys
//! namespace evaluators via [`cache_tag`](crate::cache_tag)).
//!
//! # Failure containment
//!
//! A corrupted, truncated, or version-skewed cache file must never take
//! down a synthesis run: [`EvalCacheHandle::open`] warm-loads the records
//! before the first defect (none, if the header is bad), records the
//! structured [`CkptError`] for inspection via
//! [`EvalCacheHandle::load_defect`], and bumps `exec.cache.disk_defect`.
//! Its first commit then rewrites the file. Nothing in this module panics
//! on bad input.

use std::fs;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ams_ckpt::codec::{Dec, DecodeError, Enc};
use ams_ckpt::{salvage_journal, CkptError, CkptRecord, CkptStore};

use crate::cache::{CacheKey, EvalCache};

/// Journal record tag for the persisted entry table.
pub const EVAL_CACHE_RECORD_TAG: &str = "evalcache.v1";

/// Environment variable selecting the cache mode: `off` (pass-through),
/// `memory` (per-run memo, the default), or `disk` (persistent).
pub const EVAL_CACHE_ENV: &str = "AMS_EVAL_CACHE";

/// Environment variable overriding the on-disk cache location. When
/// unset, disk mode derives `ams-evalcache-<fingerprint>.ckpt` under the
/// system temp directory. When set to an existing **directory** (or a
/// path ending in a separator), the per-fingerprint file is placed
/// inside it — workloads stay in separate small journals. When set to
/// any other path it names a single shared **file**; that is safe (keys
/// carry their evaluator tag, so heterogeneous workloads never collide),
/// but a run warm-loads every workload ever cached there, and each time
/// another run has written the file since this one's last commit, the
/// commit rewrites that whole union. Prefer directory form for anything
/// long-lived.
pub const EVAL_CACHE_PATH_ENV: &str = "AMS_EVAL_CACHE_PATH";

/// Resolved eval-cache operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalCacheMode {
    /// Every request computes; nothing is stored.
    Off,
    /// Per-run in-memory memoization (the historical default).
    Memory,
    /// In-memory memoization plus load-at-open / commit-at-boundary
    /// persistence to a journal file.
    Disk,
}

/// How an optimizer selects its cache mode.
///
/// `FromEnv` (the default everywhere) defers to `AMS_EVAL_CACHE`; the
/// explicit variants let benches and tests pin a mode — and in disk
/// mode a file — without touching process-global environment state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum EvalCachePolicy {
    /// Resolve from `AMS_EVAL_CACHE` / `AMS_EVAL_CACHE_PATH` (unset ⇒
    /// in-memory, preserving pre-persistence behavior).
    #[default]
    FromEnv,
    /// Force pass-through.
    Off,
    /// Force per-run in-memory memoization.
    Memory,
    /// Force persistence to the given journal file.
    Disk(PathBuf),
}

/// FNV-1a fingerprint over an ordered list of workload identity parts
/// (model / template names, parameter names, deck identifiers). Each
/// part is terminated by a `0xFF` byte so part boundaries are
/// unambiguous. Used to derive the default per-workload cache file name.
pub fn workload_fingerprint<S: AsRef<str>>(parts: &[S]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for p in parts {
        for b in p.as_ref().as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h ^= 0xFF;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Reads the cache mode from `AMS_EVAL_CACHE`. Unset, empty, or
/// unrecognized values fall back to [`EvalCacheMode::Memory`].
pub fn mode_from_env() -> EvalCacheMode {
    match std::env::var(EVAL_CACHE_ENV) {
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => EvalCacheMode::Off,
            "disk" => EvalCacheMode::Disk,
            _ => EvalCacheMode::Memory,
        },
        Err(_) => EvalCacheMode::Memory,
    }
}

fn default_disk_path(fingerprint: u64) -> PathBuf {
    match std::env::var(EVAL_CACHE_PATH_ENV) {
        Ok(p) if !p.trim().is_empty() => resolve_disk_path(&p, fingerprint),
        _ => std::env::temp_dir().join(evalcache_file_name(fingerprint)),
    }
}

fn evalcache_file_name(fingerprint: u64) -> String {
    format!("ams-evalcache-{fingerprint:016x}.ckpt")
}

/// Resolves an `AMS_EVAL_CACHE_PATH` override: directory form (an
/// existing directory, or a trailing separator) scopes a per-fingerprint
/// file inside it; anything else is taken verbatim as the journal file.
fn resolve_disk_path(override_path: &str, fingerprint: u64) -> PathBuf {
    let p = PathBuf::from(override_path);
    if p.is_dir()
        || override_path.ends_with(std::path::MAIN_SEPARATOR)
        || override_path.ends_with('/')
    {
        p.join(evalcache_file_name(fingerprint))
    } else {
        p
    }
}

/// Appends the shared entry wire format (see module docs) to `enc`.
/// The GA checkpoint record embeds the same layout, so journal payloads
/// and checkpoint payloads stay mutually decodable.
pub fn encode_entries_into(enc: &mut Enc, entries: &[(CacheKey, u64)]) {
    enc.usize(entries.len());
    for (k, cost_bits) in entries {
        enc.u64(k.tag());
        enc.u64_slice(k.coords());
        enc.u64(*cost_bits);
    }
}

/// Decodes the shared entry wire format appended by
/// [`encode_entries_into`].
pub fn decode_entries_from(dec: &mut Dec<'_>) -> Result<Vec<(CacheKey, u64)>, DecodeError> {
    let n = dec.len_prefix(24)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = dec.u64()?;
        let coords = dec.u64_vec()?;
        let cost_bits = dec.u64()?;
        entries.push((CacheKey::from_parts(tag, coords), cost_bits));
    }
    Ok(entries)
}

/// Strictly reads a persisted cache file: journal parse, then the union of
/// every [`EVAL_CACHE_RECORD_TAG`] record in journal order (a later record
/// wins on a shared key), each payload decoded with its trailing-byte
/// check. Any defect is a structured [`CkptError`] — never a panic. A file
/// whose journal is valid but contains no cache record yields an empty
/// entry list.
pub fn read_entries(path: &Path) -> Result<Vec<(CacheKey, u64)>, CkptError> {
    let mut entries = Vec::new();
    decode_records(CkptStore::open(path)?.records(), &mut entries)?;
    Ok(entries)
}

/// Appends the entries of every cache record in `records` to `out`, in
/// journal order; stops at the first payload that does not decode, keeping
/// the records before it.
fn decode_records(records: &[CkptRecord], out: &mut Vec<(CacheKey, u64)>) -> Result<(), CkptError> {
    for rec in records.iter().filter(|r| r.tag == EVAL_CACHE_RECORD_TAG) {
        let mut dec = Dec::new(&rec.payload);
        let entries = decode_entries_from(&mut dec)
            .and_then(|entries| dec.finish().map(|()| entries))
            .map_err(|e| CkptError::from(e.tagged(EVAL_CACHE_RECORD_TAG)))?;
        out.extend(entries);
    }
    Ok(())
}

/// The cache file as a handle last read or wrote it. A commit appends only
/// while the file at the path still matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FileState {
    /// Device and inode.
    id: (u64, u64),
    len: u64,
    /// Complete records in the file: the next record's sequence number.
    records: u64,
}

impl FileState {
    /// The state of a file with metadata `meta` holding `len` bytes and
    /// `records` records; `None` where the platform gives no inode, which
    /// makes every commit there read, union and rewrite.
    fn of(meta: &fs::Metadata, len: u64, records: u64) -> Option<Self> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::MetadataExt as _;
            Some(FileState {
                id: (meta.dev(), meta.ino()),
                len,
                records,
            })
        }
        #[cfg(not(unix))]
        {
            let _ = (meta, len, records);
            None
        }
    }
}

/// Reads the cache file at `path` through one open handle, so the state
/// it returns is that of the bytes it parsed. The entries of the valid
/// prefix land in `entries` even when the file ends in a defect, which is
/// then the error.
fn read_into(
    path: &Path,
    entries: &mut Vec<(CacheKey, u64)>,
) -> Result<Option<FileState>, CkptError> {
    let io = |op| {
        move |e: std::io::Error| CkptError::Io {
            op,
            message: e.to_string(),
        }
    };
    let mut file = fs::File::open(path).map_err(io("open"))?;
    let meta = file.metadata().map_err(io("stat"))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes).map_err(io("read"))?;
    let (records, salvage) = salvage_journal(&bytes)?;
    decode_records(&records, entries)?;
    match salvage.defect {
        Some(defect) => Err(defect),
        None => Ok(FileState::of(
            &meta,
            bytes.len() as u64,
            records.len() as u64,
        )),
    }
}

/// Appends one cache record of `entries` to `path` if the file there is
/// still the one `state` describes; returns the file's new state, or
/// `None` if it was not or the write failed.
fn append_if_unchanged(
    path: &Path,
    state: FileState,
    entries: &[(CacheKey, u64)],
) -> Option<FileState> {
    let mut file = fs::OpenOptions::new().append(true).open(path).ok()?;
    let meta = file.metadata().ok()?;
    if FileState::of(&meta, meta.len(), state.records)? != state {
        return None;
    }
    let mut enc = Enc::new();
    encode_entries_into(&mut enc, entries);
    let payload = enc.finish();
    let n =
        ams_ckpt::append_record(&mut file, state.records, EVAL_CACHE_RECORD_TAG, &payload).ok()?;
    Some(FileState {
        len: state.len + n,
        records: state.records + 1,
        ..state
    })
}

/// Rewrites `path` as one record holding the union of the file's readable
/// entries and the whole of `cache` (ours win on a shared key, though
/// deterministic runs agree on every key); returns the new file's state.
/// A failed write is counted under `exec.cache.disk_commit_err`.
fn rewrite_union(path: &Path, cache: &EvalCache) -> Option<FileState> {
    let mut on_disk = Vec::new();
    let _ = read_into(path, &mut on_disk);
    let merged = EvalCache::new();
    merged.import_entries(&on_disk);
    merged.import_entries(&cache.entries_since(0));
    let mut enc = Enc::new();
    encode_entries_into(&mut enc, &merged.entries_since(0));
    let mut store = CkptStore::create(path);
    if store.commit(EVAL_CACHE_RECORD_TAG, enc.finish()).is_err() {
        ams_trace::counter_add("exec.cache.disk_commit_err", 1);
        return None;
    }
    let len = store.stats().bytes_written;
    // A file of another length is a writer that replaced ours meanwhile.
    let meta = fs::metadata(path).ok().filter(|m| m.len() == len)?;
    FileState::of(&meta, len, 1)
}

/// Disk-mode bookkeeping: what the file holds of this handle's cache.
#[derive(Debug, Default)]
struct Disk {
    /// Cache mark at the last commit (or the warm load): entries from
    /// here on are not on disk yet.
    committed: u64,
    /// The file as last read clean or written; `None` makes the next
    /// commit read, union and rewrite.
    state: Option<FileState>,
}

/// One optimizer run's view of the (possibly persistent) eval cache.
///
/// Open at optimizer start; evaluate through [`EvalCacheHandle::cache`];
/// call [`EvalCacheHandle::commit`] at each boundary that should survive
/// the process (a GA generation or polish round, the end of an anneal).
/// In `Off`/`Memory` modes, `commit` is a no-op.
#[derive(Debug)]
pub struct EvalCacheHandle {
    cache: EvalCache,
    mode: EvalCacheMode,
    path: Option<PathBuf>,
    loaded: usize,
    defect: Option<CkptError>,
    disk: Mutex<Disk>,
}

impl EvalCacheHandle {
    /// Resolves `policy`, builds the backing [`EvalCache`], and — in disk
    /// mode — warm-loads previously persisted entries. A defective cache
    /// file warm-loads the records before its defect (see module docs).
    pub fn open(policy: &EvalCachePolicy, fingerprint: u64) -> Self {
        let (mode, path) = match policy {
            EvalCachePolicy::FromEnv => {
                let mode = mode_from_env();
                let path = match mode {
                    EvalCacheMode::Disk => Some(default_disk_path(fingerprint)),
                    _ => None,
                };
                (mode, path)
            }
            EvalCachePolicy::Off => (EvalCacheMode::Off, None),
            EvalCachePolicy::Memory => (EvalCacheMode::Memory, None),
            EvalCachePolicy::Disk(p) => (EvalCacheMode::Disk, Some(p.clone())),
        };
        let cache = match mode {
            EvalCacheMode::Off => EvalCache::disabled(),
            _ => EvalCache::new(),
        };
        let mut handle = EvalCacheHandle {
            cache,
            mode,
            path,
            loaded: 0,
            defect: None,
            disk: Mutex::new(Disk::default()),
        };
        if let (EvalCacheMode::Disk, Some(p)) = (mode, handle.path.as_deref()) {
            if p.exists() {
                let mut entries = Vec::new();
                let read = read_into(p, &mut entries);
                handle.cache.import_entries(&entries);
                handle.loaded = handle.cache.len();
                ams_trace::counter_add("exec.cache.disk_loaded", handle.loaded as u64);
                let state = read.unwrap_or_else(|defect| {
                    ams_trace::counter_add("exec.cache.disk_defect", 1);
                    handle.defect = Some(defect);
                    None
                });
                handle.disk = Mutex::new(Disk {
                    committed: handle.cache.mark(),
                    state,
                });
            }
        }
        handle
    }

    /// The backing cache all evaluations route through.
    pub fn cache(&self) -> &EvalCache {
        &self.cache
    }

    /// The resolved operating mode.
    pub fn mode(&self) -> EvalCacheMode {
        self.mode
    }

    /// The journal file backing disk mode, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Number of entries warm-loaded at open (0 on a cold start).
    pub fn loaded_entries(&self) -> usize {
        self.loaded
    }

    /// The structured defect found in the cache file at open, if it
    /// existed but did not read clean. Entries before the defect were
    /// still loaded.
    pub fn load_defect(&self) -> Option<&CkptError> {
        self.defect.as_ref()
    }

    /// Persists the entries the cache gained since the last commit (see
    /// module docs): one appended record while the file is the one this
    /// handle last read or wrote, a union rewrite otherwise, and nothing
    /// when nothing is new. No-op outside disk mode. Write failures are
    /// contained: the run continues, and the next commit with new entries
    /// rewrites the file.
    pub fn commit(&self) {
        let (EvalCacheMode::Disk, Some(path)) = (self.mode, self.path.as_deref()) else {
            return;
        };
        let mut disk = self.disk.lock().unwrap_or_else(|p| p.into_inner());
        // Marked first: an entry inserted during the commit is sent again
        // next time rather than never.
        let mark = self.cache.mark();
        let fresh = self.cache.entries_since(disk.committed);
        if fresh.is_empty() {
            return;
        }
        disk.state = disk
            .state
            .and_then(|state| append_if_unchanged(path, state, &fresh))
            .or_else(|| rewrite_union(path, &self.cache));
        disk.committed = mark;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ams-exec-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name)
    }

    /// Six entries under two evaluator tags, in key order.
    fn sample_entries() -> Vec<(CacheKey, u64)> {
        let mut entries: Vec<(CacheKey, u64)> = (0..6)
            .map(|i| {
                let tag = crate::cache::cache_tag(if i % 2 == 0 { "m1" } else { "m2" });
                let key = CacheKey::for_candidate(tag, &[i as f64, 2.0]);
                (key, (42.5 - i as f64 * 1.25).to_bits())
            })
            .collect();
        entries.sort();
        entries
    }

    fn file_len(path: &Path) -> u64 {
        std::fs::metadata(path).expect("cache file").len()
    }

    #[test]
    fn fingerprint_separates_part_boundaries() {
        assert_ne!(
            workload_fingerprint(&["ab", "c"]),
            workload_fingerprint(&["a", "bc"])
        );
        assert_eq!(
            workload_fingerprint(&["two-stage"]),
            workload_fingerprint(&["two-stage"])
        );
    }

    #[test]
    fn path_override_scopes_directories_per_fingerprint() {
        let dir = std::env::temp_dir().join(format!("ams-exec-pathres-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let dir_str = dir.to_str().expect("utf8 temp dir");
        // Existing directory ⇒ per-fingerprint file inside it.
        assert_eq!(
            resolve_disk_path(dir_str, 0xABCD),
            dir.join("ams-evalcache-000000000000abcd.ckpt")
        );
        // Trailing separator ⇒ directory form even if it does not exist.
        assert_eq!(
            resolve_disk_path("/nonexistent/cachedir/", 1),
            PathBuf::from("/nonexistent/cachedir/ams-evalcache-0000000000000001.ckpt")
        );
        // A plain path ⇒ verbatim shared file.
        let file = dir.join("shared.ckpt");
        assert_eq!(resolve_disk_path(file.to_str().expect("utf8"), 2), file);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_round_trip_is_byte_exact() {
        let path = tmp_path("roundtrip.ckpt");
        let _ = std::fs::remove_file(&path);
        let handle = EvalCacheHandle::open(&EvalCachePolicy::Disk(path.clone()), 0);
        assert_eq!(handle.mode(), EvalCacheMode::Disk);
        assert_eq!(handle.loaded_entries(), 0);
        // Three commits with new entries between them: one record each.
        for (i, part) in sample_entries().chunks(2).enumerate() {
            handle.cache().import_entries(part);
            handle.commit();
            let records = CkptStore::open(&path).expect("valid journal").len();
            assert_eq!(records, i + 1, "commit {i} appends one record");
            // A commit with nothing new writes nothing.
            let len = file_len(&path);
            handle.commit();
            assert_eq!(file_len(&path), len, "idle commit {i} wrote");
        }
        assert_eq!(read_entries(&path).expect("readable").len(), 6);

        let warm = EvalCacheHandle::open(&EvalCachePolicy::Disk(path.clone()), 0);
        assert_eq!(warm.loaded_entries(), 6);
        assert!(warm.load_defect().is_none());
        assert_eq!(warm.cache().entries_since(0), sample_entries());
        // Nothing new since the warm load: the file is left alone.
        let len = file_len(&path);
        warm.commit();
        assert_eq!(file_len(&path), len);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn commit_union_merges_with_existing_file() {
        let path = tmp_path("union.ckpt");
        let _ = std::fs::remove_file(&path);
        let entries = sample_entries();
        // Interleaved commits from two handles on one file (a, b, a): each
        // finds the file changed under it and rewrites the union.
        let a = EvalCacheHandle::open(&EvalCachePolicy::Disk(path.clone()), 0);
        let b = EvalCacheHandle::open(&EvalCachePolicy::Disk(path.clone()), 0);
        a.cache().import_entries(&entries[..2]);
        a.commit();
        b.cache().import_entries(&entries[2..4]);
        b.commit();
        a.cache().import_entries(&entries[4..]);
        a.commit();
        let mut on_disk = read_entries(&path).expect("readable");
        on_disk.sort();
        assert_eq!(on_disk, entries, "no entry lost");
        // Then `a` appends again: the file is the one it wrote last.
        let extra = CacheKey::for_candidate(crate::cache::cache_tag("m3"), &[9.0]);
        a.cache().import_entries(&[(extra, 1.0f64.to_bits())]);
        a.commit();
        assert_eq!(CkptStore::open(&path).expect("valid").len(), 2);
        assert_eq!(read_entries(&path).expect("readable").len(), 7);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_file_degrades_to_cold_start_with_structured_error() {
        let path = tmp_path("corrupt.ckpt");
        let mut f = std::fs::File::create(&path).expect("create");
        f.write_all(b"definitely not a ckpt journal, just noise")
            .expect("write");
        drop(f);
        let handle = EvalCacheHandle::open(&EvalCachePolicy::Disk(path.clone()), 0);
        assert_eq!(handle.loaded_entries(), 0);
        assert!(handle.cache().is_empty());
        assert!(handle.load_defect().is_some(), "defect must be surfaced");
        // The run proceeds cold and the next commit repairs the file.
        handle.cache().import_entries(&sample_entries());
        handle.commit();
        assert_eq!(read_entries(&path).expect("repaired").len(), 6);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_journal_is_a_structured_error_not_a_panic() {
        let path = tmp_path("truncated.ckpt");
        let good = tmp_path("good.ckpt");
        let _ = std::fs::remove_file(&good);
        let h = EvalCacheHandle::open(&EvalCachePolicy::Disk(good.clone()), 0);
        let entries = sample_entries();
        let (first, second) = entries.split_at(4);
        h.cache().import_entries(first);
        h.commit();
        h.cache().import_entries(second);
        h.commit();
        let bytes = std::fs::read(&good).expect("read good");
        std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("truncate");
        assert!(read_entries(&path).is_err());
        // A torn tail warm-loads the records before it and reports the tear.
        let handle = EvalCacheHandle::open(&EvalCachePolicy::Disk(path.clone()), 0);
        assert!(matches!(
            handle.load_defect(),
            Some(CkptError::TruncatedRecord { index: 1, .. })
        ));
        assert_eq!(handle.loaded_entries(), 4);
        assert_eq!(handle.cache().entries_since(0), first);
        // Its first commit with something new rewrites the file whole.
        handle.cache().import_entries(second);
        handle.commit();
        assert_eq!(CkptStore::open(&path).expect("repaired").len(), 1);
        assert_eq!(read_entries(&path).expect("repaired").len(), 6);
        let _ = std::fs::remove_file(&good);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn off_and_memory_policies_never_touch_disk() {
        let off = EvalCacheHandle::open(&EvalCachePolicy::Off, 7);
        assert_eq!(off.mode(), EvalCacheMode::Off);
        assert!(off.cache().is_disabled());
        assert!(off.path().is_none());
        off.commit(); // no-op

        let mem = EvalCacheHandle::open(&EvalCachePolicy::Memory, 7);
        assert_eq!(mem.mode(), EvalCacheMode::Memory);
        assert!(!mem.cache().is_disabled());
        assert!(mem.path().is_none());
        mem.commit(); // no-op
    }
}
