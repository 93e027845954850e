//! Persistent on-disk eval cache: warm-start for repeated synthesis runs.
//!
//! Optimizer front ends open an [`EvalCacheHandle`] at start-of-run. The
//! handle resolves the cache *mode* (off / in-memory / on-disk, selected
//! by an explicit [`EvalCachePolicy`] or the `AMS_EVAL_CACHE` environment
//! variable), loads any previously persisted entries, and commits the
//! accumulated cache back to disk at the optimizer's boundaries: each GA
//! generation and polish round, and the end of an anneal.
//!
//! # On-disk format
//!
//! The cache file is an [`ams_ckpt`] journal (magic `AMSCKPT\0`, CRC-64
//! per record, atomic temp+fsync+rename writes) holding one record tagged
//! [`EVAL_CACHE_RECORD_TAG`]. The payload is the shared entry codec also
//! used by the GA checkpoint record:
//!
//! ```text
//! usize n                      entry count
//! n × { u64  tag               canonical cache_tag(evaluator name)
//!       u64s coords            quantized parameter bit patterns
//!       u64  cost_bits }       cost as raw IEEE-754 bits
//! ```
//!
//! Costs round-trip as raw bits, so a warm-started run returns *exactly*
//! the bytes a cold run would compute — warm vs. cold is bit-exact by
//! construction (the cost functions are deterministic, and the keys
//! namespace evaluators via [`cache_tag`](crate::cache_tag)).
//!
//! # Failure containment
//!
//! A corrupted, truncated, or version-skewed cache file must never take
//! down a synthesis run: [`EvalCacheHandle::open`] degrades to a cold
//! start, records the structured [`CkptError`] for inspection via
//! [`EvalCacheHandle::load_defect`], and bumps `exec.cache.disk_defect`.
//! Nothing in this module panics on bad input.

use std::path::{Path, PathBuf};

use ams_ckpt::codec::{Dec, DecodeError, Enc};
use ams_ckpt::{CkptError, CkptStore};

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
/// carry their evaluator tag, so heterogeneous workloads never collide)
/// but every commit rewrites the union of every workload ever cached
/// there, so prefer directory form for anything long-lived.
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

/// Strictly reads a persisted cache file: journal parse, record lookup,
/// payload decode, trailing-byte check. Any defect is a structured
/// [`CkptError`] — never a panic. A file whose journal is valid but
/// contains no cache record yields an empty entry list.
pub fn read_entries(path: &Path) -> Result<Vec<(CacheKey, u64)>, CkptError> {
    let store = CkptStore::open(path)?;
    let Some(payload) = store.find(EVAL_CACHE_RECORD_TAG) else {
        return Ok(Vec::new());
    };
    let mut dec = Dec::new(payload);
    let entries = decode_entries_from(&mut dec)
        .map_err(|e| CkptError::from(e.tagged(EVAL_CACHE_RECORD_TAG)))?;
    dec.finish()
        .map_err(|e| CkptError::from(e.tagged(EVAL_CACHE_RECORD_TAG)))?;
    Ok(entries)
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
}

impl EvalCacheHandle {
    /// Resolves `policy`, builds the backing [`EvalCache`], and — in disk
    /// mode — warm-loads previously persisted entries. A defective cache
    /// file degrades to a cold start (see module docs).
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
        };
        if let (EvalCacheMode::Disk, Some(p)) = (mode, handle.path.clone()) {
            if p.exists() {
                match read_entries(&p) {
                    Ok(entries) => {
                        handle.cache.import_entries(&entries);
                        handle.loaded = entries.len();
                        ams_trace::counter_add("exec.cache.disk_loaded", entries.len() as u64);
                    }
                    Err(err) => {
                        ams_trace::counter_add("exec.cache.disk_defect", 1);
                        handle.defect = Some(err);
                    }
                }
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

    /// The structured defect that forced a cold start, if the cache file
    /// existed but could not be read.
    pub fn load_defect(&self) -> Option<&CkptError> {
        self.defect.as_ref()
    }

    /// Persists the union of the backing cache and the file's current
    /// contents (our values win on key collision, though values for one
    /// key are identical across deterministic runs). No-op outside disk
    /// mode. Write failures are contained: the run continues, the error
    /// is counted under `exec.cache.disk_commit_err`.
    pub fn commit(&self) {
        let (EvalCacheMode::Disk, Some(path)) = (self.mode, self.path.as_deref()) else {
            return;
        };
        // Union-merge with concurrent writers sharing the file. Best
        // effort: an unreadable existing file is simply overwritten.
        let merged = EvalCache::new();
        if let Ok(existing) = read_entries(path) {
            merged.import_entries(&existing);
        }
        merged.import_entries(&self.cache.export_entries());
        let mut enc = Enc::new();
        encode_entries_into(&mut enc, &merged.export_entries());
        let mut store = CkptStore::create(path);
        if store.commit(EVAL_CACHE_RECORD_TAG, enc.finish()).is_err() {
            ams_trace::counter_add("exec.cache.disk_commit_err", 1);
        }
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

    fn sample_entries() -> Vec<(CacheKey, u64)> {
        vec![
            (
                CacheKey::for_candidate(crate::cache::cache_tag("m1"), &[1.0, 2.0]),
                42.5f64.to_bits(),
            ),
            (
                CacheKey::for_candidate(crate::cache::cache_tag("m2"), &[3.0]),
                (-1.25f64).to_bits(),
            ),
        ]
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
        handle.cache().import_entries(&sample_entries());
        handle.commit();

        let warm = EvalCacheHandle::open(&EvalCachePolicy::Disk(path.clone()), 0);
        assert_eq!(warm.loaded_entries(), 2);
        assert!(warm.load_defect().is_none());
        assert_eq!(warm.cache().export_entries(), sample_entries());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn commit_union_merges_with_existing_file() {
        let path = tmp_path("union.ckpt");
        let _ = std::fs::remove_file(&path);
        let a = EvalCacheHandle::open(&EvalCachePolicy::Disk(path.clone()), 0);
        a.cache().import_entries(&sample_entries()[..1]);
        a.commit();
        let b = EvalCacheHandle::open(&EvalCachePolicy::Disk(path.clone()), 0);
        b.cache().import_entries(&sample_entries()[1..]);
        b.commit();
        assert_eq!(read_entries(&path).expect("readable").len(), 2);
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
        assert_eq!(read_entries(&path).expect("repaired").len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_journal_is_a_structured_error_not_a_panic() {
        let path = tmp_path("truncated.ckpt");
        let good = tmp_path("good.ckpt");
        let _ = std::fs::remove_file(&good);
        let h = EvalCacheHandle::open(&EvalCachePolicy::Disk(good.clone()), 0);
        h.cache().import_entries(&sample_entries());
        h.commit();
        let bytes = std::fs::read(&good).expect("read good");
        std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("truncate");
        assert!(read_entries(&path).is_err());
        let handle = EvalCacheHandle::open(&EvalCachePolicy::Disk(path), 0);
        assert!(handle.load_defect().is_some());
        let _ = std::fs::remove_file(&good);
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
