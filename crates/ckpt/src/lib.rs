//! Journaled, crash-safe checkpoint store.
//!
//! Long synthesis jobs (GA/anneal sizing, full opamp flows) checkpoint their
//! state at stage boundaries so a crashed or killed process can resume
//! without losing optimizer progress. The store is an append-only journal
//! of tagged records. A commit encodes only its new record, appends it to
//! the open journal file and syncs it (`sync_data`) before returning, so
//! the bytes a run writes grow linearly with its commits.
//!
//! The path never holds a header-less file. The first commit of a
//! [`CkptStore::create`]d or salvaged store writes the whole journal with
//! the classic recipe (temp file in the same directory, `fsync`, atomic
//! `rename`, then on Unix an `fsync` of the directory, so the new name
//! survives a power loss) and keeps the renamed file open for the appends
//! that follow.
//! A failed write or sync drops that handle, and the next commit rewrites
//! the whole journal the same way.
//!
//! A kill mid-append can leave a torn last record. Every record carries its
//! own CRC, so the tear is detected, and the resume entry point
//! [`CkptStore::open_or_create`] reads through [`CkptStore::recover`]: it
//! keeps the complete records before the tear, reports what it dropped,
//! and its next commit rewrites the journal without it.
//!
//! On-disk format (version 1, all integers little-endian):
//!
//! ```text
//! header:  magic "AMSCKPT\0" (8 bytes) | version u32 | reserved u32
//! record:  seq u64 | tag_len u16 | payload_len u32 | tag utf-8 | payload
//!          | crc64 u64          (CRC-64/ECMA over seq..payload)
//! ```
//!
//! Every record carries its own checksum, so truncation, torn writes and
//! bit flips are detected per record and reported as structured
//! [`CkptError`]s — corruption never panics. [`CkptStore::open`] is strict
//! (any defect is an error); [`CkptStore::recover`] salvages the longest
//! valid prefix, which is the right call after a hard kill when the caller
//! would rather resume from the last good stage than refuse to start.
//!
//! The crate is dependency-free apart from `ams-trace` (itself
//! zero-dependency), which receives a `ckpt.write_us` histogram sample per
//! file commit and per [`append_record`]. Commit *counters* are
//! deliberately not emitted from inside the store: a resumed run
//! re-commits fewer times than the original, and implicit counters here
//! would break the byte-identical-counters resume contract. Callers that
//! want `ckpt.commits` / `ckpt.bytes` totals read [`CkptStore::stats`]
//! explicitly.

pub mod codec;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

/// File magic: identifies a checkpoint journal regardless of extension.
pub const MAGIC: [u8; 8] = *b"AMSCKPT\0";

/// Current journal format version.
pub const VERSION: u32 = 1;

/// Header length in bytes: magic + version + reserved.
pub const HEADER_LEN: usize = 16;

/// Fixed-size record prelude: seq u64 + tag_len u16 + payload_len u32.
const PRELUDE_LEN: usize = 14;

/// Sanity cap on a single record payload (64 MiB). A length field larger
/// than this is reported as corruption rather than attempted.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// Sanity cap on a record tag.
pub const MAX_TAG: usize = 4096;

const CRC64_POLY: u64 = 0x42F0_E1EB_A9EA_3693; // CRC-64/ECMA-182

const fn crc64_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u64) << 56;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & (1 << 63) != 0 {
                (crc << 1) ^ CRC64_POLY
            } else {
                crc << 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC64_TABLE: [u64; 256] = crc64_table();

/// CRC-64/ECMA-182 (MSB-first, inverted in/out) over `bytes`.
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut crc = !0u64;
    for &b in bytes {
        crc = CRC64_TABLE[(((crc >> 56) ^ b as u64) & 0xFF) as usize] ^ (crc << 8);
    }
    !crc
}

/// Structured checkpoint-store failure. Corruption is always reported as a
/// variant of this enum, never as a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CkptError {
    /// Underlying filesystem operation failed.
    Io {
        /// Which operation (`"read"`, `"write"`, `"sync"`, `"rename"`, ...).
        op: &'static str,
        /// OS error text.
        message: String,
    },
    /// File does not start with the checkpoint magic.
    BadMagic {
        /// The first 8 bytes actually found.
        found: [u8; 8],
    },
    /// File was written by an incompatible format version.
    VersionSkew {
        /// Version stamped in the file header.
        found: u32,
        /// Newest version this reader supports.
        supported: u32,
    },
    /// File is shorter than the fixed header.
    TruncatedHeader {
        /// Actual file length.
        len: usize,
    },
    /// A record extends past the end of the file (torn write / truncation).
    TruncatedRecord {
        /// Zero-based record index.
        index: usize,
        /// Byte offset where the record starts.
        offset: usize,
        /// Bytes the record claims to need from `offset`.
        needed: usize,
        /// Bytes actually available from `offset`.
        available: usize,
    },
    /// A record's stored CRC does not match its contents (bit flip).
    ChecksumMismatch {
        /// Zero-based record index.
        index: usize,
        /// CRC stored in the file.
        stored: u64,
        /// CRC computed over the record bytes.
        computed: u64,
    },
    /// A record's tag is not valid UTF-8.
    BadTag {
        /// Zero-based record index.
        index: usize,
    },
    /// A record's declared length exceeds the sanity caps.
    OversizeRecord {
        /// Zero-based record index.
        index: usize,
        /// Declared payload length.
        payload_len: usize,
        /// Declared tag length.
        tag_len: usize,
    },
    /// Record sequence numbers are not the expected dense 0,1,2,... run.
    SequenceSkew {
        /// Zero-based record index.
        index: usize,
        /// Sequence number expected at this index.
        expected: u64,
        /// Sequence number found.
        found: u64,
    },
    /// A payload failed structured decoding after passing its checksum.
    Decode {
        /// Tag of the offending record.
        tag: String,
        /// Decoder error detail.
        detail: codec::DecodeError,
    },
    /// A record required for resume is absent from the journal.
    MissingRecord {
        /// Tag that was looked up.
        tag: String,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io { op, message } => write!(f, "checkpoint i/o ({op}): {message}"),
            CkptError::BadMagic { found } => write!(f, "bad checkpoint magic {found:02x?}"),
            CkptError::VersionSkew { found, supported } => {
                write!(f, "checkpoint version {found} unsupported (reader supports <= {supported})")
            }
            CkptError::TruncatedHeader { len } => {
                write!(f, "checkpoint header truncated ({len} of {HEADER_LEN} bytes)")
            }
            CkptError::TruncatedRecord { index, offset, needed, available } => write!(
                f,
                "record {index} truncated at offset {offset}: needs {needed} bytes, {available} available"
            ),
            CkptError::ChecksumMismatch { index, stored, computed } => write!(
                f,
                "record {index} checksum mismatch: stored {stored:016x}, computed {computed:016x}"
            ),
            CkptError::BadTag { index } => write!(f, "record {index} tag is not utf-8"),
            CkptError::OversizeRecord { index, payload_len, tag_len } => write!(
                f,
                "record {index} exceeds sanity caps (payload {payload_len}, tag {tag_len})"
            ),
            CkptError::SequenceSkew { index, expected, found } => write!(
                f,
                "record {index} sequence skew: expected {expected}, found {found}"
            ),
            CkptError::Decode { tag, detail } => write!(f, "record '{tag}' payload: {detail}"),
            CkptError::MissingRecord { tag } => write!(f, "checkpoint record '{tag}' missing"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<codec::TaggedDecodeError> for CkptError {
    fn from(e: codec::TaggedDecodeError) -> Self {
        CkptError::Decode {
            tag: e.tag,
            detail: e.detail,
        }
    }
}

/// One tagged, checksummed journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptRecord {
    /// Dense sequence number (0,1,2,... in commit order).
    pub seq: u64,
    /// Caller-chosen tag, e.g. `"ga.state"` or `"sizing.0.0"`.
    pub tag: String,
    /// Opaque payload (callers use [`codec`] to build/parse it).
    pub payload: Vec<u8>,
}

/// Outcome of a [`CkptStore::recover`] salvage pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Salvage {
    /// Records successfully recovered (longest valid prefix).
    pub recovered: usize,
    /// Bytes discarded after the last valid record.
    pub dropped_bytes: usize,
    /// Defect that terminated the scan, if the file was not fully valid.
    pub defect: Option<CkptError>,
}

/// Cumulative write statistics for one store instance (process-local).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Number of successful commits.
    pub commits: u64,
    /// Total bytes written across all commits: the whole journal for a
    /// commit that rewrites it, the one new record for an append. An
    /// in-memory store counts what a file-backed one would write: the
    /// header with its first record, then each record alone.
    pub bytes_written: u64,
}

/// A journaled checkpoint store bound to a file path (or memory-only).
#[derive(Debug)]
pub struct CkptStore {
    path: Option<PathBuf>,
    records: Vec<CkptRecord>,
    stats: StoreStats,
    /// The journal file, open for appends, while it holds exactly
    /// `records`. `None` makes the next commit rewrite the whole journal.
    file: Option<fs::File>,
}

impl CkptStore {
    fn with(path: Option<PathBuf>, records: Vec<CkptRecord>, file: Option<fs::File>) -> Self {
        CkptStore {
            path,
            records,
            stats: StoreStats::default(),
            file,
        }
    }

    /// Creates an empty store that will commit to `path`. Its first commit
    /// writes the whole journal, replacing any file already there.
    pub fn create<P: Into<PathBuf>>(path: P) -> Self {
        Self::with(Some(path.into()), Vec::new(), None)
    }

    /// Creates an empty store with no backing file. `commit` performs no
    /// i/o and only counts the bytes a file would get. Used by in-process
    /// interrupt/resume tests and benches.
    pub fn in_memory() -> Self {
        Self::with(None, Vec::new(), None)
    }

    /// Strictly opens an existing journal; any structural defect is an
    /// error. Later commits append to the file. A journal that cannot be
    /// opened for writing still opens, and its next commit rewrites it.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, CkptError> {
        let path = path.as_ref();
        let (bytes, file) = match fs::OpenOptions::new().read(true).append(true).open(path) {
            Ok(mut f) => {
                let mut bytes = Vec::new();
                f.read_to_end(&mut bytes).map_err(io_err("read"))?;
                (bytes, Some(f))
            }
            Err(_) => (fs::read(path).map_err(io_err("read"))?, None),
        };
        let records = parse_journal(&bytes)?;
        Ok(Self::with(Some(path.to_path_buf()), records, file))
    }

    /// Opens `path` through [`CkptStore::recover`] if it exists, otherwise
    /// creates an empty store bound to it. The standard entry point for
    /// resumable jobs: a kill mid-append leaves a torn last record, which
    /// this drops (the [`Salvage`] says what went) and the next commit
    /// rewrites away. A damaged header is still an error.
    pub fn open_or_create<P: AsRef<Path>>(path: P) -> Result<(Self, Salvage), CkptError> {
        if path.as_ref().exists() {
            Self::recover(path)
        } else {
            Ok((Self::create(path.as_ref()), Salvage::default()))
        }
    }

    /// Salvages the longest valid record prefix from `path`. The header must
    /// be intact; record-level corruption truncates the journal at the last
    /// good record instead of failing. The first commit rewrites the whole
    /// journal, so the dropped bytes never stay ahead of a new record.
    pub fn recover<P: AsRef<Path>>(path: P) -> Result<(Self, Salvage), CkptError> {
        let bytes = fs::read(path.as_ref()).map_err(io_err("read"))?;
        let (records, salvage) = salvage_journal(&bytes)?;
        Ok((
            Self::with(Some(path.as_ref().to_path_buf()), records, None),
            salvage,
        ))
    }

    /// The backing path, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Number of records currently in the journal.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records, in commit order.
    pub fn records(&self) -> &[CkptRecord] {
        &self.records
    }

    /// Payload of the *last* record with `tag`, if present. Later commits
    /// shadow earlier ones, which gives stage-loop callers
    /// last-write-wins semantics for free.
    pub fn find(&self, tag: &str) -> Option<&[u8]> {
        self.records
            .iter()
            .rev()
            .find(|r| r.tag == tag)
            .map(|r| r.payload.as_slice())
    }

    /// Write statistics for this store instance.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Appends a record and makes it durable before returning. With an open
    /// journal file the commit encodes only the new record, appends it and
    /// syncs it (`sync_data`). Otherwise (the first commit of a created or
    /// salvaged store, or the one after a failed write) it writes the whole
    /// journal to `<path>.tmp`, `fsync`s, renames it over `path`, syncs the
    /// directory on Unix so the journal's name is as durable as its bytes,
    /// and keeps the renamed file open for later appends. On any i/o
    /// failure, a failed directory sync included, the record is still
    /// appended in memory, the file handle is dropped, and the error is
    /// returned so the caller can decide whether to continue without
    /// durability.
    pub fn commit(&mut self, tag: &str, payload: Vec<u8>) -> Result<(), CkptError> {
        assert!(tag.len() <= MAX_TAG, "checkpoint tag exceeds MAX_TAG");
        let seq = self.records.len() as u64;
        self.records.push(CkptRecord {
            seq,
            tag: tag.to_string(),
            payload,
        });
        let rec = &self.records[self.records.len() - 1];
        let Some(path) = self.path.as_deref() else {
            let header = if seq == 0 { HEADER_LEN } else { 0 };
            self.stats.commits += 1;
            self.stats.bytes_written += (header + record_len(&rec.tag, &rec.payload)) as u64;
            return Ok(());
        };
        let (file, written) = match self.file.take() {
            Some(mut file) => {
                let n = append_record(&mut file, seq, &rec.tag, &rec.payload)?;
                (file, n)
            }
            None => {
                let bytes = self.serialize();
                (timed(|| write_atomic(path, &bytes))?, bytes.len() as u64)
            }
        };
        self.file = Some(file);
        self.stats.commits += 1;
        self.stats.bytes_written += written;
        Ok(())
    }

    /// Serializes the journal to its on-disk byte image.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            HEADER_LEN
                + self
                    .records
                    .iter()
                    .map(|r| record_len(&r.tag, &r.payload))
                    .sum::<usize>(),
        );
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        for rec in &self.records {
            encode_record_into(&mut out, rec.seq, &rec.tag, &rec.payload);
        }
        out
    }
}

/// Appends one record to `file`, an open journal whose last complete record
/// is `seq - 1`, and syncs its data: the append step of
/// [`CkptStore::commit`], for writers that keep their records elsewhere
/// (the persistent eval cache). Records a `ckpt.write_us` sample and
/// returns the bytes written. After an error the file may end in a torn
/// record, which [`CkptStore::recover`] drops.
///
/// # Panics
///
/// Panics if `tag` is longer than [`MAX_TAG`].
pub fn append_record(
    file: &mut fs::File,
    seq: u64,
    tag: &str,
    payload: &[u8],
) -> Result<u64, CkptError> {
    assert!(tag.len() <= MAX_TAG, "checkpoint tag exceeds MAX_TAG");
    let mut bytes = Vec::with_capacity(record_len(tag, payload));
    encode_record_into(&mut bytes, seq, tag, payload);
    timed(|| {
        file.write_all(&bytes).map_err(io_err("write"))?;
        file.sync_data().map_err(io_err("sync"))?;
        Ok(bytes.len() as u64)
    })
}

/// Runs one file write and, if it succeeds, records its latency as a
/// `ckpt.write_us` sample: informational, never part of compared state.
fn timed<T>(write: impl FnOnce() -> Result<T, CkptError>) -> Result<T, CkptError> {
    // det-lint: allow(wall-clock): informational latency histogram only
    let t0 = std::time::Instant::now();
    let out = write()?;
    ams_trace::record("ckpt.write_us", t0.elapsed().as_micros() as f64);
    Ok(out)
}

/// Encoded length of one record: prelude, tag, payload and CRC.
fn record_len(tag: &str, payload: &[u8]) -> usize {
    PRELUDE_LEN + tag.len() + payload.len() + 8
}

/// Appends one record's on-disk bytes to `out`. Callers have checked the
/// tag against [`MAX_TAG`], so the length casts cannot truncate.
fn encode_record_into(out: &mut Vec<u8>, seq: u64, tag: &str, payload: &[u8]) {
    let start = out.len();
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(tag.len() as u16).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(tag.as_bytes());
    out.extend_from_slice(payload);
    let crc = crc64(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

fn io_err(op: &'static str) -> impl FnOnce(std::io::Error) -> CkptError {
    move |e| CkptError::Io {
        op,
        message: e.to_string(),
    }
}

/// Writes `bytes` to `<path>.tmp`, `fsync`s and renames it over `path`,
/// then syncs the directory so the new name survives a power loss;
/// returns the renamed file, still open at its end.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<fs::File, CkptError> {
    let tmp = tmp_path(path);
    let mut f = fs::File::create(&tmp).map_err(io_err("create"))?;
    f.write_all(bytes).map_err(io_err("write"))?;
    f.sync_all().map_err(io_err("sync"))?;
    fs::rename(&tmp, path).map_err(io_err("rename"))?;
    sync_dir(path)?;
    Ok(f)
}

/// Syncs the directory that holds `path`, making a rename into it
/// durable: until then, a power loss may take the new name, and every
/// record appended behind it, with it.
#[cfg(unix)]
fn sync_dir(path: &Path) -> Result<(), CkptError> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(io_err("sync_dir"))
}

/// Directory handles cannot be synced through `std` off Unix; the rename
/// is as durable as the platform makes it.
#[cfg(not(unix))]
fn sync_dir(_path: &Path) -> Result<(), CkptError> {
    Ok(())
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

fn check_header(bytes: &[u8]) -> Result<(), CkptError> {
    if bytes.len() < HEADER_LEN {
        return Err(CkptError::TruncatedHeader { len: bytes.len() });
    }
    if bytes[..8] != MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(&bytes[..8]);
        return Err(CkptError::BadMagic { found });
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != VERSION {
        return Err(CkptError::VersionSkew {
            found: version,
            supported: VERSION,
        });
    }
    Ok(())
}

/// Parses a full journal byte image strictly.
pub fn parse_journal(bytes: &[u8]) -> Result<Vec<CkptRecord>, CkptError> {
    match salvage_journal(bytes)? {
        (records, Salvage { defect: None, .. }) => Ok(records),
        (
            _,
            Salvage {
                defect: Some(e), ..
            },
        ) => Err(e),
    }
}

/// Parses the longest valid record prefix of a journal byte image. The
/// header must be intact; the first record-level defect ends the scan and
/// is reported in the [`Salvage`] instead of failing.
pub fn salvage_journal(bytes: &[u8]) -> Result<(Vec<CkptRecord>, Salvage), CkptError> {
    check_header(bytes)?;
    let mut records = Vec::new();
    let mut offset = HEADER_LEN;
    let mut defect = None;
    while offset < bytes.len() {
        match parse_record(bytes, offset, records.len()) {
            Ok((rec, next)) if rec.seq == records.len() as u64 => {
                records.push(rec);
                offset = next;
            }
            Ok((rec, _)) => {
                defect = Some(CkptError::SequenceSkew {
                    index: records.len(),
                    expected: records.len() as u64,
                    found: rec.seq,
                });
                break;
            }
            Err(e) => {
                defect = Some(e);
                break;
            }
        }
    }
    let salvage = Salvage {
        recovered: records.len(),
        dropped_bytes: bytes.len() - offset,
        defect,
    };
    Ok((records, salvage))
}

fn parse_record(
    bytes: &[u8],
    offset: usize,
    index: usize,
) -> Result<(CkptRecord, usize), CkptError> {
    let available = bytes.len() - offset;
    if available < PRELUDE_LEN {
        return Err(CkptError::TruncatedRecord {
            index,
            offset,
            needed: PRELUDE_LEN,
            available,
        });
    }
    let seq = u64::from_le_bytes(bytes[offset..offset + 8].try_into().unwrap());
    let tag_len = u16::from_le_bytes(bytes[offset + 8..offset + 10].try_into().unwrap()) as usize;
    let payload_len =
        u32::from_le_bytes(bytes[offset + 10..offset + 14].try_into().unwrap()) as usize;
    if tag_len > MAX_TAG || payload_len > MAX_PAYLOAD {
        return Err(CkptError::OversizeRecord {
            index,
            payload_len,
            tag_len,
        });
    }
    let needed = PRELUDE_LEN + tag_len + payload_len + 8;
    if available < needed {
        return Err(CkptError::TruncatedRecord {
            index,
            offset,
            needed,
            available,
        });
    }
    let body_end = offset + PRELUDE_LEN + tag_len + payload_len;
    let computed = crc64(&bytes[offset..body_end]);
    let stored = u64::from_le_bytes(bytes[body_end..body_end + 8].try_into().unwrap());
    if stored != computed {
        return Err(CkptError::ChecksumMismatch {
            index,
            stored,
            computed,
        });
    }
    let tag = std::str::from_utf8(&bytes[offset + PRELUDE_LEN..offset + PRELUDE_LEN + tag_len])
        .map_err(|_| CkptError::BadTag { index })?
        .to_string();
    let payload = bytes[offset + PRELUDE_LEN + tag_len..body_end].to_vec();
    Ok((CkptRecord { seq, tag, payload }, body_end + 8))
}

/// Captures the current trace counter totals (empty when tracing is off).
/// Paired with [`delta_since`] / [`restore_delta`] to make resumed runs
/// report byte-identical counters.
pub fn counters_now() -> BTreeMap<String, u64> {
    if ams_trace::enabled() {
        ams_trace::snapshot().counters
    } else {
        BTreeMap::new()
    }
}

/// Counter increments accrued since `base` was captured.
pub fn delta_since(base: &BTreeMap<String, u64>) -> Vec<(String, u64)> {
    ams_trace::counters_delta(base, &counters_now())
}

/// Re-applies a persisted counter delta, so work skipped on resume still
/// shows up in the final counter totals exactly as in the original run.
pub fn restore_delta(delta: &[(String, u64)]) {
    for (name, v) in delta {
        ams_trace::counter_restore(name, *v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ams_ckpt_{}_{}", std::process::id(), name));
        p
    }

    #[test]
    fn round_trip_records() {
        let path = tmp("round_trip");
        let _ = fs::remove_file(&path);
        let mut store = CkptStore::create(&path);
        store.commit("alpha", vec![1, 2, 3]).unwrap();
        store.commit("beta", b"hello".to_vec()).unwrap();
        store.commit("alpha", vec![9]).unwrap();
        assert_eq!(store.stats().commits, 3);
        assert!(store.stats().bytes_written > 0);

        let loaded = CkptStore::open(&path).unwrap();
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded.find("beta"), Some(&b"hello"[..]));
        // last-write-wins
        assert_eq!(loaded.find("alpha"), Some(&[9u8][..]));
        assert_eq!(loaded.find("gamma"), None);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn commits_append_only_the_new_record() {
        let path = tmp("append");
        let _ = fs::remove_file(&path);
        let mut store = CkptStore::create(&path);
        let mut memory = CkptStore::in_memory();
        for (i, tag) in ["alpha", "beta", "gamma"].into_iter().enumerate() {
            let payload = vec![i as u8; 10 * i];
            store.commit(tag, payload.clone()).unwrap();
            memory.commit(tag, payload).unwrap();
            // The first commit writes the header with its record; each
            // later one adds exactly its own bytes.
            let on_disk = fs::read(&path).unwrap();
            assert_eq!(on_disk, store.serialize(), "after commit {i}");
            assert_eq!(store.stats().bytes_written, on_disk.len() as u64);
        }
        // An in-memory store counts what the file got.
        assert_eq!(memory.stats(), store.stats());
        drop(store);

        // A strictly reopened journal appends too.
        let mut reopened = CkptStore::open(&path).unwrap();
        let before = fs::metadata(&path).unwrap().len();
        reopened.commit("delta", b"more".to_vec()).unwrap();
        let on_disk = fs::read(&path).unwrap();
        assert_eq!(on_disk, reopened.serialize());
        assert_eq!(
            reopened.stats().bytes_written,
            on_disk.len() as u64 - before
        );
        assert_eq!(CkptStore::open(&path).unwrap().len(), 4);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn truncation_detected() {
        let mut store = CkptStore::in_memory();
        store.commit("t", vec![0u8; 32]).unwrap();
        let bytes = store.serialize();
        for cut in (HEADER_LEN + 1)..bytes.len() {
            let err = parse_journal(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CkptError::TruncatedRecord { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn bit_flip_detected() {
        let mut store = CkptStore::in_memory();
        store.commit("t", (0..64u8).collect()).unwrap();
        let bytes = store.serialize();
        // Flip a payload bit: checksum must catch it.
        let mut bad = bytes.clone();
        let idx = HEADER_LEN + PRELUDE_LEN + 1 + 5;
        bad[idx] ^= 0x10;
        let err = parse_journal(&bad).unwrap_err();
        assert!(
            matches!(
                err,
                CkptError::ChecksumMismatch { .. }
                    | CkptError::SequenceSkew { .. }
                    | CkptError::OversizeRecord { .. }
                    | CkptError::TruncatedRecord { .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn version_skew_detected() {
        let mut bytes = CkptStore::in_memory().serialize();
        bytes[8] = 99;
        assert_eq!(
            parse_journal(&bytes).unwrap_err(),
            CkptError::VersionSkew {
                found: 99,
                supported: VERSION
            }
        );
    }

    #[test]
    fn bad_magic_detected() {
        let mut bytes = CkptStore::in_memory().serialize();
        bytes[0] = b'X';
        assert!(matches!(
            parse_journal(&bytes).unwrap_err(),
            CkptError::BadMagic { .. }
        ));
    }

    #[test]
    fn recover_salvages_valid_prefix() {
        let path = tmp("recover");
        let mut store = CkptStore::create(&path);
        store.commit("one", vec![1]).unwrap();
        store.commit("two", vec![2]).unwrap();
        store.commit("three", vec![3]).unwrap();
        // Corrupt the last record on disk.
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        assert!(CkptStore::open(&path).is_err());
        let (mut salvaged, report) = CkptStore::recover(&path).unwrap();
        assert_eq!(salvaged.len(), 2);
        assert_eq!(report.recovered, 2);
        assert!(report.dropped_bytes > 0);
        assert!(report.defect.is_some());
        assert_eq!(salvaged.find("two"), Some(&[2u8][..]));
        assert_eq!(salvaged.find("three"), None);
        // The next commit rewrites the journal without the damaged bytes.
        salvaged.commit("four", vec![4]).unwrap();
        assert_eq!(fs::read(&path).unwrap(), salvaged.serialize());
        assert_eq!(CkptStore::open(&path).unwrap().len(), 3);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn crc64_known_properties() {
        assert_eq!(crc64(b""), 0);
        assert_ne!(crc64(b"a"), crc64(b"b"));
        let x = crc64(b"checkpoint");
        assert_eq!(x, crc64(b"checkpoint"));
    }

    #[cfg(unix)]
    #[test]
    fn a_directory_that_cannot_be_synced_is_a_structured_error() {
        let path = std::env::temp_dir()
            .join(format!("ams_ckpt_no_such_dir_{}", std::process::id()))
            .join("journal");
        match sync_dir(&path) {
            Err(CkptError::Io { op, .. }) => assert_eq!(op, "sync_dir"),
            other => panic!("expected a sync_dir i/o error, got {other:?}"),
        }
        assert!(sync_dir(&tmp("dir_sync")).is_ok());
    }

    #[test]
    fn atomic_rename_leaves_no_tmp() {
        let path = tmp("atomic");
        let _ = fs::remove_file(&path);
        let mut store = CkptStore::create(&path);
        store.commit("x", vec![42]).unwrap();
        assert!(path.exists());
        assert!(!tmp_path(&path).exists());
        let _ = fs::remove_file(&path);
    }
}
