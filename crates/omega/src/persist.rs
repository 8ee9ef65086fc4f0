//! Crash-safe tiered persistence for exact solver verdicts.
//!
//! The process-local sharded caches ([`crate::cache`]) die with the
//! process, so every restart of a long-lived deployment (`codegend`)
//! re-pays every tier-2 Omega solve. This module adds two tiers below
//! them:
//!
//! * **hot** — the existing in-memory sharded maps (unchanged; always the
//!   first and last word on a query);
//! * **warm** — the records of the on-disk log, read once and validated
//!   at open into two in-memory indexes: sat verdicts as booleans, gist
//!   results as owned payload bytes decoded on lookup;
//! * **durable** — an append-only record log (`omega-cache.log` inside
//!   the cache directory) that new tier-2 verdicts are appended to on
//!   [`flush`].
//!
//! Both persisted tiers share the hot tier's keys: sat verdicts are
//! stored under the sat cache fingerprint and gists under the gist cache
//! fingerprint, so one query has one key from the hot map to the disk.
//!
//! # Record log format (version 2)
//!
//! ```text
//! header:  magic "OMGPERS\n" | format_version u32 LE | build_fingerprint u64 LE | crc64 u64 LE
//! record:  kind u8 | payload_len u32 LE | key_hi u64 LE | key_lo u64 LE | payload | crc64 u64 LE
//! ```
//!
//! `kind` is 1 for a sat verdict (payload: one byte, 0/1) and 2 for a
//! gist result (payload: a serialized [`Conjunct`]). The CRC covers every
//! preceding byte of the record. The build fingerprint folds the crate
//! version and the record schema together, so a binary upgrade that could
//! change verdict semantics, keys or payload layout reads as **version
//! skew** rather than silently mixing formats. Version 1 logs keyed sat
//! verdicts by a separate canonical fingerprint; they read as skew.
//!
//! # Robustness contract
//!
//! The persistence layer must never turn a crash into a wrong verdict:
//!
//! * **no poisoning on disk** — only [`crate::Certainty::Exact`] results
//!   are ever appended, extending the in-memory insertion policy (a
//!   degraded verdict depends on the caller's [`crate::Limits`]; an exact
//!   one is true under any). A record that loads is therefore safe to
//!   serve to any caller.
//! * **torn writes** — recovery scans the log on open and truncates at
//!   the first short or corrupt record; everything before it survives.
//! * **corrupt records** — every record is checksummed and verified at
//!   open; a mismatch truncates from there. After open the warm tier
//!   reads only its own heap copy, so nothing can rot under it.
//! * **version skew / unwritable dirs** — each failure mode degrades to
//!   plain process-local caching, counting a structured
//!   `persist_degrade_*` reason in [`crate::stats`] so `/metrics` shows
//!   exactly why persistence is off.
//!
//! Every degradation path is exercised deterministically in CI through
//! the [`crate::faults`] persist hooks (I/O errors, short writes, bit
//! flips on the recovery scan).

use crate::conjunct::{Conjunct, Row};
use crate::faults::{self, PersistDisruption};
use crate::linexpr::ConstraintKind;
use crate::space::Space;
use crate::stats::bump;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

/// Name of the record log inside the cache directory.
pub const LOG_FILE: &str = "omega-cache.log";

/// Bumped whenever the header or record layout changes shape.
pub const FORMAT_VERSION: u32 = 2;

const MAGIC: &[u8; 8] = b"OMGPERS\n";
const HEADER_LEN: u64 = 8 + 4 + 8 + 8;
/// kind + payload_len + key (before the payload and trailing CRC).
const RECORD_HEAD: usize = 1 + 4 + 8 + 8;
const RECORD_CRC: usize = 8;
const KIND_SAT: u8 = 1;
const KIND_GIST: u8 = 2;
/// Upper bound on one payload; anything larger is treated as corruption
/// (the biggest honest gist payload is a few kilobytes).
const MAX_PAYLOAD: u32 = 1 << 24;

/// The crate-version + schema fingerprint stored in the header. Two
/// builds that disagree here must not share a log: the cache keys, the
/// payload layout, or the solver itself may differ.
fn build_fingerprint() -> u64 {
    let mut h = Crc::new();
    h.update(env!("CARGO_PKG_VERSION").as_bytes());
    h.update(&FORMAT_VERSION.to_le_bytes());
    h.update(b"sat:bool;gist:conjunct-v1");
    h.finish()
}

// ---------------------------------------------------------------------------
// Checksum: CRC-64/XZ (slice-free bitwise variant; the log is scanned once
// per boot, so simplicity beats table lookups here).
// ---------------------------------------------------------------------------

struct Crc(u64);

impl Crc {
    fn new() -> Crc {
        Crc(u64::MAX)
    }

    fn update(&mut self, bytes: &[u8]) {
        const POLY: u64 = 0x42f0_e1eb_a9ea_3693;
        for &b in bytes {
            self.0 ^= (b as u64) << 56;
            for _ in 0..8 {
                self.0 = if self.0 & (1 << 63) != 0 {
                    (self.0 << 1) ^ POLY
                } else {
                    self.0 << 1
                };
            }
        }
    }

    fn finish(self) -> u64 {
        !self.0
    }
}

fn crc64(bytes: &[u8]) -> u64 {
    let mut c = Crc::new();
    c.update(bytes);
    c.finish()
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why the persistent tier could not be brought up (or was shut back
/// down). Every variant corresponds to a `persist_degrade_*` counter and
/// leaves the solver on plain process-local caching — persistence failure
/// is never allowed to affect verdicts.
#[derive(Debug)]
pub enum PersistError {
    /// The cache directory could not be created or the log not opened for
    /// append (permissions, read-only filesystem, exotic mounts).
    Unwritable(io::Error),
    /// The log was written by an incompatible build (bad magic, different
    /// format version, or different build fingerprint). The file is left
    /// untouched for the operator; this process runs without persistence.
    VersionSkew {
        /// Version found in the header (0 when the magic itself was bad).
        found: u32,
        /// Version this build writes.
        expected: u32,
    },
    /// An I/O error while reading the log at open.
    Io(io::Error),
    /// [`init`] was called a second time; the store is process-global.
    AlreadyEnabled,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Unwritable(e) => write!(f, "cache dir unwritable: {e}"),
            PersistError::VersionSkew { found, expected } => {
                write!(
                    f,
                    "cache log version skew (found {found}, expected {expected})"
                )
            }
            PersistError::Io(e) => write!(f, "cache log i/o error: {e}"),
            PersistError::AlreadyEnabled => f.write_str("persistent cache already enabled"),
        }
    }
}

impl std::error::Error for PersistError {}

impl PersistError {
    /// Stable tag matching the `persist_degrade_*` counter the error bumps.
    pub fn as_str(&self) -> &'static str {
        match self {
            PersistError::Unwritable(_) => "unwritable",
            PersistError::VersionSkew { .. } => "version-skew",
            PersistError::Io(_) => "io",
            PersistError::AlreadyEnabled => "already-enabled",
        }
    }
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// Open-time knobs; the defaults are what [`init`] uses.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreOptions {
    /// `fdatasync` the log after every flush. Off by default: the
    /// durability target is "a clean restart re-serves everything
    /// flushed", and the OS page cache already survives process death —
    /// only whole-machine crashes lose unsynced appends, and recovery
    /// handles whatever prefix survived.
    pub fsync: bool,
}

/// What [`Store::open`] found and decided; surfaced in logs and by
/// `codegend` at boot.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpenSummary {
    /// Sat verdicts loaded into the warm index.
    pub sat_records: usize,
    /// Gist records loaded into the warm index (payloads decoded on
    /// lookup).
    pub gist_records: usize,
    /// Bytes of torn/corrupt tail truncated during recovery (0 for a
    /// clean log).
    pub truncated_bytes: u64,
}

struct WriteState {
    file: File,
    /// Serialized records not yet appended to the log.
    pending: Vec<u8>,
    /// Keys already durable or pending, to keep re-solved (hot-evicted)
    /// verdicts from appending duplicate records.
    written: HashSet<(u8, u64, u64)>,
    /// Set after a write-path failure: the warm/hot tiers keep serving,
    /// but nothing more is appended (a failed append could leave the log
    /// in a state we cannot reason about while running).
    write_disabled: bool,
    fsync: bool,
}

/// A tiered persistent cache over one directory. One instance is
/// installed process-wide by [`init`]; tests construct their own.
pub struct Store {
    /// Warm sat verdicts (tiny payloads — decoded eagerly at open).
    sat_index: HashMap<(u64, u64), bool>,
    /// Warm gist records: key → the checksummed payload bytes, decoded
    /// per lookup.
    gist_index: HashMap<(u64, u64), Box<[u8]>>,
    write: Mutex<WriteState>,
    summary: OpenSummary,
    dir: PathBuf,
}

impl Store {
    /// Opens (creating if necessary) the cache under `dir` with default
    /// options. See [`Store::open_with`].
    pub fn open(dir: impl AsRef<Path>) -> Result<Store, PersistError> {
        Store::open_with(dir, StoreOptions::default())
    }

    /// Opens the cache under `dir`: creates the directory and log if
    /// absent, validates the header, replays every intact record into the
    /// warm index, and truncates a torn/corrupt tail. The log is read
    /// once; the warm index owns everything it serves afterwards.
    ///
    /// # Errors
    ///
    /// [`PersistError::Unwritable`] when the directory or log cannot be
    /// created/opened for append; [`PersistError::VersionSkew`] when the
    /// log belongs to an incompatible build (the file is left untouched);
    /// [`PersistError::Io`] on read errors while scanning. Each error has
    /// already bumped its `persist_degrade_*` counter when returned.
    pub fn open_with(dir: impl AsRef<Path>, opts: StoreOptions) -> Result<Store, PersistError> {
        let dir = dir.as_ref().to_path_buf();
        match Store::open_inner(&dir, opts) {
            Ok(s) => Ok(s),
            Err(e) => {
                match &e {
                    PersistError::Unwritable(_) => bump!(persist_degrade_unwritable),
                    PersistError::VersionSkew { .. } => bump!(persist_degrade_version),
                    PersistError::Io(_) => bump!(persist_degrade_io),
                    PersistError::AlreadyEnabled => {}
                }
                Err(e)
            }
        }
    }

    fn open_inner(dir: &Path, opts: StoreOptions) -> Result<Store, PersistError> {
        std::fs::create_dir_all(dir).map_err(PersistError::Unwritable)?;
        let path = dir.join(LOG_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)
            .map_err(PersistError::Unwritable)?;
        let len = file.metadata().map_err(PersistError::Io)?.len();

        let mut summary = OpenSummary::default();
        let mut sat_index = HashMap::new();
        let mut gist_index = HashMap::new();

        if len < HEADER_LEN {
            // Fresh log, or a crash while the very first header was going
            // out: (re)initialize. Nothing valid can exist yet.
            if len > 0 {
                summary.truncated_bytes = len;
                bump!(persist_truncations);
            }
            file.set_len(0).map_err(PersistError::Unwritable)?;
            let mut h = Vec::with_capacity(HEADER_LEN as usize);
            h.extend_from_slice(MAGIC);
            h.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            h.extend_from_slice(&build_fingerprint().to_le_bytes());
            let crc = crc64(&h);
            h.extend_from_slice(&crc.to_le_bytes());
            file.write_all(&h).map_err(PersistError::Unwritable)?;
        } else {
            // Validate the header against this build.
            file.seek(SeekFrom::Start(0)).map_err(PersistError::Io)?;
            let mut h = vec![0u8; HEADER_LEN as usize];
            read_exact_faulted(&mut file, &mut h).map_err(PersistError::Io)?;
            let found_version = u32::from_le_bytes(h[8..12].try_into().unwrap());
            let found_fp = u64::from_le_bytes(h[12..20].try_into().unwrap());
            let found_crc = u64::from_le_bytes(h[20..28].try_into().unwrap());
            let skew = |found| PersistError::VersionSkew {
                found,
                expected: FORMAT_VERSION,
            };
            if &h[..8] != MAGIC {
                return Err(skew(0));
            }
            if crc64(&h[..20]) != found_crc
                || found_version != FORMAT_VERSION
                || found_fp != build_fingerprint()
            {
                return Err(skew(found_version));
            }

            // Replay the records from one read of the post-header body.
            // Each record is checksummed here, once; the indexes keep
            // owned copies, so `buf` is dropped after the scan.
            let mut buf = Vec::with_capacity((len - HEADER_LEN) as usize);
            read_to_end_faulted(&mut file, &mut buf).map_err(PersistError::Io)?;
            let mut rest = &buf[..];
            let mut valid_len = HEADER_LEN;
            while !rest.is_empty() {
                let Some((kind, key, payload, rec_len)) = parse_record(rest) else {
                    // Torn or corrupt tail: drop everything from here on.
                    summary.truncated_bytes = rest.len() as u64;
                    bump!(persist_truncations);
                    break;
                };
                match kind {
                    KIND_SAT => {
                        sat_index.insert(key, payload[0] != 0);
                    }
                    _ => {
                        gist_index.insert(key, payload.into());
                    }
                }
                rest = &rest[rec_len..];
                valid_len += rec_len as u64;
            }
            if summary.truncated_bytes > 0 {
                file.set_len(valid_len).map_err(PersistError::Unwritable)?;
            }
        }

        summary.sat_records = sat_index.len();
        summary.gist_records = gist_index.len();

        Ok(Store {
            sat_index,
            gist_index,
            write: Mutex::new(WriteState {
                file,
                pending: Vec::new(),
                written: HashSet::new(),
                write_disabled: false,
                fsync: opts.fsync,
            }),
            summary,
            dir: dir.to_path_buf(),
        })
    }

    /// Where this store lives.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What open found (record counts, truncation).
    pub fn open_summary(&self) -> OpenSummary {
        self.summary
    }

    /// Warm-tier sat lookup.
    pub fn lookup_sat(&self, key: (u64, u64)) -> Option<bool> {
        self.sat_index.get(&key).copied()
    }

    /// Warm-tier gist lookup: decodes the stored payload. A payload
    /// that does not decode for `space` (a foreign record under a
    /// colliding key) is a miss.
    pub fn lookup_gist(&self, key: (u64, u64), space: &Space) -> Option<Conjunct> {
        decode_conjunct(self.gist_index.get(&key)?, space)
    }

    /// Queues an exact sat verdict for the durable tier. Callers own the
    /// no-poisoning rule: only [`crate::Certainty::Exact`] verdicts may
    /// ever be recorded.
    pub fn record_sat(&self, key: (u64, u64), verdict: bool) {
        self.record(KIND_SAT, key, &[verdict as u8]);
    }

    /// Queues an exact gist result for the durable tier (see
    /// [`Store::record_sat`] on the exactness requirement).
    pub fn record_gist(&self, key: (u64, u64), out: &Conjunct) {
        self.record(KIND_GIST, key, &encode_conjunct(out));
    }

    fn record(&self, kind: u8, key: (u64, u64), payload: &[u8]) {
        let mut w = self.write.lock().unwrap_or_else(|e| e.into_inner());
        if w.write_disabled || !w.written.insert((kind, key.0, key.1)) {
            return;
        }
        // Skip keys already durable from a previous boot.
        let already = match kind {
            KIND_SAT => self.sat_index.contains_key(&key),
            _ => self.gist_index.contains_key(&key),
        };
        if already {
            return;
        }
        w.pending.push(kind);
        w.pending
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        w.pending.extend_from_slice(&key.0.to_le_bytes());
        w.pending.extend_from_slice(&key.1.to_le_bytes());
        w.pending.extend_from_slice(payload);
        let rec_start = w.pending.len() - RECORD_HEAD - payload.len();
        let crc = crc64(&w.pending[rec_start..]);
        w.pending.extend_from_slice(&crc.to_le_bytes());
        bump!(persist_writes);
    }

    /// Appends every pending record to the log. Called periodically and
    /// at shutdown by `codegend`, and by batch tools once at exit. A
    /// write failure (or an injected I/O fault / short write) counts
    /// `persist_degrade_io` and permanently disables the write path for
    /// this store — warm and hot tiers keep serving.
    ///
    /// Returns the number of bytes appended.
    pub fn flush(&self) -> usize {
        let mut w = self.write.lock().unwrap_or_else(|e| e.into_inner());
        if w.write_disabled || w.pending.is_empty() {
            return 0;
        }
        let pending = std::mem::take(&mut w.pending);
        let outcome = match faults::persist_tick() {
            Some(PersistDisruption::Io) => Err(io::Error::other("injected i/o fault")),
            Some(PersistDisruption::ShortWrite) => {
                // Model a crash mid-append: half the bytes land, then the
                // write "fails". Recovery truncates the torn record on
                // the next open.
                let half = &pending[..pending.len() / 2];
                let _ = w.file.write_all(half);
                let _ = w.file.sync_data();
                Err(io::Error::other("injected short write"))
            }
            _ => w.file.write_all(&pending).and_then(|()| {
                if w.fsync {
                    w.file.sync_data()
                } else {
                    Ok(())
                }
            }),
        };
        match outcome {
            Ok(()) => pending.len(),
            Err(_) => {
                bump!(persist_degrade_io);
                w.write_disabled = true;
                0
            }
        }
    }

    /// Number of records queued but not yet flushed (tests).
    pub fn pending_bytes(&self) -> usize {
        self.write
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pending
            .len()
    }

    /// True once a write-path failure has turned the durable tier off.
    pub fn write_disabled(&self) -> bool {
        self.write
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .write_disabled
    }
}

/// `(kind, key, payload, record length)`.
type ParsedRecord<'a> = (u8, (u64, u64), &'a [u8], usize);

/// Parses the record at the start of `rest` (the unconsumed body).
/// Returns `None` for a torn/corrupt record.
fn parse_record(rest: &[u8]) -> Option<ParsedRecord<'_>> {
    if rest.len() < RECORD_HEAD + RECORD_CRC {
        return None;
    }
    let kind = rest[0];
    if kind != KIND_SAT && kind != KIND_GIST {
        return None;
    }
    let plen = u32::from_le_bytes(rest[1..5].try_into().unwrap());
    if plen > MAX_PAYLOAD || (kind == KIND_SAT && plen != 1) {
        return None;
    }
    let plen = plen as usize;
    let total = RECORD_HEAD + plen + RECORD_CRC;
    if rest.len() < total {
        return None;
    }
    let mut body = rest[..RECORD_HEAD + plen].to_vec();
    if matches!(faults::persist_tick(), Some(PersistDisruption::BitFlip)) {
        if let Some(b) = body.last_mut() {
            *b ^= 1;
        }
    }
    let stored = u64::from_le_bytes(rest[RECORD_HEAD + plen..total].try_into().unwrap());
    if crc64(&body) != stored {
        bump!(persist_degrade_checksum);
        return None;
    }
    let key = (
        u64::from_le_bytes(rest[5..13].try_into().unwrap()),
        u64::from_le_bytes(rest[13..21].try_into().unwrap()),
    );
    Some((kind, key, &rest[RECORD_HEAD..RECORD_HEAD + plen], total))
}

/// `read_exact` with the injected-I/O-fault hook on the path.
fn read_exact_faulted(f: &mut File, buf: &mut [u8]) -> io::Result<()> {
    if matches!(faults::persist_tick(), Some(PersistDisruption::Io)) {
        return Err(io::Error::other("injected i/o fault"));
    }
    f.read_exact(buf)
}

/// `read_to_end` with the injected-I/O-fault hook on the path.
fn read_to_end_faulted(f: &mut File, buf: &mut Vec<u8>) -> io::Result<usize> {
    if matches!(faults::persist_tick(), Some(PersistDisruption::Io)) {
        return Err(io::Error::other("injected i/o fault"));
    }
    f.read_to_end(buf)
}

// ---------------------------------------------------------------------------
// Conjunct payloads
// ---------------------------------------------------------------------------

/// Gist payload layout (all integers LE):
///
/// ```text
/// n_params u16 | n_vars u16 | n_locals u16 | known_false u8
/// names: (len u16 | utf8 bytes) * (n_params + n_vars)
/// n_rows u32
/// rows: (kind u8 | coeff i64 * ncols) * n_rows
/// ```
fn encode_conjunct(c: &Conjunct) -> Vec<u8> {
    let space = c.space();
    let mut out = Vec::with_capacity(64 + c.rows().len() * 8 * 8);
    out.extend_from_slice(&(space.n_params() as u16).to_le_bytes());
    out.extend_from_slice(&(space.n_vars() as u16).to_le_bytes());
    out.extend_from_slice(&(c.n_locals() as u16).to_le_bytes());
    out.push(c.is_known_false() as u8);
    for name in space.param_names().iter().chain(space.var_names()) {
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
    }
    out.extend_from_slice(&(c.rows().len() as u32).to_le_bytes());
    for r in c.rows() {
        out.push(match r.kind {
            ConstraintKind::Eq => 0,
            ConstraintKind::Geq => 1,
        });
        for &x in &r.c {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
    out
}

/// Decodes a gist payload. Defensive on every field: a payload that
/// passed its checksum can still be foreign (hash collision across keys)
/// or malformed (a fingerprinted-but-buggy writer), and a decoder panic
/// would violate the never-affect-verdicts contract. The decoded space
/// must equal the query's (`expect_space`).
fn decode_conjunct(bytes: &[u8], expect_space: &Space) -> Option<Conjunct> {
    struct Cur<'a>(&'a [u8]);
    impl<'a> Cur<'a> {
        fn take(&mut self, n: usize) -> Option<&'a [u8]> {
            if self.0.len() < n {
                return None;
            }
            let (a, b) = self.0.split_at(n);
            self.0 = b;
            Some(a)
        }
        fn u16(&mut self) -> Option<u16> {
            Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
        }
        fn u32(&mut self) -> Option<u32> {
            Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
        }
    }
    let mut cur = Cur(bytes);
    let n_params = cur.u16()? as usize;
    let n_vars = cur.u16()? as usize;
    let n_locals = cur.u16()? as usize;
    let known_false = *cur.take(1)?.first()? != 0;
    let mut names: Vec<String> = Vec::with_capacity(n_params + n_vars);
    for _ in 0..n_params + n_vars {
        let len = cur.u16()? as usize;
        let s = std::str::from_utf8(cur.take(len)?).ok()?;
        names.push(s.to_owned());
    }
    // `Space::new` panics on duplicate names; a foreign payload must not
    // reach that assert.
    {
        let mut sorted: Vec<&str> = names.iter().map(String::as_str).collect();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return None;
        }
    }
    let params: Vec<&str> = names[..n_params].iter().map(String::as_str).collect();
    let vars: Vec<&str> = names[n_params..].iter().map(String::as_str).collect();
    let space = Space::new(&params, &vars);
    if &space != expect_space {
        return None;
    }
    let n_rows = cur.u32()? as usize;
    let ncols = 1 + n_params + n_vars + n_locals;
    let mut rows = Vec::with_capacity(n_rows.min(1024));
    for _ in 0..n_rows {
        let kind = match *cur.take(1)?.first()? {
            0 => ConstraintKind::Eq,
            1 => ConstraintKind::Geq,
            _ => return None,
        };
        let mut c = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            c.push(i64::from_le_bytes(cur.take(8)?.try_into().ok()?));
        }
        rows.push(Row::new(kind, c));
    }
    if !cur.0.is_empty() {
        return None;
    }
    Some(Conjunct::from_raw_parts(space, n_locals, rows, known_false))
}

// ---------------------------------------------------------------------------
// Process-global installation
// ---------------------------------------------------------------------------

static STORE: OnceLock<Store> = OnceLock::new();

/// Opens the cache under `dir` and installs it process-wide: from now on
/// every tier-2 sat/gist miss consults the warm tier, and every exact
/// tier-2 result is queued for the durable tier (written on [`flush`]).
///
/// # Errors
///
/// Open failures ([`PersistError`]) leave the process on plain
/// process-local caching with the corresponding `persist_degrade_*`
/// counter bumped — callers should log the reason and carry on.
/// [`PersistError::AlreadyEnabled`] when called twice.
pub fn init(dir: impl AsRef<Path>) -> Result<OpenSummary, PersistError> {
    init_with(dir, StoreOptions::default())
}

/// [`init`] with explicit [`StoreOptions`].
pub fn init_with(dir: impl AsRef<Path>, opts: StoreOptions) -> Result<OpenSummary, PersistError> {
    let store = Store::open_with(dir, opts)?;
    let summary = store.open_summary();
    STORE.set(store).map_err(|_| PersistError::AlreadyEnabled)?;
    Ok(summary)
}

/// Appends all pending records to the installed store's log (no-op when
/// none is installed). Returns the bytes appended.
pub fn flush() -> usize {
    STORE.get().map_or(0, Store::flush)
}

/// The installed store (for boot-time reporting).
pub fn installed() -> Option<&'static Store> {
    STORE.get()
}

/// Warm-tier sat probe used by [`crate::sat`]. Counts hits/misses only
/// when a store is installed, so the counters measure the tier, not its
/// absence.
pub(crate) fn sat_lookup(key: (u64, u64)) -> Option<bool> {
    let store = STORE.get()?;
    match store.lookup_sat(key) {
        Some(v) => {
            bump!(persist_hits);
            Some(v)
        }
        None => {
            bump!(persist_misses);
            None
        }
    }
}

/// Durable-tier sat insert used by [`crate::sat`] (exact verdicts only —
/// the caller enforces the no-poisoning rule, this layer just stores).
pub(crate) fn sat_record(key: (u64, u64), verdict: bool) {
    if let Some(store) = STORE.get() {
        store.record_sat(key, verdict);
    }
}

/// Warm-tier gist probe used by [`crate::gist`]. Counted separately from
/// the sat probes: sat-side hits feed the `exact_solves` accounting, gist
/// hits feed the `gist_misses` one.
pub(crate) fn gist_lookup(key: (u64, u64), space: &Space) -> Option<Conjunct> {
    let store = STORE.get()?;
    match store.lookup_gist(key, space) {
        Some(c) => {
            bump!(persist_gist_hits);
            Some(c)
        }
        None => {
            bump!(persist_gist_misses);
            None
        }
    }
}

/// Durable-tier gist insert used by [`crate::gist`] (exact results only).
pub(crate) fn gist_record(key: (u64, u64), out: &Conjunct) {
    if let Some(store) = STORE.get() {
        store.record_gist(key, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "omega-persist-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn crc_is_stable_and_sensitive() {
        let a = crc64(b"hello");
        assert_eq!(a, crc64(b"hello"));
        assert_ne!(a, crc64(b"hellp"));
        assert_ne!(crc64(b""), crc64(b"\0"));
    }

    #[test]
    fn roundtrip_sat_and_gist_across_reopen() {
        let dir = tmpdir("roundtrip");
        let k1 = (1u64, 2u64);
        let k2 = (3u64, 4u64);
        let space = Space::new(&["n"], &["i"]);
        let mut g = Conjunct::universe(&space);
        g.add_constraint(&(crate::set::var(&space, 0) - 1).geq0());
        {
            let s = Store::open(&dir).unwrap();
            s.record_sat(k1, false);
            s.record_sat(k2, true);
            s.record_gist((9, 9), &g);
            assert!(s.pending_bytes() > 0);
            assert!(s.flush() > 0);
            assert_eq!(s.flush(), 0, "second flush has nothing to do");
        }
        let s = Store::open(&dir).unwrap();
        let sum = s.open_summary();
        assert_eq!(sum.sat_records, 2);
        assert_eq!(sum.gist_records, 1);
        assert_eq!(sum.truncated_bytes, 0);
        assert_eq!(s.lookup_sat(k1), Some(false));
        assert_eq!(s.lookup_sat(k2), Some(true));
        assert_eq!(s.lookup_sat((5, 5)), None);
        let got = s.lookup_gist((9, 9), &space).expect("gist loads");
        assert_eq!(got, g);
        // Re-recording a durable key queues nothing.
        s.record_sat(k1, false);
        assert_eq!(s.pending_bytes(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_rest_survives() {
        let dir = tmpdir("torn");
        {
            let s = Store::open(&dir).unwrap();
            s.record_sat((1, 1), true);
            s.record_sat((2, 2), false);
            s.flush();
        }
        // Simulate a crash mid-append: a record head with no payload/CRC.
        let path = dir.join(LOG_FILE);
        let intact = std::fs::metadata(&path).unwrap().len();
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[KIND_SAT, 1, 0, 0, 0, 7, 7]).unwrap();
        }
        let s = Store::open(&dir).unwrap();
        let sum = s.open_summary();
        assert_eq!(sum.sat_records, 2);
        assert_eq!(sum.truncated_bytes, 7);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact);
        assert_eq!(s.lookup_sat((1, 1)), Some(true));
        // The truncated store keeps accepting new records.
        s.record_sat((3, 3), true);
        s.flush();
        drop(s);
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.open_summary().sat_records, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_truncates_from_there() {
        let dir = tmpdir("corrupt");
        {
            let s = Store::open(&dir).unwrap();
            s.record_sat((1, 1), true);
            s.record_sat((2, 2), true);
            s.record_sat((3, 3), true);
            s.flush();
        }
        let path = dir.join(LOG_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte of the middle record. Records are 30
        // bytes (21 head + 1 payload + 8 crc); the payload byte of record
        // i sits at header + 30*i + 21.
        let rec = HEADER_LEN as usize + 30 + RECORD_HEAD;
        bytes[rec] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let s = Store::open(&dir).unwrap();
        let sum = s.open_summary();
        // Record 1 survives; 2 was corrupt; 3 was after the cut.
        assert_eq!(sum.sat_records, 1);
        assert_eq!(sum.truncated_bytes, 60);
        assert_eq!(s.lookup_sat((1, 1)), Some(true));
        assert_eq!(s.lookup_sat((2, 2)), None);
        assert_eq!(s.lookup_sat((3, 3)), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_skew_is_detected_and_log_untouched() {
        let dir = tmpdir("skew");
        {
            let s = Store::open(&dir).unwrap();
            s.record_sat((1, 1), true);
            s.flush();
        }
        let path = dir.join(LOG_FILE);
        let before = std::fs::read(&path).unwrap();
        // A future version, and version 1 (whose sat records were keyed
        // by a different fingerprint). Fix the header CRC so only the
        // version differs.
        for version in [0x7f, 1] {
            let mut bytes = before.clone();
            bytes[8..12].copy_from_slice(&u32::to_le_bytes(version));
            let crc = crc64(&bytes[..20]).to_le_bytes();
            bytes[20..28].copy_from_slice(&crc);
            std::fs::write(&path, &bytes).unwrap();
            match Store::open(&dir) {
                Err(PersistError::VersionSkew { found, expected }) => {
                    assert_eq!(found, version);
                    assert_eq!(expected, FORMAT_VERSION);
                }
                Err(other) => panic!("expected version skew, got {other:?}"),
                Ok(_) => panic!("expected version skew, got a working store"),
            }
            assert_eq!(
                std::fs::read(&path).unwrap(),
                bytes,
                "skewed log must be left untouched"
            );
        }
        // Foreign magic reads as skew too.
        std::fs::write(&path, b"NOTACACHEFILE-LONG-ENOUGH-TO-PASS-LEN").unwrap();
        assert!(matches!(
            Store::open(&dir),
            Err(PersistError::VersionSkew { found: 0, .. })
        ));
        std::fs::write(&path, &before).unwrap();
        assert!(Store::open(&dir).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unwritable_dir_degrades() {
        // A file where the directory should be makes create_dir_all fail.
        let dir = tmpdir("unwritable");
        let blocked = dir.join("blocked");
        std::fs::write(&blocked, b"a file, not a dir").unwrap();
        assert!(matches!(
            Store::open(blocked.join("cache")),
            Err(PersistError::Unwritable(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gist_space_mismatch_is_a_miss() {
        let dir = tmpdir("space-mismatch");
        let space = Space::new(&["n"], &["i"]);
        let other = Space::new(&["m"], &["k"]);
        let g = Conjunct::universe(&space);
        {
            let s = Store::open(&dir).unwrap();
            s.record_gist((4, 4), &g);
            s.flush();
        }
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.lookup_gist((4, 4), &other), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn conjunct_codec_roundtrip() {
        let space = Space::new(&["n", "m"], &["i", "j"]);
        let mut c = Conjunct::universe(&space);
        c.add_constraint(&(crate::set::var(&space, 0) * 3 - 7).geq0());
        c.add_congruence(&crate::set::var(&space, 1), 2, 5);
        let bytes = encode_conjunct(&c);
        let back = decode_conjunct(&bytes, &space).expect("decodes");
        assert_eq!(back, c);
        // Truncated payloads and trailing garbage are rejected, not panics.
        for cut in 0..bytes.len() {
            let _ = decode_conjunct(&bytes[..cut], &space);
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(decode_conjunct(&longer, &space), None);
        // Duplicate names must not reach Space::new's assert. Names start
        // at offset 7 as [len u16]['a'][len u16]['b']; the 'b' byte sits
        // at 7 + 2 + 1 + 2 = 12 — overwrite it to make both names "a".
        let mut dup = encode_conjunct(&Conjunct::universe(&Space::new(&["a"], &["b"])));
        assert_eq!(dup[12], b'b');
        dup[12] = b'a';
        let fixed_space = Space::new(&["a"], &["b"]);
        assert_eq!(decode_conjunct(&dup, &fixed_space), None);
    }

    #[test]
    fn empty_dir_creates_header_only_log() {
        let dir = tmpdir("fresh");
        let s = Store::open(dir.join("sub")).unwrap();
        let sum = s.open_summary();
        assert_eq!(sum.sat_records + sum.gist_records, 0);
        assert_eq!(
            std::fs::metadata(dir.join("sub").join(LOG_FILE))
                .unwrap()
                .len(),
            HEADER_LEN
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
