//! Per-shard write-ahead log: durable mutations *between* publishes.
//!
//! The snapshot store (see [`crate::store`]) makes every *published*
//! generation crash-safe, but an insert or delete acknowledged between two
//! publishes used to live only in the writer's heap. This module closes
//! that gap with a `WAL1` journal per shard, kept in the same directory as
//! the shard's snapshots and written through the same [`SnapshotFs`] trait
//! so the fault-injection matrix covers every journal op too.
//!
//! ## Segment format (`WAL1`)
//!
//! A segment file `wal-<first_lsn:020>.wal` is a 32-byte header followed by
//! back-to-back records:
//!
//! ```text
//! header:  magic "WAL1" (u32) | version (u16) | reserved (u16)
//!          shard (u32) | reserved (u32) | first_lsn (u64)
//!          fnv1a over the preceding 24 bytes (u64)
//! record:  body_len (u32)
//!          body: lsn (u64) | shard (u32) | op (u8) | external_id (u64)
//!                [op 1, insert: dim (u32) | dim × f32]
//!                [op 3, set-attrs: attribute record, see crate::filter]
//!          fnv1a over body_len ++ body (u64)
//! ```
//!
//! Both are [`ann_vectors::codec`] frames: the header is the sealed 24-byte
//! body, a record is `body_len ++ body`, sealed. Every field is
//! little-endian. LSNs are unique and strictly increasing
//! across a shard's whole journal (gaps are legal — a failed append burns
//! its LSN so no two records can ever share one). The reader is
//! **torn-tail tolerant**: inside each segment it stops at the first byte
//! that fails validation — a crash mid-append damages only the suffix that
//! was never acknowledged.
//!
//! ## Acknowledgement policy
//!
//! [`ShardWal::append_insert`]/[`ShardWal::append_delete`] journal the
//! mutation *before* the caller applies it, under a [`DurabilityMode`]:
//!
//! | mode | fsync | read-back | acknowledged ⇒ recovered |
//! |------|-------|-----------|--------------------------|
//! | `Strict` | every record | yes (byte-compare) | yes, from any kill point |
//! | `Batched` | every `max_records` or `max_delay` | no | up to the last sync |
//! | `None` | never | no | only what the OS happened to flush |
//!
//! Strict mode re-reads the appended suffix and byte-compares it because a
//! lying disk (short write, bit flip) reports success for bytes that never
//! landed; without the read-back such a record would be acknowledged and
//! then lost to the checksum check at replay.
//!
//! A failed append marks the active segment damaged; the next append
//! rotates to a fresh segment (its name embeds the already-advanced LSN),
//! so a torn tail can never sit *between* acknowledged records.
//!
//! ## Truncation
//!
//! Publishing a generation records the covered LSN in the snapshot
//! envelope; once enough generations are durable the writer calls
//! [`ShardWal::truncate_through`] to drop every segment wholly at or below
//! the oldest retained generation's covered LSN, keeping segment count
//! bounded under sustained churn while every retained generation stays a
//! valid replay base.

use ann_vectors::codec::{self, Format, Reader, Writer};
use ann_vectors::error::{AnnError, IntegrityCheck, Result};

use crate::metrics::Metrics;
use crate::store::SnapshotFs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The segment header: a sealed 24-byte body, 32 bytes on disk.
const SEGMENT: Format =
    Format { name: "segment", magic: 0x5741_4C31, version: 1, oldest: 1, min_len: 32 };
const WAL_HEADER_LEN: usize = 32;

const OP_INSERT: u8 = 1;
const OP_DELETE: u8 = 2;
const OP_SET_ATTRS: u8 = 3;

/// When an appended mutation is acknowledged back to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityMode {
    /// Fsync and read-back-verify every record before acknowledging it.
    /// The contract: an acknowledged write survives a kill at any point.
    #[default]
    Strict,
    /// Group-commit: fsync once per `max_records` appends or once the
    /// oldest unsynced record is `max_delay` old, whichever comes first.
    /// A crash can lose at most the unsynced suffix of acknowledged writes.
    Batched {
        /// Appends between fsyncs (≥ 1; 0 behaves as 1).
        max_records: usize,
        /// Upper bound on how long an acknowledged record may sit unsynced.
        max_delay: Duration,
    },
    /// Journal without ever fsyncing: replay works after a clean process
    /// exit, but a power loss keeps only what the OS flushed on its own.
    None,
}

impl DurabilityMode {
    /// Parse a command-line spelling: `strict`, `batched`, or `none`
    /// (`batched` uses 32 records / 10 ms defaults).
    pub fn parse(s: &str) -> Option<DurabilityMode> {
        match s {
            "strict" => Some(DurabilityMode::Strict),
            "batched" => Some(DurabilityMode::Batched {
                max_records: 32,
                max_delay: Duration::from_millis(10),
            }),
            "none" => Some(DurabilityMode::None),
            _ => Option::None,
        }
    }

    /// Stable lowercase name for logs and status lines.
    pub fn name(&self) -> &'static str {
        match self {
            DurabilityMode::Strict => "strict",
            DurabilityMode::Batched { .. } => "batched",
            DurabilityMode::None => "none",
        }
    }
}

/// One journaled mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// Insert `vector` under external id `external`.
    Insert {
        /// External id the caller addresses the point by.
        external: u64,
        /// The vector payload.
        vector: Vec<f32>,
    },
    /// Delete the point addressed as `external`.
    Delete {
        /// External id of the doomed point.
        external: u64,
    },
    /// Replace the attribute record of the point addressed as `external`
    /// (an empty record clears it). Replayed idempotently by LSN:
    /// last-write-wins, exactly the original apply order.
    SetAttrs {
        /// External id whose attributes change.
        external: u64,
        /// The full replacement record (canonical form).
        attrs: crate::filter::AttrRecord,
    },
}

/// One decoded journal record.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Log sequence number: unique and strictly increasing per shard.
    pub lsn: u64,
    /// The shard that journaled the record.
    pub shard: u32,
    /// The mutation itself.
    pub op: WalOp,
}

/// What a journal-directory scan found (the input to replay).
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Valid records with LSN greater than the requested base, in order.
    pub records: Vec<WalRecord>,
    /// Segment files seen, as `(first_lsn, path)`, ascending by LSN.
    pub segments: Vec<(u64, PathBuf)>,
    /// On-disk size of each segment in [`WalReplay::segments`], aligned by
    /// index (0 for a segment the filesystem refused to read).
    pub segment_bytes: Vec<u64>,
    /// Damage tolerated during the scan (torn tails, corrupt headers,
    /// unreadable files) — reading stopped at the damage point inside each
    /// affected segment and continued with the next one.
    pub damaged: Vec<(PathBuf, AnnError)>,
    /// Newest valid LSN seen anywhere in the journal (0 if none): the
    /// resume point for new appends.
    pub last_lsn: u64,
    /// Total journal bytes scanned.
    pub bytes: u64,
}

/// Scan `dir` for `wal-*.wal` segments and decode, in LSN order, every
/// record with `lsn > after_lsn`.
///
/// Per-segment damage (a torn tail after a crash, a corrupt header, an
/// unreadable file) is tolerated and reported in [`WalReplay::damaged`];
/// within a damaged segment, records after the damage point are not
/// trusted. Only a directory-level listing failure is an error.
///
/// # Errors
/// `Io` if the directory itself cannot be listed.
pub fn read_wal_dir(fs: &Arc<dyn SnapshotFs>, dir: &Path, after_lsn: u64) -> Result<WalReplay> {
    let mut segs: Vec<(u64, PathBuf)> = fs
        .list_dir(dir)?
        .into_iter()
        .filter_map(|p| parse_segment_name(&p).map(|l| (l, p)))
        .collect();
    segs.sort_unstable_by_key(|s| s.0);
    let mut out = WalReplay { segments: segs.clone(), ..Default::default() };
    let mut last_lsn = 0u64;
    for (first_lsn, path) in &segs {
        let bytes = match fs.read_file(path) {
            Ok(b) => b,
            Err(e) => {
                out.damaged.push((path.clone(), e.into()));
                out.segment_bytes.push(0);
                continue;
            }
        };
        out.segment_bytes.push(bytes.len() as u64);
        out.bytes += bytes.len() as u64;
        let (records, damage) = scan_segment(path, &bytes, *first_lsn, &mut last_lsn);
        out.records.extend(records.into_iter().filter(|r| r.lsn > after_lsn));
        if let Some(e) = damage {
            out.damaged.push((path.clone(), e));
        }
    }
    out.last_lsn = last_lsn;
    Ok(out)
}

fn parse_segment_name(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    name.strip_prefix("wal-")?.strip_suffix(".wal")?.parse().ok()
}

fn segment_file_name(first_lsn: u64) -> String {
    format!("wal-{first_lsn:020}.wal")
}

fn encode_header(shard: u32, first_lsn: u64) -> Vec<u8> {
    SEGMENT.writer(WAL_HEADER_LEN).u16(0).u32(shard).u32(0).u64(first_lsn).seal()
}

fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut body = Writer::default();
    body.u64(rec.lsn).u32(rec.shard);
    match &rec.op {
        WalOp::Insert { external, vector } => {
            // cast: dimensionality is bounded far below u32::MAX
            body.u8(OP_INSERT).u64(*external).u32(vector.len() as u32).f32s(vector);
        }
        WalOp::Delete { external } => {
            body.u8(OP_DELETE).u64(*external);
        }
        WalOp::SetAttrs { external, attrs } => {
            crate::filter::encode_attrs(body.u8(OP_SET_ATTRS).u64(*external), attrs);
        }
    }
    let body = body.into_bytes();
    let mut w = Writer::default();
    // cast: record bodies are KiB-scale, far below u32::MAX
    w.u32(body.len() as u32).bytes(&body).seal()
}

/// Decode one segment's records, stopping (not failing) at the first byte
/// that does not validate. `last_lsn` carries the strictly-increasing LSN
/// watermark across segments.
fn scan_segment(
    path: &Path,
    bytes: &[u8],
    name_lsn: u64,
    last_lsn: &mut u64,
) -> (Vec<WalRecord>, Option<AnnError>) {
    let mut records = Vec::new();
    let damage = scan_records(bytes, name_lsn, last_lsn, &mut records)
        .err()
        .map(|(check, d)| AnnError::corrupt_wal(path, records.last().map(|r| r.lsn), check, d));
    (records, damage)
}

fn scan_records(
    bytes: &[u8],
    name_lsn: u64,
    last_lsn: &mut u64,
    records: &mut Vec<WalRecord>,
) -> codec::Result<()> {
    let mut seg = Reader::new(bytes);
    let (_, mut h) = codec::open(seg.take(WAL_HEADER_LEN)?, &SEGMENT)?;
    h.u16()?; // reserved
    let (shard, _reserved, first_lsn) = (h.u32()?, h.u32()?, h.u64()?);
    if first_lsn != name_lsn {
        let detail = format!("segment named lsn {name_lsn} declares first lsn {first_lsn}");
        return Err((IntegrityCheck::Bounds, detail));
    }
    while !seg.is_empty() {
        // A record frame is `body_len (u32) ++ body`, sealed: peek at the
        // length to find where the frame ends.
        let body_len = { seg }.u32()? as usize;
        let frame = seg.take(body_len.saturating_add(4 + codec::TRAILER))?;
        let mut r = codec::unseal(frame, "record", 4 + codec::TRAILER)?;
        r.u32()?; // body_len
        let rec = decode_body(r, shard)?;
        if rec.lsn <= *last_lsn {
            let detail = format!("lsn {} does not advance past {last_lsn}", rec.lsn);
            return Err((IntegrityCheck::Bounds, detail));
        }
        *last_lsn = rec.lsn;
        records.push(rec);
    }
    Ok(())
}

fn decode_body(mut r: Reader, segment_shard: u32) -> codec::Result<WalRecord> {
    let (lsn, shard, op, external) = (r.u64()?, r.u32()?, r.u8()?, r.u64()?);
    if shard != segment_shard {
        let detail = format!("record stamped shard {shard} inside a shard-{segment_shard} segment");
        return Err((IntegrityCheck::Bounds, detail));
    }
    let op = match op {
        OP_DELETE => WalOp::Delete { external },
        OP_INSERT => {
            let dim = r.u32()? as usize;
            WalOp::Insert { external, vector: r.f32s(dim)? }
        }
        OP_SET_ATTRS => {
            let attrs = crate::filter::decode_attrs(&mut r)
                .map_err(|(_, e)| (IntegrityCheck::Payload, format!("set-attrs record: {e}")))?;
            WalOp::SetAttrs { external, attrs }
        }
        other => return Err((IntegrityCheck::Payload, format!("unknown wal op {other}"))),
    };
    r.finish()?;
    Ok(WalRecord { lsn, shard, op })
}

#[derive(Debug)]
struct ActiveSegment {
    first_lsn: u64,
    /// Bytes written and acknowledged so far (the strict read-back offset).
    len: u64,
    /// A failed append landed unknown bytes here; rotate before appending.
    damaged: bool,
}

/// A shard's append-only journal of mutations between publishes.
///
/// Single-writer by design, like the [`crate::IndexWriter`] that owns it:
/// `&mut self` on every mutating call. All I/O goes through the injected
/// [`SnapshotFs`].
#[derive(Debug)]
pub struct ShardWal {
    dir: PathBuf,
    fs: Arc<dyn SnapshotFs>,
    mode: DurabilityMode,
    shard: u32,
    /// The next LSN to hand out. Advances on *every* append attempt,
    /// including failed ones — a failed append may still be on the platter,
    /// and no two records may ever share an LSN.
    next_lsn: u64,
    /// Sealed segments still on disk: `(first_lsn, path, bytes)`.
    sealed: Vec<(u64, PathBuf, u64)>,
    active: Option<ActiveSegment>,
    unsynced: usize,
    last_sync: Instant,
    metrics: Arc<Metrics>,
}

impl ShardWal {
    /// Start a brand-new journal in `dir` (the shard's snapshot directory).
    /// Stale segments from an earlier life of this directory are removed
    /// best-effort: the caller is about to persist a fresh generation 0
    /// that old journal records must never replay on top of.
    pub fn fresh(
        dir: impl Into<PathBuf>,
        shard: u32,
        fs: Arc<dyn SnapshotFs>,
        mode: DurabilityMode,
        metrics: Arc<Metrics>,
    ) -> ShardWal {
        let dir = dir.into();
        if let Ok(entries) = fs.list_dir(&dir) {
            for p in entries {
                if parse_segment_name(&p).is_some() {
                    let _ = fs.remove_file(&p);
                }
            }
        }
        ShardWal {
            dir,
            fs,
            mode,
            shard,
            next_lsn: 1,
            sealed: Vec::new(),
            active: None,
            unsynced: 0,
            last_sync: Instant::now(),
            metrics,
        }
    }

    /// Resume journaling after a replay: `next_lsn` must exceed every LSN
    /// present on disk (readable or not), and `segments` are the files the
    /// replay saw as `(first_lsn, path, on-disk bytes)` (they stay until
    /// truncation). New appends always open a fresh segment — recovered
    /// tails are never appended to.
    pub(crate) fn resume(
        dir: impl Into<PathBuf>,
        shard: u32,
        fs: Arc<dyn SnapshotFs>,
        mode: DurabilityMode,
        metrics: Arc<Metrics>,
        next_lsn: u64,
        sealed: Vec<(u64, PathBuf, u64)>,
    ) -> ShardWal {
        ShardWal {
            dir: dir.into(),
            fs,
            mode,
            shard,
            next_lsn: next_lsn.max(1),
            sealed,
            active: None,
            unsynced: 0,
            last_sync: Instant::now(),
            metrics,
        }
    }

    /// The durability policy this journal acknowledges under.
    pub fn mode(&self) -> DurabilityMode {
        self.mode
    }

    /// The next LSN an append would be assigned.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Segment files currently on disk (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + usize::from(self.active.is_some())
    }

    /// Bytes of journal still on disk (sealed segment sizes plus the live
    /// tail of the active segment) — the "WAL bytes beyond floor" debt that
    /// [`ShardWal::truncate_through`] pays down.
    pub fn live_bytes(&self) -> u64 {
        let sealed: u64 = self.sealed.iter().map(|s| s.2).sum();
        sealed + self.active.as_ref().map_or(0, |a| a.len)
    }

    /// Re-stamp the shard id (used once, right after a writer is adopted
    /// into a shard set and before its first append).
    pub(crate) fn set_shard(&mut self, shard: u32) {
        self.shard = shard;
    }

    fn segment_path(&self, first_lsn: u64) -> PathBuf {
        self.dir.join(segment_file_name(first_lsn))
    }

    /// Journal an insert; on `Ok` the record is acknowledged under the
    /// journal's [`DurabilityMode`] and its LSN is returned.
    ///
    /// # Errors
    /// `Io` if the filesystem refused the append or sync;
    /// [`AnnError::CorruptWal`] if strict read-back found the disk lied.
    /// Either way the mutation is **not acknowledged** and the active
    /// segment is rotated away from.
    pub fn append_insert(&mut self, external: u64, vector: &[f32]) -> Result<u64> {
        self.append(WalOp::Insert { external, vector: vector.to_vec() })
    }

    /// Journal a delete; same contract as [`ShardWal::append_insert`].
    ///
    /// # Errors
    /// See [`ShardWal::append_insert`].
    pub fn append_delete(&mut self, external: u64) -> Result<u64> {
        self.append(WalOp::Delete { external })
    }

    /// Journal an attribute replacement (canonical record, empty = clear);
    /// same contract as [`ShardWal::append_insert`].
    ///
    /// # Errors
    /// See [`ShardWal::append_insert`].
    pub fn append_set_attrs(
        &mut self,
        external: u64,
        attrs: &crate::filter::AttrRecord,
    ) -> Result<u64> {
        self.append(WalOp::SetAttrs { external, attrs: attrs.clone() })
    }

    fn append(&mut self, op: WalOp) -> Result<u64> {
        let lsn = self.next_lsn;
        self.next_lsn = lsn + 1;
        let mut data = Vec::new();
        if !matches!(&self.active, Some(a) if !a.damaged) {
            if let Some(a) = self.active.take() {
                self.sealed.push((a.first_lsn, self.segment_path(a.first_lsn), a.len));
            }
            data = encode_header(self.shard, lsn);
            self.active = Some(ActiveSegment { first_lsn: lsn, len: 0, damaged: false });
        }
        data.extend_from_slice(&encode_record(&WalRecord { lsn, shard: self.shard, op }));
        let (path, offset) = match &self.active {
            Some(a) => (self.segment_path(a.first_lsn), a.len),
            // Unreachable: the rotation above always leaves an active segment.
            Option::None => {
                return Err(AnnError::InvalidParameter("wal has no active segment".into()))
            }
        };
        match self.commit(&path, offset, &data) {
            Ok(()) => {
                if let Some(a) = &mut self.active {
                    a.len += data.len() as u64;
                }
                self.metrics.wal_appends.inc();
                self.metrics.wal_bytes.add(data.len() as u64);
                self.metrics.wal_failed.set(0);
                Ok(lsn)
            }
            Err(e) => {
                if let Some(a) = &mut self.active {
                    a.damaged = true;
                }
                self.metrics.wal_failed.set(1);
                Err(e)
            }
        }
    }

    fn commit(&mut self, path: &Path, offset: u64, data: &[u8]) -> Result<()> {
        self.fs.append_file(path, data)?;
        match self.mode {
            DurabilityMode::Strict => {
                self.fs.sync_file(path)?;
                self.metrics.wal_fsyncs.inc();
                let got = self.fs.read_suffix(path, offset)?;
                if got != data {
                    return Err(AnnError::corrupt_wal(
                        path,
                        Option::None,
                        IntegrityCheck::Checksum,
                        format!(
                            "append read-back returned {} bytes that do not match the {} written",
                            got.len(),
                            data.len()
                        ),
                    ));
                }
            }
            DurabilityMode::Batched { max_records, max_delay } => {
                self.unsynced += 1;
                if self.unsynced >= max_records.max(1) || self.last_sync.elapsed() >= max_delay {
                    self.fs.sync_file(path)?;
                    self.metrics.wal_fsyncs.inc();
                    self.unsynced = 0;
                    self.last_sync = Instant::now();
                }
            }
            DurabilityMode::None => {}
        }
        Ok(())
    }

    /// Flush batched appends to the platter now (a durability barrier for
    /// `Batched`/`None` callers; a no-op when nothing is pending).
    ///
    /// # Errors
    /// `Io` if the fsync fails; pending records stay unacknowledged-durable.
    pub fn sync(&mut self) -> Result<()> {
        let Some(a) = &self.active else { return Ok(()) };
        let path = self.segment_path(a.first_lsn);
        self.fs.sync_file(&path)?;
        self.metrics.wal_fsyncs.inc();
        self.unsynced = 0;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Drop every segment whose records are all at or below `lsn` (best
    /// effort — a failed remove costs disk, not correctness, and a later
    /// truncation retries it). Called after a publish makes a covered LSN
    /// durable in enough retained generations.
    pub fn truncate_through(&mut self, lsn: u64) {
        // Each sealed segment's last possible LSN is one less than the next
        // segment's first (or the active segment's first / next_lsn).
        let mut uppers: Vec<u64> = self.sealed.iter().skip(1).map(|s| s.0).collect();
        uppers.push(self.active.as_ref().map_or(self.next_lsn, |a| a.first_lsn));
        let mut kept = Vec::new();
        for ((first, path, bytes), upper_excl) in
            std::mem::take(&mut self.sealed).into_iter().zip(uppers)
        {
            if upper_excl.saturating_sub(1) <= lsn {
                let _ = self.fs.remove_file(&path);
                self.metrics.wal_truncated.inc();
            } else {
                kept.push((first, path, bytes));
            }
        }
        self.sealed = kept;
        if let Some(a) = &self.active {
            if self.next_lsn.saturating_sub(1) <= lsn && a.first_lsn <= lsn {
                let path = self.segment_path(a.first_lsn);
                let _ = self.fs.remove_file(&path);
                self.metrics.wal_truncated.inc();
                self.active = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::RealFs;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir()
            .join("ann_service_wal_tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn wal(dir: &Path, mode: DurabilityMode) -> ShardWal {
        ShardWal::fresh(dir, 7, Arc::new(RealFs), mode, Arc::new(Metrics::new()))
    }

    fn fs() -> Arc<dyn SnapshotFs> {
        Arc::new(RealFs)
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let dir = tmp("roundtrip");
        let mut w = wal(&dir, DurabilityMode::Strict);
        let l1 = w.append_insert(100, &[1.0, 2.0, 3.0]).unwrap();
        let l2 = w.append_delete(55).unwrap();
        let l3 = w.append_insert(101, &[4.0, 5.0, 6.0]).unwrap();
        assert_eq!((l1, l2, l3), (1, 2, 3));
        assert_eq!(w.segment_count(), 1);

        let replay = read_wal_dir(&fs(), &dir, 0).unwrap();
        assert!(replay.damaged.is_empty());
        assert_eq!(replay.last_lsn, 3);
        assert_eq!(replay.records.len(), 3);
        assert_eq!(
            replay.records[0].op,
            WalOp::Insert { external: 100, vector: vec![1.0, 2.0, 3.0] }
        );
        assert_eq!(replay.records[1].op, WalOp::Delete { external: 55 });
        assert!(replay.records.iter().all(|r| r.shard == 7));

        // Replaying past a covered LSN skips the prefix.
        let later = read_wal_dir(&fs(), &dir, 2).unwrap();
        assert_eq!(later.records.len(), 1);
        assert_eq!(later.records[0].lsn, 3);
    }

    #[test]
    fn set_attrs_records_roundtrip_and_interleave() {
        use crate::filter::{normalize_attrs, AttrValue};
        let dir = tmp("attrs");
        let mut w = wal(&dir, DurabilityMode::Strict);
        let attrs = normalize_attrs(vec![
            ("tenant".to_string(), AttrValue::Str("a".into())),
            ("tier".to_string(), AttrValue::U64(2)),
            ("hot".to_string(), AttrValue::Bool(true)),
        ])
        .unwrap();
        w.append_insert(9, &[1.0, 2.0]).unwrap();
        let l2 = w.append_set_attrs(9, &attrs).unwrap();
        let l3 = w.append_set_attrs(9, &Vec::new()).unwrap();
        assert_eq!((l2, l3), (2, 3));
        let replay = read_wal_dir(&fs(), &dir, 0).unwrap();
        assert!(replay.damaged.is_empty());
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.records[1].op, WalOp::SetAttrs { external: 9, attrs });
        assert_eq!(replay.records[2].op, WalOp::SetAttrs { external: 9, attrs: Vec::new() });
    }

    #[test]
    fn set_attrs_record_corruption_is_detected_at_every_byte() {
        use crate::filter::{normalize_attrs, AttrValue};
        let dir = tmp("attrscorrupt");
        let mut w = wal(&dir, DurabilityMode::Strict);
        let attrs = normalize_attrs(vec![("k".to_string(), AttrValue::Str("vvv".into()))]).unwrap();
        w.append_set_attrs(4, &attrs).unwrap();
        let seg = dir.join(segment_file_name(1));
        let bytes = std::fs::read(&seg).unwrap();
        // Flip every payload byte: the record checksum must catch each one.
        for pos in WAL_HEADER_LEN..bytes.len() {
            let mut garbled = bytes.clone();
            garbled[pos] ^= 0xFF;
            let mut last = 0;
            let (records, damage) = scan_segment(&seg, &garbled, 1, &mut last);
            assert!(records.is_empty(), "flip at {pos} accepted a damaged record");
            assert!(damage.is_some(), "flip at {pos} undetected");
        }
    }

    #[test]
    fn every_header_byte_flip_is_rejected() {
        let dir = tmp("headerflip");
        let mut w = wal(&dir, DurabilityMode::Strict);
        w.append_delete(1).unwrap();
        let seg = dir.join(segment_file_name(1));
        let bytes = std::fs::read(&seg).unwrap();
        for pos in 0..WAL_HEADER_LEN {
            let mut garbled = bytes.clone();
            garbled[pos] ^= 0xFF;
            let mut last = 0;
            let (records, damage) = scan_segment(&seg, &garbled, 1, &mut last);
            assert!(records.is_empty(), "byte {pos} accepted");
            assert!(damage.is_some(), "byte {pos} undetected");
        }
    }

    #[test]
    fn torn_tail_recovers_the_acknowledged_prefix() {
        let dir = tmp("torntail");
        let mut w = wal(&dir, DurabilityMode::Strict);
        for i in 0..5u64 {
            w.append_insert(i, &[i as f32, 1.0]).unwrap();
        }
        let seg = dir.join(segment_file_name(1));
        let full = std::fs::read(&seg).unwrap();
        // Truncate at every byte boundary: the reader must always return a
        // clean prefix of the five appended records, never garbage.
        for cut in 0..full.len() {
            let mut last = 0;
            let (records, _damage) = scan_segment(&seg, &full[..cut], 1, &mut last);
            for (i, r) in records.iter().enumerate() {
                assert_eq!(r.lsn, i as u64 + 1, "cut at {cut} returned a non-prefix");
            }
            assert!(records.len() <= 5);
        }
        let mut last = 0;
        let (records, damage) = scan_segment(&seg, &full, 1, &mut last);
        assert_eq!(records.len(), 5);
        assert!(damage.is_none());
    }

    #[test]
    fn record_corruption_stops_the_scan_with_context() {
        let dir = tmp("recordflip");
        let mut w = wal(&dir, DurabilityMode::Strict);
        w.append_delete(1).unwrap();
        w.append_delete(2).unwrap();
        let seg = dir.join(segment_file_name(1));
        let mut bytes = std::fs::read(&seg).unwrap();
        let second_record_at = bytes.len() - 10;
        bytes[second_record_at] ^= 0x01;
        let mut last = 0;
        let (records, damage) = scan_segment(&seg, &bytes, 1, &mut last);
        assert_eq!(records.len(), 1, "first record survives");
        let err = damage.unwrap();
        assert!(matches!(err, AnnError::CorruptWal(_)), "{err}");
        assert!(err.to_string().contains("after lsn 1"), "{err}");
    }

    #[test]
    fn failed_append_burns_the_lsn_and_rotates_the_segment() {
        let dir = tmp("rotate");
        let mut w = wal(&dir, DurabilityMode::Strict);
        w.append_delete(1).unwrap();
        // Simulate a failed append by hand: mark the segment damaged and
        // burn an LSN, as `append` does on any error.
        w.next_lsn += 1;
        if let Some(a) = &mut w.active {
            a.damaged = true;
        }
        let l3 = w.append_delete(3).unwrap();
        assert_eq!(l3, 3, "lsn 2 burned");
        assert_eq!(w.segment_count(), 2, "damaged segment sealed, fresh one opened");
        let replay = read_wal_dir(&fs(), &dir, 0).unwrap();
        assert_eq!(
            replay.records.iter().map(|r| r.lsn).collect::<Vec<_>>(),
            vec![1, 3],
            "both acknowledged records replay, across the gap"
        );
    }

    #[test]
    fn truncate_through_drops_only_wholly_covered_segments() {
        let dir = tmp("truncate");
        let mut w = wal(&dir, DurabilityMode::Strict);
        w.append_delete(1).unwrap(); // lsn 1, segment A
        if let Some(a) = &mut w.active {
            a.damaged = true; // force rotation
        }
        w.append_delete(2).unwrap(); // lsn 2, segment B
        w.append_delete(3).unwrap(); // lsn 3, segment B
        assert_eq!(w.segment_count(), 2);
        w.truncate_through(1);
        assert_eq!(w.segment_count(), 1, "segment A wholly covered, B keeps lsn 2..3");
        let replay = read_wal_dir(&fs(), &dir, 0).unwrap();
        assert_eq!(replay.records.iter().map(|r| r.lsn).collect::<Vec<_>>(), vec![2, 3]);
        w.truncate_through(3);
        assert_eq!(w.segment_count(), 0, "everything covered");
        assert!(read_wal_dir(&fs(), &dir, 0).unwrap().records.is_empty());
        // Appends continue cleanly after full truncation.
        assert_eq!(w.append_delete(9).unwrap(), 4);
    }

    #[test]
    fn fresh_wal_clears_stale_segments() {
        let dir = tmp("stale");
        let mut w = wal(&dir, DurabilityMode::Strict);
        w.append_delete(1).unwrap();
        drop(w);
        let w = wal(&dir, DurabilityMode::Strict);
        assert_eq!(w.next_lsn(), 1);
        let replay = read_wal_dir(&fs(), &dir, 0).unwrap();
        assert!(replay.records.is_empty(), "stale journal must not survive a fresh attach");
        assert!(replay.segments.is_empty());
    }

    #[test]
    fn batched_mode_syncs_on_record_count() {
        let dir = tmp("batched");
        let mode = DurabilityMode::Batched { max_records: 2, max_delay: Duration::from_secs(3600) };
        let mut w = wal(&dir, mode);
        let m = Arc::clone(&w.metrics);
        w.append_delete(1).unwrap();
        assert_eq!(m.wal_fsyncs.get(), 0, "first append batched");
        w.append_delete(2).unwrap();
        assert_eq!(m.wal_fsyncs.get(), 1, "second append hits max_records");
        w.sync().unwrap();
        assert_eq!(m.wal_fsyncs.get(), 2, "explicit barrier syncs");
    }

    #[test]
    fn durability_mode_parses_and_names() {
        assert_eq!(DurabilityMode::parse("strict"), Some(DurabilityMode::Strict));
        assert_eq!(DurabilityMode::parse("none"), Some(DurabilityMode::None));
        assert!(matches!(DurabilityMode::parse("batched"), Some(DurabilityMode::Batched { .. })));
        assert_eq!(DurabilityMode::parse("bogus"), Option::None);
        assert_eq!(DurabilityMode::Strict.name(), "strict");
        assert_eq!(DurabilityMode::default(), DurabilityMode::Strict);
    }
}
