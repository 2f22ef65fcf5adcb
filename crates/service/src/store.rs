//! Durable snapshot store: crash-safe publish-to-disk and warm-restart
//! recovery for the serving stack.
//!
//! ## Durability contract
//!
//! * **Atomic publish** — a snapshot is written as a single `SNP1` envelope
//!   (layout below) via temp file → `sync_all` → atomic rename → directory
//!   fsync. A crash at any point leaves either the previous generation set
//!   or the new one — never a torn file under a live name.
//! * **Read-back verification** — [`SnapshotStore::persist`] only reports
//!   success after re-reading the renamed file and verifying its checksum,
//!   magic and version, so a silent short write or bit flip between memory
//!   and platter cannot be counted as durable (and cannot make pruning
//!   remove the last good generation).
//! * **Recovery** — [`SnapshotStore::recover`] scans the directory
//!   newest-generation-first, validates each candidate (checksum, format,
//!   embedded payloads, and — by default — the GraphAuditor deterministic
//!   suite plus the S1–S2 external-id checks), **quarantines** corrupt
//!   files by renaming them to `*.corrupt` (never deletes, never panics),
//!   and returns the newest valid generation with typed
//!   [`AnnError::CorruptFile`] context for everything it set aside.
//! * **Retention** — the newest `retain` generations are kept; older files
//!   and stale temp files are pruned best-effort *after* the new generation
//!   is durable and verified.
//!
//! All filesystem traffic goes through the [`SnapshotFs`] trait so the
//! crash-safety contract is provable: the fault-injecting implementation in
//! [`crate::faults`] simulates torn writes, short writes, bit flips,
//! ENOSPC, rename failure, and crash-between-steps, and the kill-point
//! matrix test in `tests/durability.rs` asserts recovery serves a valid
//! snapshot after a crash at *every* step.
//!
//! Since the write-ahead log landed (see [`crate::wal`]), the envelope also
//! records the **covered LSN** — the newest journal record whose effect is
//! already folded into the snapshot — and pruning respects a *WAL floor*:
//! a generation that live journal segments still replay on top of is never
//! garbage-collected, no matter how far beyond the retain-K horizon it
//! falls.
//!
//! ## Envelope format (`SNP1`, version 3)
//!
//! ```text
//! header:  magic "SNP1" (u32) | version (u16) | reserved (u16)
//!          generation (u64) | covered_lsn (u64)
//!          tau (f32) | r (u64) | l (u64) | c (u64)
//! ids:     n (u64) | n × external id (u64)
//! store:   length (u64) | VST0 frame
//! index:   length (u64) | TMG1 frame
//! attrs:   length (u64) | count (u64) | count × (external id (u64) | record)
//!          fnv1a over count ++ entries (u64)
//!          fnv1a over everything above (u64)
//! ```
//!
//! The whole envelope is one [`ann_vectors::codec`] frame, and so are the
//! vector store, the index and the attribute section inside it (the
//! section's length field excludes its own checksum). Attribute records
//! use the layout in [`crate::filter`], sorted by external id. Version 2
//! envelopes end after the index and decode with no attributes.

use ann_vectors::codec::{self, Format, Writer};
use ann_vectors::error::{AnnError, IntegrityCheck, Result};
use ann_vectors::io::{vstore_from_bytes, vstore_to_bytes};
use tau_mg::{TauIndex, TauMngParams};

use crate::filter::AttrRecord;
use crate::metrics::Metrics;
use crate::snapshot::Snapshot;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;
use crate::wal::DurabilityMode;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// The envelope; this build reads versions 2 and 3 (see the module doc).
/// The smallest envelope is the 60-byte header, two section lengths and
/// the trailer.
const SNAPSHOT: Format =
    Format { name: "snapshot", magic: 0x534E_5031, version: 3, oldest: 2, min_len: 84 };

/// The injectable filesystem surface the store runs on.
///
/// Production uses [`RealFs`]; crash-safety tests substitute
/// [`crate::faults::FaultFs`] to inject torn writes, ENOSPC, rename
/// failure, and crashes between any two steps. Every method is one
/// *fault-injection point*: the store's durability argument is that any
/// prefix of its call sequence leaves the directory recoverable.
pub trait SnapshotFs: Send + Sync + std::fmt::Debug {
    /// Create (or truncate) `path`, write all of `data`, and fsync it.
    fn write_file(&self, path: &Path, data: &[u8]) -> std::io::Result<()>;
    /// Atomically rename `from` to `to` (same directory).
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()>;
    /// Fsync a directory so a completed rename is durable.
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()>;
    /// Read an entire file.
    fn read_file(&self, path: &Path) -> std::io::Result<Vec<u8>>;
    /// List the files in a directory (full paths).
    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>>;
    /// Remove a file.
    fn remove_file(&self, path: &Path) -> std::io::Result<()>;
    /// Create a directory and its parents.
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()>;
    /// Append `data` to `path` (creating it if needed) **without** fsync.
    /// Durability of appended bytes is the caller's business — the WAL
    /// decides per [`crate::wal::DurabilityMode`] whether to follow up with
    /// [`SnapshotFs::sync_file`].
    fn append_file(&self, path: &Path, data: &[u8]) -> std::io::Result<()>;
    /// Fsync a single file (flush appended records to the platter).
    fn sync_file(&self, path: &Path) -> std::io::Result<()>;
    /// Read the bytes of `path` from offset `from` to EOF. Used by the
    /// strict-mode append read-back so verifying one record stays O(record)
    /// rather than O(segment).
    fn read_suffix(&self, path: &Path, from: u64) -> std::io::Result<Vec<u8>>;
}

/// The production [`SnapshotFs`]: plain `std::fs` with real fsyncs.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

impl SnapshotFs for RealFs {
    fn write_file(&self, path: &Path, data: &[u8]) -> std::io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::File::create(path)?;
        f.write_all(data)?;
        f.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        // Directory handles can only be fsynced on unix; elsewhere the
        // rename is as durable as the platform allows.
        #[cfg(unix)]
        {
            std::fs::File::open(dir)?.sync_all()?;
        }
        #[cfg(not(unix))]
        {
            let _ = dir;
        }
        Ok(())
    }

    fn read_file(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            out.push(entry?.path());
        }
        Ok(out)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn append_file(&self, path: &Path, data: &[u8]) -> std::io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        f.write_all(data)
    }

    fn sync_file(&self, path: &Path) -> std::io::Result<()> {
        std::fs::OpenOptions::new().append(true).open(path)?.sync_all()
    }

    fn read_suffix(&self, path: &Path, from: u64) -> std::io::Result<Vec<u8>> {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = std::fs::File::open(path)?;
        f.seek(SeekFrom::Start(from))?;
        let mut out = Vec::new();
        f.read_to_end(&mut out)?;
        Ok(out)
    }
}

/// Tuning for a [`SnapshotStore`].
#[derive(Debug, Clone, Copy)]
pub struct SnapshotStoreConfig {
    /// Generations kept on disk (≥ 1). Older files are pruned only after
    /// the newest generation is durable and read-back-verified.
    pub retain: usize,
    /// Retries after the first failed persistence attempt.
    pub max_retries: u32,
    /// Base delay of the bounded exponential backoff between retries
    /// (doubles per retry; `ZERO` disables sleeping, for tests).
    pub backoff: Duration,
    /// Run the GraphAuditor deterministic suite and the S1–S2 external-id
    /// checks on every recovered snapshot before serving it.
    pub audit_on_recover: bool,
    /// How the write-ahead log acknowledges mutations journaled between
    /// publishes (see [`DurabilityMode`]). Writers attached through this
    /// store journal under this policy; recovery replays regardless of it.
    pub durability: DurabilityMode,
}

impl Default for SnapshotStoreConfig {
    fn default() -> Self {
        SnapshotStoreConfig {
            retain: 3,
            max_retries: 3,
            backoff: Duration::from_millis(10),
            audit_on_recover: true,
            durability: DurabilityMode::Strict,
        }
    }
}

/// A snapshot reconstructed from disk: everything needed to serve it and to
/// rehydrate an [`crate::IndexWriter`] replica.
#[derive(Debug)]
pub struct RecoveredSnapshot {
    /// The frozen index (with its vector store and metric).
    pub index: TauIndex,
    /// `external_ids[internal]`, exactly as published.
    pub external_ids: Vec<u64>,
    /// The generation this snapshot was published as.
    pub generation: u64,
    /// Newest WAL LSN whose effect is folded into this snapshot. Recovery
    /// replays only journal records with a strictly greater LSN.
    pub covered_lsn: u64,
    /// Build parameters governing subsequent inserts/repairs.
    pub params: TauMngParams,
    /// Per-vector attribute records, keyed by external id (empty for v2
    /// envelopes, which predate attributes).
    pub attrs: HashMap<u64, AttrRecord>,
}

/// What a recovery scan found.
#[derive(Debug)]
pub struct RecoveryReport {
    /// The newest valid snapshot, if any generation survived validation.
    pub recovered: Option<RecoveredSnapshot>,
    /// Files that failed validation, each renamed to `*.corrupt` and paired
    /// with the typed error explaining which check rejected it. Empty on a
    /// clean directory — so `recovered: None` with an empty list means "no
    /// snapshot", while a non-empty list means "snapshots existed but were
    /// damaged": the two states the bare filesystem cannot distinguish.
    pub quarantined: Vec<(PathBuf, AnnError)>,
}

/// Generation-addressed, checksummed, crash-safe snapshot persistence.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    fs: Arc<dyn SnapshotFs>,
    config: SnapshotStoreConfig,
    /// Oldest generation the write-ahead log still replays on top of.
    /// `u64::MAX` (the default) means "no WAL constraint": pruning is pure
    /// retain-K. Writers lower this before persisting so retention can
    /// never remove a generation that journal segments depend on.
    wal_floor: AtomicU64,
    /// Maintenance lock (class `store_maint` in `audit.toml`): serializes
    /// pruning, recovery scans, and WAL-floor movement so a background
    /// [`crate::maintenance::MaintenanceScheduler`] GC pass can never
    /// remove a generation a concurrent recovery is about to load, or race
    /// a floor being raised by a publish on another thread.
    maint: Mutex<()>,
}

impl SnapshotStore {
    /// Open (creating if needed) a store over `dir` on the real filesystem.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Arc<SnapshotStore>> {
        Self::open_with_fs(dir, Arc::new(RealFs), SnapshotStoreConfig::default())
    }

    /// Open with an explicit filesystem and configuration (fault-injection
    /// tests, custom retention).
    pub fn open_with_fs(
        dir: impl Into<PathBuf>,
        fs: Arc<dyn SnapshotFs>,
        config: SnapshotStoreConfig,
    ) -> Result<Arc<SnapshotStore>> {
        let dir = dir.into();
        fs.create_dir_all(&dir)?;
        Ok(Arc::new(SnapshotStore {
            dir,
            fs,
            config,
            wal_floor: AtomicU64::new(u64::MAX),
            maint: Mutex::new(()),
        }))
    }

    /// Directory of shard `shard`'s generations under a shard-set root:
    /// `<root>/shard-<i>`. Sharded serving namespaces durable state per
    /// shard so each one persists, prunes, and recovers independently.
    pub fn shard_dir(root: &Path, shard: usize) -> PathBuf {
        root.join(format!("shard-{shard}"))
    }

    /// Open (creating if needed) shard `shard`'s store under `root` on the
    /// real filesystem.
    pub fn open_shard(root: &Path, shard: usize) -> Result<Arc<SnapshotStore>> {
        Self::open(Self::shard_dir(root, shard))
    }

    /// [`SnapshotStore::open_shard`] with an explicit filesystem and
    /// configuration (fault-injection tests, custom retention).
    pub fn open_shard_with_fs(
        root: &Path,
        shard: usize,
        fs: Arc<dyn SnapshotFs>,
        config: SnapshotStoreConfig,
    ) -> Result<Arc<SnapshotStore>> {
        Self::open_with_fs(Self::shard_dir(root, shard), fs, config)
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The store's configuration.
    pub fn config(&self) -> &SnapshotStoreConfig {
        &self.config
    }

    /// The filesystem this store (and its shard's WAL) runs on.
    pub(crate) fn fs(&self) -> &Arc<dyn SnapshotFs> {
        &self.fs
    }

    /// Declare the oldest generation that WAL segments still replay on top
    /// of. [`SnapshotStore::prune`] keeps every generation ≥ this floor
    /// regardless of retain-K, so a crash mid-churn always finds a valid
    /// replay base on disk.
    pub fn set_wal_floor(&self, generation: u64) {
        // Taken under the maintenance lock so the floor cannot move while a
        // GC pass is mid-scan deciding what is safe to remove — the classic
        // recover/prune race this store used to tolerate only because
        // nothing pruned concurrently.
        let _maint = self.maint.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        // `status()` readers on other threads combine the floor with
        // persisted-state checks (segment listings, replay bases written
        // before the floor moved), so a raised floor must never become
        // visible ahead of the persistence that justified it —
        // ordering: Release, pairing with the Acquire load in `wal_floor()`.
        self.wal_floor.store(generation, Ordering::Release);
    }

    /// The current WAL floor (`u64::MAX` when unconstrained).
    pub fn wal_floor(&self) -> u64 {
        // ordering: Acquire pairs with the Release store in `set_wal_floor`.
        self.wal_floor.load(Ordering::Acquire)
    }

    /// File name of a generation: zero-padded so lexicographic order is
    /// numeric order.
    fn file_name(generation: u64) -> String {
        format!("gen-{generation:020}.snap")
    }

    fn parse_generation(path: &Path) -> Option<u64> {
        let name = path.file_name()?.to_str()?;
        name.strip_prefix("gen-")?.strip_suffix(".snap")?.parse().ok()
    }

    /// Persist one snapshot durably (single attempt), recording
    /// `covered_lsn` — the newest WAL record folded into it — in the
    /// envelope (pass 0 when no journal is in play).
    ///
    /// Sequence: encode → write temp + fsync → rename over the generation
    /// name → directory fsync → read back and verify the checksum → prune
    /// old generations (best-effort). Returns the final path.
    ///
    /// # Errors
    /// `Io` on filesystem failure at any step; [`AnnError::CorruptFile`] if
    /// the read-back does not verify (the bytes on disk are not the bytes
    /// written — the caller should retry, and must not treat the snapshot
    /// as durable).
    pub fn persist(
        &self,
        snapshot: &Snapshot,
        params: TauMngParams,
        covered_lsn: u64,
    ) -> Result<PathBuf> {
        let generation = snapshot.generation();
        let bytes = encode_snapshot(snapshot, params, covered_lsn);
        let final_path = self.dir.join(Self::file_name(generation));
        let tmp = self.dir.join(format!("{}.tmp", Self::file_name(generation)));
        self.fs.write_file(&tmp, &bytes)?;
        if let Err(e) = self.fs.rename(&tmp, &final_path) {
            let _ = self.fs.remove_file(&tmp);
            return Err(e.into());
        }
        self.fs.sync_dir(&self.dir)?;
        let on_disk = self.fs.read_file(&final_path)?;
        codec::open(&on_disk, &SNAPSHOT).map_err(|(check, detail)| {
            AnnError::corrupt_file(&final_path, Some(generation), check, detail)
        })?;
        self.prune();
        Ok(final_path)
    }

    /// [`SnapshotStore::persist`] with bounded exponential backoff, keeping
    /// the persistence health metrics current: on success
    /// `snapshots_persisted`/`persisted_generation` advance and the
    /// `persist_failed` flag clears; on final failure `persist_failures`
    /// increments and `persist_failed` is raised. The caller keeps serving
    /// its in-memory snapshot either way.
    pub fn persist_with_retry(
        &self,
        snapshot: &Snapshot,
        params: TauMngParams,
        covered_lsn: u64,
        metrics: &Metrics,
    ) -> Result<PathBuf> {
        let mut delay = self.config.backoff;
        let mut attempt = 0u32;
        loop {
            match self.persist(snapshot, params, covered_lsn) {
                Ok(path) => {
                    metrics.snapshots_persisted.inc();
                    metrics.persisted_generation.set(snapshot.generation());
                    metrics.persist_failed.set(0);
                    return Ok(path);
                }
                Err(e) => {
                    if attempt >= self.config.max_retries {
                        metrics.persist_failures.inc();
                        metrics.persist_failed.set(1);
                        return Err(e);
                    }
                    metrics.persist_retries.inc();
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    delay = delay.saturating_mul(2);
                    attempt += 1;
                }
            }
        }
    }

    /// Generations currently on disk, ascending (unvalidated).
    pub fn generations(&self) -> Result<Vec<u64>> {
        let mut gens: Vec<u64> = self
            .fs
            .list_dir(&self.dir)?
            .iter()
            .filter_map(|p| Self::parse_generation(p))
            .collect();
        gens.sort_unstable();
        Ok(gens)
    }

    /// Load and fully validate one generation.
    ///
    /// # Errors
    /// [`AnnError::CorruptFile`] carrying the path, generation, and failing
    /// check on any validation failure; `Io` if the file cannot be read.
    pub fn load_generation(&self, generation: u64) -> Result<RecoveredSnapshot> {
        self.load_file(&self.dir.join(Self::file_name(generation)), generation)
    }

    fn load_file(&self, path: &Path, generation: u64) -> Result<RecoveredSnapshot> {
        let buf = self.fs.read_file(path)?;
        let rec = decode_snapshot(&buf).map_err(|(check, detail)| {
            AnnError::corrupt_file(path, Some(generation), check, detail)
        })?;
        if rec.generation != generation {
            return Err(AnnError::corrupt_file(
                path,
                Some(generation),
                IntegrityCheck::Bounds,
                format!(
                    "file named generation {generation} contains generation {}",
                    rec.generation
                ),
            ));
        }
        if self.config.audit_on_recover {
            audit_recovered(&rec).map_err(|detail| {
                AnnError::corrupt_file(path, Some(generation), IntegrityCheck::Payload, detail)
            })?;
        }
        Ok(rec)
    }

    /// Scan the directory and recover the newest valid generation.
    ///
    /// Candidates are validated newest-first; every file that fails an
    /// *integrity* check is renamed to `*.corrupt` (quarantined, never
    /// deleted) and reported with its typed error, while a file that merely
    /// could not be read (transient I/O) is reported but left in place. An
    /// empty directory recovers to `None` with an empty quarantine list.
    ///
    /// # Errors
    /// Only on directory-level I/O failure; per-file corruption is part of
    /// the [`RecoveryReport`], not an error.
    pub fn recover(&self) -> Result<RecoveryReport> {
        // The whole scan runs under the maintenance lock: a concurrent GC
        // pass (scheduler) or floor movement (publish) must not remove a
        // candidate between the listing and the load.
        let _maint = self.maint.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut candidates: Vec<(u64, PathBuf)> = self
            .fs
            .list_dir(&self.dir)?
            .into_iter()
            .filter_map(|p| Self::parse_generation(&p).map(|g| (g, p)))
            .collect();
        candidates.sort_unstable_by_key(|c| std::cmp::Reverse(c.0));
        let mut quarantined = Vec::new();
        for (generation, path) in candidates {
            match self.load_file(&path, generation) {
                Ok(rec) => return Ok(RecoveryReport { recovered: Some(rec), quarantined }),
                Err(e) => {
                    // Only proven integrity damage is set aside; a file the
                    // filesystem merely refused to read may be intact once
                    // the transient error clears, so it is reported but
                    // left in place for the next recovery attempt.
                    if !matches!(e, AnnError::Io(_)) {
                        self.quarantine(&path);
                    }
                    quarantined.push((path, e));
                }
            }
        }
        Ok(RecoveryReport { recovered: None, quarantined })
    }

    /// Set a corrupt file aside under a `*.corrupt` name (best-effort —
    /// recovery must proceed even on a read-only or failing disk).
    fn quarantine(&self, path: &Path) {
        let mut name = path.as_os_str().to_owned();
        name.push(".corrupt");
        let _ = self.fs.rename(path, Path::new(&name));
    }

    /// Best-effort retention: keep the newest `retain` generations, drop
    /// older ones and stale temp files. Failures are ignored — leftover
    /// files cost disk, not correctness, and recovery skips or quarantines
    /// them. Generations at or above the WAL floor are exempt: journal
    /// segments still replay on top of them, so removing one would leave
    /// acknowledged-but-unpublished writes with no base to land on.
    fn prune(&self) {
        let _maint = self.maint.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = self.prune_locked(false);
    }

    /// Verified snapshot GC for the maintenance scheduler: prune under the
    /// maintenance lock, but *fallibly* — a filesystem refusal surfaces as
    /// an error (so the scheduler can back off, retry, and account the
    /// failure against the shard's health) instead of being swallowed.
    /// Returns the number of files removed.
    ///
    /// # Errors
    /// `Io` if the directory cannot be listed or any removal is refused.
    pub fn gc(&self) -> Result<usize> {
        let _maint = self.maint.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        self.prune_locked(true)
    }

    /// Retention body; caller holds the maintenance lock. Keep the newest
    /// `retain` generations, drop older ones and stale temp files, and
    /// never touch a generation at or above the WAL floor: journal segments
    /// still replay on top of it, so removing one would leave
    /// acknowledged-but-unpublished writes with no base to land on.
    ///
    /// With `strict` unset (the publish path) failures are ignored —
    /// leftover files cost disk, not correctness, and recovery skips or
    /// quarantines them.
    fn prune_locked(&self, strict: bool) -> Result<usize> {
        let entries = match self.fs.list_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if strict => return Err(e.into()),
            Err(_) => return Ok(0),
        };
        let floor = self.wal_floor();
        let mut removed = 0usize;
        let mut gens: Vec<(u64, &PathBuf)> = entries
            .iter()
            .filter_map(|p| Self::parse_generation(p).map(|g| (g, p)))
            .collect();
        gens.sort_unstable_by_key(|g| std::cmp::Reverse(g.0));
        for (generation, path) in gens.iter().skip(self.config.retain.max(1)) {
            if *generation >= floor {
                continue;
            }
            match self.fs.remove_file(path) {
                Ok(()) => removed += 1,
                Err(e) if strict => return Err(e.into()),
                Err(_) => {}
            }
        }
        for path in &entries {
            let is_tmp = path.extension().is_some_and(|e| e == "tmp");
            if is_tmp {
                match self.fs.remove_file(path) {
                    Ok(()) => removed += 1,
                    Err(e) if strict => return Err(e.into()),
                    Err(_) => {}
                }
            }
        }
        Ok(removed)
    }
}

/// Serialize a published snapshot into the `SNP1` envelope.
pub(crate) fn encode_snapshot(
    snapshot: &Snapshot,
    params: TauMngParams,
    covered_lsn: u64,
) -> Vec<u8> {
    let index = snapshot.index();
    let store_bytes = vstore_to_bytes(index.store(), index.metric());
    let index_bytes = index.to_bytes();
    let ext = snapshot.external_ids();
    // The attribute section sorts by external id so identical snapshots
    // encode identical bytes.
    let attrs = snapshot.attrs_map();
    let mut entries: Vec<(&u64, &AttrRecord)> = attrs.iter().collect();
    entries.sort_unstable_by_key(|(e, _)| **e);
    let mut section = Writer::default();
    section.u64(entries.len() as u64);
    for (external, rec) in entries {
        crate::filter::encode_attrs(section.u64(*external), rec);
    }
    let section = section.seal();
    let sections = store_bytes.len() + index_bytes.len() + section.len();
    let mut w = SNAPSHOT.writer(100 + ext.len() * 8 + sections);
    w.u16(0).u64(snapshot.generation()).u64(covered_lsn).f32(params.tau);
    w.u64(params.r as u64).u64(params.l as u64).u64(params.c as u64);
    w.u64(ext.len() as u64).u64s(ext);
    w.bytes_u64(&store_bytes).bytes_u64(&index_bytes);
    // The section's length field excludes its own trailer.
    w.u64((section.len() - codec::TRAILER) as u64).bytes(&section).seal()
}

/// Parse and validate a full `SNP1` envelope.
pub(crate) fn decode_snapshot(buf: &[u8]) -> codec::Result<RecoveredSnapshot> {
    let (version, mut r) = codec::open(buf, &SNAPSHOT)?;
    r.u16()?; // reserved
    let (generation, covered_lsn, tau) = (r.u64()?, r.u64()?, r.f32()?);
    if !tau.is_finite() || tau < 0.0 {
        return Err((IntegrityCheck::Bounds, format!("snapshot params carry invalid tau {tau}")));
    }
    let params = TauMngParams { tau, r: r.count()?, l: r.count()?, c: r.count()? };
    let n = r.count()?;
    let external_ids = r.u64s(n)?;
    let (store, metric) = vstore_from_bytes(r.bytes_u64()?).map_err(|(_, e)| {
        (IntegrityCheck::Payload, format!("embedded vector store rejected: {e}"))
    })?;
    let index = TauIndex::from_bytes(r.bytes_u64()?, Arc::new(store), metric)
        .map_err(|e| (IntegrityCheck::Payload, format!("embedded index rejected: {e}")))?;
    let mut attrs = HashMap::new();
    if version >= 3 {
        // The section carries its own checksum, so a damaged attribute
        // table is diagnosed apart from whole-envelope rot.
        let section_len = r.count()?;
        let section = r.take(section_len.saturating_add(codec::TRAILER))?;
        let mut p = codec::unseal(section, "attribute section", 8 + codec::TRAILER)?;
        for _ in 0..p.u64()? {
            let external = p.u64()?;
            let rec = crate::filter::decode_attrs(&mut p).map_err(|(_, e)| {
                (IntegrityCheck::Payload, format!("attribute record for id {external}: {e}"))
            })?;
            if rec.is_empty() || attrs.insert(external, rec).is_some() {
                let detail = format!("empty or duplicate attribute record for id {external}");
                return Err((IntegrityCheck::Payload, detail));
            }
        }
        p.finish()?;
    }
    r.finish()?;
    if external_ids.len() != index.store().len() {
        let (e, p) = (external_ids.len(), index.store().len());
        let detail = format!("external-id table has {e} entries, index has {p} points");
        return Err((IntegrityCheck::Bounds, detail));
    }
    Ok(RecoveredSnapshot { index, external_ids, generation, covered_lsn, params, attrs })
}

/// The recovery gate: the GraphAuditor deterministic suite (structural
/// checks, sampled edge lengths, serialize round trip) plus the S1–S2
/// snapshot checks (external-id uniqueness; the tombstone oracle is vacuous
/// at recovery — a recovered snapshot has no pending deletes by
/// construction). Returns the first violations rendered as one message.
fn audit_recovered(rec: &RecoveredSnapshot) -> std::result::Result<(), String> {
    audit_serving_state(&rec.index, &rec.external_ids)
}

/// The same gate over any live (index, external-id) pair — shared by
/// recovery validation above and the post-WAL-replay re-audit in
/// [`crate::IndexWriter::from_recovered`], which must re-prove the graph
/// after folding journal records into the recovered snapshot.
pub(crate) fn audit_serving_state(
    index: &TauIndex,
    external_ids: &[u64],
) -> std::result::Result<(), String> {
    use ann_audit::{audit_external_ids, audit_tau_index, AuditOptions};
    let mut violations = audit_tau_index(index, &AuditOptions::publish_gate(None));
    violations.extend(audit_external_ids(external_ids, |_| false));
    if violations.is_empty() {
        return Ok(());
    }
    let rendered: Vec<String> = violations.iter().take(4).map(ToString::to_string).collect();
    Err(format!("graph audit rejected recovered snapshot: {}", rendered.join("; ")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::IndexWriter;
    use ann_vectors::io::fnv1a;
    use ann_vectors::metric::Metric;
    use ann_vectors::synthetic::uniform;

    fn unique_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir()
            .join("ann_service_store_tests")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn snapshot_cell(n: usize, seed: u64) -> (Arc<crate::SnapshotCell>, TauMngParams) {
        let base = Arc::new(uniform(6, n, seed));
        let knn = ann_knng::brute_force_knn_graph(Metric::L2, &base, 8).unwrap();
        let params = TauMngParams { tau: 0.15, r: 16, l: 48, c: 150 };
        let idx = tau_mg::build_tau_mng(base, Metric::L2, &knn, params).unwrap();
        let (_writer, cell) = IndexWriter::attach(idx, params, Arc::new(Metrics::new()));
        (cell, params)
    }

    #[test]
    fn envelope_roundtrip() {
        let (cell, params) = snapshot_cell(120, 1);
        let snap = cell.load();
        let bytes = encode_snapshot(&snap, params, 41);
        let rec = decode_snapshot(&bytes).unwrap();
        assert_eq!(rec.generation, 0);
        assert_eq!(rec.covered_lsn, 41);
        assert_eq!(rec.external_ids, (0..120u64).collect::<Vec<_>>());
        assert_eq!(rec.index.store().len(), 120);
        assert_eq!(rec.params.r, params.r);
        assert!((rec.params.tau - snap.index().tau()).abs() < 1e-6 || rec.params.tau == params.tau);
        audit_recovered(&rec).unwrap();
    }

    #[test]
    fn envelope_rejects_every_header_corruption() {
        let (cell, params) = snapshot_cell(60, 2);
        let bytes = encode_snapshot(&cell.load(), params, 0);
        for pos in 0..SNAPSHOT.min_len.min(bytes.len()) {
            let mut garbled = bytes.clone();
            garbled[pos] ^= 0xFF;
            assert!(decode_snapshot(&garbled).is_err(), "garbled byte {pos} accepted");
        }
        assert!(matches!(decode_snapshot(&[]), Err((IntegrityCheck::Truncated, _))));
        assert!(matches!(
            decode_snapshot(&bytes[..bytes.len() - 3]),
            Err((IntegrityCheck::Checksum, _))
        ));
    }

    #[test]
    fn envelope_reports_version_skew() {
        let (cell, params) = snapshot_cell(40, 3);
        let mut bytes = encode_snapshot(&cell.load(), params, 0);
        bytes[4] = 99; // version field
        let body_len = bytes.len() - 8;
        let sum = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        match decode_snapshot(&bytes) {
            Err((IntegrityCheck::Version, detail)) => assert!(detail.contains("99"), "{detail}"),
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn persist_recover_roundtrip_and_retention() {
        let dir = unique_dir("roundtrip");
        let store = SnapshotStore::open_with_fs(
            &dir,
            Arc::new(RealFs),
            SnapshotStoreConfig { retain: 2, ..Default::default() },
        )
        .unwrap();
        let (cell, params) = snapshot_cell(80, 4);
        let snap = cell.load();
        store.persist(&snap, params, 0).unwrap();
        assert_eq!(store.generations().unwrap(), vec![0]);
        let report = store.recover().unwrap();
        assert!(report.quarantined.is_empty());
        let rec = report.recovered.unwrap();
        assert_eq!(rec.generation, 0);
        assert_eq!(rec.external_ids.len(), 80);
    }

    #[test]
    fn recover_quarantines_corrupt_newest_and_serves_older() {
        let dir = unique_dir("quarantine");
        let store = SnapshotStore::open(&dir).unwrap();
        let (cell, params) = snapshot_cell(70, 5);
        let snap = cell.load();
        store.persist(&snap, params, 0).unwrap();
        // Hand-forge a corrupt "generation 1" file (newest).
        let bogus = dir.join(SnapshotStore::file_name(1));
        std::fs::write(&bogus, b"not a snapshot at all").unwrap();
        let report = store.recover().unwrap();
        let rec = report.recovered.unwrap();
        assert_eq!(rec.generation, 0, "must fall back to the older valid generation");
        assert_eq!(report.quarantined.len(), 1);
        assert!(matches!(report.quarantined[0].1, AnnError::CorruptFile(_)));
        assert!(!bogus.exists(), "corrupt file must be renamed away");
        let q: PathBuf = {
            let mut s = bogus.as_os_str().to_owned();
            s.push(".corrupt");
            s.into()
        };
        assert!(q.exists(), "quarantined file must be preserved, not deleted");
    }

    #[test]
    fn prune_keeps_generations_at_or_above_the_wal_floor() {
        let dir = unique_dir("walfloor");
        let store = SnapshotStore::open_with_fs(
            &dir,
            Arc::new(RealFs),
            SnapshotStoreConfig { retain: 1, ..Default::default() },
        )
        .unwrap();
        let base = Arc::new(uniform(6, 60, 9));
        let knn = ann_knng::brute_force_knn_graph(Metric::L2, &base, 8).unwrap();
        let params = TauMngParams { tau: 0.15, r: 16, l: 48, c: 150 };
        let idx = tau_mg::build_tau_mng(base, Metric::L2, &knn, params).unwrap();
        let (mut writer, cell) = IndexWriter::attach(idx, params, Arc::new(Metrics::new()));
        store.persist(&cell.load(), params, 0).unwrap();
        // Journal segments still replay on top of generation 0: pruning must
        // spare every generation at or above the floor even with retain = 1.
        store.set_wal_floor(0);
        for _ in 0..3 {
            writer.publish().unwrap();
            store.persist(&cell.load(), params, 0).unwrap();
        }
        assert_eq!(store.generations().unwrap(), vec![0, 1, 2, 3]);
        // The journal was truncated: only generation 3 and newer remain
        // replay bases, so the older ones are reclaimed at the next persist.
        store.set_wal_floor(3);
        writer.publish().unwrap();
        store.persist(&cell.load(), params, 0).unwrap();
        assert_eq!(store.generations().unwrap(), vec![3, 4]);
    }

    #[test]
    fn envelope_roundtrips_attribute_records() {
        use crate::filter::AttrValue;
        let base = Arc::new(uniform(6, 90, 11));
        let knn = ann_knng::brute_force_knn_graph(Metric::L2, &base, 8).unwrap();
        let params = TauMngParams { tau: 0.15, r: 16, l: 48, c: 150 };
        let idx = tau_mg::build_tau_mng(base, Metric::L2, &knn, params).unwrap();
        let (mut writer, cell) = IndexWriter::attach(idx, params, Arc::new(Metrics::new()));
        for ext in (0..90u64).step_by(7) {
            writer
                .set_attrs(
                    ext,
                    vec![
                        ("band".into(), AttrValue::U64(ext % 3)),
                        ("hot".into(), AttrValue::Bool(ext % 2 == 0)),
                        ("name".into(), AttrValue::Str(format!("v{ext}"))),
                    ],
                )
                .unwrap();
        }
        writer.publish().unwrap();
        let snap = cell.load();
        let bytes = encode_snapshot(&snap, params, 5);
        let rec = decode_snapshot(&bytes).unwrap();
        assert_eq!(rec.attrs.len(), snap.attr_count());
        for ext in (0..90u64).step_by(7) {
            assert_eq!(rec.attrs.get(&ext), snap.attrs_of(ext), "id {ext}");
        }
        // Determinism: encoding the same snapshot twice is byte-identical
        // (the attribute section is sorted, not hash-ordered).
        assert_eq!(bytes, encode_snapshot(&snap, params, 5));
    }

    #[test]
    fn envelope_rejects_attribute_section_corruption_at_every_byte() {
        use crate::filter::AttrValue;
        let base = Arc::new(uniform(6, 40, 12));
        let knn = ann_knng::brute_force_knn_graph(Metric::L2, &base, 8).unwrap();
        let params = TauMngParams { tau: 0.15, r: 16, l: 48, c: 150 };
        let idx = tau_mg::build_tau_mng(Arc::clone(&base), Metric::L2, &knn, params).unwrap();
        let (mut writer, cell) = IndexWriter::attach(idx, params, Arc::new(Metrics::new()));
        writer.set_attrs(3, vec![("k".into(), AttrValue::Str("vvv".into()))]).unwrap();
        writer.publish().unwrap();
        let baseline = {
            // A twin writer over the identical (deterministically rebuilt)
            // index, with the attribute set and then *cleared* before the
            // publish: same dirtiness, same compaction, same index bytes —
            // but an empty attribute payload. Its envelope length marks
            // where the attribute section (plus trailer) begins.
            let idx2 = tau_mg::build_tau_mng(base, Metric::L2, &knn, params).unwrap();
            let (mut w2, cell2) = IndexWriter::attach(idx2, params, Arc::new(Metrics::new()));
            w2.set_attrs(3, vec![("k".into(), AttrValue::Str("vvv".into()))]).unwrap();
            w2.set_attrs(3, Vec::new()).unwrap();
            w2.publish().unwrap();
            encode_snapshot(&cell2.load(), params, 0).len()
        };
        let bytes = encode_snapshot(&cell.load(), params, 0);
        assert!(bytes.len() > baseline, "attribute entries must grow the envelope");
        // The sections before the attribute table are identical in both
        // encodings, so the attribute section starts where the empty
        // envelope's 32-byte tail (len + empty payload + section checksum +
        // trailer) began. Flip every byte of it, *re-seal the outer
        // trailer*, and require the section-level validation (not the
        // whole-envelope checksum) to reject each flip.
        let attrs_start = baseline - 32;
        for pos in attrs_start..bytes.len() - 8 {
            let mut garbled = bytes.clone();
            garbled[pos] ^= 0xFF;
            let body_len = garbled.len() - 8;
            let sum = fnv1a(&garbled[..body_len]);
            garbled[body_len..].copy_from_slice(&sum.to_le_bytes());
            assert!(decode_snapshot(&garbled).is_err(), "flipped byte {pos} accepted");
        }
    }

    #[test]
    fn v2_envelope_without_attribute_section_still_decodes() {
        // Hand-build a v2 envelope: current encoding minus the attribute
        // section, with the version field and trailer rewritten.
        let (cell, params) = snapshot_cell(50, 13);
        let snap = cell.load();
        let v3 = encode_snapshot(&snap, params, 7);
        // v3 tail = attrs_len (8) + payload (8, empty count) + section
        // checksum (8) + trailer (8); a v2 file ends right after the index.
        let mut v2 = v3[..v3.len() - 32].to_vec();
        v2[4] = 2; // version
        v2[5] = 0;
        let sum = fnv1a(&v2);
        v2.extend_from_slice(&sum.to_le_bytes());
        let rec = decode_snapshot(&v2).unwrap();
        assert_eq!(rec.generation, 0);
        assert_eq!(rec.covered_lsn, 7);
        assert_eq!(rec.external_ids.len(), 50);
        assert!(rec.attrs.is_empty(), "v2 predates attributes");
        audit_recovered(&rec).unwrap();
    }

    #[test]
    fn attributes_survive_persist_and_recover() {
        use crate::filter::AttrValue;
        let dir = unique_dir("attrs");
        let store = SnapshotStore::open(&dir).unwrap();
        let base = Arc::new(uniform(6, 70, 14));
        let knn = ann_knng::brute_force_knn_graph(Metric::L2, &base, 8).unwrap();
        let params = TauMngParams { tau: 0.15, r: 16, l: 48, c: 150 };
        let idx = tau_mg::build_tau_mng(base, Metric::L2, &knn, params).unwrap();
        let (mut writer, cell) = IndexWriter::attach(idx, params, Arc::new(Metrics::new()));
        writer.set_attrs(21, vec![("tier".into(), AttrValue::U64(9))]).unwrap();
        writer.publish().unwrap();
        store.persist(&cell.load(), params, 0).unwrap();
        let rec = store.recover().unwrap().recovered.unwrap();
        assert_eq!(rec.attrs.get(&21), Some(&vec![("tier".to_string(), AttrValue::U64(9))]));
    }

    #[test]
    fn empty_directory_recovers_to_none_without_noise() {
        let dir = unique_dir("empty");
        let store = SnapshotStore::open(&dir).unwrap();
        let report = store.recover().unwrap();
        assert!(report.recovered.is_none());
        assert!(report.quarantined.is_empty());
    }
}
