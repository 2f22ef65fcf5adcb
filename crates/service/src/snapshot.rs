//! Immutable index snapshots and the single-writer publish cycle.
//!
//! The serving model is classic read-copy-update at the index granularity:
//!
//! * readers grab an `Arc<Snapshot>` from the [`SnapshotCell`] (one brief
//!   `RwLock` read for the `Arc` clone) and then search entirely lock-free
//!   against the frozen [`TauIndex`] inside;
//! * one [`IndexWriter`] owns a [`DynamicTauMng`] replica, applies inserts
//!   and tombstone deletes there, and on [`IndexWriter::publish`] compacts
//!   it into a fresh frozen index that is atomically swapped into the cell.
//!
//! Readers therefore never see a half-updated graph: every snapshot they
//! can hold is either a compacted index in which deleted points simply do
//! not exist, or that same frozen index republished with a **deletion
//! filter** ([`IndexWriter::publish_tombstones`]) — an O(deletes)
//! incremental publish that makes deletes reader-visible without paying a
//! full compaction. The read path compiles the deletion filter (plus any
//! attribute filter) into one bit per internal id, from bits and attribute
//! postings built once per snapshot, and answers from it by scanning the
//! admitted rows or walking the graph with a beam widened by the exact
//! admitted fraction; the accumulated *tombstone debt* is repaid by the
//! next full [`IndexWriter::publish`], normally driven by the background
//! [`crate::maintenance::MaintenanceScheduler`].
//!
//! Compaction remaps internal `u32` ids, so snapshots carry a table of
//! stable **external ids** (`u64`, assigned at insert and never reused).
//! All results leaving this crate are external ids.

use ann_graph::{BitFilter, Scratch, SearchStats};
use ann_vectors::error::{AnnError, Result};
use tau_mg::{DynamicTauMng, TauIndex, TauMngParams, TauSearchOptions};

use crate::filter::{normalize_attrs, AttrPostings, AttrRecord, FilterExpr};
use crate::metrics::Metrics;
use crate::store::{RecoveredSnapshot, SnapshotStore};
use crate::sync::RwLock;
use crate::wal::{ShardWal, WalOp};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::sync::OnceLock;
use std::time::Instant;

/// One query's answer in external-id space.
#[derive(Debug, Clone)]
pub struct Hit {
    /// External ids, nearest first.
    pub ids: Vec<u64>,
    /// Matching distances.
    pub dists: Vec<f32>,
    /// Traversal accounting (NDC, hops, QEO skips).
    pub stats: SearchStats,
}

/// An immutable, searchable publication of the index.
///
/// The frozen index and the id table live behind `Arc`s so an incremental
/// tombstone publish ([`IndexWriter::publish_tombstones`]) can re-wrap them
/// without copying a single vector or edge — only the deletion filter and
/// the generation stamp change.
#[derive(Debug)]
pub struct Snapshot {
    index: Arc<TauIndex>,
    /// `external_ids[internal]` — stable across compactions.
    external_ids: Arc<Vec<u64>>,
    /// Externals deleted since the last full compaction but still present
    /// in the frozen graph. The read path filters them; empty for freshly
    /// compacted snapshots.
    tombstones: Arc<HashSet<u64>>,
    /// Per-vector attribute records, keyed by external id (absent = no
    /// attributes). Shared with the writer copy-on-write, so incremental
    /// publishes stay O(deletes).
    attrs: Arc<HashMap<u64, AttrRecord>>,
    generation: u64,
    published_at: Instant,
    /// One bit per internal id that is not tombstoned; built on the first
    /// filtered or tombstoned query.
    live: OnceLock<BitFilter>,
    /// `attrs` inverted over internal ids; built on the first
    /// attribute-filtered query. Shared with the next incremental publish
    /// when that keeps both the id table and the attribute map.
    postings: Arc<OnceLock<AttrPostings>>,
}

impl Snapshot {
    fn new(
        index: Arc<TauIndex>,
        external_ids: Arc<Vec<u64>>,
        tombstones: Arc<HashSet<u64>>,
        attrs: Arc<HashMap<u64, AttrRecord>>,
        generation: u64,
    ) -> Snapshot {
        Snapshot {
            index,
            external_ids,
            tombstones,
            attrs,
            generation,
            published_at: Instant::now(),
            live: OnceLock::new(),
            postings: Arc::default(),
        }
    }

    /// The frozen index being served.
    pub fn index(&self) -> &TauIndex {
        &self.index
    }

    /// Number of points physically present in this snapshot's graph —
    /// including tombstoned ones, so it is the right size for
    /// [`Scratch::new`]. See [`Snapshot::live_len`] for the logical count.
    pub fn len(&self) -> usize {
        self.external_ids.len()
    }

    /// Number of points a reader can actually receive: graph points minus
    /// the deletion filter.
    pub fn live_len(&self) -> usize {
        self.external_ids.len() - self.tombstones.len()
    }

    /// Whether the snapshot is empty (never true for published snapshots —
    /// compaction of an empty index is an error upstream).
    pub fn is_empty(&self) -> bool {
        self.external_ids.is_empty()
    }

    /// Number of externals hidden by the deletion filter (0 for freshly
    /// compacted snapshots).
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.len()
    }

    /// Whether `external` is present in the graph but hidden from readers.
    pub fn is_tombstoned(&self, external: u64) -> bool {
        self.tombstones.contains(&external)
    }

    /// Monotone publish counter (0 for the initial snapshot).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Seconds since this snapshot was published.
    pub fn age_secs(&self) -> f64 {
        self.published_at.elapsed().as_secs_f64()
    }

    /// External id of an internal slot, or `None` for out-of-range slots.
    ///
    /// Checked rather than indexing: this sits on the serving path, and a
    /// stale or hostile internal id must degrade to "no such point", never
    /// to a reader panic.
    pub fn external_id(&self, internal: u32) -> Option<u64> {
        self.external_ids.get(internal as usize).copied()
    }

    /// The full internal→external id table, in internal order.
    pub fn external_ids(&self) -> &[u64] {
        &self.external_ids
    }

    /// τ-monotonic search returning external ids.
    pub fn search(&self, query: &[f32], k: usize, l: usize, scratch: &mut Scratch) -> Hit {
        self.search_filtered(query, k, l, None, scratch)
    }

    /// Allocation-free variant of [`Snapshot::search`] for the sharded
    /// fan-out path: results are appended to caller-owned buffers (cleared
    /// first) so a worker can reuse one pair per shard across queries.
    pub fn search_into(
        &self,
        query: &[f32],
        k: usize,
        l: usize,
        scratch: &mut Scratch,
        ids: &mut Vec<u64>,
        dists: &mut Vec<f32>,
    ) -> SearchStats {
        self.search_filtered_into(query, k, l, None, scratch, ids, dists)
    }

    /// Filtered τ-monotonic search: only points whose attribute record
    /// matches `expr` (and that are not tombstoned) can appear in the
    /// result. `expr = None` is [`Snapshot::search`].
    ///
    /// The deletion filter and `expr` are compiled into a bitset whose
    /// popcount is the exact number of admitted points. Few
    /// admitted points are scanned exactly; otherwise the graph is walked
    /// (non-matching points steer the beam but never take a result slot)
    /// with the beam widened by the exact admitted fraction. Either way the
    /// answer holds `min(k, admitted)` points — a walk that comes back
    /// short is finished by the scan (see [`tau_mg::tau_search_planned`]).
    pub fn search_filtered(
        &self,
        query: &[f32],
        k: usize,
        l: usize,
        expr: Option<&FilterExpr>,
        scratch: &mut Scratch,
    ) -> Hit {
        let mut ids = Vec::new();
        let mut dists = Vec::new();
        let stats = self.search_filtered_into(query, k, l, expr, scratch, &mut ids, &mut dists);
        Hit { ids, dists, stats }
    }

    /// Allocation-free variant of [`Snapshot::search_filtered`]: the one
    /// read path every search above and the sharded fan-out go through.
    #[allow(clippy::too_many_arguments)]
    pub fn search_filtered_into(
        &self,
        query: &[f32],
        k: usize,
        l: usize,
        expr: Option<&FilterExpr>,
        scratch: &mut Scratch,
        ids: &mut Vec<u64>,
        dists: &mut Vec<f32>,
    ) -> SearchStats {
        ids.clear();
        dists.clear();
        let r = if expr.is_none() && self.tombstones.is_empty() {
            // Fast arm for freshly compacted snapshots with nothing to
            // filter: the unfiltered search, bit-identical to the
            // pre-filter read path.
            tau_mg::tau_search(&self.index, query, k, l, TauSearchOptions::default(), scratch)
        } else if self.external_ids.is_empty() || k == 0 {
            return SearchStats::default();
        } else {
            // Tombstones or an attribute filter: plan from the compiled
            // bits. Their count is this shard's own, so a shard with few
            // deletes does not pay for a sibling's debt.
            let allowed = self.compiled(expr);
            let opts = TauSearchOptions::default();
            tau_mg::tau_search_planned(&self.index, query, k, l, opts, &allowed, scratch).0
        };
        ids.reserve(r.ids.len().min(k));
        dists.reserve(r.dists.len().min(k));
        for (&internal, &d) in r.ids.iter().zip(&r.dists) {
            if ids.len() == k {
                break;
            }
            // An in-range id is an index invariant; if it ever breaks,
            // drop the hit rather than panic under a reader.
            debug_assert!((internal as usize) < self.external_ids.len());
            if let Some(e) = self.external_id(internal) {
                ids.push(e);
                dists.push(d);
            }
        }
        r.stats
    }

    /// The deletion filter plus `expr`, as one bit per internal id.
    ///
    /// The deletion bits and the attribute postings are built once per
    /// snapshot; `expr` is compiled from them per query, at a cost of the
    /// ids it names plus a few word operations per 64 points. So a query
    /// costs the same whether its expression is new or repeated, and the
    /// bits can never outlive the tombstones and attributes they came from.
    fn compiled(&self, expr: Option<&FilterExpr>) -> Cow<'_, BitFilter> {
        let n = self.external_ids.len();
        let live = once(&self.live, || {
            BitFilter::from_fn(n, |internal| {
                let ext = self.external_ids.get(internal as usize);
                ext.is_some_and(|ext| !self.tombstones.contains(ext))
            })
        });
        let Some(expr) = expr else {
            return Cow::Borrowed(live);
        };
        let postings =
            once(&self.postings, || AttrPostings::build(&self.external_ids, &self.attrs));
        let mut words = postings.eval(expr);
        words.iter_mut().zip(live.words()).for_each(|(w, l)| *w &= l);
        Cow::Owned(BitFilter::from_words(n, words))
    }

    /// Attribute record of `external`, or `None` if it has none (deleted
    /// points drop their attributes with the vector).
    pub fn attrs_of(&self, external: u64) -> Option<&AttrRecord> {
        self.attrs.get(&external)
    }

    /// Number of externals carrying a non-empty attribute record.
    pub fn attr_count(&self) -> usize {
        self.attrs.len()
    }

    /// The full attribute map, for the persistence layer.
    pub(crate) fn attrs_map(&self) -> &Arc<HashMap<u64, AttrRecord>> {
        &self.attrs
    }
}

/// `cell`'s value, computed by `init` on first use. Nothing is locked while
/// computing: readers racing on an empty cell each compute the same value
/// and the first one stored is kept.
fn once<T>(cell: &OnceLock<T>, init: impl FnOnce() -> T) -> &T {
    if let Some(value) = cell.get() {
        return value;
    }
    let value = init();
    cell.get_or_init(|| value)
}

/// The swap point between the writer and the readers.
///
/// A `RwLock<Arc<_>>` rather than bare atomics: the lock is held only for
/// the duration of an `Arc` clone or store (no search, no allocation), so
/// contention is negligible, and it needs no unsafe code.
#[derive(Debug)]
pub struct SnapshotCell {
    current: RwLock<Arc<Snapshot>>,
}

impl SnapshotCell {
    /// Cell serving `initial`.
    pub fn new(initial: Arc<Snapshot>) -> Self {
        SnapshotCell { current: RwLock::new(initial) }
    }

    /// The snapshot to serve this request from. The returned `Arc` keeps
    /// that snapshot alive even if the writer publishes mid-search.
    pub fn load(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// Atomically replace the served snapshot.
    pub fn publish(&self, snapshot: Arc<Snapshot>) {
        *self.current.write().unwrap_or_else(std::sync::PoisonError::into_inner) = snapshot;
    }
}

/// The single writer: owns the mutable replica and the id mappings.
///
/// Exactly one writer should exist per [`SnapshotCell`]; it is `Send` (move
/// it to a maintenance thread) but deliberately not shareable.
pub struct IndexWriter {
    dynamic: DynamicTauMng,
    params: TauMngParams,
    /// internal id (in `dynamic`) → external id.
    ext_of_internal: Vec<u64>,
    /// external id → live internal id.
    int_of_external: HashMap<u64, u32>,
    next_external: u64,
    generation: u64,
    cell: Arc<SnapshotCell>,
    metrics: Arc<Metrics>,
    /// Durable store each publication is persisted to, when configured.
    store: Option<Arc<SnapshotStore>>,
    /// Last persistence failure (rendered), cleared by the next success.
    /// Persistence failures never fail a publish: the in-memory swap has
    /// already happened and readers keep being served.
    last_persist_error: Option<String>,
    /// Which [`crate::metrics::ShardMetrics`] slot this writer reports to
    /// (0 for the unsharded service).
    shard: usize,
    /// Whether the replica has mutations not yet published.
    dirty: bool,
    /// The shard's write-ahead log, present exactly when `store` is: every
    /// insert/delete is journaled *before* it is applied or acknowledged.
    wal: Option<ShardWal>,
    /// Newest LSN acknowledged through the journal (0 before any append);
    /// recorded as the covered LSN of the next persisted snapshot.
    last_lsn: u64,
    /// Apply the cache-aware BFS relayout to every publication (default on).
    /// Pure internal relabeling: external ids are stable, results are
    /// bit-identical; only memory locality of the served graph changes.
    relayout: bool,
    /// Generations believed durable on disk, oldest first, paired with the
    /// covered LSN each was persisted with; trimmed to the store's retain-K.
    /// Drives the WAL floor (prune protection) and journal truncation.
    durable: VecDeque<(u64, u64)>,
    /// Points in the frozen base index the cell currently serves: internals
    /// `0..base_len` are base points, internals `>= base_len` are inserts
    /// applied to the replica since the last full publish (invisible to
    /// readers until the next compaction).
    base_len: usize,
    /// Externals deleted from the base set since the last full publish.
    /// These are the candidates for an incremental tombstone publish; a
    /// full publish drops them from the graph and clears this set.
    base_tombstones: HashSet<u64>,
    /// How many of `base_tombstones` are already reader-visible (published
    /// in the serving snapshot's deletion filter).
    published_tombstones: usize,
    /// Live inserts applied since the last full publish (deleting such a
    /// point cancels the pair — neither was ever reader-visible).
    inserts_pending: usize,
    /// Attribute records of live externals, shared copy-on-write with every
    /// published snapshot (`Arc::make_mut` clones only when a snapshot still
    /// holds the map, and publication itself is an O(1) `Arc` clone).
    attrs: Arc<HashMap<u64, AttrRecord>>,
}

impl IndexWriter {
    /// Wrap a frozen index for serving: returns the writer and the cell the
    /// readers (an [`crate::AnnService`]) should load from. The index's
    /// existing points get external ids `0..n` in internal order.
    ///
    /// `params` governs subsequent inserts/repairs; its τ is overridden by
    /// the index's τ.
    pub fn attach(
        index: TauIndex,
        params: TauMngParams,
        metrics: Arc<Metrics>,
    ) -> (IndexWriter, Arc<SnapshotCell>) {
        let n = index.store().len();
        let external_ids: Vec<u64> = (0..n as u64).collect();
        // cast: initial external ids are identity-mapped slots, all < n <= u32::MAX.
        let int_of_external = external_ids.iter().map(|&e| (e, e as u32)).collect();
        Self::attach_inner(index, external_ids, int_of_external, n as u64, params, metrics, None)
    }

    /// [`IndexWriter::attach`] with a caller-chosen external-id table — the
    /// sharded path, where a shard serves a routed subset of a global id
    /// space rather than identity ids. `external_ids[i]` names the point in
    /// internal slot `i`; the id allocator resumes above the maximum.
    ///
    /// When `store` is given, the initial snapshot is persisted as with
    /// [`IndexWriter::attach_durable`].
    ///
    /// # Errors
    /// `InvalidParameter` if the table length does not match the index's
    /// point count or the ids are not unique.
    pub fn attach_with_ids(
        index: TauIndex,
        external_ids: Vec<u64>,
        params: TauMngParams,
        metrics: Arc<Metrics>,
        store: Option<Arc<SnapshotStore>>,
    ) -> Result<(IndexWriter, Arc<SnapshotCell>)> {
        let n = index.store().len();
        if external_ids.len() != n {
            return Err(AnnError::InvalidParameter(format!(
                "external id table has {} entries for an index of {n} points",
                external_ids.len()
            )));
        }
        let int_of_external: HashMap<u64, u32> =
            // cast: slot index < n <= u32::MAX (enforced by the store).
            external_ids.iter().enumerate().map(|(i, &e)| (e, i as u32)).collect();
        if int_of_external.len() != n {
            return Err(AnnError::InvalidParameter(
                "external ids must be unique within a shard".into(),
            ));
        }
        let next_external = external_ids.iter().max().map_or(0, |&m| m + 1);
        Ok(Self::attach_inner(
            index,
            external_ids,
            int_of_external,
            next_external,
            params,
            metrics,
            store,
        ))
    }

    fn attach_inner(
        index: TauIndex,
        external_ids: Vec<u64>,
        int_of_external: HashMap<u64, u32>,
        next_external: u64,
        params: TauMngParams,
        metrics: Arc<Metrics>,
        store: Option<Arc<SnapshotStore>>,
    ) -> (IndexWriter, Arc<SnapshotCell>) {
        let dynamic = DynamicTauMng::from_index_with_params(&index, params);
        let params = dynamic.params();
        let base_len = external_ids.len();
        let attrs: Arc<HashMap<u64, AttrRecord>> = Arc::new(HashMap::new());
        let cell = Arc::new(SnapshotCell::new(Arc::new(Snapshot::new(
            Arc::new(index),
            Arc::new(external_ids.clone()),
            Arc::new(HashSet::new()),
            Arc::clone(&attrs),
            0,
        ))));
        // A fresh attach starts a fresh journal: any segments left over from
        // an earlier life of the directory must not replay on top of the new
        // generation 0 about to be persisted.
        let wal = store.as_ref().map(|st| {
            ShardWal::fresh(
                st.dir(),
                0,
                Arc::clone(st.fs()),
                st.config().durability,
                Arc::clone(&metrics),
            )
        });
        let mut writer = IndexWriter {
            dynamic,
            params,
            ext_of_internal: external_ids,
            int_of_external,
            next_external,
            generation: 0,
            cell: Arc::clone(&cell),
            metrics,
            store,
            last_persist_error: None,
            shard: 0,
            dirty: false,
            wal,
            last_lsn: 0,
            durable: VecDeque::new(),
            relayout: true,
            base_len,
            base_tombstones: HashSet::new(),
            published_tombstones: 0,
            inserts_pending: 0,
            attrs,
        };
        if let Some(sm) = writer.metrics.shard(writer.shard) {
            sm.points.set(writer.dynamic.len() as u64);
        }
        if writer.store.is_some() {
            writer.persist_current();
        }
        (writer, cell)
    }

    /// [`IndexWriter::attach`] plus durable persistence: every publication
    /// (including the initial snapshot, as generation 0) is written to
    /// `store`. A persistence failure degrades gracefully — it is recorded
    /// in the metrics (`persist_failed`) and in
    /// [`IndexWriter::last_persist_error`], and serving continues from the
    /// in-memory snapshot.
    pub fn attach_durable(
        index: TauIndex,
        params: TauMngParams,
        metrics: Arc<Metrics>,
        store: Arc<SnapshotStore>,
    ) -> (IndexWriter, Arc<SnapshotCell>) {
        let n = index.store().len();
        let external_ids: Vec<u64> = (0..n as u64).collect();
        // cast: identity-mapped slots, all < n <= u32::MAX.
        let int_of_external = external_ids.iter().map(|&e| (e, e as u32)).collect();
        Self::attach_inner(
            index,
            external_ids,
            int_of_external,
            n as u64,
            params,
            metrics,
            Some(store),
        )
    }

    /// Warm-start a writer from a snapshot recovered off disk (see
    /// [`SnapshotStore::recover`]): the cell immediately serves the
    /// recovered generation, external ids resume exactly where they left
    /// off, and the generation counter continues from the recovered one.
    ///
    /// When `store` is given, any write-ahead-log records newer than the
    /// snapshot's covered LSN are replayed into the replica and republished,
    /// so every mutation acknowledged before the crash is serving again. The
    /// replayed publication is re-audited when the store's
    /// `audit_on_recover` is set.
    ///
    /// # Errors
    /// `CorruptIndex` if the replayed publication fails its audit; `Io` if
    /// the journal directory cannot be listed or a segment cannot be read
    /// (recovery fails closed rather than dropping acknowledged writes it
    /// cannot see). Journal segments with *integrity* damage are not errors
    /// — replay stops at the first invalid record, which is exactly the
    /// acknowledged prefix under strict durability.
    pub fn from_recovered(
        recovered: RecoveredSnapshot,
        metrics: Arc<Metrics>,
        store: Option<Arc<SnapshotStore>>,
    ) -> Result<(IndexWriter, Arc<SnapshotCell>)> {
        let RecoveredSnapshot { index, external_ids, generation, params, covered_lsn, attrs } =
            recovered;
        let attrs = Arc::new(attrs);
        let dynamic = DynamicTauMng::from_index_with_params(&index, params);
        let params = dynamic.params();
        let int_of_external =
            // cast: slot index < n <= u32::MAX, guaranteed by the envelope decoder.
            external_ids.iter().enumerate().map(|(i, &e)| (e, i as u32)).collect();
        let next_external = external_ids.iter().max().map_or(0, |&m| m + 1);
        let base_len = external_ids.len();
        let cell = Arc::new(SnapshotCell::new(Arc::new(Snapshot::new(
            Arc::new(index),
            Arc::new(external_ids.clone()),
            Arc::new(HashSet::new()),
            Arc::clone(&attrs),
            generation,
        ))));
        // The recovered generation is already durable; nothing to persist.
        metrics.persisted_generation.set(generation);
        let mut writer = IndexWriter {
            dynamic,
            params,
            ext_of_internal: external_ids,
            int_of_external,
            next_external,
            generation,
            cell: Arc::clone(&cell),
            metrics,
            store,
            last_persist_error: None,
            shard: 0,
            dirty: false,
            wal: None,
            last_lsn: covered_lsn,
            durable: VecDeque::from([(generation, covered_lsn)]),
            relayout: true,
            base_len,
            base_tombstones: HashSet::new(),
            published_tombstones: 0,
            inserts_pending: 0,
            attrs,
        };
        if let Some(sm) = writer.metrics.shard(writer.shard) {
            sm.points.set(writer.dynamic.len() as u64);
            sm.persisted_generation.set(generation);
        }
        if let Some(store) = writer.store.clone() {
            writer.replay_wal(&store)?;
        }
        Ok((writer, cell))
    }

    /// Replay journal records newer than the recovered snapshot's covered
    /// LSN, then resume journaling above everything on disk. Called once
    /// from [`IndexWriter::from_recovered`].
    fn replay_wal(&mut self, store: &Arc<SnapshotStore>) -> Result<()> {
        let replay = crate::wal::read_wal_dir(store.fs(), store.dir(), self.last_lsn)?;
        // Torn tails (integrity damage) are the expected residue of a crash
        // mid-append and replay simply stops there. A segment the filesystem
        // *refused to read* is different: the acknowledged suffix may exist
        // but be unknowable, so fail closed instead of silently dropping it.
        if let Some((path, e)) = replay.damaged.iter().find(|(_, e)| matches!(e, AnnError::Io(_))) {
            return Err(AnnError::Io(std::io::Error::other(format!(
                "wal replay: segment {} unreadable: {e}; failing closed rather than \
                 dropping acknowledged writes",
                path.display()
            ))));
        }
        let mut applied = 0u64;
        for rec in &replay.records {
            match &rec.op {
                WalOp::Insert { external, vector } => {
                    // Replay is replace-on-conflict: a live id means an
                    // earlier incarnation survived in the snapshot while a
                    // later journaled insert re-used it — the later (higher
                    // LSN) write wins, mirroring the original apply order.
                    if let Some(internal) = self.int_of_external.remove(external) {
                        if let Err(e) = self.dynamic.delete(internal) {
                            self.int_of_external.insert(*external, internal);
                            self.last_persist_error = Some(format!(
                                "wal replay: displacing live id {external} failed: {e}"
                            ));
                            continue;
                        }
                        self.note_delete(*external, internal);
                        self.dirty = true;
                    }
                    match self.dynamic.insert(vector) {
                        Ok(internal) => {
                            debug_assert_eq!(internal as usize, self.ext_of_internal.len());
                            self.ext_of_internal.push(*external);
                            self.int_of_external.insert(*external, internal);
                            self.next_external = self.next_external.max(external + 1);
                            self.inserts_pending += 1;
                            self.dirty = true;
                            applied += 1;
                        }
                        // Inapplicable records (wrong dimension, capacity)
                        // were never applied before the crash either; skip.
                        Err(e) => {
                            self.last_persist_error =
                                Some(format!("wal replay: insert {external} skipped: {e}"));
                        }
                    }
                }
                WalOp::Delete { external } => {
                    let Some(internal) = self.int_of_external.remove(external) else {
                        continue;
                    };
                    match self.dynamic.delete(internal) {
                        Ok(()) => {
                            self.note_delete(*external, internal);
                            self.dirty = true;
                            applied += 1;
                        }
                        Err(e) => {
                            self.int_of_external.insert(*external, internal);
                            self.last_persist_error =
                                Some(format!("wal replay: delete {external} skipped: {e}"));
                        }
                    }
                }
                WalOp::SetAttrs { external, attrs } => {
                    // Last-write-wins by LSN. Records for ids that did not
                    // survive replay (deleted later, or whose insert was
                    // skipped as inapplicable) are skipped too: attributes
                    // never outlive their vector.
                    if self.int_of_external.contains_key(external) {
                        let map = Arc::make_mut(&mut self.attrs);
                        if attrs.is_empty() {
                            map.remove(external);
                        } else {
                            map.insert(*external, attrs.clone());
                        }
                        self.dirty = true;
                        applied += 1;
                    }
                }
            }
            self.last_lsn = rec.lsn;
        }
        self.metrics.wal_replayed.add(applied);
        // Resume above every LSN seen on disk — including the name-LSN of
        // every segment file: a torn first append leaves a segment whose
        // only record is unreadable, and reusing its name would append into
        // the torn bytes.
        let max_segment = replay.segments.iter().map(|&(first, _)| first).max().unwrap_or(0);
        let next_lsn = replay.last_lsn.max(self.last_lsn).max(max_segment) + 1;
        self.wal = Some(ShardWal::resume(
            store.dir(),
            self.shard as u32, // cast: shard counts are tiny.
            Arc::clone(store.fs()),
            store.config().durability,
            Arc::clone(&self.metrics),
            next_lsn,
            replay
                .segments
                .into_iter()
                .zip(replay.segment_bytes)
                .map(|((first, path), bytes)| (first, path, bytes))
                .collect(),
        ));
        if self.dirty {
            // Fold the replayed mutations into a durable publication so the
            // journal can be truncated. A failed publish (e.g. replay
            // deleted every point) keeps the writer dirty; the records stay
            // journaled and serving continues from the recovered snapshot.
            if self.publish().is_ok() && store.config().audit_on_recover {
                let snap = self.cell.load();
                crate::store::audit_serving_state(snap.index(), snap.external_ids())
                    .map_err(AnnError::CorruptIndex)?;
            }
        }
        Ok(())
    }

    /// Re-home this writer's per-shard metrics onto slot `shard` (shards of
    /// a [`crate::ShardSet`] share one registry; the default slot is 0).
    pub(crate) fn set_shard(&mut self, shard: usize) {
        self.shard = shard;
        if let Some(wal) = &mut self.wal {
            wal.set_shard(shard as u32); // cast: shard counts are tiny.
        }
        if let Some(sm) = self.metrics.shard(shard) {
            sm.points.set(self.dynamic.len() as u64);
            if self.store.is_some() && self.last_persist_error.is_none() {
                sm.persisted_generation.set(self.generation);
            }
        }
    }

    /// Whether the replica holds mutations not yet published.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Toggle the cache-aware BFS relayout applied to every publication
    /// (on by default). Purely an internal-layout decision: results and
    /// external ids are identical either way, so this exists for A/B
    /// measurement (bench E11) rather than correctness.
    pub fn set_relayout(&mut self, on: bool) {
        self.relayout = on;
    }

    /// Whether publications get the BFS relayout.
    pub fn relayout_enabled(&self) -> bool {
        self.relayout
    }

    /// Number of live points in the writer's replica (may differ from the
    /// published snapshot until the next [`IndexWriter::publish`]).
    pub fn len(&self) -> usize {
        self.dynamic.len()
    }

    /// Whether the replica has no live points.
    pub fn is_empty(&self) -> bool {
        self.dynamic.is_empty()
    }

    /// Tombstones accumulated since the last publish.
    pub fn pending_deletes(&self) -> usize {
        self.dynamic.num_deleted()
    }

    /// Generation of the most recently published snapshot.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Insert a vector into the replica, returning its stable external id.
    /// Visible to readers after the next [`IndexWriter::publish`].
    ///
    /// # Errors
    /// Propagates [`DynamicTauMng::insert`] validation errors.
    pub fn insert(&mut self, v: &[f32]) -> Result<u64> {
        let ext = self.next_external;
        self.insert_with_id(ext, v)?;
        Ok(ext)
    }

    /// Insert a vector under a caller-allocated external id (the sharded
    /// path: the [`crate::ShardSetWriter`] allocates ids globally and routes
    /// each to its owning shard). The local allocator is bumped past
    /// `external` so plain [`IndexWriter::insert`] never collides with it.
    ///
    /// # Errors
    /// `InvalidParameter` if `external` is already live in this writer;
    /// `Io`/`CorruptWal` if the write-ahead log refused to acknowledge the
    /// mutation (durable writers only — nothing is applied in that case);
    /// propagates [`DynamicTauMng::insert`] validation errors.
    pub fn insert_with_id(&mut self, external: u64, v: &[f32]) -> Result<u64> {
        if self.int_of_external.contains_key(&external) {
            return Err(AnnError::InvalidParameter(format!(
                "external id {external} is already live in this shard"
            )));
        }
        // Journal before apply: an error here means the mutation was never
        // acknowledged and the replica is untouched.
        if let Some(wal) = &mut self.wal {
            self.last_lsn = wal.append_insert(external, v)?;
        }
        let internal = self.dynamic.insert(v)?;
        self.next_external = self.next_external.max(external + 1);
        debug_assert_eq!(internal as usize, self.ext_of_internal.len());
        self.ext_of_internal.push(external);
        self.int_of_external.insert(external, internal);
        self.inserts_pending += 1;
        self.dirty = true;
        Ok(external)
    }

    /// Tombstone an external id in the replica. The point stays visible to
    /// readers until the next publish (snapshots are immutable), then is
    /// gone for good.
    ///
    /// # Errors
    /// `IdOutOfRange` for unknown or already-deleted external ids;
    /// `Io`/`CorruptWal` if the write-ahead log refused to acknowledge the
    /// mutation (durable writers only — the point stays live in that case).
    pub fn delete(&mut self, external: u64) -> Result<()> {
        let internal = self
            .int_of_external
            .remove(&external)
            .ok_or(AnnError::IdOutOfRange { id: external, len: self.next_external })?;
        if let Some(wal) = &mut self.wal {
            match wal.append_delete(external) {
                Ok(lsn) => self.last_lsn = lsn,
                Err(e) => {
                    self.int_of_external.insert(external, internal);
                    return Err(e);
                }
            }
        }
        match self.dynamic.delete(internal) {
            Ok(()) => {
                self.note_delete(external, internal);
                self.dirty = true;
                Ok(())
            }
            Err(e) => {
                self.int_of_external.insert(external, internal);
                Err(e)
            }
        }
    }

    /// Debt bookkeeping for a successful delete: a base point becomes a
    /// candidate for the next tombstone publish; deleting a not-yet-visible
    /// insert cancels the pair instead.
    fn note_delete(&mut self, external: u64, internal: u32) {
        if (internal as usize) < self.base_len {
            self.base_tombstones.insert(external);
        } else {
            self.inserts_pending = self.inserts_pending.saturating_sub(1);
        }
        // Attributes never outlive their vector. Guarded so the common
        // attribute-free delete does not force a copy-on-write clone of a
        // map a published snapshot still shares.
        if self.attrs.contains_key(&external) {
            Arc::make_mut(&mut self.attrs).remove(&external);
        }
    }

    /// Whether this writer currently owns `external` (live, not deleted).
    pub fn contains(&self, external: u64) -> bool {
        self.int_of_external.contains_key(&external)
    }

    /// Attach (or replace) the attribute record of a live external id. An
    /// empty record clears the attributes. Journaled before apply like every
    /// other mutation; reader-visible at the next publish (full or
    /// incremental).
    ///
    /// # Errors
    /// `InvalidParameter` if the record violates the attribute ceilings
    /// (see [`crate::filter::normalize_attrs`]); `IdOutOfRange` for unknown
    /// or deleted external ids; `Io`/`CorruptWal` if the write-ahead log
    /// refused to acknowledge the mutation (nothing is applied then).
    pub fn set_attrs(&mut self, external: u64, attrs: AttrRecord) -> Result<()> {
        let attrs = normalize_attrs(attrs)?;
        self.set_attrs_normalized(external, attrs)
    }

    fn set_attrs_normalized(&mut self, external: u64, attrs: AttrRecord) -> Result<()> {
        if !self.int_of_external.contains_key(&external) {
            return Err(AnnError::IdOutOfRange { id: external, len: self.next_external });
        }
        if let Some(wal) = &mut self.wal {
            self.last_lsn = wal.append_set_attrs(external, &attrs)?;
        }
        let map = Arc::make_mut(&mut self.attrs);
        if attrs.is_empty() {
            map.remove(&external);
        } else {
            map.insert(external, attrs);
        }
        self.dirty = true;
        Ok(())
    }

    /// [`IndexWriter::insert`] plus an attribute record in one call. The
    /// record is validated *before* the vector is inserted, so a bad record
    /// leaves the writer untouched; a WAL failure on the attribute append
    /// after a successful insert leaves the vector live without attributes
    /// (and returns the error).
    ///
    /// # Errors
    /// As [`IndexWriter::insert`] and [`IndexWriter::set_attrs`].
    pub fn insert_with_attrs(&mut self, v: &[f32], attrs: AttrRecord) -> Result<u64> {
        let attrs = normalize_attrs(attrs)?;
        let ext = self.next_external;
        self.insert_with_id(ext, v)?;
        if !attrs.is_empty() {
            self.set_attrs_normalized(ext, attrs)?;
        }
        Ok(ext)
    }

    /// [`IndexWriter::insert_with_id`] plus an attribute record — the
    /// sharded path, mirroring [`IndexWriter::insert_with_attrs`].
    pub fn insert_with_id_attrs(
        &mut self,
        external: u64,
        v: &[f32],
        attrs: AttrRecord,
    ) -> Result<u64> {
        let attrs = normalize_attrs(attrs)?;
        self.insert_with_id(external, v)?;
        if !attrs.is_empty() {
            self.set_attrs_normalized(external, attrs)?;
        }
        Ok(external)
    }

    /// Attribute record the writer currently holds for `external` (pending
    /// publication), if any.
    pub fn attrs_of(&self, external: u64) -> Option<&AttrRecord> {
        self.attrs.get(&external)
    }

    /// Compact the replica (dropping tombstones, repairing the graph) and
    /// atomically publish the result. Returns the new generation.
    ///
    /// In-flight searches keep their old snapshot alive via its `Arc`;
    /// subsequent loads see the new one.
    ///
    /// # Errors
    /// `EmptyDataset` if every point has been deleted.
    pub fn publish(&mut self) -> Result<u64> {
        self.publish_at(self.generation + 1)
    }

    /// [`IndexWriter::publish`] at a caller-chosen generation number — the
    /// sharded path, where shards of one set stamp their snapshots with the
    /// *set* generation so a merged reply can report one coherent number.
    /// `generation` must exceed the writer's current generation.
    pub(crate) fn publish_at(&mut self, generation: u64) -> Result<u64> {
        if generation <= self.generation {
            return Err(AnnError::InvalidParameter(format!(
                "publish generation {generation} must exceed current {}",
                self.generation
            )));
        }
        let (index, remap) = self.dynamic.compact()?;
        let mut external_ids = vec![0u64; index.store().len()];
        for (old, slot) in remap.iter().enumerate() {
            if let Some(new_id) = slot {
                external_ids[*new_id as usize] = self.ext_of_internal[old];
            }
        }
        // Cache-aware relayout: renumber the compacted index in BFS order
        // from its entry and permute the external-id table in lockstep.
        // Internal ids never escape the snapshot, so readers only observe
        // the improved locality.
        let (index, external_ids) = if self.relayout {
            let (index, order) = index.relayout_bfs();
            let permuted: Vec<u64> = order.iter().map(|&old| external_ids[old as usize]).collect();
            (index, permuted)
        } else {
            (index, external_ids)
        };
        // Debug builds audit every publication before readers can see it:
        // a violation here means a writer bug was about to become
        // reader-visible corruption. `self.int_of_external` still holds the
        // pre-publish live set, so it is the tombstone oracle.
        #[cfg(debug_assertions)]
        self.debug_audit_publication(&index, &external_ids);
        // Re-adopt the compacted index so the replica and the publication
        // share a well-repaired graph (and tombstone debt resets to zero).
        self.dynamic = DynamicTauMng::from_index_with_params(&index, self.params);
        self.ext_of_internal = external_ids.clone();
        self.int_of_external =
            external_ids.iter().enumerate().map(|(i, &e)| (e, i as u32)).collect(); // cast: slot < n
        self.generation = generation;
        self.dirty = false;
        // Compaction repaid every debt the filter was carrying.
        self.base_len = external_ids.len();
        self.base_tombstones.clear();
        self.published_tombstones = 0;
        self.inserts_pending = 0;
        self.cell.publish(Arc::new(Snapshot::new(
            Arc::new(index),
            Arc::new(external_ids),
            Arc::new(HashSet::new()),
            Arc::clone(&self.attrs),
            self.generation,
        )));
        self.metrics.snapshots_published.inc();
        if let Some(sm) = self.metrics.shard(self.shard) {
            sm.publishes.inc();
            sm.points.set(self.dynamic.len() as u64);
        }
        // Persist after the swap: durability lags availability, never
        // blocks it. Failures are recorded, not propagated — readers are
        // already on the new snapshot.
        self.persist_current();
        Ok(self.generation)
    }

    /// Make pending deletes reader-visible **without** compacting: republish
    /// the serving snapshot's frozen index with an updated deletion filter.
    /// O(deletes) instead of O(n log n); pending inserts (never visible in
    /// the frozen graph anyway) stay pending until the next full
    /// [`IndexWriter::publish`]. Returns the new generation.
    ///
    /// Nothing is persisted: the deletes are already journaled in the WAL,
    /// so crash recovery replays them onto the last durable snapshot. The
    /// debt this leaves behind — tombstoned points still occupying graph
    /// slots and widening every beam — is tracked by
    /// [`IndexWriter::tombstone_debt`] and repaid when the
    /// [`crate::maintenance::MaintenanceScheduler`] (or any caller) next
    /// runs a full publish.
    ///
    /// # Errors
    /// `EmptyDataset` if the filter would hide every point in the snapshot
    /// (compact instead — an all-tombstone graph serves nothing).
    pub fn publish_tombstones(&mut self) -> Result<u64> {
        self.publish_tombstones_at(self.generation + 1)
    }

    /// [`IndexWriter::publish_tombstones`] at a caller-chosen generation —
    /// the sharded path, mirroring [`IndexWriter::publish_at`].
    pub(crate) fn publish_tombstones_at(&mut self, generation: u64) -> Result<u64> {
        if generation <= self.generation {
            return Err(AnnError::InvalidParameter(format!(
                "publish generation {generation} must exceed current {}",
                self.generation
            )));
        }
        let cur = self.cell.load();
        if self.base_tombstones.len() >= cur.len() {
            return Err(AnnError::EmptyDataset);
        }
        self.generation = generation;
        self.published_tombstones = self.base_tombstones.len();
        // Visible state now matches the replica's live set unless inserts
        // are still waiting for a compaction.
        self.dirty = self.inserts_pending > 0;
        let mut next = Snapshot::new(
            Arc::clone(&cur.index),
            Arc::clone(&cur.external_ids),
            Arc::new(self.base_tombstones.clone()),
            // Incremental publishes carry the writer's current attribute
            // map (an O(1) Arc clone), so attribute updates become
            // reader-visible without waiting for a compaction.
            Arc::clone(&self.attrs),
            generation,
        );
        if Arc::ptr_eq(&cur.attrs, &next.attrs) {
            // Same ids, same records: the postings carry over.
            next.postings = Arc::clone(&cur.postings);
        }
        self.cell.publish(Arc::new(next));
        self.metrics.snapshots_published.inc();
        if let Some(sm) = self.metrics.shard(self.shard) {
            sm.publishes.inc();
            sm.points.set(self.dynamic.len() as u64);
        }
        Ok(generation)
    }

    /// Deletes applied but not yet reader-visible — the gap an incremental
    /// [`IndexWriter::publish_tombstones`] would close.
    pub fn tombstones_unpublished(&self) -> usize {
        self.base_tombstones.len() - self.published_tombstones
    }

    /// Tombstone debt: points still occupying slots in the replica's graph
    /// (and, via the filter, in the served snapshot) that only a full
    /// publish can reclaim.
    pub fn tombstone_debt(&self) -> usize {
        self.dynamic.num_deleted()
    }

    /// Tombstone debt as a fraction of the replica's graph slots (live +
    /// deleted); 0.0 for a freshly compacted writer.
    pub fn tombstone_ratio(&self) -> f64 {
        self.dynamic.deleted_ratio()
    }

    /// Inserts applied since the last full publish that are still invisible
    /// to readers (a reason to schedule a compaction even at low tombstone
    /// debt).
    pub fn inserts_pending(&self) -> usize {
        self.inserts_pending
    }

    /// Journal bytes still on disk for this shard (0 without a WAL) — the
    /// "WAL bytes beyond floor" component of maintenance debt.
    pub fn wal_live_bytes(&self) -> u64 {
        self.wal.as_ref().map_or(0, crate::wal::ShardWal::live_bytes)
    }

    /// Snapshot generations this writer believes are durable on disk.
    pub fn durable_generations(&self) -> usize {
        self.durable.len()
    }

    /// Write the currently served snapshot to the durable store, if one is
    /// configured. Retries with bounded exponential backoff inside
    /// [`SnapshotStore::persist_with_retry`]; on final failure the service
    /// keeps serving and the failure is visible in the metrics
    /// (`persist_failed`, `persist_failures`) and
    /// [`IndexWriter::last_persist_error`].
    ///
    /// The snapshot is stamped with the newest acknowledged LSN, and on
    /// success the journal is truncated up to the covered LSN of the oldest
    /// *retained* generation — never further, so every generation that
    /// pruning can leave behind keeps a complete replay suffix.
    fn persist_current(&mut self) {
        let Some(store) = self.store.clone() else {
            return;
        };
        let snap = self.cell.load();
        let covered = self.last_lsn;
        if self.wal.is_some() {
            // Raise the prune floor *before* persisting: persist() prunes
            // internally, and the generation it must not GC is determined by
            // what the durable set will look like after this publication.
            let retain = store.config().retain.max(1);
            let drop_n = (self.durable.len() + 1).saturating_sub(retain);
            let floor_gen = self
                .durable
                .iter()
                .map(|&(g, _)| g)
                .chain(std::iter::once(snap.generation()))
                .nth(drop_n)
                .unwrap_or_else(|| snap.generation());
            store.set_wal_floor(floor_gen);
        }
        match store.persist_with_retry(&snap, self.params, covered, &self.metrics) {
            Ok(_) => {
                self.last_persist_error = None;
                if let Some(sm) = self.metrics.shard(self.shard) {
                    sm.persisted_generation.set(snap.generation());
                }
                self.durable.push_back((snap.generation(), covered));
                let retain = store.config().retain.max(1);
                while self.durable.len() > retain {
                    self.durable.pop_front();
                }
                // Records at or below the oldest retained generation's
                // covered LSN can never be needed again: every snapshot we
                // might recover from already contains them.
                if let (Some(&(_, floor_lsn)), Some(wal)) =
                    (self.durable.front(), self.wal.as_mut())
                {
                    wal.truncate_through(floor_lsn);
                }
            }
            Err(e) => self.last_persist_error = Some(e.to_string()),
        }
    }

    /// The durable store this writer persists to, if any.
    pub fn snapshot_store(&self) -> Option<&Arc<SnapshotStore>> {
        self.store.as_ref()
    }

    /// Rendered error of the most recent failed persistence attempt, or
    /// `None` while persistence is healthy (or not configured).
    pub fn last_persist_error(&self) -> Option<&str> {
        self.last_persist_error.as_deref()
    }

    /// The publish-path invariant gate (debug builds only): deterministic
    /// structural checks on the compacted graph, serialize round-trip
    /// fidelity, and external-id hygiene (uniqueness, no tombstone
    /// resurrection, no phantom ids).
    #[cfg(debug_assertions)]
    fn debug_audit_publication(&self, index: &TauIndex, external_ids: &[u64]) {
        use ann_audit::{audit_external_ids, audit_tau_index, AuditOptions};
        use ann_graph::GraphView;
        // Degree bound every published graph must respect: dynamic updates
        // never push a touched list past `params.r`, and untouched lists
        // keep the degree they had in the snapshot being replaced.
        let cap = self.cell.load().index().graph().max_degree().max(self.params.r);
        let mut violations = audit_tau_index(index, &AuditOptions::publish_gate(Some(cap)));
        violations
            .extend(audit_external_ids(external_ids, |e| !self.int_of_external.contains_key(&e)));
        let report: Vec<String> = violations.iter().map(ToString::to_string).collect();
        assert!(
            violations.is_empty(),
            "IndexWriter::publish produced a corrupt snapshot (generation {}):\n{}",
            self.generation + 1,
            report.join("\n")
        );
    }
}

impl std::fmt::Debug for IndexWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexWriter")
            .field("live", &self.dynamic.len())
            .field("pending_deletes", &self.pending_deletes())
            .field("generation", &self.generation)
            .field("next_external", &self.next_external)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_vectors::metric::Metric;
    use ann_vectors::synthetic::{mixture_base, FrozenMixture, MixtureSpec};
    use ann_vectors::VecStore;

    fn frozen(n: usize, seed: u64) -> (TauIndex, VecStore) {
        let mix = FrozenMixture::new(&MixtureSpec::default_for(8), seed);
        let base = mixture_base(&mix, n, seed);
        let arc = Arc::new(base.clone());
        let knn = ann_knng::brute_force_knn_graph(Metric::L2, &arc, 12).unwrap();
        let idx = tau_mg::build_tau_mng(
            arc,
            Metric::L2,
            &knn,
            TauMngParams { tau: 0.2, r: 24, l: 64, c: 200 },
        )
        .unwrap();
        (idx, base)
    }

    #[test]
    fn attach_serves_initial_points_under_identity_ids() {
        let (idx, base) = frozen(300, 1);
        let (writer, cell) =
            IndexWriter::attach(idx, TauMngParams::default(), Arc::new(Metrics::new()));
        assert_eq!(writer.len(), 300);
        assert_eq!(writer.generation(), 0);
        let snap = cell.load();
        assert_eq!(snap.len(), 300);
        let mut scratch = Scratch::new(300);
        let hit = snap.search(base.get(7), 1, 32, &mut scratch);
        assert_eq!(hit.ids, vec![7]);
        assert_eq!(hit.dists[0], 0.0);
    }

    #[test]
    fn external_ids_survive_compaction() {
        let (idx, base) = frozen(300, 2);
        let metrics = Arc::new(Metrics::new());
        let (mut writer, cell) = IndexWriter::attach(idx, TauMngParams::default(), metrics.clone());
        // Delete the first 50, insert 10 fresh copies of later points.
        for ext in 0..50u64 {
            writer.delete(ext).unwrap();
        }
        let mut added = Vec::new();
        for i in 0..10u32 {
            added.push(writer.insert(base.get(100 + i)).unwrap());
        }
        assert_eq!(added, (300..310u64).collect::<Vec<_>>());
        let gen = writer.publish().unwrap();
        assert_eq!(gen, 1);
        assert_eq!(metrics.snapshots_published.get(), 1);

        let snap = cell.load();
        assert_eq!(snap.generation(), 1);
        assert_eq!(snap.len(), 260);
        let mut scratch = Scratch::new(snap.len());
        // Point 100 now exists twice: externals 100 and 300. A k=2 search
        // at its location must return exactly that pair, in some order.
        let hit = snap.search(base.get(100), 2, 48, &mut scratch);
        let mut pair = hit.ids;
        pair.sort_unstable();
        assert_eq!(pair, vec![100, 300]);
        // Deleted externals never come back from any query.
        for q in 0..20u32 {
            let hit = snap.search(base.get(q), 10, 64, &mut scratch);
            assert!(hit.ids.iter().all(|&e| e >= 50), "tombstone in {:?}", hit.ids);
        }
    }

    #[test]
    fn delete_validation() {
        let (idx, _) = frozen(100, 3);
        let (mut writer, _cell) =
            IndexWriter::attach(idx, TauMngParams::default(), Arc::new(Metrics::new()));
        writer.delete(5).unwrap();
        assert!(writer.delete(5).is_err(), "double delete by external id");
        assert!(writer.delete(100).is_err(), "unknown external id");
        assert_eq!(writer.pending_deletes(), 1);
    }

    #[test]
    fn publish_keeps_old_snapshot_alive_for_holders() {
        let (idx, base) = frozen(200, 4);
        let (mut writer, cell) =
            IndexWriter::attach(idx, TauMngParams::default(), Arc::new(Metrics::new()));
        let old = cell.load();
        for ext in 0..100u64 {
            writer.delete(ext).unwrap();
        }
        writer.publish().unwrap();
        // The old Arc still answers from the pre-delete world.
        assert_eq!(old.len(), 200);
        let mut scratch = Scratch::new(200);
        let hit = old.search(base.get(3), 1, 32, &mut scratch);
        assert_eq!(hit.ids, vec![3]);
        // New loads see the shrunken world.
        assert_eq!(cell.load().len(), 100);
        assert!(old.generation() < cell.load().generation());
    }

    #[test]
    fn attribute_lifecycle_set_publish_clear_delete() {
        use crate::filter::AttrValue;
        let (idx, _) = frozen(200, 6);
        let (mut writer, cell) =
            IndexWriter::attach(idx, TauMngParams::default(), Arc::new(Metrics::new()));
        writer
            .set_attrs(7, vec![("color".into(), AttrValue::Str("red".into()))])
            .unwrap();
        // Writer sees it immediately; the published snapshot does not until
        // the next publish (copy-on-write, not shared mutation).
        assert!(writer.attrs_of(7).is_some());
        assert!(cell.load().attrs_of(7).is_none(), "published snapshot must stay frozen");
        writer.publish().unwrap();
        assert_eq!(
            cell.load().attrs_of(7),
            Some(&vec![("color".to_string(), AttrValue::Str("red".into()))])
        );
        // Empty record clears.
        writer.set_attrs(7, vec![]).unwrap();
        assert!(writer.attrs_of(7).is_none());
        // Deleting a point drops its attributes with it.
        writer.set_attrs(9, vec![("hot".into(), AttrValue::Bool(true))]).unwrap();
        writer.delete(9).unwrap();
        assert!(writer.attrs_of(9).is_none());
        assert!(writer.set_attrs(9, vec![("x".into(), AttrValue::U64(1))]).is_err());
        // Unknown ids are rejected, never panicked on.
        assert!(writer.set_attrs(9999, vec![]).is_err());
    }

    #[test]
    fn filtered_search_returns_only_matching_points() {
        use crate::filter::AttrValue;
        let (idx, base) = frozen(300, 7);
        let (mut writer, cell) =
            IndexWriter::attach(idx, TauMngParams::default(), Arc::new(Metrics::new()));
        for ext in 0..300u64 {
            if ext % 3 == 0 {
                writer.set_attrs(ext, vec![("band".into(), AttrValue::U64(ext % 9))]).unwrap();
            }
        }
        writer.publish().unwrap();
        let snap = cell.load();
        let mut scratch = Scratch::new(snap.len());
        let expr = FilterExpr::eq("band", AttrValue::U64(0));
        for q in 0..20u32 {
            let hit = snap.search_filtered(base.get(q), 5, 32, Some(&expr), &mut scratch);
            assert!(!hit.ids.is_empty(), "query {q} found nothing");
            for &e in &hit.ids {
                assert_eq!(e % 9, 0, "non-matching external {e} leaked into a filtered result");
            }
        }
        // None degrades to the plain search.
        let plain = snap.search(base.get(3), 5, 32, &mut scratch);
        let degraded = snap.search_filtered(base.get(3), 5, 32, None, &mut scratch);
        assert_eq!(plain.ids, degraded.ids);
        assert_eq!(plain.dists, degraded.dists);
    }

    #[test]
    fn tombstone_publish_carries_attribute_updates() {
        use crate::filter::AttrValue;
        let (idx, _) = frozen(120, 8);
        let (mut writer, cell) =
            IndexWriter::attach(idx, TauMngParams::default(), Arc::new(Metrics::new()));
        writer.delete(5).unwrap();
        writer.set_attrs(11, vec![("tier".into(), AttrValue::U64(2))]).unwrap();
        writer.publish_tombstones().unwrap();
        let snap = cell.load();
        assert!(snap.is_tombstoned(5));
        assert_eq!(snap.attrs_of(11), Some(&vec![("tier".to_string(), AttrValue::U64(2))]));
    }

    #[test]
    fn tombstoned_snapshot_never_comes_back_short_while_live_points_remain() {
        let (idx, base) = frozen(200, 9);
        let (mut writer, cell) =
            IndexWriter::attach(idx, TauMngParams::default(), Arc::new(Metrics::new()));
        // Skewed deletes: wipe out 90% so a selectivity-widened walk could
        // still come back short; the planned search (here, a scan of the 20
        // live rows) must not.
        for ext in 0..180u64 {
            writer.delete(ext).unwrap();
        }
        writer.publish_tombstones().unwrap();
        let snap = cell.load();
        let mut scratch = Scratch::new(snap.len());
        for q in 0..20u32 {
            let hit = snap.search(base.get(q), 10, 16, &mut scratch);
            assert_eq!(hit.ids.len(), 10, "query {q} returned {:?}", hit.ids);
            assert!(hit.ids.iter().all(|&e| e >= 180), "tombstone leaked: {:?}", hit.ids);
        }
    }

    #[test]
    fn compiled_filters_never_serve_bits_across_a_generation() {
        use crate::filter::AttrValue;
        let (idx, base) = frozen(200, 10);
        let (mut writer, cell) =
            IndexWriter::attach(idx, TauMngParams::default(), Arc::new(Metrics::new()));
        let hot = || vec![("hot".to_string(), AttrValue::Bool(true))];
        let expr = FilterExpr::eq("hot", AttrValue::Bool(true));
        writer.set_attrs(7, hot()).unwrap();
        writer.publish_tombstones().unwrap();
        let old = cell.load();
        let mut scratch = Scratch::new(old.len());
        assert_eq!(old.search_filtered(base.get(0), 5, 16, Some(&expr), &mut scratch).ids, [7]);

        // Move the attribute and publish: the same expression, asked of the
        // new snapshot, sees the new attributes, not the old postings.
        writer.set_attrs(7, vec![]).unwrap();
        writer.set_attrs(9, hot()).unwrap();
        writer.publish_tombstones().unwrap();
        let new = cell.load();
        assert_eq!(new.search_filtered(base.get(0), 5, 16, Some(&expr), &mut scratch).ids, [9]);
        assert!(!Arc::ptr_eq(&old.postings, &new.postings), "changed attributes reused postings");
        // Deleting a point without attributes keeps ids and attributes, so
        // the postings carry over while the deletion bits are rebuilt.
        writer.delete(3).unwrap();
        writer.publish_tombstones().unwrap();
        let deleted = cell.load();
        assert!(Arc::ptr_eq(&new.postings, &deleted.postings), "postings were rebuilt");
        let hit = deleted.search_filtered(base.get(3), 5, 16, None, &mut scratch);
        assert_eq!(hit.ids.len(), 5);
        assert!(!hit.ids.contains(&3), "a tombstone surfaced: {:?}", hit.ids);
        assert_eq!(deleted.search_filtered(base.get(0), 5, 16, Some(&expr), &mut scratch).ids, [9]);
        writer.delete(9).unwrap();
        writer.set_attrs(11, hot()).unwrap();
        // A full publish renumbers internal ids; the bits follow.
        writer.publish().unwrap();
        let compacted = cell.load();
        let hit = compacted.search_filtered(base.get(0), 5, 16, Some(&expr), &mut scratch);
        assert_eq!(hit.ids, [11]);
        // The old snapshot keeps answering from its own publication.
        assert_eq!(old.search_filtered(base.get(0), 5, 16, Some(&expr), &mut scratch).ids, [7]);
    }

    #[test]
    fn empty_publish_is_an_error_and_keeps_serving() {
        let (idx, _) = frozen(50, 5);
        let (mut writer, cell) =
            IndexWriter::attach(idx, TauMngParams::default(), Arc::new(Metrics::new()));
        for ext in 0..50u64 {
            writer.delete(ext).unwrap();
        }
        assert!(writer.publish().is_err());
        assert_eq!(cell.load().generation(), 0, "failed publish must not swap");
        assert_eq!(cell.load().len(), 50);
    }
}
