//! Sharded serving: a set of independent shards behind one fan-out/merge
//! front.
//!
//! The unit of serving is a [`ShardSet`] of `N` shards. Each shard owns its
//! own [`SnapshotCell`], [`IndexWriter`], and durable [`SnapshotStore`]
//! subdirectory (`shard-<i>/gen-*.snp`), so shards build, publish, persist,
//! and recover completely independently; `N = 1` is the degenerate case and
//! behaves exactly like the unsharded service.
//!
//! **Placement** is deterministic: [`ShardRouter`] hashes the stable
//! external id ([`ann_vectors::route::shard_of`]), so inserts, deletes, and
//! recovery all re-derive the owning shard with no placement table.
//!
//! **Search** fans each query out to every healthy shard with a per-shard
//! beam of `max(k, L/healthy)` (equal total budget) and k-way merges the
//! per-shard top-k by `(distance, id)` into a global top-k. Because every
//! shard returns its own full top-k, the merged result preserves exact
//! semantics: the global top-k is always a subset of the union of per-shard
//! top-k sets.
//!
//! **Degraded serving**: a shard whose recovery finds no servable
//! generation is quarantined — its slot is empty, queries are answered from
//! the remaining shards, and the gap is visible as `shards_degraded` in the
//! metrics rather than a refused recovery.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use ann_graph::{Scratch, SearchStats};
use ann_vectors::error::{AnnError, Result};
use ann_vectors::route::shard_of;
use tau_mg::{DynamicTauMng, TauIndex, TauMngParams};

use crate::filter::{AttrRecord, FilterExpr};
use crate::metrics::Metrics;
use crate::snapshot::{Hit, IndexWriter, Snapshot, SnapshotCell};
use crate::store::{SnapshotFs, SnapshotStore, SnapshotStoreConfig};

/// Deterministic external-id → shard placement for a fixed shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// Router over `shards` shards (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        ShardRouter { shards: shards.max(1) }
    }

    /// Number of shards routed over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `external`.
    #[inline]
    pub fn route(&self, external: u64) -> usize {
        shard_of(external, self.shards)
    }
}

/// One shard's slice of a corpus: a frozen index plus the global external
/// ids of its points (in internal order).
#[derive(Debug)]
pub struct ShardPart {
    /// The shard's index.
    pub index: TauIndex,
    /// `external_ids[internal]` — global ids routed to this shard.
    pub external_ids: Vec<u64>,
}

/// Partition a frozen index into `shards` routed parts.
///
/// Point `i` keeps global external id `i` and goes to shard
/// `router.route(i)`. For `shards == 1` the index is adopted unchanged
/// (bit-identical serving — the degenerate case); for `shards >= 2` each
/// shard's index is rebuilt over its routed subset by dynamic insertion
/// (one thread per shard) and compacted, which runs the same repair and
/// graph hygiene as any published index.
///
/// # Errors
/// `InvalidParameter` if `shards == 0` or the corpus is too small to give
/// every shard at least one point; propagates per-shard build errors.
pub fn split_index(index: TauIndex, params: TauMngParams, shards: usize) -> Result<Vec<ShardPart>> {
    if shards == 0 {
        return Err(AnnError::InvalidParameter("shard count must be at least 1".into()));
    }
    let n = index.store().len();
    if shards == 1 {
        let external_ids = (0..n as u64).collect();
        return Ok(vec![ShardPart { index, external_ids }]);
    }
    let router = ShardRouter::new(shards);
    let mut routed: Vec<Vec<u64>> = vec![Vec::new(); shards];
    for e in 0..n as u64 {
        routed[router.route(e)].push(e);
    }
    if let Some(s) = routed.iter().position(Vec::is_empty) {
        return Err(AnnError::InvalidParameter(format!(
            "shard {s} of {shards} would be empty: corpus has only {n} points"
        )));
    }
    let build = TauMngParams { tau: index.tau(), ..params };
    let store = index.store();
    let metric = index.metric();
    let dim = store.dim();
    let mut parts: Vec<Result<ShardPart>> = Vec::with_capacity(shards);
    std::thread::scope(|scope| {
        let handles: Vec<_> = routed
            .iter()
            .map(|ids| {
                scope.spawn(move || -> Result<ShardPart> {
                    let mut replica = DynamicTauMng::new(dim, metric, build)?;
                    for &e in ids {
                        // cast: e < n and the store bounds n at u32::MAX.
                        replica.insert(store.get(e as u32))?;
                    }
                    let (idx, remap) = replica.compact()?;
                    let mut external_ids = vec![0u64; idx.store().len()];
                    for (old, slot) in remap.iter().enumerate() {
                        if let Some(new) = slot {
                            external_ids[*new as usize] = ids[old];
                        }
                    }
                    Ok(ShardPart { index: idx, external_ids })
                })
            })
            .collect();
        for handle in handles {
            parts.push(handle.join().unwrap_or_else(|_| {
                Err(AnnError::InvalidParameter("shard build thread panicked".into()))
            }));
        }
    });
    parts.into_iter().collect()
}

/// The reader-side shard set: one [`SnapshotCell`] per healthy shard.
///
/// Immutable after construction; a `None` slot is a quarantined shard that
/// recovery could not serve (the set keeps answering from the others).
#[derive(Debug)]
pub struct ShardSet {
    cells: Vec<Option<Arc<SnapshotCell>>>,
    router: ShardRouter,
}

impl ShardSet {
    /// Wrap a single cell as a one-shard set (the unsharded service).
    pub fn single(cell: Arc<SnapshotCell>) -> Arc<ShardSet> {
        Arc::new(ShardSet { cells: vec![Some(cell)], router: ShardRouter::new(1) })
    }

    pub(crate) fn from_cells(cells: Vec<Option<Arc<SnapshotCell>>>) -> Arc<ShardSet> {
        let router = ShardRouter::new(cells.len());
        Arc::new(ShardSet { cells, router })
    }

    /// Total shard slots (healthy + degraded).
    pub fn shards(&self) -> usize {
        self.cells.len()
    }

    /// Shards currently serving.
    pub fn healthy(&self) -> usize {
        self.cells.iter().filter(|c| c.is_some()).count()
    }

    /// Quarantined shards (slots with nothing to serve).
    pub fn degraded(&self) -> usize {
        self.shards() - self.healthy()
    }

    /// The placement router for this set.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// Shard `shard`'s cell, if it is healthy.
    pub fn cell(&self, shard: usize) -> Option<&Arc<SnapshotCell>> {
        self.cells.get(shard).and_then(Option::as_ref)
    }

    /// Load every shard's current snapshot into `out` (index-aligned with
    /// the shard slots; `None` for degraded shards). Reuses the buffer so a
    /// worker pays one `Arc` clone per healthy shard per batch.
    pub fn load_into(&self, out: &mut Vec<Option<Arc<Snapshot>>>) {
        out.clear();
        out.extend(self.cells.iter().map(|c| c.as_ref().map(|cell| cell.load())));
    }

    /// Minimum generation across healthy shards' current snapshots — the
    /// set-coherent generation a merged reply can claim (every shard has
    /// published at least this far). 0 when nothing is healthy.
    pub fn min_generation(&self) -> u64 {
        self.cells
            .iter()
            .flatten()
            .map(|cell| cell.load().generation())
            .min()
            .unwrap_or(0)
    }

    /// Total live points across healthy shards' current snapshots.
    pub fn total_points(&self) -> usize {
        self.cells.iter().flatten().map(|cell| cell.load().len()).sum()
    }
}

/// Per-shard beam width at an equal *total* budget: `l_total` is split
/// evenly across healthy shards, floored at `k` (a shard must be able to
/// return a full per-shard top-k or the merge loses exactness).
#[inline]
pub fn shard_beam(l_total: usize, healthy: usize, k: usize) -> usize {
    (l_total.div_ceil(healthy.max(1))).max(k)
}

/// k-way merge of per-shard top-k lists (each ascending by distance, ties
/// by id) into one global top-k, ordered by `(distance, id)`.
///
/// Exactness: each input list is its shard's complete top-k, so the global
/// top-k is a subset of the inputs and the distance-ordered merge
/// reproduces it — the property `tests/shard_merge.rs` proves.
pub fn merge_topk(ids: &[Vec<u64>], dists: &[Vec<f32>], k: usize) -> (Vec<u64>, Vec<f32>) {
    let mut cursors = vec![0usize; ids.len()];
    let mut out_ids = Vec::with_capacity(k);
    let mut out_dists = Vec::with_capacity(k);
    merge_into(ids, dists, &mut cursors, k, &mut out_ids, &mut out_dists);
    (out_ids, out_dists)
}

fn merge_into(
    ids: &[Vec<u64>],
    dists: &[Vec<f32>],
    cursors: &mut [usize],
    k: usize,
    out_ids: &mut Vec<u64>,
    out_dists: &mut Vec<f32>,
) {
    let lists = ids.len().min(dists.len()).min(cursors.len());
    while out_ids.len() < k {
        let mut best: Option<(f32, u64, usize)> = None;
        for s in 0..lists {
            let c = cursors[s];
            if c >= ids[s].len().min(dists[s].len()) {
                continue;
            }
            let (d, id) = (dists[s][c], ids[s][c]);
            let beats = match best {
                None => true,
                Some((bd, bid, _)) => match d.total_cmp(&bd) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Equal => id < bid,
                    std::cmp::Ordering::Greater => false,
                },
            };
            if beats {
                best = Some((d, id, s));
            }
        }
        let Some((d, id, s)) = best else { break };
        out_ids.push(id);
        out_dists.push(d);
        cursors[s] += 1;
    }
}

/// Per-worker fan-out scratch: one reusable result buffer pair per shard
/// plus merge cursors, so a fanned-out query allocates nothing beyond the
/// reply itself (same as the unsharded path).
#[derive(Debug, Default)]
pub struct Fanout {
    ids: Vec<Vec<u64>>,
    dists: Vec<Vec<f32>>,
    cursors: Vec<usize>,
}

impl Fanout {
    /// Scratch sized for `shards` shards (grows on demand).
    pub fn new(shards: usize) -> Self {
        Fanout {
            ids: (0..shards).map(|_| Vec::new()).collect(),
            dists: (0..shards).map(|_| Vec::new()).collect(),
            cursors: vec![0; shards],
        }
    }

    fn ensure(&mut self, shards: usize) {
        while self.ids.len() < shards {
            self.ids.push(Vec::new());
            self.dists.push(Vec::new());
        }
        if self.cursors.len() < shards {
            self.cursors.resize(shards, 0);
        }
    }

    /// Fan `query` across every healthy snapshot with a per-shard beam of
    /// [`shard_beam`]`(l_total, healthy, k)` and merge the per-shard top-k
    /// into a global top-k. `snaps` is slot-aligned (`None` = degraded
    /// shard, skipped). Every healthy shard runs filter-during-search
    /// against `expr` (see [`Snapshot::search_filtered`]); `expr = None` is
    /// the pure deletion filter. Per-shard search/NDC counters are recorded
    /// when `metrics` is given.
    #[allow(clippy::too_many_arguments)]
    pub fn search_filtered(
        &mut self,
        snaps: &[Option<Arc<Snapshot>>],
        query: &[f32],
        k: usize,
        l_total: usize,
        expr: Option<&FilterExpr>,
        scratch: &mut Scratch,
        metrics: Option<&Metrics>,
    ) -> Hit {
        let healthy = snaps.iter().filter(|s| s.is_some()).count();
        if healthy == 0 {
            return Hit { ids: Vec::new(), dists: Vec::new(), stats: SearchStats::default() };
        }
        self.ensure(snaps.len());
        let per_l = shard_beam(l_total, healthy, k);
        let mut stats = SearchStats::default();
        for (s, snap) in snaps.iter().enumerate() {
            self.ids[s].clear();
            self.dists[s].clear();
            let Some(snap) = snap else { continue };
            let st = snap.search_filtered_into(
                query,
                k,
                per_l,
                expr,
                scratch,
                &mut self.ids[s],
                &mut self.dists[s],
            );
            if let Some(m) = metrics {
                if let Some(sm) = m.shard(s) {
                    sm.searches.inc();
                    sm.ndc.add(st.ndc);
                }
            }
            stats.accumulate(st);
        }
        let mut out_ids = Vec::with_capacity(k);
        let mut out_dists = Vec::with_capacity(k);
        for c in &mut self.cursors {
            *c = 0;
        }
        merge_into(
            &self.ids[..snaps.len()],
            &self.dists[..snaps.len()],
            &mut self.cursors[..snaps.len()],
            k,
            &mut out_ids,
            &mut out_dists,
        );
        Hit { ids: out_ids, dists: out_dists, stats }
    }
}

/// Everything a sharded recovery produced: the writer set, the reader set,
/// and what had to be left behind.
#[derive(Debug)]
pub struct ShardSetRecovery {
    /// The recovered writer set (degraded shards have no writer).
    pub writer: ShardSetWriter,
    /// The recovered reader set (degraded shards serve nothing).
    pub set: Arc<ShardSet>,
    /// Shard indexes quarantined because no servable generation was found.
    pub degraded: Vec<usize>,
    /// Files (or shard directories) set aside, with the reason.
    pub quarantined: Vec<(PathBuf, AnnError)>,
}

/// The writer side of a [`ShardSet`]: allocates global external ids, routes
/// every mutation to the owning shard's [`IndexWriter`], and publishes all
/// dirty shards under one set-level generation.
pub struct ShardSetWriter {
    writers: Vec<Option<IndexWriter>>,
    router: ShardRouter,
    next_external: u64,
    generation: u64,
    metrics: Arc<Metrics>,
    /// Per-shard failures from the most recent [`ShardSetWriter::publish`]
    /// (a failed shard keeps serving its previous snapshot).
    last_publish_errors: Vec<(usize, String)>,
}

impl ShardSetWriter {
    /// Wrap routed parts for serving: one [`IndexWriter`] + cell per part.
    ///
    /// # Errors
    /// `InvalidParameter` if a part holds an external id the router does
    /// not place on it (placement must be re-derivable from the id alone),
    /// or on the validation errors of [`IndexWriter::attach_with_ids`].
    pub fn attach(
        parts: Vec<ShardPart>,
        params: TauMngParams,
        metrics: Arc<Metrics>,
    ) -> Result<(ShardSetWriter, Arc<ShardSet>)> {
        Self::attach_with_stores(parts, params, metrics, |_| Ok(None))
    }

    /// [`ShardSetWriter::attach`] with per-shard durable stores under
    /// `root` (`root/shard-<i>/gen-*.snp`); every shard's initial snapshot
    /// is persisted, as with [`IndexWriter::attach_durable`].
    ///
    /// # Errors
    /// As [`ShardSetWriter::attach`], plus store-opening failures.
    pub fn attach_durable(
        parts: Vec<ShardPart>,
        params: TauMngParams,
        metrics: Arc<Metrics>,
        root: &Path,
    ) -> Result<(ShardSetWriter, Arc<ShardSet>)> {
        Self::attach_with_stores(parts, params, metrics, |s| {
            SnapshotStore::open_shard(root, s).map(Some)
        })
    }

    /// [`ShardSetWriter::attach_durable`] with an explicit filesystem and
    /// store configuration (fault injection, custom retention).
    ///
    /// # Errors
    /// As [`ShardSetWriter::attach_durable`].
    // The owned `Arc` mirrors `SnapshotStore::open_with_fs` so call sites
    // read the same; it is cloned once per shard store.
    #[allow(clippy::needless_pass_by_value)]
    pub fn attach_durable_with_fs(
        parts: Vec<ShardPart>,
        params: TauMngParams,
        metrics: Arc<Metrics>,
        root: &Path,
        fs: Arc<dyn SnapshotFs>,
        config: SnapshotStoreConfig,
    ) -> Result<(ShardSetWriter, Arc<ShardSet>)> {
        Self::attach_with_stores(parts, params, metrics, |s| {
            SnapshotStore::open_shard_with_fs(root, s, fs.clone(), config).map(Some)
        })
    }

    fn attach_with_stores(
        parts: Vec<ShardPart>,
        params: TauMngParams,
        metrics: Arc<Metrics>,
        mut store_for: impl FnMut(usize) -> Result<Option<Arc<SnapshotStore>>>,
    ) -> Result<(ShardSetWriter, Arc<ShardSet>)> {
        if parts.is_empty() {
            return Err(AnnError::InvalidParameter("a shard set needs at least one shard".into()));
        }
        let router = ShardRouter::new(parts.len());
        let mut next_external = 0u64;
        for (s, part) in parts.iter().enumerate() {
            if let Some(&bad) = part.external_ids.iter().find(|&&e| router.route(e) != s) {
                return Err(AnnError::InvalidParameter(format!(
                    "external id {bad} does not route to shard {s} of {}",
                    parts.len()
                )));
            }
            let top = part.external_ids.iter().max().map_or(0, |&m| m + 1);
            next_external = next_external.max(top);
        }
        let mut writers = Vec::with_capacity(parts.len());
        let mut cells = Vec::with_capacity(parts.len());
        for (s, part) in parts.into_iter().enumerate() {
            let store = store_for(s)?;
            let (mut writer, cell) = IndexWriter::attach_with_ids(
                part.index,
                part.external_ids,
                params,
                Arc::clone(&metrics),
                store,
            )?;
            writer.set_shard(s);
            writers.push(Some(writer));
            cells.push(Some(cell));
        }
        let set = ShardSet::from_cells(cells);
        let writer = ShardSetWriter {
            writers,
            router,
            next_external,
            generation: 0,
            metrics,
            last_publish_errors: Vec::new(),
        };
        Ok((writer, set))
    }

    /// Recover a shard set from `root` on the real filesystem: each
    /// `shard-<i>` subdirectory is recovered independently; a shard with no
    /// servable generation is quarantined (served degraded), never fatal
    /// unless *no* shard survives.
    ///
    /// # Errors
    /// `CorruptIndex` if no shard yields a servable generation.
    pub fn recover(root: &Path, shards: usize, metrics: Arc<Metrics>) -> Result<ShardSetRecovery> {
        Self::recover_with_fs(
            root,
            shards,
            metrics,
            Arc::new(crate::store::RealFs),
            SnapshotStoreConfig::default(),
        )
    }

    /// [`ShardSetWriter::recover`] with an explicit filesystem and store
    /// configuration.
    ///
    /// # Errors
    /// As [`ShardSetWriter::recover`].
    // The owned `Arc` mirrors `SnapshotStore::open_with_fs` so call sites
    // read the same; it is cloned once per shard store.
    #[allow(clippy::needless_pass_by_value)]
    pub fn recover_with_fs(
        root: &Path,
        shards: usize,
        metrics: Arc<Metrics>,
        fs: Arc<dyn SnapshotFs>,
        config: SnapshotStoreConfig,
    ) -> Result<ShardSetRecovery> {
        if shards == 0 {
            return Err(AnnError::InvalidParameter("shard count must be at least 1".into()));
        }
        let mut writers = Vec::with_capacity(shards);
        let mut cells = Vec::with_capacity(shards);
        let mut degraded = Vec::new();
        let mut quarantined = Vec::new();
        let mut next_external = 0u64;
        let mut generation = 0u64;
        for s in 0..shards {
            let attempt = SnapshotStore::open_shard_with_fs(root, s, fs.clone(), config)
                .and_then(|store| store.recover().map(|report| (store, report)));
            match attempt {
                Ok((store, report)) => {
                    quarantined.extend(report.quarantined);
                    if let Some(rec) = report.recovered {
                        let top = rec.external_ids.iter().max().map_or(0, |&m| m + 1);
                        let dir = store.dir().to_path_buf();
                        // WAL replay happens inside `from_recovered`; a
                        // replay whose republication fails its audit
                        // quarantines this shard exactly like a corrupt
                        // snapshot would.
                        match IndexWriter::from_recovered(rec, Arc::clone(&metrics), Some(store)) {
                            Ok((mut writer, cell)) => {
                                next_external = next_external.max(top);
                                // Replay may have republished past the
                                // recovered generation; the set counter must
                                // clear every shard's current generation.
                                generation = generation.max(writer.generation());
                                writer.set_shard(s);
                                writers.push(Some(writer));
                                cells.push(Some(cell));
                            }
                            Err(e) => {
                                quarantined.push((dir, e));
                                writers.push(None);
                                cells.push(None);
                                degraded.push(s);
                            }
                        }
                    } else {
                        writers.push(None);
                        cells.push(None);
                        degraded.push(s);
                    }
                }
                Err(e) => {
                    quarantined.push((SnapshotStore::shard_dir(root, s), e));
                    writers.push(None);
                    cells.push(None);
                    degraded.push(s);
                }
            }
        }
        for &s in &degraded {
            if let Some(sm) = metrics.shard(s) {
                sm.degraded.set(1);
            }
        }
        metrics.shards_degraded.set(degraded.len() as u64);
        if degraded.len() == shards {
            return Err(AnnError::CorruptIndex(format!(
                "sharded recovery under {} found no servable shard (of {shards})",
                root.display()
            )));
        }
        let set = ShardSet::from_cells(cells);
        let writer = ShardSetWriter {
            writers,
            router: ShardRouter::new(shards),
            next_external,
            generation,
            metrics,
            last_publish_errors: Vec::new(),
        };
        Ok(ShardSetRecovery { writer, set, degraded, quarantined })
    }

    /// Number of shard slots (healthy + degraded).
    pub fn shards(&self) -> usize {
        self.writers.len()
    }

    /// Zero-shard placeholder: what a [`crate::MaintenanceScheduler`] swaps
    /// in when it relinquishes its real writer. Accepts nothing, serves
    /// nothing.
    pub(crate) fn placeholder() -> ShardSetWriter {
        ShardSetWriter {
            writers: Vec::new(),
            router: ShardRouter::new(1),
            next_external: 0,
            generation: 0,
            metrics: Arc::new(Metrics::new()),
            last_publish_errors: Vec::new(),
        }
    }

    /// The placement router for this set.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// Shard `shard`'s writer, if it is healthy.
    pub fn writer(&self, shard: usize) -> Option<&IndexWriter> {
        self.writers.get(shard).and_then(Option::as_ref)
    }

    /// Current set-level generation (the stamp of the last publish).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total live points across healthy shards' replicas.
    pub fn len(&self) -> usize {
        self.writers.iter().flatten().map(IndexWriter::len).sum()
    }

    /// Whether no healthy shard holds a live point.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert a vector, returning its stable global external id. The id is
    /// allocated so that it routes to a *healthy* shard: ids owned by
    /// quarantined shards are skipped (burned — ids are opaque and never
    /// reused), keeping the writer available while a shard is degraded.
    ///
    /// # Errors
    /// `InvalidParameter` if every shard is degraded; propagates the owning
    /// shard's insert errors.
    pub fn insert(&mut self, v: &[f32]) -> Result<u64> {
        self.insert_routed(v, None)
    }

    /// [`ShardSetWriter::insert`] plus an attribute record, journaled and
    /// applied on the owning shard (see [`IndexWriter::insert_with_attrs`]).
    ///
    /// # Errors
    /// As [`ShardSetWriter::insert`], plus attribute validation errors.
    pub fn insert_with_attrs(&mut self, v: &[f32], attrs: AttrRecord) -> Result<u64> {
        self.insert_routed(v, Some(attrs))
    }

    fn insert_routed(&mut self, v: &[f32], attrs: Option<AttrRecord>) -> Result<u64> {
        if self.writers.iter().all(Option::is_none) {
            return Err(AnnError::InvalidParameter(
                "every shard is degraded; nothing can accept inserts".into(),
            ));
        }
        let limit = 64 * self.writers.len().max(1) as u64;
        let mut ext = self.next_external;
        while ext < self.next_external + limit {
            let s = self.router.route(ext);
            if let Some(writer) = self.writers.get_mut(s).and_then(Option::as_mut) {
                match attrs {
                    Some(attrs) => {
                        writer.insert_with_id_attrs(ext, v, attrs)?;
                    }
                    None => {
                        writer.insert_with_id(ext, v)?;
                    }
                }
                self.next_external = ext + 1;
                return Ok(ext);
            }
            ext += 1;
        }
        // With >= 1 healthy shard the router reaches it with overwhelming
        // probability well inside the limit; this is a defensive bound.
        Err(AnnError::InvalidParameter(
            "could not allocate an external id routing to a healthy shard".into(),
        ))
    }

    /// Replace a global external id's attribute record on its owning shard
    /// (see [`IndexWriter::set_attrs`]; an empty record clears).
    ///
    /// # Errors
    /// `InvalidParameter` if the owning shard is degraded; the owning
    /// shard's attribute errors otherwise.
    pub fn set_attrs(&mut self, external: u64, attrs: AttrRecord) -> Result<()> {
        let s = self.router.route(external);
        match self.writers.get_mut(s).and_then(Option::as_mut) {
            Some(writer) => writer.set_attrs(external, attrs),
            None => Err(AnnError::InvalidParameter(format!(
                "external id {external} is owned by degraded shard {s}"
            ))),
        }
    }

    /// The writer-side attribute record of a global external id, if its
    /// owning shard is healthy and the id is live with attributes.
    pub fn attrs_of(&self, external: u64) -> Option<&AttrRecord> {
        let s = self.router.route(external);
        self.writers.get(s).and_then(Option::as_ref).and_then(|w| w.attrs_of(external))
    }

    /// Tombstone a global external id on its owning shard.
    ///
    /// # Errors
    /// `InvalidParameter` if the owning shard is degraded; `IdOutOfRange`
    /// for unknown or already-deleted ids.
    pub fn delete(&mut self, external: u64) -> Result<()> {
        let s = self.router.route(external);
        match self.writers.get_mut(s).and_then(Option::as_mut) {
            Some(writer) => writer.delete(external),
            None => Err(AnnError::InvalidParameter(format!(
                "external id {external} is owned by degraded shard {s}"
            ))),
        }
    }

    /// Publish every dirty shard under the next set-level generation.
    /// Shards without pending mutations are skipped (their snapshots stay
    /// at an older generation — merged replies report the set minimum).
    ///
    /// A shard whose publish fails (e.g. fully deleted → `EmptyDataset`)
    /// keeps serving its previous snapshot; the failure is recorded in
    /// [`ShardSetWriter::last_publish_errors`]. Returns the set generation
    /// after the call.
    ///
    /// # Errors
    /// Only if at least one shard was dirty and *none* published.
    pub fn publish(&mut self) -> Result<u64> {
        self.last_publish_errors.clear();
        let target = self.generation + 1;
        let mut dirty = 0usize;
        let mut published = 0usize;
        let mut first_err = None;
        for (s, writer) in self.writers.iter_mut().enumerate() {
            let Some(writer) = writer.as_mut() else {
                continue;
            };
            if !writer.is_dirty() {
                continue;
            }
            dirty += 1;
            match writer.publish_at(target) {
                Ok(_) => published += 1,
                Err(e) => {
                    self.last_publish_errors.push((s, e.to_string()));
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        if published > 0 {
            self.generation = target;
        }
        match first_err {
            Some(e) if published == 0 && dirty > 0 => Err(e),
            _ => Ok(self.generation),
        }
    }

    /// Make every shard's pending deletes reader-visible **without**
    /// compacting: each shard with unpublished tombstones republishes its
    /// frozen snapshot under an updated deletion filter (see
    /// [`IndexWriter::publish_tombstones`]) at the next set generation.
    /// O(deletes) per shard; pending inserts stay invisible until a full
    /// [`ShardSetWriter::publish`] or a scheduler-driven
    /// [`ShardSetWriter::compact_shard`]. Returns the set generation after
    /// the call.
    ///
    /// # Errors
    /// Only if at least one shard had unpublished tombstones and *none*
    /// republished (mirroring [`ShardSetWriter::publish`]).
    pub fn publish_tombstones(&mut self) -> Result<u64> {
        self.last_publish_errors.clear();
        let target = self.generation + 1;
        let mut pending = 0usize;
        let mut published = 0usize;
        let mut first_err = None;
        for (s, writer) in self.writers.iter_mut().enumerate() {
            let Some(writer) = writer.as_mut() else {
                continue;
            };
            if writer.tombstones_unpublished() == 0 {
                continue;
            }
            pending += 1;
            match writer.publish_tombstones_at(target) {
                Ok(_) => published += 1,
                Err(e) => {
                    self.last_publish_errors.push((s, e.to_string()));
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        if published > 0 {
            self.generation = target;
        }
        match first_err {
            Some(e) if published == 0 && pending > 0 => Err(e),
            _ => Ok(self.generation),
        }
    }

    /// Fully compact-and-publish one shard (repaying its tombstone debt and
    /// making pending inserts visible) at the next set generation — the
    /// maintenance scheduler's debt-threshold compaction. Other shards are
    /// untouched. Returns the set generation after the call; a no-op (shard
    /// clean, no debt) returns the current generation without publishing.
    ///
    /// # Errors
    /// `InvalidParameter` if `shard` is out of range or degraded;
    /// propagates the shard's publish errors (e.g. `EmptyDataset`).
    pub fn compact_shard(&mut self, shard: usize) -> Result<u64> {
        let writer = self.writers.get_mut(shard).and_then(Option::as_mut).ok_or_else(|| {
            AnnError::InvalidParameter(format!("shard {shard} is degraded or out of range"))
        })?;
        if !writer.is_dirty() && writer.tombstone_debt() == 0 {
            return Ok(self.generation);
        }
        let target = self.generation + 1;
        writer.publish_at(target)?;
        self.generation = target;
        Ok(target)
    }

    /// Mutable access to shard `shard`'s writer, if healthy — the
    /// maintenance scheduler's hook for per-shard jobs (WAL truncation
    /// rides on publish; debt accessors live on [`IndexWriter`]).
    pub fn writer_mut(&mut self, shard: usize) -> Option<&mut IndexWriter> {
        self.writers.get_mut(shard).and_then(Option::as_mut)
    }

    /// Per-shard failures from the most recent publish (empty while every
    /// dirty shard published cleanly).
    pub fn last_publish_errors(&self) -> &[(usize, String)] {
        &self.last_publish_errors
    }

    /// First persistence failure across shards, or `None` while every
    /// shard's durability is healthy (or not configured).
    pub fn last_persist_error(&self) -> Option<&str> {
        self.writers.iter().flatten().find_map(IndexWriter::last_persist_error)
    }

    /// The metrics registry this set reports to.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }
}

impl std::fmt::Debug for ShardSetWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardSetWriter")
            .field("shards", &self.shards())
            .field("live", &self.len())
            .field("generation", &self.generation)
            .field("next_external", &self.next_external)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_graph::AnnIndex;
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

    fn params() -> TauMngParams {
        TauMngParams { tau: 0.2, r: 24, l: 64, c: 200 }
    }

    #[test]
    fn split_one_shard_is_identity() {
        let (idx, base) = frozen(200, 9);
        let baseline = idx.search(base.get(11), 5, 48);
        let parts = split_index(idx, params(), 1).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].external_ids, (0..200u64).collect::<Vec<_>>());
        let again = parts[0].index.search(base.get(11), 5, 48);
        assert_eq!(baseline.ids, again.ids, "one-shard split must not touch the graph");
    }

    #[test]
    fn split_routes_every_point_exactly_once() {
        let (idx, _) = frozen(300, 10);
        let parts = split_index(idx, params(), 3).unwrap();
        assert_eq!(parts.len(), 3);
        let router = ShardRouter::new(3);
        let mut seen: Vec<u64> = Vec::new();
        for (s, part) in parts.iter().enumerate() {
            assert_eq!(part.index.store().len(), part.external_ids.len());
            for &e in &part.external_ids {
                assert_eq!(router.route(e), s, "id {e} routed to the wrong shard");
            }
            seen.extend_from_slice(&part.external_ids);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..300u64).collect::<Vec<_>>());
    }

    #[test]
    fn split_refuses_empty_shards_and_zero() {
        let (idx, _) = frozen(60, 11);
        assert!(split_index(idx, params(), 0).is_err());
        let (idx, _) = frozen(20, 12);
        // 20 points over 32 shards must leave some shard empty.
        assert!(split_index(idx, params(), 32).is_err());
    }

    #[test]
    fn merge_preserves_order_and_ties() {
        let ids = vec![vec![3, 9], vec![1, 7], vec![5]];
        let dists = vec![vec![0.5, 2.0], vec![0.5, 0.9], vec![1.5]];
        let (mid, mdist) = merge_topk(&ids, &dists, 4);
        // Tie at 0.5 broken by smaller id.
        assert_eq!(mid, vec![1, 3, 7, 5]);
        assert_eq!(mdist, vec![0.5, 0.5, 0.9, 1.5]);
        // Fewer than k available: return what exists.
        let (mid, _) = merge_topk(&ids, &dists, 10);
        assert_eq!(mid.len(), 5);
    }

    #[test]
    fn shard_beam_splits_budget_with_k_floor() {
        assert_eq!(shard_beam(100, 4, 10), 25);
        assert_eq!(shard_beam(100, 3, 10), 34);
        assert_eq!(shard_beam(12, 4, 10), 10, "floor at k");
        assert_eq!(shard_beam(100, 1, 10), 100, "single shard keeps the whole beam");
    }

    #[test]
    fn sharded_set_round_trip_with_mutations() {
        let (idx, base) = frozen(400, 13);
        let metrics = Arc::new(Metrics::with_shards(3));
        let parts = split_index(idx, params(), 3).unwrap();
        let (mut writer, set) = ShardSetWriter::attach(parts, params(), metrics.clone()).unwrap();
        assert_eq!(set.shards(), 3);
        assert_eq!(set.healthy(), 3);
        assert_eq!(writer.len(), 400);

        // Exact self-query through the fan-out finds the point wherever it
        // was routed.
        let mut snaps = Vec::new();
        set.load_into(&mut snaps);
        let mut scratch = Scratch::new(400);
        let mut fanout = Fanout::new(3);
        for q in [0u32, 57, 233, 399] {
            let hit = fanout.search_filtered(
                &snaps,
                base.get(q),
                1,
                96,
                None,
                &mut scratch,
                Some(&metrics),
            );
            assert_eq!(hit.ids, vec![u64::from(q)]);
            assert_eq!(hit.dists[0], 0.0);
        }

        // Mutations route by id; publish stamps the set generation.
        let added = writer.insert(base.get(100)).unwrap();
        assert_eq!(added, 400);
        writer.delete(100).unwrap();
        let gen = writer.publish().unwrap();
        assert_eq!(gen, 1);
        assert!(writer.last_publish_errors().is_empty());
        assert_eq!(writer.len(), 400);

        set.load_into(&mut snaps);
        let hit = fanout.search_filtered(
            &snaps,
            base.get(100),
            2,
            96,
            None,
            &mut scratch,
            Some(&metrics),
        );
        assert!(hit.ids.contains(&added), "replacement insert must be found: {:?}", hit.ids);
        assert!(!hit.ids.contains(&100), "deleted id must be gone: {:?}", hit.ids);
        // Only dirty shards republished; the set minimum reflects the
        // oldest still-serving snapshot.
        assert!(set.min_generation() <= 1);
        assert_eq!(set.total_points(), 400);
    }

    #[test]
    fn attach_rejects_misrouted_ids() {
        let (idx, _) = frozen(100, 14);
        let mut parts = split_index(idx, params(), 2).unwrap();
        // Swap one id into the wrong shard's table.
        let stolen = parts[1].external_ids[0];
        parts[0].external_ids[0] = stolen;
        let err = ShardSetWriter::attach(parts, params(), Arc::new(Metrics::with_shards(2)));
        assert!(err.is_err(), "misrouted external id must be rejected");
    }

    #[test]
    fn insert_skips_ids_owned_by_degraded_shards() {
        let (idx, base) = frozen(200, 15);
        let metrics = Arc::new(Metrics::with_shards(2));
        let parts = split_index(idx, params(), 2).unwrap();
        let (mut writer, _set) = ShardSetWriter::attach(parts, params(), metrics).unwrap();
        // Quarantine shard 1 by hand.
        writer.writers[1] = None;
        let before = writer.next_external;
        let ext = writer.insert(base.get(0)).unwrap();
        assert_eq!(writer.router().route(ext), 0, "id must land on the healthy shard");
        assert!(ext >= before);
        assert!(writer.delete(ext).is_ok());
        // Deleting an id owned by the degraded shard is refused.
        let lost = (0..200u64).find(|&e| writer.router().route(e) == 1).unwrap();
        assert!(writer.delete(lost).is_err());
    }
}
