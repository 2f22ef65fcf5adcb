//! Dynamic maintenance of a τ-MNG: incremental insertion, tombstone
//! deletion, and local repair.
//!
//! The published construction is static; real deployments insert and delete.
//! This module extends the index the way the broader literature does
//! (FreshDiskANN-style), but with the **τ-MG selection rule** as the pruning
//! primitive throughout, so the slack edges the paper argues for keep being
//! selected as the graph evolves:
//!
//! * **insert** — beam-search the new point's neighborhood from the entry,
//!   τ-prune the visited set into its out-list, then offer reverse edges
//!   (τ-pruning overflowing lists);
//! * **delete** — tombstone the node (searches route *through* it but never
//!   return it), then [`DynamicTauMng::repair`] splices each in-neighbor to
//!   the tombstone's out-neighbors under the τ rule and drops tombstone
//!   edges;
//! * **compact** — rebuild contiguous ids, dropping tombstones, reconnect
//!   any survivors the dropped edges orphaned (each is edged from its
//!   nearest reachable neighbor, respecting the degree cap), and freeze
//!   back into an immutable [`TauIndex`].
//!
//! Invariants maintained (tested below and in `tests/` at the workspace
//! root): out-degree ≤ R + the connectivity-repair slack, no edge points at
//! a compacted-away node, search never returns a tombstone.

use crate::geometry::{check_unit_norm, EuclideanView};
use crate::index::TauIndex;
use crate::mng::TauMngParams;
use crate::prune::tau_prune;
use ann_graph::{
    beam_search_collect_dyn, by_distance, offer_edge, FlatGraph, GraphView, QueryResult, Scratch,
    SearchStats, VarGraph,
};
use ann_nsg::repair_connectivity;
use ann_vectors::error::{AnnError, Result};
use ann_vectors::metric::Metric;
use ann_vectors::VecStore;
use std::sync::Arc;

/// A mutable τ-MNG supporting insertion and deletion.
pub struct DynamicTauMng {
    store: VecStore,
    metric: Metric,
    view: EuclideanView,
    params: TauMngParams,
    graph: VarGraph,
    deleted: Vec<bool>,
    live: usize,
    entry: u32,
    scratch: Scratch,
}

impl DynamicTauMng {
    /// Start an empty dynamic index.
    ///
    /// # Errors
    /// `InvalidParameter` for a non-metric dissimilarity or degenerate
    /// parameters.
    pub fn new(dim: usize, metric: Metric, params: TauMngParams) -> Result<Self> {
        let view = EuclideanView::for_metric(metric)?;
        if params.r == 0 || params.l == 0 {
            return Err(AnnError::InvalidParameter("r and l must be positive".into()));
        }
        if !params.tau.is_finite() || params.tau < 0.0 {
            return Err(AnnError::InvalidParameter("tau must be finite and >= 0".into()));
        }
        Ok(DynamicTauMng {
            store: VecStore::new(dim)?,
            metric,
            view,
            params,
            graph: VarGraph::new(0),
            deleted: Vec::new(),
            live: 0,
            entry: 0,
            scratch: Scratch::new(0),
        })
    }

    /// Adopt an existing frozen index (cloning its graph and store), with
    /// default construction parameters at the index's τ.
    pub fn from_index(index: &TauIndex) -> Self {
        Self::from_index_with_params(index, TauMngParams { tau: index.tau(), ..Default::default() })
    }

    /// Adopt an existing frozen index with explicit construction parameters
    /// for subsequent inserts/repairs — what a serving layer needs to keep
    /// `r`/`l`/`c` stable across compact→re-adopt cycles. `params.tau` is
    /// overridden by the index's τ (the frozen graph was pruned under it;
    /// mixing τ values would silently weaken the monotonicity argument).
    pub fn from_index_with_params(index: &TauIndex, params: TauMngParams) -> Self {
        let n = index.store().len();
        let lists: Vec<Vec<u32>> =
            // cast: node count fits u32, the graph id type.
            (0..n as u32).map(|u| index.graph().neighbors(u).to_vec()).collect();
        DynamicTauMng {
            store: (**index.store()).clone(),
            metric: index.metric(),
            view: index.view(),
            params: TauMngParams { tau: index.tau(), ..params },
            graph: VarGraph::from(lists),
            deleted: vec![false; n],
            live: n,
            entry: index.entry_point(),
            scratch: Scratch::new(n),
        }
    }

    /// The construction parameters applied to inserts and repairs.
    pub fn params(&self) -> TauMngParams {
        self.params
    }

    /// Number of live (non-tombstoned) points.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live points remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of tombstoned points still occupying slots.
    pub fn num_deleted(&self) -> usize {
        self.deleted.len() - self.live
    }

    /// Tombstoned fraction of all occupied slots (live + deleted), in
    /// `[0, 1]`; 0.0 for an empty index. This is the debt signal a
    /// maintenance policy compares against its compaction threshold.
    pub fn deleted_ratio(&self) -> f64 {
        if self.deleted.is_empty() {
            0.0
        } else {
            // cast: slot counts are far below 2^52, exact in f64.
            self.num_deleted() as f64 / self.deleted.len() as f64
        }
    }

    /// The underlying (possibly tombstone-carrying) store.
    pub fn store(&self) -> &VecStore {
        &self.store
    }

    /// Whether `id` is live.
    pub fn is_live(&self, id: u32) -> bool {
        (id as usize) < self.deleted.len() && !self.deleted[id as usize]
    }

    /// Insert a vector, returning its id.
    ///
    /// # Errors
    /// `DimensionMismatch` on a wrong-width vector; `InvalidParameter` if a
    /// cosine index receives a non-unit vector.
    pub fn insert(&mut self, v: &[f32]) -> Result<u32> {
        if self.view == EuclideanView::UnitSphere {
            let n = ann_vectors::metric::dot(v, v).sqrt();
            if (n - 1.0).abs() > 1e-3 {
                return Err(AnnError::InvalidParameter(format!(
                    "cosine tau-index requires unit vectors; got norm {n}"
                )));
            }
        }
        let id = self.store.push(v)?;
        self.deleted.push(false);
        self.live += 1;
        self.graph.push_node(Vec::new());
        self.scratch.visited.resize(self.store.len());
        if self.live == 1 {
            self.entry = id;
            return Ok(id);
        }

        // Candidate acquisition: everything a beam search for `v` touches.
        let mut log: Vec<(f32, u32)> = Vec::with_capacity(self.params.l * 8);
        beam_search_collect_dyn(
            self.metric,
            &self.store,
            &self.graph,
            &[self.entry],
            v,
            self.params.l,
            &mut self.scratch,
            &mut log,
        );
        log.retain(|&(_, c)| c != id && !self.deleted[c as usize]);
        log.sort_by(by_distance);
        log.dedup_by_key(|e| e.1);
        log.truncate(self.params.c);
        let (store, view, params) = (&self.store, self.view, self.params);
        let selected = tau_prune(store, view, &log, params.r, params.tau);

        // Reverse edges with τ re-pruning on overflow.
        for &q in &selected {
            offer_edge(store, self.metric, q, self.graph.neighbors_mut(q), id, params.r, |cands| {
                tau_prune(store, view, cands, params.r, params.tau)
            });
        }
        self.graph.set_neighbors(id, selected);
        Ok(id)
    }

    /// Tombstone a point. It keeps routing searches until [`Self::repair`]
    /// or [`Self::compact`] runs, but is never returned.
    ///
    /// # Errors
    /// `IdOutOfRange` for unknown ids; `InvalidParameter` for double deletes.
    pub fn delete(&mut self, id: u32) -> Result<()> {
        let slot = self
            .deleted
            .get_mut(id as usize)
            .ok_or(AnnError::IdOutOfRange { id: id as u64, len: self.store.len() as u64 })?;
        if *slot {
            return Err(AnnError::InvalidParameter(format!("id {id} already deleted")));
        }
        *slot = true;
        self.live -= 1;
        if id == self.entry && self.live > 0 {
            // Move the entry to any live neighbor, falling back to a scan.
            self.entry = self
                .graph
                .neighbors(id)
                .iter()
                .copied()
                .find(|&v| !self.deleted[v as usize])
                .unwrap_or_else(|| {
                    (0..self.store.len() as u32) // cast: store len fits u32
                        .find(|&v| !self.deleted[v as usize])
                        .expect("live > 0")
                });
        }
        Ok(())
    }

    /// Splice tombstones out of the graph: every in-neighbor of a deleted
    /// node is reconnected to the tombstone's live out-neighbors under the
    /// τ rule, then tombstone out-lists are cleared. Returns the number of
    /// spliced nodes.
    pub fn repair(&mut self) -> usize {
        let n = self.store.len();
        let mut spliced = 0usize;
        // For each live node that points at a tombstone, merge the
        // tombstones' out-lists into its candidates and re-prune.
        // cast: node count fits u32, the graph id type.
        for p in 0..n as u32 {
            if self.deleted[p as usize] {
                continue;
            }
            let has_dead = self.graph.neighbors(p).iter().any(|&v| self.deleted[v as usize]);
            if !has_dead {
                continue;
            }
            spliced += 1;
            let vp = self.store.get(p).to_vec();
            let mut cand_ids: Vec<u32> = Vec::new();
            for &v in self.graph.neighbors(p) {
                if self.deleted[v as usize] {
                    cand_ids.extend(
                        self.graph
                            .neighbors(v)
                            .iter()
                            .copied()
                            .filter(|&w| !self.deleted[w as usize] && w != p),
                    );
                } else {
                    cand_ids.push(v);
                }
            }
            cand_ids.sort_unstable();
            cand_ids.dedup();
            let mut cands: Vec<(f32, u32)> = cand_ids
                .into_iter()
                .map(|c| (self.metric.distance(&vp, self.store.get(c)), c))
                .collect();
            cands.sort_by(by_distance);
            let pruned = tau_prune(&self.store, self.view, &cands, self.params.r, self.params.tau);
            self.graph.set_neighbors(p, pruned);
        }
        // Clear tombstone out-lists so they stop consuming memory.
        // cast: node count fits u32, the graph id type.
        for d in 0..n as u32 {
            if self.deleted[d as usize] {
                self.graph.set_neighbors(d, Vec::new());
            }
        }
        spliced
    }

    /// Search the live set. Tombstones may still be traversed (before
    /// repair) but are filtered from results.
    pub fn search(&mut self, query: &[f32], k: usize, l: usize) -> QueryResult {
        if self.live == 0 {
            return QueryResult {
                ids: Vec::new(),
                dists: Vec::new(),
                stats: SearchStats::default(),
            };
        }
        // Over-provision the pool so k live results survive the filter.
        let slack = self.num_deleted().min(l);
        let stats = ann_graph::beam_search_dyn(
            self.metric,
            &self.store,
            &self.graph,
            &[self.entry],
            query,
            l.max(k) + slack,
            &mut self.scratch,
        );
        let mut ids = Vec::with_capacity(k);
        let mut dists = Vec::with_capacity(k);
        for c in self.scratch.pool.as_slice() {
            if ids.len() >= k {
                break;
            }
            if !self.deleted[c.id as usize] {
                ids.push(c.id);
                dists.push(c.dist);
            }
        }
        QueryResult { ids, dists, stats }
    }

    /// Drop tombstones, remap ids to a contiguous range, and freeze into an
    /// immutable [`TauIndex`]. Returns the index and the old→new id map
    /// (`None` for deleted slots).
    ///
    /// # Errors
    /// `EmptyDataset` if no live points remain; cosine stores re-validated.
    pub fn compact(&mut self) -> Result<(TauIndex, Vec<Option<u32>>)> {
        if self.live == 0 {
            return Err(AnnError::EmptyDataset);
        }
        self.repair();
        let n = self.store.len();
        let mut remap: Vec<Option<u32>> = vec![None; n];
        let mut new_store = VecStore::with_capacity(self.store.dim(), self.live)?;
        // cast: node count fits u32, the graph id type.
        for old in 0..n as u32 {
            if !self.deleted[old as usize] {
                let new_id = new_store.push(self.store.get(old))?;
                remap[old as usize] = Some(new_id);
            }
        }
        let mut new_graph = VarGraph::new(self.live);
        // cast: node count fits u32, the graph id type.
        for old in 0..n as u32 {
            let Some(new_id) = remap[old as usize] else {
                continue;
            };
            let nbrs: Vec<u32> =
                self.graph.neighbors(old).iter().filter_map(|&v| remap[v as usize]).collect();
            new_graph.set_neighbors(new_id, nbrs);
        }
        let entry = remap[self.entry as usize].expect("entry is live after delete bookkeeping");
        // Dropping tombstoned nodes (and their edges) can orphan survivors —
        // on strongly clustered data a tombstone is often the only bridge
        // into its cluster. Reconnect every unreachable node by edging it
        // from its nearest reachable neighbor (degree cap respected), so a
        // compacted index always passes the reachability audit that gates
        // publication and recovery.
        repair_connectivity(
            &mut new_graph,
            &new_store,
            self.metric,
            entry,
            self.params.l,
            self.params.r,
        );
        let store = Arc::new(new_store);
        if self.view == EuclideanView::UnitSphere {
            check_unit_norm(&store, 1e-3)?;
        }
        let flat = FlatGraph::freeze(&new_graph, None);
        Ok((
            TauIndex::assemble(
                store,
                self.metric,
                self.view,
                flat,
                entry,
                self.params.tau,
                "tau-MNG",
            ),
            remap,
        ))
    }
}

impl std::fmt::Debug for DynamicTauMng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynamicTauMng")
            .field("live", &self.live)
            .field("tombstones", &self.num_deleted())
            .field("dim", &self.store.dim())
            .field("tau", &self.params.tau)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_vectors::accuracy::mean_recall_at_k;
    use ann_vectors::brute_force_ground_truth;
    use ann_vectors::synthetic::{mixture_base, mixture_queries, FrozenMixture, MixtureSpec};

    fn params(tau: f32) -> TauMngParams {
        TauMngParams { tau, r: 24, l: 64, c: 200 }
    }

    fn mixture(n: usize, nq: usize, seed: u64) -> (VecStore, VecStore) {
        let mix = FrozenMixture::new(&MixtureSpec::default_for(12), seed);
        (mixture_base(&mix, n, seed), mixture_queries(&mix, nq, seed))
    }

    #[test]
    fn incremental_build_matches_recall_floor() {
        let (base, queries) = mixture(1200, 30, 3);
        let mut dynamic = DynamicTauMng::new(12, Metric::L2, params(0.2)).unwrap();
        for i in 0..base.len() as u32 {
            dynamic.insert(base.get(i)).unwrap();
        }
        assert_eq!(dynamic.len(), 1200);
        let base_arc = Arc::new(base);
        let gt = brute_force_ground_truth(Metric::L2, &base_arc, &queries, 10).unwrap();
        let results: Vec<Vec<u32>> = (0..queries.len() as u32)
            .map(|q| dynamic.search(queries.get(q), 10, 80).ids)
            .collect();
        let recall = mean_recall_at_k(&gt, &results, 10);
        assert!(recall > 0.9, "incremental recall too low: {recall}");
    }

    #[test]
    fn deleted_points_never_returned() {
        let (base, queries) = mixture(500, 10, 5);
        let mut dynamic = DynamicTauMng::new(12, Metric::L2, params(0.2)).unwrap();
        for i in 0..base.len() as u32 {
            dynamic.insert(base.get(i)).unwrap();
        }
        // Delete every third point.
        let mut deleted = Vec::new();
        for id in (0..500u32).step_by(3) {
            dynamic.delete(id).unwrap();
            deleted.push(id);
        }
        for q in 0..queries.len() as u32 {
            let r = dynamic.search(queries.get(q), 10, 60);
            assert_eq!(r.ids.len(), 10);
            for id in &r.ids {
                assert!(!deleted.contains(id), "tombstone {id} returned");
            }
        }
    }

    #[test]
    fn repair_then_search_keeps_quality() {
        let (base, queries) = mixture(800, 20, 7);
        let mut dynamic = DynamicTauMng::new(12, Metric::L2, params(0.2)).unwrap();
        for i in 0..base.len() as u32 {
            dynamic.insert(base.get(i)).unwrap();
        }
        for id in 0..160u32 {
            dynamic.delete(id).unwrap();
        }
        let spliced = dynamic.repair();
        assert!(spliced > 0, "repair must touch in-neighbors of tombstones");
        // Ground truth over the live subset only.
        let live_rows: Vec<Vec<f32>> = (160..800u32).map(|i| base.get(i).to_vec()).collect();
        let live = Arc::new(VecStore::from_rows(&live_rows).unwrap());
        let gt = brute_force_ground_truth(Metric::L2, &live, &queries, 10).unwrap();
        let mut hits = 0usize;
        for q in 0..queries.len() as u32 {
            let r = dynamic.search(queries.get(q), 10, 80);
            // Map dynamic ids (offset by 160) back into live ids.
            let mapped: Vec<u32> = r.ids.iter().map(|&id| id - 160).collect();
            hits += gt.ids(q as usize).iter().filter(|id| mapped.contains(id)).count();
        }
        let recall = hits as f64 / (queries.len() * 10) as f64;
        assert!(recall > 0.85, "post-repair recall too low: {recall}");
    }

    #[test]
    fn compact_produces_equivalent_frozen_index() {
        let (base, queries) = mixture(400, 10, 9);
        let mut dynamic = DynamicTauMng::new(12, Metric::L2, params(0.2)).unwrap();
        for i in 0..base.len() as u32 {
            dynamic.insert(base.get(i)).unwrap();
        }
        for id in 0..80u32 {
            dynamic.delete(id).unwrap();
        }
        let (frozen, remap) = dynamic.compact().unwrap();
        assert_eq!(frozen.store().len(), 320);
        assert!(remap[..80].iter().all(Option::is_none));
        assert!(remap[80..].iter().all(Option::is_some));
        // No dangling edges after compaction.
        for u in 0..320u32 {
            for &v in frozen.graph().neighbors(u) {
                assert!((v as usize) < 320);
            }
        }
        // Frozen index answers sensibly.
        use ann_graph::AnnIndex;
        let r = frozen.search(queries.get(0), 5, 40);
        assert_eq!(r.ids.len(), 5);
    }

    #[test]
    fn compaction_reconnects_clustered_orphans() {
        // Clusters inserted one after another: the first few points of each
        // later cluster are the only bridges back toward the entry point.
        // Deleting those bridges used to leave the whole cluster unreachable
        // after compact(), tripping the reachability audit that gates
        // publication and recovery.
        let (clusters, per, bridge) = (4u32, 100u32, 20u32);
        let mut rng: u64 = 0x1234_5678;
        let mut jitter = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((rng >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let mut dynamic = DynamicTauMng::new(8, Metric::L2, params(0.2)).unwrap();
        for c in 0..clusters {
            for _ in 0..per {
                let v: Vec<f32> = (0..8).map(|_| c as f32 * 100.0 + jitter() * 0.5).collect();
                dynamic.insert(&v).unwrap();
            }
        }
        for c in 1..clusters {
            for id in c * per..c * per + bridge {
                dynamic.delete(id).unwrap();
            }
        }
        let (frozen, remap) = dynamic.compact().unwrap();
        assert_eq!(frozen.store().len(), (clusters * per - (clusters - 1) * bridge) as usize);
        assert!(remap[..per as usize].iter().all(Option::is_some));
        assert!(
            ann_graph::connectivity::fully_reachable(frozen.graph(), frozen.entry_point()),
            "compacted clustered index must leave no orphaned nodes"
        );
    }

    #[test]
    fn entry_point_survives_its_own_deletion() {
        let (base, _) = mixture(50, 1, 11);
        let mut dynamic = DynamicTauMng::new(12, Metric::L2, params(0.2)).unwrap();
        for i in 0..50u32 {
            dynamic.insert(base.get(i)).unwrap();
        }
        // Delete the first point (the initial entry).
        dynamic.delete(0).unwrap();
        let r = dynamic.search(base.get(1), 5, 20);
        assert_eq!(r.ids.len(), 5);
        assert!(!r.ids.contains(&0));
    }

    #[test]
    fn lifecycle_edge_cases() {
        let mut dynamic = DynamicTauMng::new(4, Metric::L2, params(0.1)).unwrap();
        assert!(dynamic.is_empty());
        assert!(dynamic.search(&[0.0; 4], 3, 8).ids.is_empty());
        assert!(dynamic.compact().is_err(), "empty compact must fail");
        let id = dynamic.insert(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        assert!(dynamic.insert(&[1.0, 0.0]).is_err(), "dim mismatch");
        assert!(dynamic.delete(99).is_err(), "unknown id");
        dynamic.delete(id).unwrap();
        assert!(dynamic.delete(id).is_err(), "double delete");
        assert!(dynamic.is_empty());
    }

    #[test]
    fn from_index_roundtrip() {
        let (base, _) = mixture(300, 1, 13);
        let base = Arc::new(base);
        let knn = ann_knng::brute_force_knn_graph(Metric::L2, &base, 10).unwrap();
        let frozen = crate::mng::build_tau_mng(
            base.clone(),
            Metric::L2,
            &knn,
            TauMngParams { tau: 0.2, ..Default::default() },
        )
        .unwrap();
        let mut dynamic = DynamicTauMng::from_index(&frozen);
        assert_eq!(dynamic.len(), 300);
        let added = dynamic.insert(base.get(0)).unwrap();
        assert_eq!(added, 300);
        let r = dynamic.search(base.get(0), 2, 16);
        // The duplicate pair (0 and 300) must be the two nearest.
        assert!(r.ids.contains(&0) || r.ids.contains(&300));
        assert_eq!(r.dists[0], 0.0);
    }
}
