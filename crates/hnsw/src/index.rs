//! The frozen, queryable HNSW index.

use crate::build::build_graph;
use crate::params::HnswParams;
use ann_graph::connectivity::repair_connectivity;
use ann_graph::serialize::{graph_from_bytes, graph_to_bytes};
use ann_graph::{
    beam_search_dyn, AnnIndex, FlatGraph, GraphStats, GraphView, QueryResult, Scratch, SearchStats,
    VarGraph,
};
use ann_vectors::codec::{self, Format};
use ann_vectors::error::{AnnError, Result};
use ann_vectors::metric::Metric;
use ann_vectors::VecStore;
use std::sync::Arc;

const HNSW: Format =
    Format { name: "hnsw", magic: 0x484E_5731, version: 1, oldest: 1, min_len: 48 };

/// A built HNSW index.
///
/// Layer 0 is a [`FlatGraph`] searched with the workspace-common beam
/// search; upper layers are sparse per-node link lists used only for greedy
/// routing (a handful of hops per query).
pub struct Hnsw {
    store: Arc<VecStore>,
    metric: Metric,
    layer0: FlatGraph,
    /// `upper[u][l-1]` = neighbors of `u` at level `l ≥ 1`; empty for
    /// level-0 nodes.
    upper: Vec<Vec<Vec<u32>>>,
    entry: u32,
    max_level: usize,
    params: HnswParams,
}

impl Hnsw {
    /// Build an HNSW index over `store`.
    ///
    /// # Errors
    /// `EmptyDataset` if the store is empty; `InvalidParameter` for `m < 2`
    /// or `ef_construction == 0`.
    pub fn build(store: Arc<VecStore>, metric: Metric, params: HnswParams) -> Result<Self> {
        if store.is_empty() {
            return Err(AnnError::EmptyDataset);
        }
        if params.m < 2 {
            return Err(AnnError::InvalidParameter("HNSW requires m >= 2".into()));
        }
        if params.ef_construction == 0 {
            return Err(AnnError::InvalidParameter("ef_construction must be > 0".into()));
        }
        let state = build_graph(&store, metric, &params);
        let n = store.len();
        let mut var0 = VarGraph::new(n);
        let mut upper: Vec<Vec<Vec<u32>>> = vec![Vec::new(); n];
        for (u, slot) in upper.iter_mut().enumerate() {
            let mut guard = state.links[u].lock();
            let lists = std::mem::take(&mut *guard);
            for (level, list) in lists.into_iter().enumerate() {
                if level == 0 {
                    var0.set_neighbors(u as u32, list);
                } else {
                    slot.push(list);
                }
            }
        }
        let (entry, max_level) = *state.entry.read();
        // Concurrent insertion promises only local link quality: a node's
        // in-links can all be pruned away by neighbors shrinking their lists
        // at the same time. A no-op on a connected layer.
        repair_connectivity(
            &mut var0,
            &store,
            metric,
            entry,
            params.ef_construction,
            params.max_m0(),
        );
        let layer0 = FlatGraph::freeze(&var0, Some(params.max_m0()));
        Ok(Hnsw { store, metric, layer0, upper, entry, max_level, params })
    }

    /// The metric this index searches under.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The layer-0 proximity graph (the paper's experiments operate on
    /// bottom layers of HNSW-family indexes).
    pub fn bottom_layer(&self) -> &FlatGraph {
        &self.layer0
    }

    /// Entry point node id and its level.
    pub fn entry_point(&self) -> (u32, usize) {
        (self.entry, self.max_level)
    }

    /// Construction parameters.
    pub fn params(&self) -> &HnswParams {
        &self.params
    }

    /// Vector store the index points into.
    pub fn store(&self) -> &Arc<VecStore> {
        &self.store
    }

    fn upper_neighbors(&self, u: u32, level: usize) -> &[u32] {
        debug_assert!(level >= 1);
        self.upper[u as usize].get(level - 1).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Route greedily from the entry point down to layer 1, returning the
    /// layer-0 entry.
    fn route(&self, query: &[f32], stats: &mut SearchStats) -> u32 {
        let mut cur = self.entry;
        let mut cur_d = self.metric.distance(query, self.store.get(cur));
        stats.ndc += 1;
        for level in (1..=self.max_level).rev() {
            loop {
                let mut improved = false;
                for &v in self.upper_neighbors(cur, level) {
                    let d = self.metric.distance(query, self.store.get(v));
                    stats.ndc += 1;
                    if d < cur_d {
                        cur = v;
                        cur_d = d;
                        improved = true;
                    }
                }
                if !improved {
                    break;
                }
                stats.hops += 1;
            }
        }
        cur
    }

    /// Serialize the index structure (not the vectors) as one `HNW1`
    /// frame: header | metric initial (u8) | pad (u8) | n (u64) | dim (u64)
    /// | entry, max level, m, ef_construction (u32 each) | per node: level
    /// count (u8), then per level a u32 count and the u32 ids | `GRF1`
    /// layer 0 (u64-length prefixed).
    pub fn to_bytes(&self) -> Vec<u8> {
        let graph = graph_to_bytes(&self.layer0);
        let mut w = HNSW.writer(56 + graph.len());
        w.u8(self.metric.name().as_bytes()[0]).u8(0); // 'L' / 'I' / 'C'
        w.u64(self.store.len() as u64).u64(self.store.dim() as u64);
        w.u32(self.entry).u32(self.max_level as u32);
        w.u32(self.params.m as u32).u32(self.params.ef_construction as u32);
        for levels in &self.upper {
            w.u8(levels.len() as u8);
            for list in levels {
                w.u32(list.len() as u32).u32s(list);
            }
        }
        w.bytes_u64(&graph).seal()
    }

    /// Reconstruct an index from [`Hnsw::to_bytes`] output and the matching
    /// vector store.
    ///
    /// # Errors
    /// `CorruptIndex` if the buffer fails validation or does not match
    /// `store`'s shape.
    pub fn from_bytes(buf: &[u8], store: Arc<VecStore>, metric: Metric) -> Result<Self> {
        let corrupt = |detail: &str| AnnError::CorruptIndex(format!("hnsw {detail}"));
        let (_, mut r) = codec::open(buf, &HNSW)?;
        if r.u8()? != metric.name().as_bytes()[0] {
            return Err(corrupt("metric mismatch"));
        }
        r.u8()?; // pad
        let (n, dim) = (r.count()?, r.count()?);
        if n != store.len() || dim != store.dim() {
            let (sn, sd) = (store.len(), store.dim());
            return Err(corrupt(&format!("built for {n} x {dim}, store is {sn} x {sd}")));
        }
        let entry = r.u32()?;
        let max_level = r.u32()? as usize;
        let m = r.u32()? as usize;
        let ef_construction = r.u32()? as usize;
        let mut upper = Vec::with_capacity(n);
        for _ in 0..n {
            let levels = r.u8()?;
            let mut lists = Vec::with_capacity(levels.into());
            for _ in 0..levels {
                let len = r.u32()? as usize;
                let list = r.u32s(len)?;
                if list.iter().any(|&v| v as usize >= n) {
                    return Err(corrupt("upper neighbor out of range"));
                }
                lists.push(list);
            }
            upper.push(lists);
        }
        let layer0 = graph_from_bytes(r.bytes_u64()?)?;
        r.finish()?;
        if layer0.num_nodes() != n {
            return Err(corrupt("layer0 node count mismatch"));
        }
        if entry as usize >= n {
            return Err(corrupt("entry out of range"));
        }
        let params = HnswParams { m, ef_construction, ..HnswParams::default() };
        Ok(Hnsw { store, metric, layer0, upper, entry, max_level, params })
    }
}

impl std::fmt::Debug for Hnsw {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hnsw")
            .field("n", &self.store.len())
            .field("entry", &self.entry)
            .field("max_level", &self.max_level)
            .field("m", &self.params.m)
            .finish()
    }
}

impl AnnIndex for Hnsw {
    fn name(&self) -> &'static str {
        "HNSW"
    }

    fn num_points(&self) -> usize {
        self.store.len()
    }

    fn search_with(&self, query: &[f32], k: usize, l: usize, scratch: &mut Scratch) -> QueryResult {
        let mut stats = SearchStats::default();
        let entry0 = self.route(query, &mut stats);
        let ef = l.max(k);
        let s =
            beam_search_dyn(self.metric, &self.store, &self.layer0, &[entry0], query, ef, scratch);
        stats.accumulate(s);
        let (ids, dists) = scratch.pool.top_k(k);
        QueryResult { ids, dists, stats }
    }

    fn memory_bytes(&self) -> usize {
        let upper_bytes: usize = self
            .upper
            .iter()
            .flat_map(|levels| levels.iter().map(|l| l.len() * 4 + 8))
            .sum();
        self.layer0.memory_bytes() + upper_bytes
    }

    fn graph_stats(&self) -> GraphStats {
        GraphStats::of(&self.layer0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_vectors::accuracy::mean_recall_at_k;
    use ann_vectors::brute_force_ground_truth;
    use ann_vectors::synthetic::{mixture_base, mixture_queries, FrozenMixture, MixtureSpec};

    fn dataset(n: usize, nq: usize, dim: usize, seed: u64) -> (Arc<VecStore>, VecStore) {
        let mix = FrozenMixture::new(&MixtureSpec::default_for(dim), seed);
        (Arc::new(mixture_base(&mix, n, seed)), mixture_queries(&mix, nq, seed))
    }

    #[test]
    fn build_validates_inputs() {
        let empty = Arc::new(VecStore::new(4).unwrap());
        assert!(Hnsw::build(empty, Metric::L2, HnswParams::default()).is_err());
        let (store, _) = dataset(20, 1, 4, 1);
        assert!(
            Hnsw::build(store.clone(), Metric::L2, HnswParams { m: 1, ..Default::default() })
                .is_err()
        );
        assert!(Hnsw::build(
            store,
            Metric::L2,
            HnswParams { ef_construction: 0, ..Default::default() }
        )
        .is_err());
    }

    #[test]
    fn single_point_index() {
        let store = Arc::new(VecStore::from_rows(&[vec![1.0, 2.0]]).unwrap());
        let idx = Hnsw::build(store, Metric::L2, HnswParams::default()).unwrap();
        let r = idx.search(&[0.0, 0.0], 1, 10);
        assert_eq!(r.ids, vec![0]);
        assert_eq!(r.dists, vec![5.0]);
    }

    #[test]
    fn recall_on_clustered_data() {
        let (store, queries) = dataset(2000, 50, 16, 42);
        let gt = brute_force_ground_truth(Metric::L2, &store, &queries, 10).unwrap();
        let idx = Hnsw::build(store, Metric::L2, HnswParams::default()).unwrap();
        let mut scratch = Scratch::new(idx.num_points());
        let results: Vec<Vec<u32>> = (0..queries.len() as u32)
            .map(|q| idx.search_with(queries.get(q), 10, 100, &mut scratch).ids)
            .collect();
        let recall = mean_recall_at_k(&gt, &results, 10);
        assert!(recall > 0.95, "HNSW recall@10 too low: {recall}");
    }

    #[test]
    fn larger_ef_never_hurts_much() {
        let (store, queries) = dataset(1500, 30, 12, 7);
        let gt = brute_force_ground_truth(Metric::L2, &store, &queries, 10).unwrap();
        let idx = Hnsw::build(store, Metric::L2, HnswParams::default()).unwrap();
        let mut scratch = Scratch::new(idx.num_points());
        let mut recalls = Vec::new();
        for ef in [10, 40, 160] {
            let results: Vec<Vec<u32>> = (0..queries.len() as u32)
                .map(|q| idx.search_with(queries.get(q), 10, ef, &mut scratch).ids)
                .collect();
            recalls.push(mean_recall_at_k(&gt, &results, 10));
        }
        assert!(recalls[2] >= recalls[0] - 0.02, "recall not improving with ef: {recalls:?}");
        assert!(recalls[2] > 0.9);
    }

    #[test]
    fn stats_are_counted() {
        let (store, queries) = dataset(500, 1, 8, 3);
        let idx = Hnsw::build(store, Metric::L2, HnswParams::default()).unwrap();
        let r = idx.search(queries.get(0), 5, 50);
        assert!(r.stats.ndc > 0);
        assert_eq!(r.ids.len(), 5);
        assert!(r.dists.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn degree_caps_respected() {
        let (store, _) = dataset(800, 1, 8, 11);
        let params = HnswParams { m: 8, ..Default::default() };
        let idx = Hnsw::build(store, Metric::L2, params).unwrap();
        let stats = idx.graph_stats();
        assert!(stats.max_degree <= params.max_m0());
        for u in 0..idx.num_points() {
            for (li, list) in idx.upper[u].iter().enumerate() {
                assert!(
                    list.len() <= params.max_m(),
                    "node {u} level {} degree {}",
                    li + 1,
                    list.len()
                );
            }
        }
    }

    #[test]
    fn serialization_roundtrip_preserves_results() {
        let (store, queries) = dataset(600, 10, 8, 5);
        let idx = Hnsw::build(store.clone(), Metric::L2, HnswParams::default()).unwrap();
        let bytes = idx.to_bytes();
        let idx2 = Hnsw::from_bytes(&bytes, store, Metric::L2).unwrap();
        for q in 0..queries.len() as u32 {
            let a = idx.search(queries.get(q), 5, 50);
            let b = idx2.search(queries.get(q), 5, 50);
            assert_eq!(a.ids, b.ids);
        }
    }

    #[test]
    fn serialization_rejects_corruption_and_mismatch() {
        let (store, _) = dataset(100, 1, 4, 9);
        let idx = Hnsw::build(store.clone(), Metric::L2, HnswParams::default()).unwrap();
        let mut bytes = idx.to_bytes();
        // Wrong metric.
        assert!(Hnsw::from_bytes(&bytes, store.clone(), Metric::Cosine).is_err());
        // Wrong store shape.
        let other = Arc::new(VecStore::from_rows(&[vec![0.0; 4]]).unwrap());
        assert!(Hnsw::from_bytes(&bytes, other, Metric::L2).is_err());
        // Bit flip.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(Hnsw::from_bytes(&bytes, store, Metric::L2).is_err());
    }

    #[test]
    fn cosine_metric_end_to_end() {
        let (store, queries) = {
            let mix = FrozenMixture::new(&MixtureSpec::default_for(12), 13);
            let mut b = mixture_base(&mix, 1000, 13);
            let mut q = mixture_queries(&mix, 20, 13);
            b.normalize();
            q.normalize();
            (Arc::new(b), q)
        };
        let gt = brute_force_ground_truth(Metric::Cosine, &store, &queries, 5).unwrap();
        let idx = Hnsw::build(store, Metric::Cosine, HnswParams::default()).unwrap();
        let results: Vec<Vec<u32>> = (0..queries.len() as u32)
            .map(|q| idx.search(queries.get(q), 5, 80).ids)
            .collect();
        let recall = mean_recall_at_k(&gt, &results, 5);
        assert!(recall > 0.9, "cosine recall too low: {recall}");
    }
}
