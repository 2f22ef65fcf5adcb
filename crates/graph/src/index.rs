//! The `AnnIndex` trait: the one interface every index in the workspace
//! implements, so the evaluation harness, the repro binaries and the
//! examples are algorithm-agnostic.

use crate::adjacency::GraphView;
use crate::search::{Scratch, SearchStats};

/// Result of a single k-NN query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Up to `k` neighbor ids, best first.
    pub ids: Vec<u32>,
    /// Matching dissimilarities.
    pub dists: Vec<f32>,
    /// Traversal cost counters.
    pub stats: SearchStats,
}

/// Structural statistics of a frozen index (reported in experiment E2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphStats {
    /// Total directed edges.
    pub num_edges: usize,
    /// Mean out-degree.
    pub avg_degree: f64,
    /// Maximum out-degree.
    pub max_degree: usize,
}

impl GraphStats {
    /// Collect stats from any graph view.
    pub fn of<G: GraphView>(g: &G) -> Self {
        GraphStats {
            num_edges: g.num_edges(),
            avg_degree: g.avg_degree(),
            max_degree: g.max_degree(),
        }
    }
}

/// A built, queryable approximate-nearest-neighbor index.
pub trait AnnIndex: Send + Sync {
    /// Short algorithm name for reports ("HNSW", "NSG", "tau-MNG", …).
    fn name(&self) -> &'static str;

    /// Number of indexed points.
    fn num_points(&self) -> usize;

    /// Search with caller-provided scratch (the hot path: no allocation).
    ///
    /// `l` is the beam width / candidate list size (`ef_search` in HNSW,
    /// `L` in NSG and the paper); implementations clamp `l` to at least `k`.
    fn search_with(&self, query: &[f32], k: usize, l: usize, scratch: &mut Scratch) -> QueryResult;

    /// Convenience search that allocates fresh scratch.
    fn search(&self, query: &[f32], k: usize, l: usize) -> QueryResult {
        let mut scratch = Scratch::new(self.num_points());
        self.search_with(query, k, l, &mut scratch)
    }

    /// Bytes of index structure (adjacency + auxiliary arrays), excluding
    /// the raw vectors, matching how the paper reports index size.
    fn memory_bytes(&self) -> usize;

    /// Degree statistics of the search graph (bottom layer for HNSW).
    fn graph_stats(&self) -> GraphStats;
}

/// A frozen single-entry-point graph index over a flat graph — the shape
/// shared by NSG, SSG and Vamana (each a different *construction* of the
/// same searchable object). Searches run the workspace-common beam search
/// from `entry`.
pub struct FrozenGraphIndex {
    store: std::sync::Arc<ann_vectors::VecStore>,
    metric: ann_vectors::Metric,
    graph: crate::adjacency::FlatGraph,
    entry: u32,
    algo: &'static str,
}

impl FrozenGraphIndex {
    /// Assemble a frozen index.
    ///
    /// # Panics
    /// If `entry` is out of range or the graph/store sizes disagree —
    /// builders construct these from validated parts.
    pub fn new(
        store: std::sync::Arc<ann_vectors::VecStore>,
        metric: ann_vectors::Metric,
        graph: crate::adjacency::FlatGraph,
        entry: u32,
        algo: &'static str,
    ) -> Self {
        assert_eq!(graph.num_nodes(), store.len(), "graph/store size mismatch");
        assert!((entry as usize) < store.len(), "entry point out of range");
        FrozenGraphIndex { store, metric, graph, entry, algo }
    }

    /// The search entry point (medoid for NSG-family builders).
    pub fn entry_point(&self) -> u32 {
        self.entry
    }

    /// The underlying search graph.
    pub fn graph(&self) -> &crate::adjacency::FlatGraph {
        &self.graph
    }

    /// The metric this index searches under.
    pub fn metric(&self) -> ann_vectors::Metric {
        self.metric
    }

    /// Vector store the index points into.
    pub fn store(&self) -> &std::sync::Arc<ann_vectors::VecStore> {
        &self.store
    }

    /// Cache-aware relayout: renumber nodes in BFS order from the entry
    /// point, permuting adjacency and the vector store in lockstep.
    ///
    /// Returns the relayouted index plus the applied order (`order[new] =
    /// old`) so callers owning id-aligned side tables (external-id maps,
    /// ground-truth caches) can permute them identically. Search results are
    /// bit-identical to the original index; only memory locality changes.
    pub fn relayout_bfs(&self) -> (FrozenGraphIndex, Vec<u32>) {
        let order = crate::relayout::bfs_order(&self.graph, self.entry);
        let old_to_new = crate::relayout::invert_order(&order);
        let graph = self.graph.permute(&order, &old_to_new);
        let store = std::sync::Arc::new(self.store.permuted(&order));
        let entry = old_to_new[self.entry as usize];
        (FrozenGraphIndex::new(store, self.metric, graph, entry, self.algo), order)
    }
}

impl std::fmt::Debug for FrozenGraphIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenGraphIndex")
            .field("algo", &self.algo)
            .field("n", &self.store.len())
            .field("entry", &self.entry)
            .finish()
    }
}

impl AnnIndex for FrozenGraphIndex {
    fn name(&self) -> &'static str {
        self.algo
    }

    fn num_points(&self) -> usize {
        self.store.len()
    }

    fn search_with(&self, query: &[f32], k: usize, l: usize, scratch: &mut Scratch) -> QueryResult {
        let stats = crate::search::beam_search_dyn(
            self.metric,
            &self.store,
            &self.graph,
            &[self.entry],
            query,
            l.max(k),
            scratch,
        );
        let (ids, dists) = scratch.pool.top_k(k);
        QueryResult { ids, dists, stats }
    }

    fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes() + 4
    }

    fn graph_stats(&self) -> GraphStats {
        GraphStats::of(&self.graph)
    }
}

/// Exact top-`k` over the rows `rows` of `store`: the one scan loop, shared
/// by [`BruteForceIndex`] (every row) and the serving layer's filtered scan
/// (the rows a compiled filter admits).
///
/// The answer is ascending by `(distance, id)` — the order the graph
/// searches return — and `stats.ndc` counts the rows scanned. Distances come
/// from the same monomorphised kernel the traversal uses, so a row's
/// distance is bit-identical whichever plan evaluated it.
pub fn exact_scan(
    metric: ann_vectors::Metric,
    store: &ann_vectors::VecStore,
    query: &[f32],
    k: usize,
    rows: impl IntoIterator<Item = u32>,
) -> QueryResult {
    use crate::search::{DistanceSource, Exact};
    let mut top = ann_vectors::TopK::new(k.max(1));
    let mut ndc = 0u64;
    crate::with_kernel!(metric, |kernel| {
        let source = Exact { store, query, kernel };
        for i in rows {
            let d = source.dist(i);
            ndc += 1;
            if d < top.threshold() {
                top.push(d, i);
            }
        }
    });
    let mut sorted = top.into_sorted();
    sorted.truncate(k);
    QueryResult {
        ids: sorted.iter().map(|e| e.1).collect(),
        dists: sorted.iter().map(|e| e.0).collect(),
        stats: SearchStats { ndc, hops: 0, skipped: 0 },
    }
}

/// Exact brute-force "index": scans every vector per query.
///
/// Exists as (a) the ground-truth reference contender in reports, and
/// (b) the baseline that makes graph indexes' NDC savings legible — its NDC
/// is always exactly `n`.
pub struct BruteForceIndex {
    store: std::sync::Arc<ann_vectors::VecStore>,
    metric: ann_vectors::Metric,
}

impl BruteForceIndex {
    /// Wrap a store for exact scanning.
    pub fn new(store: std::sync::Arc<ann_vectors::VecStore>, metric: ann_vectors::Metric) -> Self {
        BruteForceIndex { store, metric }
    }
}

impl std::fmt::Debug for BruteForceIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BruteForceIndex").field("n", &self.store.len()).finish()
    }
}

impl AnnIndex for BruteForceIndex {
    fn name(&self) -> &'static str {
        "BruteForce"
    }

    fn num_points(&self) -> usize {
        self.store.len()
    }

    fn search_with(
        &self,
        query: &[f32],
        k: usize,
        _l: usize,
        _scratch: &mut Scratch,
    ) -> QueryResult {
        // cast: store len fits u32, the graph id type.
        exact_scan(self.metric, &self.store, query, k, 0..self.store.len() as u32)
    }

    fn memory_bytes(&self) -> usize {
        0
    }

    fn graph_stats(&self) -> GraphStats {
        GraphStats { num_edges: 0, avg_degree: 0.0, max_degree: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::VarGraph;

    #[test]
    fn brute_force_is_exact_and_counts_n() {
        let store = std::sync::Arc::new(
            ann_vectors::VecStore::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![5.0]])
                .unwrap(),
        );
        let idx = BruteForceIndex::new(store, ann_vectors::Metric::L2);
        let r = idx.search(&[1.9], 2, 1);
        assert_eq!(r.ids, vec![2, 1]);
        assert_eq!(r.stats.ndc, 4);
        // k > n clamps.
        let r = idx.search(&[0.0], 10, 1);
        assert_eq!(r.ids.len(), 4);
    }

    #[test]
    fn frozen_index_basics() {
        let store = std::sync::Arc::new(
            ann_vectors::VecStore::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]).unwrap(),
        );
        let mut g = VarGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(1, 0);
        g.add_edge(2, 1);
        let idx = FrozenGraphIndex::new(
            store,
            ann_vectors::Metric::L2,
            crate::adjacency::FlatGraph::freeze(&g, None),
            0,
            "TEST",
        );
        assert_eq!(idx.name(), "TEST");
        assert_eq!(idx.num_points(), 3);
        let r = idx.search(&[1.9], 2, 4);
        assert_eq!(r.ids[0], 2);
        assert_eq!(r.ids[1], 1);
        assert!(r.stats.ndc >= 3);
    }

    #[test]
    #[should_panic(expected = "entry point out of range")]
    fn frozen_index_validates_entry() {
        let store = std::sync::Arc::new(ann_vectors::VecStore::from_rows(&[vec![0.0]]).unwrap());
        let g = VarGraph::new(1);
        let _ = FrozenGraphIndex::new(
            store,
            ann_vectors::Metric::L2,
            crate::adjacency::FlatGraph::freeze(&g, None),
            5,
            "TEST",
        );
    }

    #[test]
    fn graph_stats_of_view() {
        let mut g = VarGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 2);
        let s = GraphStats::of(&g);
        assert_eq!(s.num_edges, 3);
        assert_eq!(s.max_degree, 2);
        assert!((s.avg_degree - 1.0).abs() < 1e-12);
    }
}
