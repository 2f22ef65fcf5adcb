//! The frozen τ-monotonic index (shared by the exact τ-MG and the practical
//! τ-MNG builders), including edge-length storage for QEO and checksummed
//! binary persistence.

use crate::geometry::EuclideanView;
use crate::search::{tau_search, TauSearchOptions};
use ann_graph::serialize::{graph_from_bytes, graph_to_bytes};
use ann_graph::{AnnIndex, FlatGraph, GraphStats, GraphView, QueryResult, Scratch};
use ann_vectors::codec::{self, Format};
use ann_vectors::error::{AnnError, Result};
use ann_vectors::metric::Metric;
use ann_vectors::parallel::{num_threads, parallel_for};
use ann_vectors::VecStore;
use std::sync::Arc;

const TAU: Format =
    Format { name: "tau index", magic: 0x544D_4731, version: 1, oldest: 1, min_len: 48 };

/// A frozen τ-monotonic graph index.
pub struct TauIndex {
    pub(crate) store: Arc<VecStore>,
    pub(crate) metric: Metric,
    pub(crate) view: EuclideanView,
    pub(crate) graph: FlatGraph,
    /// Euclidean length of each edge, in the graph's slot layout
    /// (`u * cap + slot`); only the live prefix of each row is meaningful.
    pub(crate) edge_len_eu: Vec<f32>,
    pub(crate) entry: u32,
    pub(crate) tau: f32,
    pub(crate) algo: &'static str,
    /// Optional SQ8 side-car enabling the quantized beam fast path (see
    /// [`TauIndex::enable_sq8`]). Not serialized — rebuilt on demand.
    pub(crate) sq8: Option<ann_vectors::Sq8Store>,
}

/// Compute Euclidean edge lengths for a frozen graph (parallel).
pub(crate) fn compute_edge_lengths(store: &VecStore, graph: &FlatGraph) -> Vec<f32> {
    let cap = graph.capacity();
    let n = graph.num_nodes();
    let lens: Vec<std::sync::atomic::AtomicU32> =
        (0..n * cap).map(|_| std::sync::atomic::AtomicU32::new(0)).collect();
    parallel_for(n, num_threads(), |u| {
        let id = u as u32; // cast: u < n, and node ids are u32 by construction
        let vu = store.get(id);
        for (slot, &v) in graph.neighbors(id).iter().enumerate() {
            let d = ann_vectors::metric::l2_sq(vu, store.get(v)).sqrt();
            lens[u * cap + slot].store(d.to_bits(), std::sync::atomic::Ordering::Relaxed);
        }
    });
    lens.into_iter()
        .map(|a| f32::from_bits(a.load(std::sync::atomic::Ordering::Relaxed)))
        .collect()
}

impl TauIndex {
    pub(crate) fn assemble(
        store: Arc<VecStore>,
        metric: Metric,
        view: EuclideanView,
        graph: FlatGraph,
        entry: u32,
        tau: f32,
        algo: &'static str,
    ) -> Self {
        let edge_len_eu = compute_edge_lengths(&store, &graph);
        TauIndex { store, metric, view, graph, edge_len_eu, entry, tau, algo, sq8: None }
    }

    /// Build (or rebuild) the SQ8 scalar-quantized side-car. While present,
    /// [`crate::search::tau_search`] runs beam expansion over u8 codes with
    /// an exact f32 re-rank of the final pool (QEO is bypassed on that path:
    /// mixing exact edge-length bounds with approximate candidate distances
    /// would be unsound).
    pub fn enable_sq8(&mut self) {
        self.sq8 = Some(ann_vectors::Sq8Store::quantize(&self.store));
    }

    /// Drop the SQ8 side-car, returning to full-precision search.
    pub fn disable_sq8(&mut self) {
        self.sq8 = None;
    }

    /// The SQ8 side-car, if enabled.
    pub fn sq8(&self) -> Option<&ann_vectors::Sq8Store> {
        self.sq8.as_ref()
    }

    /// Cache-aware relayout: renumber nodes in BFS order from the entry
    /// point, permuting adjacency, vectors, QEO edge lengths and the SQ8
    /// side-car (if any) in lockstep.
    ///
    /// Edge lengths are *moved*, not recomputed, so the relayouted index is
    /// bit-identical in behavior to the original (`order[new] = old` is
    /// returned for callers owning id-aligned side tables such as the
    /// serving layer's external-id map). The traversal is isomorphic under
    /// the relabeling: NDC and hops are unchanged; only cache locality (and
    /// therefore QPS) improves.
    pub fn relayout_bfs(&self) -> (TauIndex, Vec<u32>) {
        let order = ann_graph::relayout::bfs_order(&self.graph, self.entry);
        let old_to_new = ann_graph::relayout::invert_order(&order);
        let graph = self.graph.permute(&order, &old_to_new);
        let store = Arc::new(self.store.permuted(&order));
        let cap = self.graph.capacity();
        let mut edge_len_eu = vec![0.0f32; self.edge_len_eu.len()];
        for (new_u, &old_u) in order.iter().enumerate() {
            let live = self.graph.neighbors(old_u).len();
            let src = old_u as usize * cap;
            edge_len_eu[new_u * cap..new_u * cap + live]
                .copy_from_slice(&self.edge_len_eu[src..src + live]);
        }
        let entry = old_to_new[self.entry as usize];
        let sq8 = self.sq8.as_ref().map(|s| s.permuted(&order));
        let index = TauIndex {
            store,
            metric: self.metric,
            view: self.view,
            graph,
            edge_len_eu,
            entry,
            tau: self.tau,
            algo: self.algo,
            sq8,
        };
        (index, order)
    }

    /// The τ the graph was built for (Euclidean units).
    pub fn tau(&self) -> f32 {
        self.tau
    }

    /// The search entry point (medoid).
    pub fn entry_point(&self) -> u32 {
        self.entry
    }

    /// The underlying search graph.
    pub fn graph(&self) -> &FlatGraph {
        &self.graph
    }

    /// The metric this index searches under.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The Euclidean view used for τ geometry.
    pub fn view(&self) -> EuclideanView {
        self.view
    }

    /// Vector store the index points into.
    pub fn store(&self) -> &Arc<VecStore> {
        &self.store
    }

    /// Euclidean lengths of `u`'s out-edges, aligned with
    /// `self.graph().neighbors(u)`.
    #[inline]
    pub fn edge_lengths(&self, u: u32) -> &[f32] {
        let cap = self.graph.capacity();
        let base = u as usize * cap;
        &self.edge_len_eu[base..base + self.graph.neighbors(u).len()]
    }

    /// τ-monotonic search with explicit options (the paper's search
    /// algorithm; experiment E9 ablates the options).
    pub fn search_opts(
        &self,
        query: &[f32],
        k: usize,
        l: usize,
        opts: TauSearchOptions,
        scratch: &mut Scratch,
    ) -> QueryResult {
        tau_search(self, query, k, l, opts, scratch)
    }

    /// Serialize the index structure (not the vectors) as one `TMG1`
    /// frame: header | metric initial (u8) | algo (u8: 0 = τ-MG) | τ (f32)
    /// | entry (u32) | n (u64) | dim (u64) | `GRF1` graph (u64-length
    /// prefixed) | edge-length count (u64) | edge lengths (f32).
    pub fn to_bytes(&self) -> Vec<u8> {
        let graph = graph_to_bytes(&self.graph);
        let edges = &self.edge_len_eu;
        let mut w = TAU.writer(42 + graph.len() + edges.len() * 4);
        w.u8(self.metric.name().as_bytes()[0]).u8(u8::from(self.algo != "tau-MG"));
        w.f32(self.tau).u32(self.entry);
        w.u64(self.store.len() as u64).u64(self.store.dim() as u64);
        w.bytes_u64(&graph).u64(edges.len() as u64).f32s(edges).seal()
    }

    /// Reconstruct from [`TauIndex::to_bytes`] output plus the matching
    /// store and metric.
    ///
    /// # Errors
    /// `CorruptIndex` on any validation failure.
    pub fn from_bytes(buf: &[u8], store: Arc<VecStore>, metric: Metric) -> Result<Self> {
        let corrupt = |detail: &str| AnnError::CorruptIndex(format!("tau index {detail}"));
        let (_, mut r) = codec::open(buf, &TAU)?;
        if r.u8()? != metric.name().as_bytes()[0] {
            return Err(corrupt("metric mismatch"));
        }
        let algo = if r.u8()? == 0 { "tau-MG" } else { "tau-MNG" };
        let tau = r.f32()?;
        if !tau.is_finite() || tau < 0.0 {
            return Err(corrupt("invalid tau"));
        }
        let entry = r.u32()?;
        let (n, dim) = (r.count()?, r.count()?);
        if n != store.len() || dim != store.dim() {
            let (sn, sd) = (store.len(), store.dim());
            return Err(corrupt(&format!("built for {n} x {dim}, store is {sn} x {sd}")));
        }
        let graph = graph_from_bytes(r.bytes_u64()?)?;
        if graph.num_nodes() != n {
            return Err(corrupt("graph node count mismatch"));
        }
        if entry as usize >= n {
            return Err(corrupt("entry out of range"));
        }
        let elen = r.count()?;
        if elen != n * graph.capacity() {
            return Err(corrupt("edge-length section mismatch"));
        }
        let edge_len_eu = r.f32s(elen)?;
        r.finish()?;
        let view = EuclideanView::for_metric(metric)
            .map_err(|_| corrupt("metric is not a metric space"))?;
        Ok(TauIndex { store, metric, view, graph, edge_len_eu, entry, tau, algo, sq8: None })
    }
}

impl std::fmt::Debug for TauIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TauIndex")
            .field("algo", &self.algo)
            .field("n", &self.store.len())
            .field("dim", &self.store.dim())
            .field("tau", &self.tau)
            .field("entry", &self.entry)
            .field("edges", &self.graph.num_edges())
            .finish()
    }
}

impl AnnIndex for TauIndex {
    fn name(&self) -> &'static str {
        self.algo
    }

    fn num_points(&self) -> usize {
        self.store.len()
    }

    fn search_with(&self, query: &[f32], k: usize, l: usize, scratch: &mut Scratch) -> QueryResult {
        tau_search(self, query, k, l, TauSearchOptions::default(), scratch)
    }

    fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes() + self.edge_len_eu.len() * 4 + 8
    }

    fn graph_stats(&self) -> GraphStats {
        GraphStats::of(&self.graph)
    }
}
