//! The frozen τ-monotonic index (shared by the exact τ-MG and the practical
//! τ-MNG builders), including edge-length storage for QEO and checksummed
//! binary persistence.

use crate::geometry::EuclideanView;
use crate::search::{tau_search, TauSearchOptions};
use ann_graph::serialize::{graph_from_bytes, graph_to_bytes};
use ann_graph::{AnnIndex, FlatGraph, GraphStats, GraphView, QueryResult, Scratch};
use ann_vectors::error::{AnnError, Result};
use ann_vectors::io::fnv1a;
use ann_vectors::metric::Metric;
use ann_vectors::parallel::{num_threads, parallel_for};
use ann_vectors::VecStore;
use bytes::{Buf, BufMut, BytesMut};
use std::sync::Arc;

const TAU_MAGIC: u32 = 0x544D_4731; // "TMG1"
const TAU_VERSION: u16 = 1;

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
        let vu = store.get(u as u32);
        for (slot, &v) in graph.neighbors(u as u32).iter().enumerate() {
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

    /// Serialize the index structure (not the vectors).
    pub fn to_bytes(&self) -> Vec<u8> {
        let graph_bytes = graph_to_bytes(&self.graph);
        let mut buf = BytesMut::with_capacity(64 + graph_bytes.len() + self.edge_len_eu.len() * 4);
        buf.put_u32_le(TAU_MAGIC);
        buf.put_u16_le(TAU_VERSION);
        buf.put_u8(self.metric.name().as_bytes()[0]);
        buf.put_u8(if self.algo == "tau-MG" { 0 } else { 1 });
        buf.put_f32_le(self.tau);
        buf.put_u32_le(self.entry);
        buf.put_u64_le(self.store.len() as u64);
        buf.put_u64_le(self.store.dim() as u64);
        buf.put_u64_le(graph_bytes.len() as u64);
        buf.extend_from_slice(&graph_bytes);
        buf.put_u64_le(self.edge_len_eu.len() as u64);
        for &x in &self.edge_len_eu {
            buf.put_f32_le(x);
        }
        let checksum = fnv1a(&buf);
        buf.put_u64_le(checksum);
        buf.to_vec()
    }

    /// Reconstruct from [`TauIndex::to_bytes`] output plus the matching
    /// store and metric.
    ///
    /// # Errors
    /// `CorruptIndex` on any validation failure.
    pub fn from_bytes(buf: &[u8], store: Arc<VecStore>, metric: Metric) -> Result<Self> {
        if buf.len() < 48 {
            return Err(AnnError::CorruptIndex("tau index buffer too short".into()));
        }
        let (body, tail) = buf.split_at(buf.len() - 8);
        let expect = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        if fnv1a(body) != expect {
            return Err(AnnError::CorruptIndex("tau index checksum mismatch".into()));
        }
        let mut b = body;
        if b.get_u32_le() != TAU_MAGIC {
            return Err(AnnError::CorruptIndex("tau index bad magic".into()));
        }
        if b.get_u16_le() != TAU_VERSION {
            return Err(AnnError::CorruptIndex("tau index version unsupported".into()));
        }
        let metric_byte = b.get_u8();
        if metric_byte != metric.name().as_bytes()[0] {
            return Err(AnnError::CorruptIndex("tau index metric mismatch".into()));
        }
        let algo = if b.get_u8() == 0 { "tau-MG" } else { "tau-MNG" };
        let tau = b.get_f32_le();
        if !tau.is_finite() || tau < 0.0 {
            return Err(AnnError::CorruptIndex("tau index invalid tau".into()));
        }
        let entry = b.get_u32_le();
        let n = b.get_u64_le() as usize;
        let dim = b.get_u64_le() as usize;
        if n != store.len() || dim != store.dim() {
            return Err(AnnError::CorruptIndex(format!(
                "tau index built for {n} x {dim}, store is {} x {}",
                store.len(),
                store.dim()
            )));
        }
        let glen = b.get_u64_le() as usize;
        if b.remaining() < glen + 8 {
            return Err(AnnError::CorruptIndex("tau index graph section truncated".into()));
        }
        let graph = graph_from_bytes(&b[..glen])?;
        b.advance(glen);
        if graph.num_nodes() != n {
            return Err(AnnError::CorruptIndex("tau index graph node count mismatch".into()));
        }
        if entry as usize >= n {
            return Err(AnnError::CorruptIndex("tau index entry out of range".into()));
        }
        let elen = b.get_u64_le() as usize;
        if elen != n * graph.capacity() || b.remaining() != elen * 4 {
            return Err(AnnError::CorruptIndex("tau index edge-length section mismatch".into()));
        }
        let mut edge_len_eu = Vec::with_capacity(elen);
        for _ in 0..elen {
            edge_len_eu.push(b.get_f32_le());
        }
        let view = EuclideanView::for_metric(metric)
            .map_err(|_| AnnError::CorruptIndex("tau index metric is not a metric space".into()))?;
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
