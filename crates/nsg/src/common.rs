//! Shared machinery of the NSG-family builders: candidate search,
//! reverse-edge interconnection, connectivity repair (re-exported from
//! `ann_graph::connectivity`), the [`refine`] pipeline NSG, SSG and τ-MNG
//! all run, and the frozen index type NSG and SSG produce.

pub use ann_graph::connectivity::repair_connectivity;
use ann_graph::{
    beam_search_collect_dyn, by_distance, offer_edge, FlatGraph, Scratch, ScratchPool, VarGraph,
};
use ann_knng::KnnGraph;
use ann_vectors::error::{AnnError, Result};
use ann_vectors::metric::Metric;
use ann_vectors::parallel::{num_threads, parallel_for, parallel_map};
use ann_vectors::VecStore;
use parking_lot::Mutex;

/// The candidate source NSG and τ-MNG share, for [`refine`]: every point a
/// beam search of width `l` for `p` visits over the kNN graph, merged with
/// `p`'s kNN row, sorted by [`by_distance`], deduplicated, `p` removed and
/// capped at `c`.
pub fn search_candidates<'a>(
    store: &'a VecStore,
    metric: Metric,
    knn: &'a KnnGraph,
    l: usize,
    c: usize,
) -> impl Fn(u32, u32, &mut Scratch) -> Vec<(f32, u32)> + Sync + 'a {
    let base = knn.to_var_graph();
    move |p, entry, scratch| {
        let row = knn.neighbors(p);
        // Seed the search with the node's own kNN row as well as the global
        // entry: directed kNN graphs are only weakly navigable, and without
        // local seeds the traversal can miss the node's true neighborhood
        // entirely, capping the recall of every graph refined from these
        // candidates.
        let mut entries: Vec<u32> = Vec::with_capacity(1 + row.len().min(16));
        entries.push(entry);
        entries.extend(row.iter().take(16).copied().filter(|&id| id != p));
        let mut log: Vec<(f32, u32)> = Vec::with_capacity(l * 8 + row.len());
        beam_search_collect_dyn(metric, store, &base, &entries, store.get(p), l, scratch, &mut log);
        log.extend(knn.dists(p).iter().copied().zip(row.iter().copied()));
        log.sort_by(by_distance);
        log.dedup_by_key(|e| e.1);
        log.retain(|&(_, id)| id != p);
        log.truncate(c);
        log
    }
}

/// Interconnect phase: for every selected edge `p -> q`, also offer `q -> p`
/// ([`offer_edge`]), pruning `q`'s list back to `r` with `prune` when it
/// overflows. Runs in parallel with one mutex per node; the prune callback
/// receives `q` and candidates sorted ascending by distance to `q`.
pub fn inter_insert<F>(
    store: &VecStore,
    metric: Metric,
    forward: &[Vec<u32>],
    r: usize,
    prune: F,
) -> Vec<Vec<u32>>
where
    F: Fn(u32, &[(f32, u32)]) -> Vec<u32> + Sync,
{
    let lists: Vec<Mutex<Vec<u32>>> = forward.iter().map(|l| Mutex::new(l.clone())).collect();
    parallel_for(forward.len(), num_threads(), |p| {
        let p = p as u32; // cast: p < n, and node ids fit u32
        for &q in &forward[p as usize] {
            let mut list = lists[q as usize].lock();
            offer_edge(store, metric, q, &mut list, p, r, |cands| prune(q, cands));
        }
    });
    lists.into_iter().map(Mutex::into_inner).collect()
}

/// The refinement pipeline of NSG, SSG and τ-MNG, which differ only in
/// where a node's candidates come from and which rule prunes them:
///
/// 1. validate the store against the kNN graph and find the medoid entry;
/// 2. per node `p` (in parallel): `prune(p, candidates(p, entry, scratch))`,
///    with `candidates` sorted ascending by distance to `p`;
/// 3. [`inter_insert`] under the same `prune` and degree cap `r`;
/// 4. [`repair_connectivity`] from the entry with beam width `l`;
/// 5. freeze.
///
/// Returns the frozen graph and its entry point.
///
/// # Errors
/// `EmptyDataset` on an empty store; `InvalidParameter` if the kNN graph
/// does not cover the store.
pub fn refine<C, P>(
    store: &VecStore,
    metric: Metric,
    knn: &KnnGraph,
    r: usize,
    l: usize,
    candidates: C,
    prune: P,
) -> Result<(FlatGraph, u32)>
where
    C: Fn(u32, u32, &mut Scratch) -> Vec<(f32, u32)> + Sync,
    P: Fn(u32, &[(f32, u32)]) -> Vec<u32> + Sync,
{
    if store.is_empty() {
        return Err(AnnError::EmptyDataset);
    }
    if knn.num_nodes() != store.len() {
        return Err(AnnError::InvalidParameter(format!(
            "kNN graph covers {} nodes, store has {}",
            knn.num_nodes(),
            store.len()
        )));
    }
    let n = store.len();
    let entry = store.medoid(metric)?;
    let scratch = ScratchPool::new(n);
    let forward = parallel_map(n, num_threads(), |p| {
        let p = p as u32; // cast: p < n, and node ids fit u32
        let cands = scratch.with(|s| candidates(p, entry, s));
        prune(p, &cands)
    });
    let mut graph = VarGraph::from(inter_insert(store, metric, &forward, r, &prune));
    repair_connectivity(&mut graph, store, metric, entry, l, r);
    Ok((FlatGraph::freeze(&graph, None), entry))
}

/// A frozen NSG-family index: flat graph + medoid entry point.
///
/// Alias of the workspace-generic [`ann_graph::index::FrozenGraphIndex`] —
/// NSG, SSG and Vamana all produce this shape; only construction differs.
pub type MonotonicIndex = ann_graph::index::FrozenGraphIndex;
