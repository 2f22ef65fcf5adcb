//! Shared machinery of the NSG-family builders: candidate acquisition,
//! reverse-edge interconnection, connectivity repair (re-exported from
//! `ann_graph::connectivity`), and the frozen index type both NSG and SSG
//! produce.

pub use ann_graph::connectivity::repair_connectivity;
use ann_graph::{beam_search_collect_dyn, GraphView, Scratch};
use ann_vectors::metric::Metric;
use ann_vectors::parallel::num_threads;
use ann_vectors::VecStore;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Acquire pruning candidates for node `p`: every point visited by a beam
/// search for `p`'s vector over `base_graph`, merged with `extra` seed pairs
/// (e.g. `p`'s kNN row), sorted ascending, deduplicated, `p` removed, capped
/// at `max_candidates`.
#[allow(clippy::too_many_arguments)]
pub fn acquire_candidates<G: GraphView>(
    store: &VecStore,
    metric: Metric,
    base_graph: &G,
    entry: u32,
    p: u32,
    l: usize,
    max_candidates: usize,
    extra: &[(f32, u32)],
    scratch: &mut Scratch,
) -> Vec<(f32, u32)> {
    let mut log: Vec<(f32, u32)> = Vec::with_capacity(l * 8 + extra.len());
    // Seed the search with the node's own kNN row (when provided) as well
    // as the global entry: directed kNN graphs are only weakly navigable,
    // and without local seeds the traversal can miss the node's true
    // neighborhood entirely, capping the recall of every graph refined
    // from these candidates.
    let mut entries: Vec<u32> = Vec::with_capacity(1 + extra.len().min(16));
    entries.push(entry);
    entries.extend(extra.iter().take(16).map(|&(_, id)| id).filter(|&id| id != p));
    beam_search_collect_dyn(
        metric,
        store,
        base_graph,
        &entries,
        store.get(p),
        l,
        scratch,
        &mut log,
    );
    log.extend_from_slice(extra);
    log.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    log.dedup_by_key(|e| e.1);
    log.retain(|&(_, id)| id != p);
    log.truncate(max_candidates);
    log
}

/// Interconnect phase: for every selected edge `p -> q`, also offer `q -> p`,
/// pruning `q`'s list back to `r` with `prune` when it overflows. Runs in
/// parallel with one mutex per node; the prune callback receives candidates
/// sorted ascending by distance to `q`.
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
    let n = forward.len();
    let lists: Vec<Mutex<Vec<u32>>> = forward.iter().map(|l| Mutex::new(l.clone())).collect();
    let cursor = AtomicUsize::new(0);
    let threads = num_threads();
    std::thread::scope(|s| {
        for _ in 0..threads.min(n.max(1)) {
            s.spawn(|| loop {
                let p = cursor.fetch_add(1, Ordering::Relaxed);
                if p >= n {
                    break;
                }
                for &q in &forward[p] {
                    let mut guard = lists[q as usize].lock();
                    if guard.contains(&(p as u32)) {
                        continue;
                    }
                    if guard.len() < r {
                        guard.push(p as u32);
                        continue;
                    }
                    // Overflow: re-prune q's list ∪ {p}.
                    let vq = store.get(q);
                    let mut cands: Vec<(f32, u32)> =
                        guard.iter().map(|&w| (metric.distance(vq, store.get(w)), w)).collect();
                    cands.push((metric.distance(vq, store.get(p as u32)), p as u32));
                    cands.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
                    *guard = prune(q, &cands);
                }
            });
        }
    });
    lists.into_iter().map(|m| m.into_inner()).collect()
}

/// A frozen NSG-family index: flat graph + medoid entry point.
///
/// Alias of the workspace-generic [`ann_graph::index::FrozenGraphIndex`] —
/// NSG, SSG and Vamana all produce this shape; only construction differs.
pub type MonotonicIndex = ann_graph::index::FrozenGraphIndex;
