//! # ann-vamana
//!
//! A from-scratch Vamana graph (the in-memory index of DiskANN; Subramanya
//! et al., NeurIPS'19) — the α-RNG baseline in the paper's comparison set.
//!
//! Construction: start from a random R-regular directed graph, then make two
//! passes over all points (first with α = 1, then with the configured α).
//! Each visit beam-searches for the point from the medoid, robust-prunes the
//! visited set into the point's neighbor list, and back-inserts reverse
//! edges (re-pruning on overflow). The α > 1 slack keeps longer "highway"
//! edges that pure RNG pruning would cut — the same intuition the τ-MG rule
//! formalizes with its 3τ term.

#![forbid(unsafe_code)]

use ann_graph::{
    by_distance, offer_edge, select, FlatGraph, FrozenGraphIndex, Pool, VarGraph, VisitedSet,
};
use ann_vectors::error::{AnnError, Result};
use ann_vectors::metric::Metric;
use ann_vectors::parallel::num_threads;
use ann_vectors::VecStore;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Vamana construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct VamanaParams {
    /// Max out-degree `R`.
    pub r: usize,
    /// Beam width `L` during construction searches.
    pub l: usize,
    /// Distance slack α ≥ 1 of the robust-prune rule (second pass).
    pub alpha: f32,
    /// Seed for the initial random graph.
    pub seed: u64,
}

impl Default for VamanaParams {
    fn default() -> Self {
        VamanaParams { r: 48, l: 100, alpha: 1.2, seed: 0xD15C }
    }
}

/// DiskANN's RobustPrune: greedily keep the closest remaining candidate and
/// discard every candidate it α-dominates (`α · d(kept, c) ≤ d(p, c)`) —
/// the one greedy loop ([`ann_graph::select()`]) with that predicate.
///
/// `candidates` must be sorted ascending by distance to `p` and must not
/// contain `p`. With `alpha = 1` this is exactly the MRNG rule.
// The predicate reads "not kept" rather than `<=` so that a NaN distance
// prunes, as DiskANN's keep-if-`>` filter does.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn robust_prune(
    store: &VecStore,
    metric: Metric,
    candidates: &[(f32, u32)],
    r: usize,
    alpha: f32,
) -> Vec<u32> {
    select(candidates, r, |(_, s), (d_pc, c)| {
        !(alpha * metric.distance(store.get(s), store.get(c)) > d_pc)
    })
}

/// Beam search over the under-construction (locked) graph, recording every
/// evaluated `(dist, id)` pair.
#[allow(clippy::too_many_arguments)]
fn search_locked(
    store: &VecStore,
    metric: Metric,
    links: &[Mutex<Vec<u32>>],
    entry: u32,
    query: &[f32],
    l: usize,
    pool: &mut Pool,
    visited: &mut VisitedSet,
    nbuf: &mut Vec<u32>,
    log: &mut Vec<(f32, u32)>,
) {
    pool.reset(l);
    visited.clear();
    log.clear();
    let d = metric.distance(query, store.get(entry));
    visited.insert(entry);
    log.push((d, entry));
    pool.insert(d, entry);
    let mut cursor = 0usize;
    while let Some(pos) = pool.next_unexpanded(cursor) {
        let cand = pool.expand(pos);
        nbuf.clear();
        nbuf.extend_from_slice(&links[cand.id as usize].lock());
        let mut best_insert = usize::MAX;
        for &v in nbuf.iter() {
            if !visited.insert(v) {
                continue;
            }
            let d = metric.distance(query, store.get(v));
            log.push((d, v));
            if d >= pool.admission_bound() {
                continue;
            }
            if let Some(p) = pool.insert(d, v) {
                best_insert = best_insert.min(p);
            }
        }
        cursor = if best_insert <= pos { best_insert } else { pos + 1 };
    }
}

/// Build a Vamana index.
///
/// # Errors
/// `EmptyDataset` on an empty store, `InvalidParameter` for degenerate
/// parameters (`r == 0`, `l == 0`, `alpha < 1`).
pub fn build_vamana(
    store: Arc<VecStore>,
    metric: Metric,
    params: VamanaParams,
) -> Result<FrozenGraphIndex> {
    if store.is_empty() {
        return Err(AnnError::EmptyDataset);
    }
    if params.r == 0 || params.l == 0 {
        return Err(AnnError::InvalidParameter("Vamana r and l must be positive".into()));
    }
    if params.alpha < 1.0 {
        return Err(AnnError::InvalidParameter("Vamana alpha must be >= 1".into()));
    }
    let n = store.len();
    let entry = store.medoid(metric)?;

    // Random R-regular initial graph.
    let links: Vec<Mutex<Vec<u32>>> = {
        let mut rng = StdRng::seed_from_u64(params.seed);
        (0..n as u32)
            .map(|u| {
                let mut nbrs = Vec::with_capacity(params.r.min(n - 1));
                while nbrs.len() < params.r.min(n - 1) {
                    let v = rng.random_range(0..n as u32);
                    if v != u && !nbrs.contains(&v) {
                        nbrs.push(v);
                    }
                }
                Mutex::new(nbrs)
            })
            .collect()
    };

    let threads = num_threads();
    for alpha in [1.0f32, params.alpha] {
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..threads.min(n) {
                s.spawn(|| {
                    let mut pool = Pool::new(params.l);
                    let mut visited = VisitedSet::new(n);
                    let mut nbuf: Vec<u32> = Vec::with_capacity(params.r + 1);
                    let mut log: Vec<(f32, u32)> = Vec::new();
                    loop {
                        let p = cursor.fetch_add(1, Ordering::Relaxed);
                        if p >= n {
                            break;
                        }
                        let p = p as u32;
                        search_locked(
                            &store,
                            metric,
                            &links,
                            entry,
                            store.get(p),
                            params.l,
                            &mut pool,
                            &mut visited,
                            &mut nbuf,
                            &mut log,
                        );
                        // Candidates: visited set ∪ current neighbors.
                        let vp = store.get(p);
                        {
                            let guard = links[p as usize].lock();
                            for &w in guard.iter() {
                                log.push((metric.distance(vp, store.get(w)), w));
                            }
                        }
                        log.sort_by(by_distance);
                        log.dedup_by_key(|e| e.1);
                        log.retain(|&(_, id)| id != p);
                        let selected = robust_prune(&store, metric, &log, params.r, alpha);
                        *links[p as usize].lock() = selected.clone();
                        // Reverse edges with overflow re-pruning.
                        for &q in &selected {
                            let mut list = links[q as usize].lock();
                            offer_edge(&store, metric, q, &mut list, p, params.r, |cands| {
                                robust_prune(&store, metric, cands, params.r, alpha)
                            });
                        }
                    }
                });
            }
        });
    }

    let graph = VarGraph::from(links.into_iter().map(Mutex::into_inner).collect::<Vec<_>>());
    let flat = FlatGraph::freeze(&graph, None);
    Ok(FrozenGraphIndex::new(store, metric, flat, entry, "Vamana"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_graph::{AnnIndex, GraphView, Scratch};
    use ann_vectors::accuracy::mean_recall_at_k;
    use ann_vectors::brute_force_ground_truth;
    use ann_vectors::synthetic::{mixture_base, mixture_queries, FrozenMixture, MixtureSpec};

    fn dataset(n: usize, nq: usize, dim: usize, seed: u64) -> (Arc<VecStore>, VecStore) {
        let mix = FrozenMixture::new(&MixtureSpec::default_for(dim), seed);
        (Arc::new(mixture_base(&mix, n, seed)), mixture_queries(&mix, nq, seed))
    }

    #[test]
    fn robust_prune_alpha_one_is_mrng() {
        let s =
            VecStore::from_rows(&[vec![0.0, 0.0], vec![1.0, 0.0], vec![2.0, 0.0], vec![0.0, 1.0]])
                .unwrap();
        let cands = vec![(1.0f32, 1u32), (1.0, 3), (4.0, 2)];
        // Node 2 is dominated by node 1: d(1,2)=1 <= d(0,2)=4.
        assert_eq!(robust_prune(&s, Metric::L2, &cands, 8, 1.0), vec![1, 3]);
        // α=4: 4·d(1,2)=4 <= 4 — still dominated; α just over keeps it.
        assert_eq!(robust_prune(&s, Metric::L2, &cands, 8, 4.0), vec![1, 3]);
        assert_eq!(robust_prune(&s, Metric::L2, &cands, 8, 4.1).len(), 3);
    }

    #[test]
    fn robust_prune_respects_cap() {
        let s =
            VecStore::from_rows(&[vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0], vec![-1.0, 0.0]])
                .unwrap();
        let cands = vec![(1.0f32, 1u32), (1.0, 2), (1.0, 3)];
        assert_eq!(robust_prune(&s, Metric::L2, &cands, 2, 1.0).len(), 2);
    }

    #[test]
    fn robust_prune_dedups_input() {
        let s = VecStore::from_rows(&[vec![0.0], vec![1.0], vec![3.0]]).unwrap();
        let cands = vec![(1.0f32, 1u32), (1.0, 1), (9.0, 2)];
        let sel = robust_prune(&s, Metric::L2, &cands, 8, 10.0);
        assert_eq!(sel.iter().filter(|&&x| x == 1).count(), 1);
    }

    #[test]
    fn build_validates_inputs() {
        let (store, _) = dataset(30, 1, 4, 1);
        assert!(build_vamana(
            store.clone(),
            Metric::L2,
            VamanaParams { alpha: 0.5, ..Default::default() }
        )
        .is_err());
        assert!(
            build_vamana(store, Metric::L2, VamanaParams { r: 0, ..Default::default() }).is_err()
        );
        let empty = Arc::new(VecStore::new(4).unwrap());
        assert!(build_vamana(empty, Metric::L2, VamanaParams::default()).is_err());
    }

    #[test]
    fn degree_bounded_by_r() {
        let (store, _) = dataset(400, 1, 8, 3);
        let params = VamanaParams { r: 20, ..Default::default() };
        let idx = build_vamana(store, Metric::L2, params).unwrap();
        assert!(idx.graph().max_degree() <= params.r);
    }

    #[test]
    fn recall_on_clustered_data() {
        let (store, queries) = dataset(2000, 50, 16, 42);
        let gt = brute_force_ground_truth(Metric::L2, &store, &queries, 10).unwrap();
        let idx = build_vamana(store, Metric::L2, VamanaParams::default()).unwrap();
        let mut scratch = Scratch::new(idx.num_points());
        let results: Vec<Vec<u32>> = (0..queries.len() as u32)
            .map(|q| idx.search_with(queries.get(q), 10, 100, &mut scratch).ids)
            .collect();
        let recall = mean_recall_at_k(&gt, &results, 10);
        assert!(recall > 0.95, "Vamana recall@10 too low: {recall}");
    }

    #[test]
    fn tiny_dataset_builds() {
        let (store, _) = dataset(3, 1, 4, 9);
        let idx = build_vamana(store, Metric::L2, VamanaParams::default()).unwrap();
        let r = idx.search(&[0.0; 4], 3, 10);
        assert_eq!(r.ids.len(), 3);
        assert_eq!(idx.name(), "Vamana");
    }
}
