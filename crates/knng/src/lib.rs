//! # ann-knng
//!
//! k-nearest-neighbor graph construction — the substrate every refinement
//! pipeline in this workspace (NSG, SSG, τ-MNG) starts from:
//!
//! * [`brute_force_knn_graph`] — exact, O(n²·d), parallelized over nodes;
//!   used at small scale and as the accuracy reference.
//! * [`nn_descent`] — the NN-Descent local-join heuristic (Dong et al.,
//!   WWW'11), the standard approximate kNN-graph builder used by NSG-family
//!   pipelines; near-linear in practice.
//!
//! Both produce a [`KnnGraph`]: a dense `n × k` table of neighbor ids and
//! distances, convertible to a [`VarGraph`] for refinement.

#![forbid(unsafe_code)]

use ann_graph::VarGraph;
use ann_vectors::error::{AnnError, Result};
use ann_vectors::metric::Metric;
use ann_vectors::parallel::{num_threads, parallel_map};
use ann_vectors::topk::TopK;
use ann_vectors::VecStore;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Dense kNN graph: `k` neighbors per node, ascending by distance.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnGraph {
    k: usize,
    ids: Vec<u32>,
    dists: Vec<f32>,
}

impl KnnGraph {
    /// Number of neighbors per node.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.ids.len() / self.k
    }

    /// Neighbor ids of `u`, ascending by distance.
    pub fn neighbors(&self, u: u32) -> &[u32] {
        &self.ids[u as usize * self.k..(u as usize + 1) * self.k]
    }

    /// Distances matching [`KnnGraph::neighbors`].
    pub fn dists(&self, u: u32) -> &[f32] {
        &self.dists[u as usize * self.k..(u as usize + 1) * self.k]
    }

    /// Convert to mutable adjacency for refinement passes.
    pub fn to_var_graph(&self) -> VarGraph {
        VarGraph::from(self.ids.chunks(self.k).map(<[u32]>::to_vec).collect::<Vec<_>>())
    }

    /// Fraction of `reference`'s edges present here (graph recall).
    ///
    /// # Panics
    /// If the two graphs have different `n` or `k`.
    pub fn recall_against(&self, reference: &KnnGraph) -> f64 {
        assert_eq!(self.num_nodes(), reference.num_nodes(), "node count mismatch");
        assert_eq!(self.k, reference.k, "k mismatch");
        if self.num_nodes() == 0 {
            return 1.0;
        }
        let mut hits = 0usize;
        for u in 0..self.num_nodes() as u32 {
            let mine = self.neighbors(u);
            hits += reference.neighbors(u).iter().filter(|id| mine.contains(id)).count();
        }
        hits as f64 / (self.num_nodes() * self.k) as f64
    }
}

fn validate(store: &VecStore, k: usize) -> Result<()> {
    if store.is_empty() {
        return Err(AnnError::EmptyDataset);
    }
    if k == 0 || k >= store.len() {
        return Err(AnnError::InvalidParameter(format!(
            "k = {k} not in 1..{} (self excluded)",
            store.len()
        )));
    }
    Ok(())
}

/// Exact kNN graph by parallel brute force (self excluded).
pub fn brute_force_knn_graph(metric: Metric, store: &VecStore, k: usize) -> Result<KnnGraph> {
    validate(store, k)?;
    let n = store.len();
    let rows = parallel_map(n, num_threads(), |u| {
        let vu = store.get(u as u32);
        let mut top = TopK::new(k);
        for v in 0..n as u32 {
            if v as usize == u {
                continue;
            }
            let d = metric.distance(vu, store.get(v));
            if d < top.threshold() {
                top.push(d, v);
            }
        }
        top.into_sorted()
    });
    let mut ids = Vec::with_capacity(n * k);
    let mut dists = Vec::with_capacity(n * k);
    for row in rows {
        debug_assert_eq!(row.len(), k);
        for (d, id) in row {
            ids.push(id);
            dists.push(d);
        }
    }
    Ok(KnnGraph { k, ids, dists })
}

/// NN-Descent parameters.
#[derive(Debug, Clone, Copy)]
pub struct NnDescentParams {
    /// Neighbors per node in the output graph.
    pub k: usize,
    /// Sample rate ρ for local joins (1.0 = full joins; 0.5 is a good
    /// speed/quality trade).
    pub sample_rate: f64,
    /// Hard iteration cap.
    pub max_iters: usize,
    /// Early-termination threshold: stop when fewer than `delta · n · k`
    /// neighbor-list updates happened in an iteration.
    pub delta: f64,
    /// RNG seed (initial random graph + join sampling).
    pub seed: u64,
}

impl Default for NnDescentParams {
    fn default() -> Self {
        NnDescentParams { k: 32, sample_rate: 0.5, max_iters: 12, delta: 0.001, seed: 0xD06 }
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    dist: f32,
    id: u32,
    is_new: bool,
}

/// Bounded sorted neighbor list used inside NN-Descent.
struct NeighborList {
    cap: usize,
    items: Vec<Entry>,
}

impl NeighborList {
    fn new(cap: usize) -> Self {
        NeighborList { cap, items: Vec::with_capacity(cap + 1) }
    }

    /// Insert if `id` improves the list; returns true when an update happened.
    fn insert(&mut self, dist: f32, id: u32) -> bool {
        if self.items.len() >= self.cap && dist >= self.items[self.items.len() - 1].dist {
            return false;
        }
        if self.items.iter().any(|e| e.id == id) {
            return false;
        }
        let pos = self.items.partition_point(|e| e.dist < dist);
        self.items.insert(pos, Entry { dist, id, is_new: true });
        if self.items.len() > self.cap {
            self.items.pop();
        }
        true
    }
}

/// Approximate kNN graph via NN-Descent.
///
/// Quality is controlled by `params`; with the defaults the graph recall
/// against brute force is well above 0.9 on clustered data of moderate size
/// (verified by tests and by experiment E2's preprocessing stage).
pub fn nn_descent(metric: Metric, store: &VecStore, params: NnDescentParams) -> Result<KnnGraph> {
    validate(store, params.k)?;
    let n = store.len();
    let k = params.k;
    let threads = num_threads();

    // Initial random neighbors.
    let lists: Vec<Mutex<NeighborList>> =
        (0..n).map(|_| Mutex::new(NeighborList::new(k))).collect();
    {
        let mut rng = StdRng::seed_from_u64(params.seed);
        for u in 0..n as u32 {
            let vu = store.get(u);
            let mut list = lists[u as usize].lock();
            while list.items.len() < k {
                let v = rng.random_range(0..n as u32);
                if v != u {
                    let d = metric.distance(vu, store.get(v));
                    list.insert(d, v);
                }
            }
        }
    }

    let sample = ((params.sample_rate * k as f64).ceil() as usize).max(1);
    for iter in 0..params.max_iters {
        // Phase 1: split each list into sampled-new / old, unflagging the
        // sampled new entries (single-threaded bookkeeping, cheap).
        let mut new_fwd: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut old_fwd: Vec<Vec<u32>> = vec![Vec::new(); n];
        {
            let mut rng = StdRng::seed_from_u64(params.seed ^ (iter as u64 + 1));
            for u in 0..n {
                let mut list = lists[u].lock();
                let mut new_idx: Vec<usize> = list
                    .items
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.is_new)
                    .map(|(i, _)| i)
                    .collect();
                new_idx.shuffle(&mut rng);
                new_idx.truncate(sample);
                for &i in &new_idx {
                    list.items[i].is_new = false;
                    new_fwd[u].push(list.items[i].id);
                }
                for e in list.items.iter().filter(|e| !e.is_new) {
                    if !new_fwd[u].contains(&e.id) {
                        old_fwd[u].push(e.id);
                    }
                }
            }
        }
        // Phase 2: reverse lists (sampled).
        let mut new_rev: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut old_rev: Vec<Vec<u32>> = vec![Vec::new(); n];
        for u in 0..n as u32 {
            for &v in &new_fwd[u as usize] {
                new_rev[v as usize].push(u);
            }
            for &v in &old_fwd[u as usize] {
                old_rev[v as usize].push(u);
            }
        }
        {
            let mut rng = StdRng::seed_from_u64(params.seed ^ 0xBEEF ^ (iter as u64));
            for u in 0..n {
                new_rev[u].shuffle(&mut rng);
                new_rev[u].truncate(sample);
                old_rev[u].shuffle(&mut rng);
                old_rev[u].truncate(sample);
            }
        }
        // Phase 3: local joins, parallel over nodes.
        let updates = std::sync::atomic::AtomicUsize::new(0);
        ann_vectors::parallel::parallel_for(n, threads, |u| {
            let mut news = new_fwd[u].clone();
            news.extend_from_slice(&new_rev[u]);
            news.sort_unstable();
            news.dedup();
            let mut olds = old_fwd[u].clone();
            olds.extend_from_slice(&old_rev[u]);
            olds.sort_unstable();
            olds.dedup();
            let mut local = 0usize;
            for (i, &a) in news.iter().enumerate() {
                let va = store.get(a);
                // new × new
                for &b in &news[i + 1..] {
                    if a == b {
                        continue;
                    }
                    let d = metric.distance(va, store.get(b));
                    if lists[a as usize].lock().insert(d, b) {
                        local += 1;
                    }
                    if lists[b as usize].lock().insert(d, a) {
                        local += 1;
                    }
                }
                // new × old
                for &b in &olds {
                    if a == b {
                        continue;
                    }
                    let d = metric.distance(va, store.get(b));
                    if lists[a as usize].lock().insert(d, b) {
                        local += 1;
                    }
                    if lists[b as usize].lock().insert(d, a) {
                        local += 1;
                    }
                }
            }
            updates.fetch_add(local, std::sync::atomic::Ordering::Relaxed);
        });
        let total = updates.load(std::sync::atomic::Ordering::Relaxed);
        if (total as f64) < params.delta * (n * k) as f64 {
            break;
        }
    }

    let mut ids = Vec::with_capacity(n * k);
    let mut dists = Vec::with_capacity(n * k);
    for list in lists {
        let inner = list.into_inner();
        debug_assert_eq!(inner.items.len(), k);
        for e in inner.items {
            ids.push(e.id);
            dists.push(e.dist);
        }
    }
    Ok(KnnGraph { k, ids, dists })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_graph::GraphView;
    use ann_vectors::synthetic::{uniform, FrozenMixture, MixtureSpec};

    fn clustered(n: usize, dim: usize, seed: u64) -> VecStore {
        let mix = FrozenMixture::new(&MixtureSpec::default_for(dim), seed);
        ann_vectors::synthetic::mixture_base(&mix, n, seed)
    }

    #[test]
    fn brute_force_graph_is_exact_on_line() {
        let rows: Vec<Vec<f32>> = (0..6).map(|i| vec![i as f32 * 2.0]).collect();
        let store = VecStore::from_rows(&rows).unwrap();
        let g = brute_force_knn_graph(Metric::L2, &store, 2).unwrap();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(3), &[2, 4]);
        assert_eq!(g.dists(0), &[4.0, 16.0]);
        // Ascending distance rows.
        for u in 0..6u32 {
            let d = g.dists(u);
            assert!(d.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn brute_force_excludes_self() {
        let store = clustered(200, 8, 3);
        let g = brute_force_knn_graph(Metric::L2, &store, 5).unwrap();
        for u in 0..200u32 {
            assert!(!g.neighbors(u).contains(&u), "node {u} is its own neighbor");
        }
    }

    #[test]
    fn parameter_validation() {
        let store = clustered(10, 4, 1);
        assert!(brute_force_knn_graph(Metric::L2, &store, 0).is_err());
        assert!(brute_force_knn_graph(Metric::L2, &store, 10).is_err());
        let empty = VecStore::new(4).unwrap();
        assert!(brute_force_knn_graph(Metric::L2, &empty, 1).is_err());
        assert!(nn_descent(Metric::L2, &empty, NnDescentParams::default()).is_err());
    }

    #[test]
    fn to_var_graph_preserves_edges() {
        let store = clustered(50, 4, 9);
        let g = brute_force_knn_graph(Metric::L2, &store, 4).unwrap();
        let vg = g.to_var_graph();
        assert_eq!(vg.num_nodes(), 50);
        assert_eq!(vg.num_edges(), 200);
        assert_eq!(vg.neighbors(7), g.neighbors(7));
    }

    #[test]
    fn nn_descent_converges_on_clustered_data() {
        let store = clustered(800, 12, 42);
        let exact = brute_force_knn_graph(Metric::L2, &store, 10).unwrap();
        let approx = nn_descent(
            Metric::L2,
            &store,
            NnDescentParams { k: 10, seed: 42, ..Default::default() },
        )
        .unwrap();
        let recall = approx.recall_against(&exact);
        assert!(recall > 0.90, "NN-Descent recall too low: {recall}");
    }

    #[test]
    fn nn_descent_on_uniform_data() {
        let store = uniform(8, 500, 5);
        let exact = brute_force_knn_graph(Metric::L2, &store, 8).unwrap();
        let approx =
            nn_descent(Metric::L2, &store, NnDescentParams { k: 8, seed: 5, ..Default::default() })
                .unwrap();
        let recall = approx.recall_against(&exact);
        assert!(recall > 0.85, "NN-Descent recall too low: {recall}");
    }

    #[test]
    fn nn_descent_rows_sorted_and_self_free() {
        let store = clustered(300, 6, 7);
        let g =
            nn_descent(Metric::L2, &store, NnDescentParams { k: 6, seed: 7, ..Default::default() })
                .unwrap();
        for u in 0..300u32 {
            assert!(!g.neighbors(u).contains(&u));
            let d = g.dists(u);
            assert!(d.windows(2).all(|w| w[0] <= w[1]));
            let mut ids = g.neighbors(u).to_vec();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 6, "duplicate neighbors for {u}");
        }
    }

    #[test]
    fn recall_against_self_is_one() {
        let store = clustered(100, 4, 2);
        let g = brute_force_knn_graph(Metric::L2, &store, 3).unwrap();
        assert_eq!(g.recall_against(&g), 1.0);
    }

    #[test]
    fn cosine_metric_supported() {
        let mut store = clustered(150, 8, 11);
        store.normalize();
        let exact = brute_force_knn_graph(Metric::Cosine, &store, 5).unwrap();
        let approx = nn_descent(
            Metric::Cosine,
            &store,
            NnDescentParams { k: 5, seed: 11, ..Default::default() },
        )
        .unwrap();
        assert!(approx.recall_against(&exact) > 0.85);
    }
}
