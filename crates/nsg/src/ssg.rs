//! SSG: Satellite System Graph (Fu et al., TPAMI'22) — the angle-based
//! relaxation of MRNG that the paper compares against on single-modal data.
//!
//! Differences from NSG: candidates come from the kNN graph's 2-hop
//! neighborhood (no per-node medoid search), and occlusion is angular
//! (prune a candidate only if a selected neighbor subtends less than θ,
//! default 60°), which spreads edges across directions.

use crate::common::{refine, MonotonicIndex};
use ann_graph::{by_distance, select, Scratch};
use ann_knng::KnnGraph;
use ann_vectors::error::{AnnError, Result};
use ann_vectors::metric::{l2_sq, Metric};
use ann_vectors::VecStore;
use std::sync::Arc;

/// SSG construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct SsgParams {
    /// Out-degree cap `R`.
    pub r: usize,
    /// Minimum angle θ between co-selected edges, in degrees.
    pub angle_degrees: f64,
    /// Candidate-pool cap before pruning.
    pub c: usize,
    /// Beam width used only for connectivity repair.
    pub l: usize,
}

impl Default for SsgParams {
    fn default() -> Self {
        SsgParams { r: 32, angle_degrees: 60.0, c: 400, l: 100 }
    }
}

/// Build an SSG index from a store and kNN graph.
///
/// # Errors
/// Degenerate inputs as with NSG.
pub fn build_ssg(
    store: Arc<VecStore>,
    metric: Metric,
    knn: &KnnGraph,
    params: SsgParams,
) -> Result<MonotonicIndex> {
    if params.r == 0 || params.c == 0 || params.l == 0 {
        return Err(AnnError::InvalidParameter("SSG parameters must be positive".into()));
    }
    if !(0.0..=180.0).contains(&params.angle_degrees) {
        return Err(AnnError::InvalidParameter("angle must be within 0..=180 degrees".into()));
    }
    let cos_theta = params.angle_degrees.to_radians().cos() as f32;
    let two_hop = |p: u32, _entry: u32, _: &mut Scratch| {
        let vp = store.get(p);
        let mut ids: Vec<u32> = knn.neighbors(p).to_vec();
        for &q in knn.neighbors(p) {
            ids.extend_from_slice(knn.neighbors(q));
        }
        ids.sort_unstable();
        ids.dedup();
        ids.retain(|&c| c != p);
        let mut cands: Vec<(f32, u32)> =
            ids.into_iter().map(|c| (metric.distance(vp, store.get(c)), c)).collect();
        cands.sort_by(by_distance);
        cands.truncate(params.c);
        cands
    };
    let (graph, entry) = refine(&store, metric, knn, params.r, params.l, two_hop, |p, cands| {
        select(&l2_keyed(&store, p, cands), params.r, angle_occludes(&store, cos_theta))
    })?;
    Ok(MonotonicIndex::new(store, metric, graph, entry, "SSG"))
}

/// Re-key `p`'s candidates by squared L2 distance from `p` — sorted,
/// deduplicated, `p` removed — so the angle rule works in Euclidean
/// geometry whatever the index metric: exact for L2, and exact on the unit
/// sphere for normalized cosine data.
fn l2_keyed(store: &VecStore, p: u32, candidates: &[(f32, u32)]) -> Vec<(f32, u32)> {
    let vp = store.get(p);
    let mut keyed: Vec<(f32, u32)> = candidates
        .iter()
        .filter(|&&(_, c)| c != p)
        .map(|&(_, c)| (l2_sq(vp, store.get(c)), c))
        .collect();
    keyed.sort_by(by_distance);
    keyed.dedup_by_key(|e| e.1);
    keyed
}

/// SSG's occlusion predicate for [`select`] over [`l2_keyed`] candidates:
/// a selected `s` occludes `c` when it subtends an angle smaller than θ at
/// the base point `p` (`cos ∠(s, p, c) > cos θ`, by the law of cosines over
/// squared L2 distances). A point coincident with `p` on either side has no
/// angle and occludes nothing.
fn angle_occludes(
    store: &VecStore,
    cos_theta: f32,
) -> impl Fn((f32, u32), (f32, u32)) -> bool + '_ {
    move |(d_ps, s), (d_pc, c)| {
        if d_ps == 0.0 || d_pc == 0.0 {
            return false;
        }
        let d_sc = l2_sq(store.get(s), store.get(c));
        let cos = (d_pc + d_ps - d_sc) / (2.0 * (d_pc * d_ps).sqrt());
        cos > cos_theta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_graph::connectivity::fully_reachable;
    use ann_graph::{AnnIndex, GraphView, Scratch};
    use ann_knng::brute_force_knn_graph;
    use ann_vectors::accuracy::mean_recall_at_k;
    use ann_vectors::brute_force_ground_truth;
    use ann_vectors::synthetic::{mixture_base, mixture_queries, FrozenMixture, MixtureSpec};

    fn dataset(n: usize, nq: usize, dim: usize, seed: u64) -> (Arc<VecStore>, VecStore) {
        let mix = FrozenMixture::new(&MixtureSpec::default_for(dim), seed);
        (Arc::new(mixture_base(&mix, n, seed)), mixture_queries(&mix, nq, seed))
    }

    /// SSG's rule as the builder applies it.
    fn angle_rule(s: &VecStore, p: u32, cands: &[(f32, u32)], cos_theta: f32) -> Vec<u32> {
        select(&l2_keyed(s, p, cands), 8, angle_occludes(s, cos_theta))
    }

    fn store() -> VecStore {
        VecStore::from_rows(&[
            vec![0.0, 0.0], // 0: base p
            vec![1.0, 0.0], // 1
            vec![2.0, 0.0], // 2: occluded by 1 under MRNG
            vec![0.0, 1.0], // 3
            vec![1.2, 0.4], // 4: small angle vs 1
        ])
        .unwrap()
    }

    fn sorted_cands(s: &VecStore, ids: &[u32]) -> Vec<(f32, u32)> {
        let mut c: Vec<(f32, u32)> =
            ids.iter().map(|&i| (Metric::L2.distance(s.get(0), s.get(i)), i)).collect();
        c.sort_by(|a, b| a.0.total_cmp(&b.0));
        c
    }

    #[test]
    fn angle_prune_rejects_small_angles() {
        let s = store();
        let cands = sorted_cands(&s, &[1, 3, 4]);
        // cos 60° = 0.5: node 4 is ~18° from node 1 → pruned; node 3 at 90° → kept.
        assert_eq!(angle_rule(&s, 0, &cands, 0.5), vec![1, 3]);
    }

    #[test]
    fn angle_prune_with_loose_theta_keeps_more() {
        let s = store();
        let cands = sorted_cands(&s, &[1, 3, 4]);
        // cos θ close to 1 ⇒ nothing occludes.
        assert_eq!(angle_rule(&s, 0, &cands, 0.999).len(), 3);
    }

    #[test]
    fn angle_prune_handles_duplicate_points() {
        let s = VecStore::from_rows(&[vec![0.0, 0.0], vec![0.0, 0.0], vec![1.0, 0.0]]).unwrap();
        let cands = vec![(0.0, 1u32), (1.0, 2u32)];
        let sel = angle_rule(&s, 0, &cands, 0.5);
        assert_eq!(sel, vec![1, 2], "coincident point connected, other kept");
    }

    #[test]
    fn prunes_exclude_self_and_dups() {
        let s = store();
        let mut cands = sorted_cands(&s, &[1, 1, 3]);
        cands.insert(0, (0.0, 0)); // self at distance 0
        assert_eq!(angle_rule(&s, 0, &cands, 0.5), vec![1, 3]);
        let mrng = ann_graph::mrng_occludes(&s, Metric::L2);
        assert_eq!(select(&sorted_cands(&s, &[1, 1, 3]), 8, mrng), vec![1, 3]);
    }

    #[test]
    fn build_validates_inputs() {
        let (store, _) = dataset(50, 1, 4, 1);
        let knn = brute_force_knn_graph(Metric::L2, &store, 5).unwrap();
        assert!(build_ssg(
            store.clone(),
            Metric::L2,
            &knn,
            SsgParams { angle_degrees: 270.0, ..Default::default() }
        )
        .is_err());
        assert!(
            build_ssg(store, Metric::L2, &knn, SsgParams { r: 0, ..Default::default() }).is_err()
        );
    }

    #[test]
    fn ssg_is_connected_and_bounded() {
        let (store, _) = dataset(600, 1, 8, 3);
        let knn = brute_force_knn_graph(Metric::L2, &store, 15).unwrap();
        let params = SsgParams { r: 16, ..Default::default() };
        let idx = build_ssg(store, Metric::L2, &knn, params).unwrap();
        assert!(fully_reachable(idx.graph(), idx.entry_point()));
        assert!(idx.graph().max_degree() <= params.r, "repair must respect the degree cap");
    }

    #[test]
    fn ssg_recall_on_clustered_data() {
        let (store, queries) = dataset(2000, 50, 16, 42);
        let gt = brute_force_ground_truth(Metric::L2, &store, &queries, 10).unwrap();
        let knn = brute_force_knn_graph(Metric::L2, &store, 30).unwrap();
        let idx = build_ssg(store, Metric::L2, &knn, SsgParams::default()).unwrap();
        let mut scratch = Scratch::new(idx.num_points());
        let results: Vec<Vec<u32>> = (0..queries.len() as u32)
            .map(|q| idx.search_with(queries.get(q), 10, 100, &mut scratch).ids)
            .collect();
        let recall = mean_recall_at_k(&gt, &results, 10);
        assert!(recall > 0.93, "SSG recall@10 too low: {recall}");
    }

    #[test]
    fn ssg_name() {
        let (store, _) = dataset(80, 1, 4, 9);
        let knn = brute_force_knn_graph(Metric::L2, &store, 8).unwrap();
        let idx = build_ssg(store, Metric::L2, &knn, SsgParams::default()).unwrap();
        assert_eq!(idx.name(), "SSG");
    }
}
