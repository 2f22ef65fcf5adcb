//! The τ-MG edge-selection rule — the heart of the paper.
//!
//! MRNG omits an edge (p, b) when some closer selected neighbor r satisfies
//! `d(r, b) < d(p, b)`. τ-MG *shrinks the occlusion lune by 3τ*:
//!
//! > edge (p, b) may be omitted only if p has a selected neighbor r with
//! > `d(p, r) < d(p, b)` **and** `d(r, b) < d(p, b) − 3τ`.
//!
//! Why 3τ makes queries in the τ-tube safe (the paper's Theorem 1, proof by
//! two triangle inequalities — encoded as the property test
//! `greedy_reaches_exact_nn_in_tau_tube` in this crate): let q be a query
//! with nearest neighbor v̄ at `d(q, v̄) ≤ τ`, and let p ≠ v̄ be any node.
//!
//! * If (p, v̄) ∈ E, p has a neighbor (v̄ itself) strictly closer to q.
//! * Otherwise some selected r occludes it: `d(r, v̄) < d(p, v̄) − 3τ`. Then
//!   `d(r, q) ≤ d(r, v̄) + d(v̄, q) < d(p, v̄) − 3τ + τ`
//!   `≤ (d(p, q) + d(q, v̄)) − 2τ ≤ d(p, q) − τ`.
//!
//! Either way every node that is not v̄ has a neighbor at least τ closer to
//! q, so greedy descent monotonically reaches the **exact** nearest
//! neighbor. Setting τ = 0 recovers MRNG exactly, which is the control in
//! experiment E10.
//!
//! All distances here are Euclidean (see [`crate::geometry`]).

use crate::geometry::EuclideanView;
use ann_graph::select;
use ann_vectors::VecStore;

/// Apply the τ-MG selection rule to candidates of node `p`: the one greedy
/// loop ([`ann_graph::select()`]) with the shrunken-lune predicate.
///
/// `candidates` are `(dissimilarity, id)` pairs sorted ascending (the
/// ordering is the same in dissimilarity and Euclidean units); they must not
/// contain `p`. `r_cap` bounds the output degree (`usize::MAX` for the exact
/// uncapped τ-MG). Returns selected ids, nearest first.
pub fn tau_prune(
    store: &VecStore,
    view: EuclideanView,
    candidates: &[(f32, u32)],
    r_cap: usize,
    tau: f32,
) -> Vec<u32> {
    debug_assert!(tau >= 0.0);
    let slack = 3.0 * tau;
    let euclidean: Vec<(f32, u32)> =
        candidates.iter().map(|&(dissim, c)| (view.to_euclidean(dissim), c)).collect();
    // Processing in ascending order guarantees d(p, s) ≤ d(p, c) for all
    // selected s, so only the shrunken-lune condition needs checking.
    select(&euclidean, r_cap, |(_, s), (d_pc, c)| view.dist_eu(store, s, c) < d_pc - slack)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_vectors::metric::Metric;

    fn line_store() -> VecStore {
        // p = 0 at origin; 1 at x=1; 2 at x=2 (occluded by 1 under MRNG).
        VecStore::from_rows(&[vec![0.0, 0.0], vec![1.0, 0.0], vec![2.0, 0.0]]).unwrap()
    }

    fn cands(store: &VecStore, ids: &[u32]) -> Vec<(f32, u32)> {
        let mut c: Vec<(f32, u32)> = ids
            .iter()
            .map(|&i| (Metric::L2.distance(store.get(0), store.get(i)), i))
            .collect();
        c.sort_by(|a, b| a.0.total_cmp(&b.0));
        c
    }

    #[test]
    fn tau_zero_is_mrng() {
        let s = line_store();
        let c = cands(&s, &[1, 2]);
        // d(1,2)=1 < d(0,2)=2 → 2 pruned under MRNG.
        let sel = tau_prune(&s, EuclideanView::SquaredL2, &c, usize::MAX, 0.0);
        assert_eq!(sel, vec![1]);
    }

    #[test]
    fn positive_tau_keeps_more_edges() {
        let s = line_store();
        let c = cands(&s, &[1, 2]);
        // Occlusion needs d(1,2)=1 < d(0,2) − 3τ = 2 − 3τ, i.e. τ < 1/3.
        let sel = tau_prune(&s, EuclideanView::SquaredL2, &c, usize::MAX, 0.2);
        assert_eq!(sel, vec![1], "τ = 0.2 still prunes");
        let sel = tau_prune(&s, EuclideanView::SquaredL2, &c, usize::MAX, 0.34);
        assert_eq!(sel, vec![1, 2], "τ = 0.34 keeps the long edge");
    }

    #[test]
    fn edge_set_grows_monotonically_with_tau() {
        // On a small random set, the τ-MG edge count must be non-decreasing
        // in τ (larger slack ⇒ harder to occlude).
        let rows: Vec<Vec<f32>> = (0..30)
            .map(|i| {
                let x = (i as f32 * 0.7).sin() * 3.0;
                let y = (i as f32 * 1.3).cos() * 3.0;
                vec![x, y]
            })
            .collect();
        let s = VecStore::from_rows(&rows).unwrap();
        let mut counts = Vec::new();
        for tau in [0.0f32, 0.1, 0.3, 0.8] {
            let mut total = 0;
            for p in 0..30u32 {
                let mut c: Vec<(f32, u32)> = (0..30u32)
                    .filter(|&i| i != p)
                    .map(|i| (Metric::L2.distance(s.get(p), s.get(i)), i))
                    .collect();
                c.sort_by(|a, b| a.0.total_cmp(&b.0));
                total += tau_prune(&s, EuclideanView::SquaredL2, &c, usize::MAX, tau).len();
            }
            counts.push(total);
        }
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
        assert!(counts[3] > counts[0], "large τ must add edges: {counts:?}");
    }

    #[test]
    fn degree_cap_is_respected() {
        let s = line_store();
        let c = cands(&s, &[1, 2]);
        let sel = tau_prune(&s, EuclideanView::SquaredL2, &c, 1, 10.0);
        assert_eq!(sel, vec![1]);
    }

    #[test]
    fn duplicates_are_ignored() {
        let s = line_store();
        let mut c = cands(&s, &[1, 2]);
        c.insert(1, c[0]);
        let sel = tau_prune(&s, EuclideanView::SquaredL2, &c, usize::MAX, 1.0);
        assert_eq!(sel.iter().filter(|&&x| x == 1).count(), 1);
    }

    #[test]
    fn sphere_view_prunes_consistently() {
        // Three unit vectors; chord geometry drives the rule.
        let mut s =
            VecStore::from_rows(&[vec![1.0, 0.0, 0.0], vec![0.9, 0.1, 0.0], vec![0.8, 0.2, 0.0]])
                .unwrap();
        s.normalize();
        let mut c: Vec<(f32, u32)> = [1u32, 2]
            .iter()
            .map(|&i| (Metric::Cosine.distance(s.get(0), s.get(i)), i))
            .collect();
        c.sort_by(|a, b| a.0.total_cmp(&b.0));
        let strict = tau_prune(&s, EuclideanView::UnitSphere, &c, usize::MAX, 0.0);
        let loose = tau_prune(&s, EuclideanView::UnitSphere, &c, usize::MAX, 1.0);
        assert_eq!(strict, vec![1], "node 2 occluded at τ=0");
        assert_eq!(loose, vec![1, 2], "slack keeps the second edge");
    }
}
