//! The one greedy neighbour-selection loop and the one reverse-edge offer.
//!
//! Every pruning rule in the workspace is the same greedy pass over a
//! node's candidates, sorted nearest first: skip an id already kept, stop
//! at the degree cap, and keep a candidate unless some kept neighbour
//! *occludes* it. The rules differ only in the occlusion predicate:
//!
//! | rule | builder | `s` occludes `c` when |
//! |---|---|---|
//! | MRNG | NSG, HNSW | `d(s, c) < d(p, c)` |
//! | τ-MG | τ-MNG, τ-MG | `d_eu(s, c) < d_eu(p, c) − 3τ` |
//! | RobustPrune | Vamana | `α · d(s, c) ≤ d(p, c)` |
//! | angle | SSG | `cos ∠(s, p, c) > cos θ` |
//!
//! [`offer_edge`] is the reverse-edge step every builder shares: add `p` to
//! a neighbour's list, and re-select the list under the builder's rule when
//! it is full.

use ann_vectors::metric::Metric;
use ann_vectors::VecStore;
use std::cmp::Ordering;

/// Ascending by distance, ties broken by id — the order every candidate
/// list handed to [`select`] is sorted in.
pub fn by_distance(a: &(f32, u32), b: &(f32, u32)) -> Ordering {
    a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1))
}

/// Greedily select up to `cap` neighbours of a base point `p`.
///
/// `candidates` are `(key, id)` pairs sorted ascending by the key, a
/// distance from `p` in whatever units `occludes` expects. A candidate is
/// skipped if its id was already selected, and dropped if
/// `occludes(selected, candidate)` holds for any selected pair. `cap` may be
/// `usize::MAX` (the exact, uncapped τ-MG). Returns ids, nearest first.
pub fn select<F>(candidates: &[(f32, u32)], cap: usize, mut occludes: F) -> Vec<u32>
where
    F: FnMut((f32, u32), (f32, u32)) -> bool,
{
    debug_assert!(candidates.windows(2).all(|w| w[0].0 <= w[1].0));
    let mut selected: Vec<(f32, u32)> = Vec::with_capacity(cap.min(candidates.len()));
    for &cand in candidates {
        if selected.len() >= cap {
            break;
        }
        if selected.iter().any(|&(_, s)| s == cand.1) {
            continue;
        }
        if !selected.iter().any(|&kept| occludes(kept, cand)) {
            selected.push(cand);
        }
    }
    selected.into_iter().map(|(_, c)| c).collect()
}

/// The MRNG occlusion predicate for [`select`] (NSG, HNSW): a selected `s`
/// occludes candidate `c` when `d(s, c) < d(p, c)` in `metric` units, the
/// candidates being keyed by `metric` distance from the base point `p`.
pub fn mrng_occludes(
    store: &VecStore,
    metric: Metric,
) -> impl Fn((f32, u32), (f32, u32)) -> bool + '_ {
    move |(_, s), (d_pc, c)| metric.distance(store.get(s), store.get(c)) < d_pc
}

/// Offer the reverse edge `q → p`: push `p` onto `q`'s out-list `list`
/// unless it is already there. When the list already holds `cap` ids,
/// re-select it from `list ∪ {p}`: `prune` receives those ids keyed by
/// `metric` distance from `q`, sorted by [`by_distance`].
pub fn offer_edge<P>(
    store: &VecStore,
    metric: Metric,
    q: u32,
    list: &mut Vec<u32>,
    p: u32,
    cap: usize,
    prune: P,
) where
    P: FnOnce(&[(f32, u32)]) -> Vec<u32>,
{
    if list.contains(&p) {
        return;
    }
    if list.len() < cap {
        list.push(p);
        return;
    }
    let vq = store.get(q);
    let mut cands: Vec<(f32, u32)> = list
        .iter()
        .chain(std::iter::once(&p))
        .map(|&w| (metric.distance(vq, store.get(w)), w))
        .collect();
    cands.sort_by(by_distance);
    *list = prune(&cands);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> VecStore {
        VecStore::from_rows(&[
            vec![0.0, 0.0], // 0: base p
            vec![1.0, 0.0], // 1
            vec![2.0, 0.0], // 2: occluded by 1 under MRNG
            vec![0.0, 1.0], // 3
        ])
        .unwrap()
    }

    fn sorted_cands(s: &VecStore, ids: &[u32]) -> Vec<(f32, u32)> {
        let mut c: Vec<(f32, u32)> =
            ids.iter().map(|&i| (Metric::L2.distance(s.get(0), s.get(i)), i)).collect();
        c.sort_by(by_distance);
        c
    }

    #[test]
    fn mrng_prunes_occluded() {
        let s = store();
        let cands = sorted_cands(&s, &[1, 2, 3]);
        assert_eq!(select(&cands, 8, mrng_occludes(&s, Metric::L2)), vec![1, 3]);
    }

    #[test]
    fn mrng_respects_degree_cap() {
        let s = store();
        let cands = sorted_cands(&s, &[1, 3]);
        assert_eq!(select(&cands, 1, mrng_occludes(&s, Metric::L2)), vec![1]);
    }

    #[test]
    fn select_skips_repeated_ids_and_takes_an_uncapped_cap() {
        let s = store();
        let cands = sorted_cands(&s, &[1, 1, 3, 2]);
        assert_eq!(select(&cands, usize::MAX, mrng_occludes(&s, Metric::L2)), vec![1, 3]);
        assert_eq!(select(&cands, usize::MAX, |_, _| false), vec![1, 3, 2]);
        assert!(select(&[], 4, mrng_occludes(&s, Metric::L2)).is_empty());
    }

    #[test]
    fn offer_edge_pushes_skips_and_reprunes() {
        let s = store();
        let mut list = vec![1];
        offer_edge(&s, Metric::L2, 0, &mut list, 1, 2, |_| unreachable!());
        assert_eq!(list, vec![1], "a present edge is not offered twice");
        offer_edge(&s, Metric::L2, 0, &mut list, 2, 2, |_| unreachable!());
        assert_eq!(list, vec![1, 2], "room left: plain push");
        let mut seen = Vec::new();
        offer_edge(&s, Metric::L2, 0, &mut list, 3, 2, |cands| {
            seen = cands.to_vec();
            select(cands, 2, mrng_occludes(&s, Metric::L2))
        });
        assert_eq!(seen, vec![(1.0, 1), (1.0, 3), (4.0, 2)], "sorted by distance, then id");
        assert_eq!(list, vec![1, 3]);
    }
}
