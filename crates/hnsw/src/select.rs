//! HNSW's neighbor-selection heuristic ("Algorithm 4").
//!
//! Given candidates sorted by distance to a base point, keep candidate `c`
//! only if no already-selected neighbor `r` is closer to `c` than the base
//! is — the MRNG occlusion rule, applied by the workspace's one greedy loop
//! ([`ann_graph::select()`]) — then refill pruned slots with the nearest
//! rejected candidates (`keepPrunedConnections`).

use ann_graph::{mrng_occludes, select};
use ann_vectors::metric::Metric;
use ann_vectors::VecStore;

/// Select up to `m` diverse neighbors from `candidates` (must be sorted by
/// ascending distance to the base point, without repeated ids), topped up
/// to `m` with the nearest occluded ones.
///
/// Returns selected ids: the diverse ones nearest first, then the refill.
pub fn select_neighbors_heuristic(
    store: &VecStore,
    metric: Metric,
    candidates: &[(f32, u32)],
    m: usize,
) -> Vec<u32> {
    let mut selected = select(candidates, m, mrng_occludes(store, metric));
    for &(_, c) in candidates {
        if selected.len() >= m {
            break;
        }
        if !selected.contains(&c) {
            selected.push(c);
        }
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Base point at origin; candidates on a line so occlusion is obvious.
    fn line_store() -> VecStore {
        VecStore::from_rows(&[
            vec![0.0, 0.0], // 0: base
            vec![1.0, 0.0], // 1: near, same direction
            vec![2.0, 0.0], // 2: behind 1 (occluded by it)
            vec![0.0, 1.5], // 3: different direction
            vec![3.0, 0.0], // 4: far behind 1
        ])
        .unwrap()
    }

    fn candidates_for_base0(store: &VecStore, ids: &[u32]) -> Vec<(f32, u32)> {
        let mut c: Vec<(f32, u32)> = ids
            .iter()
            .map(|&i| (Metric::L2.distance(store.get(0), store.get(i)), i))
            .collect();
        c.sort_by(|a, b| a.0.total_cmp(&b.0));
        c
    }

    #[test]
    fn keep_pruned_refills() {
        let s = line_store();
        let c = candidates_for_base0(&s, &[1, 2, 3, 4]);
        let sel = select_neighbors_heuristic(&s, Metric::L2, &c, 3);
        assert_eq!(sel, vec![1, 3, 2], "nearest pruned candidate refills the slot");
    }

    #[test]
    fn m_limits_selection() {
        let s = line_store();
        let c = candidates_for_base0(&s, &[1, 3]);
        let sel = select_neighbors_heuristic(&s, Metric::L2, &c, 1);
        assert_eq!(sel, vec![1]);
    }

    #[test]
    fn duplicates_ignored() {
        let s = line_store();
        let mut c = candidates_for_base0(&s, &[1, 3]);
        c.push(c[1]); // duplicate worst
        c.sort_by(|a, b| a.0.total_cmp(&b.0));
        let sel = select_neighbors_heuristic(&s, Metric::L2, &c, 4);
        assert_eq!(sel, vec![1, 3]);
    }

    #[test]
    fn empty_candidates() {
        let s = line_store();
        assert!(select_neighbors_heuristic(&s, Metric::L2, &[], 3).is_empty());
    }
}
