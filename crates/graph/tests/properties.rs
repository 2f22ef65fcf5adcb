//! Property-based tests of the graph substrate: model-checked pool
//! behaviour, visited-set semantics, serialization, and beam-search
//! correctness against exhaustive search on arbitrary graphs.

use ann_graph::serialize::{graph_from_bytes, graph_to_bytes};
use ann_graph::{beam_search_dyn, FlatGraph, GraphView, Pool, Scratch, VarGraph, VisitedSet};
use ann_vectors::{Metric, VecStore};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The pool is a bounded best-k set: always sorted, never over capacity,
    /// and its contents equal the k smallest distinct-id insertions.
    #[test]
    fn pool_matches_bounded_model(
        inserts in prop::collection::vec((0.0f32..100.0, 0u32..1000), 1..200),
        cap in 1usize..40,
    ) {
        let mut pool = Pool::new(cap);
        let mut model: Vec<(f32, u32)> = Vec::new();
        for &(d, id) in &inserts {
            pool.insert(d, id);
            // Model: pools get unique ids from the visited set in real use;
            // replicate by skipping ids already present.
            if !model.iter().any(|&(_, mid)| mid == id) {
                model.push((d, id));
                model.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
                model.truncate(cap);
            }
        }
        let got: Vec<f32> = pool.as_slice().iter().map(|c| c.dist).collect();
        prop_assert!(got.windows(2).all(|w| w[0] <= w[1]), "pool unsorted");
        prop_assert!(pool.len() <= cap);
        // Distances must match the model's (ids can differ on exact ties
        // when the same id was offered twice with different distances —
        // impossible in real use, so compare distances only).
        let want: Vec<f32> = model.iter().map(|e| e.0).collect();
        prop_assert!(
            got.len() >= want.len().min(cap).saturating_sub(0) && got.len() <= cap,
            "pool size diverged from model"
        );
        if inserts.iter().map(|e| e.1).collect::<std::collections::HashSet<_>>().len()
            == inserts.len()
        {
            // All ids unique: the model is exact.
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn visited_set_is_a_set(ops in prop::collection::vec((0u32..100, prop::bool::ANY), 1..300)) {
        let mut v = VisitedSet::new(100);
        let mut model = std::collections::HashSet::new();
        for &(id, clear) in &ops {
            if clear {
                v.clear();
                model.clear();
            } else {
                let newly = v.insert(id);
                prop_assert_eq!(newly, model.insert(id));
                prop_assert!(v.contains(id));
            }
        }
    }

    #[test]
    fn graph_serialization_roundtrips(
        n in 1usize..40,
        edges in prop::collection::vec((0usize..40, 0usize..40), 0..200),
    ) {
        let mut g = VarGraph::new(n);
        for &(u, v) in &edges {
            if u < n && v < n {
                g.add_edge_dedup(u as u32, v as u32);
            }
        }
        let flat = FlatGraph::freeze(&g, None);
        let back = graph_from_bytes(&graph_to_bytes(&flat)).unwrap();
        prop_assert_eq!(&back, &flat);
        for u in 0..n as u32 {
            prop_assert_eq!(back.neighbors(u), g.neighbors(u));
        }
    }

    /// On a fully connected graph, beam search with L ≥ n is exhaustive: it
    /// must return exactly the k nearest points.
    #[test]
    fn beam_search_exhaustive_when_l_covers_graph(
        n in 2usize..30,
        seed in 0u64..500,
    ) {
        let store = ann_vectors::synthetic::uniform(4, n, seed);
        let mut g = VarGraph::new(n);
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                if u != v {
                    g.add_edge(u, v);
                }
            }
        }
        let queries = ann_vectors::synthetic::uniform(4, 3, seed ^ 9);
        let mut scratch = Scratch::new(n);
        for qi in 0..queries.len() as u32 {
            let q = queries.get(qi);
            beam_search_dyn(Metric::L2, &store, &g, &[0], q, n, &mut scratch);
            let (ids, dists) = scratch.pool.top_k(n.min(5));
            // Oracle: full sort.
            let mut oracle: Vec<(f32, u32)> = (0..n as u32)
                .map(|i| (ann_vectors::metric::l2_sq(q, store.get(i)), i))
                .collect();
            oracle.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            for (j, &id) in ids.iter().enumerate() {
                prop_assert_eq!(dists[j], oracle[j].0, "rank {} distance", j);
                let _ = id;
            }
        }
    }

    /// Beam search results are independent of the scratch's history.
    #[test]
    fn beam_search_scratch_isolation(seed in 0u64..200) {
        let store: VecStore = ann_vectors::synthetic::uniform(4, 50, seed);
        let mut g = VarGraph::new(50);
        for u in 0..49u32 {
            g.add_edge(u, u + 1);
            g.add_edge(u + 1, u);
        }
        let q1 = ann_vectors::synthetic::uniform(4, 1, seed ^ 3);
        let q2 = ann_vectors::synthetic::uniform(4, 1, seed ^ 4);
        let mut fresh = Scratch::new(50);
        beam_search_dyn(Metric::L2, &store, &g, &[0], q2.get(0), 8, &mut fresh);
        let clean = fresh.pool.top_k(3);
        let mut dirty = Scratch::new(50);
        beam_search_dyn(Metric::L2, &store, &g, &[0], q1.get(0), 8, &mut dirty);
        beam_search_dyn(Metric::L2, &store, &g, &[0], q2.get(0), 8, &mut dirty);
        prop_assert_eq!(dirty.pool.top_k(3), clean);
    }
}
