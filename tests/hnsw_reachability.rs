//! The parallel HNSW build must hand back a bottom layer on which every
//! node is reachable from the entry point, within the degree cap, on every
//! run — not only under `ANN_THREADS=1`. Concurrent insertion promises only
//! local link quality, so `Hnsw::build` repairs connectivity before it
//! freezes the layer; these builds run at the default thread count and
//! failed intermittently before that repair.

use ann_suite::ann_graph::connectivity::fully_reachable;
use ann_suite::ann_graph::GraphView;
use ann_suite::ann_hnsw::{Hnsw, HnswParams};
use ann_suite::ann_vectors::synthetic::Recipe;
use std::sync::Arc;

fn assert_reachable_every_time(recipe: Recipe, n: usize, seed: u64) {
    let ds = recipe.build(n, 3, seed);
    let base = Arc::new(ds.base);
    let params = HnswParams::default();
    for run in 0..25 {
        let hnsw = Hnsw::build(base.clone(), ds.metric, params).unwrap();
        let (entry, _) = hnsw.entry_point();
        assert!(
            fully_reachable(hnsw.bottom_layer(), entry),
            "{recipe:?} n={n} run {run}: layer-0 nodes unreachable from the entry"
        );
        let max_degree = hnsw.bottom_layer().max_degree();
        assert!(max_degree <= params.max_m0(), "{recipe:?} run {run}: degree {max_degree}");
    }
}

#[test]
fn small_uniform_corpus_is_fully_reachable_on_every_build() {
    assert_reachable_every_time(Recipe::UqvLike, 60, 5);
}

#[test]
fn two_thousand_point_corpus_is_fully_reachable_on_every_build() {
    assert_reachable_every_time(Recipe::SiftLike, 2000, 11);
}
