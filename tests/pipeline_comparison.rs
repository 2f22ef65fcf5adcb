//! Cross-crate integration: every index in the workspace, built over the
//! same corpus through its full pipeline, must honor the `AnnIndex`
//! contract and clear a recall floor.

use ann_suite::ann_graph::{AnnIndex, Scratch};
use ann_suite::ann_hnsw::{Hnsw, HnswParams};
use ann_suite::ann_knng::brute_force_knn_graph;
use ann_suite::ann_nsg::{build_nsg, build_ssg, NsgParams, SsgParams};
use ann_suite::ann_vamana::{build_vamana, VamanaParams};
use ann_suite::ann_vectors::accuracy::mean_recall_at_k;
use ann_suite::ann_vectors::synthetic::{mean_nn_distance, Recipe};
use ann_suite::ann_vectors::{brute_force_ground_truth, Metric, VecStore};
use ann_suite::tau_mg::{build_tau_mng, TauMngParams};
use std::sync::Arc;

const N: usize = 1_500;
const NQ: usize = 40;
const K: usize = 10;
const L: usize = 100;

struct Fixture {
    base: Arc<VecStore>,
    queries: VecStore,
    gt: ann_suite::ann_vectors::GroundTruth,
    metric: Metric,
}

fn fixture() -> Fixture {
    let ds = Recipe::SiftLike.build(N, NQ, 1234);
    let base = Arc::new(ds.base);
    let gt = brute_force_ground_truth(ds.metric, &base, &ds.queries, K).unwrap();
    Fixture { base, queries: ds.queries, gt, metric: ds.metric }
}

fn contract_and_recall(index: &dyn AnnIndex, f: &Fixture, floor: f64) {
    let mut scratch = Scratch::new(index.num_points());
    let mut results = Vec::with_capacity(f.queries.len());
    for q in 0..f.queries.len() as u32 {
        let r = index.search_with(f.queries.get(q), K, L, &mut scratch);
        // Contract: k results, ascending distances, ids in range, stats counted.
        assert_eq!(r.ids.len(), K, "{}", index.name());
        assert_eq!(r.dists.len(), K, "{}", index.name());
        assert!(r.dists.windows(2).all(|w| w[0] <= w[1]), "{} unsorted", index.name());
        assert!(r.ids.iter().all(|&id| (id as usize) < N), "{} bad id", index.name());
        assert!(r.stats.ndc > 0, "{} no distance evals", index.name());
        let mut dedup = r.ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), K, "{} duplicate results", index.name());
        results.push(r.ids);
    }
    let recall = mean_recall_at_k(&f.gt, &results, K);
    assert!(recall >= floor, "{} recall {recall} below floor {floor}", index.name());
}

#[test]
fn all_indexes_honor_contract_and_recall_floor() {
    let f = fixture();
    let knn = brute_force_knn_graph(f.metric, &f.base, 20).unwrap();
    let tau = mean_nn_distance(&f.base, 100, 0) * 0.05;

    let hnsw = Hnsw::build(f.base.clone(), f.metric, HnswParams::default()).unwrap();
    contract_and_recall(&hnsw, &f, 0.90);

    let nsg = build_nsg(f.base.clone(), f.metric, &knn, NsgParams::default()).unwrap();
    contract_and_recall(&nsg, &f, 0.90);

    let ssg = build_ssg(f.base.clone(), f.metric, &knn, SsgParams::default()).unwrap();
    contract_and_recall(&ssg, &f, 0.90);

    let vamana = build_vamana(f.base.clone(), f.metric, VamanaParams::default()).unwrap();
    contract_and_recall(&vamana, &f, 0.90);

    let tmng =
        build_tau_mng(f.base.clone(), f.metric, &knn, TauMngParams { tau, ..Default::default() })
            .unwrap();
    contract_and_recall(&tmng, &f, 0.90);
}

/// SQ8 fast path: at equal beam width, quantized expansion with exact
/// re-rank must stay within 0.01 recall@10 of full precision, per metric.
/// L2 and Cosine run through the full τ-MNG pipeline (`enable_sq8` flips the
/// serving path); Ip has no synthetic recipe, so it runs through the
/// graph-level kernel on the same graph against Ip ground truth — the
/// comparison is still sq8-vs-full at identical beam width.
#[test]
fn sq8_rerank_recall_within_001_of_full_precision_per_metric() {
    use ann_suite::ann_graph::{beam_search_dyn, beam_search_sq8_rerank};
    use ann_suite::ann_vectors::Sq8Store;

    let mut covered = Vec::new();
    for recipe in [Recipe::SiftLike, Recipe::GloveLike] {
        let ds = recipe.build(N, NQ, 1234);
        let base = Arc::new(ds.base);
        let gt = brute_force_ground_truth(ds.metric, &base, &ds.queries, K).unwrap();
        let knn = brute_force_knn_graph(ds.metric, &base, 20).unwrap();
        let tau = mean_nn_distance(&base, 100, 0) * 0.05;
        let mut tmng = build_tau_mng(
            base.clone(),
            ds.metric,
            &knn,
            TauMngParams { tau, ..Default::default() },
        )
        .unwrap();

        let mut scratch = Scratch::new(tmng.num_points());
        let run = |idx: &dyn AnnIndex, scratch: &mut Scratch| -> Vec<Vec<u32>> {
            (0..NQ as u32)
                .map(|q| idx.search_with(ds.queries.get(q), K, L, scratch).ids)
                .collect()
        };
        let full = run(&tmng, &mut scratch);
        tmng.enable_sq8();
        assert!(tmng.sq8().is_some(), "enable_sq8 must install the code store");
        let quant = run(&tmng, &mut scratch);

        let r_full = mean_recall_at_k(&gt, &full, K);
        let r_sq8 = mean_recall_at_k(&gt, &quant, K);
        assert!(
            r_sq8 >= r_full - 0.01,
            "{:?}: sq8 recall {r_sq8} more than 0.01 below full-precision {r_full}",
            ds.metric
        );
        covered.push(ds.metric);
    }
    assert!(covered.contains(&Metric::L2) && covered.contains(&Metric::Cosine));

    // Ip arm: same graph, graph-level kernels, Ip ground truth.
    let ds = Recipe::SiftLike.build(N, NQ, 1234);
    let base = Arc::new(ds.base);
    let gt_ip = brute_force_ground_truth(Metric::Ip, &base, &ds.queries, K).unwrap();
    let knn = brute_force_knn_graph(ds.metric, &base, 20).unwrap();
    let tau = mean_nn_distance(&base, 100, 0) * 0.05;
    let tmng =
        build_tau_mng(base.clone(), ds.metric, &knn, TauMngParams { tau, ..Default::default() })
            .unwrap();
    let sq8 = Sq8Store::quantize(&base);
    let (graph, entry) = (tmng.graph(), tmng.entry_point());

    let mut scratch = Scratch::new(tmng.num_points());
    let mut full = Vec::with_capacity(NQ);
    let mut quant = Vec::with_capacity(NQ);
    for q in 0..NQ as u32 {
        let query = ds.queries.get(q);
        beam_search_dyn(Metric::Ip, &base, graph, &[entry], query, L, &mut scratch);
        full.push(scratch.pool.top_k(K).0);
        let r = beam_search_sq8_rerank(
            Metric::Ip,
            &base,
            &sq8,
            graph,
            &[entry],
            query,
            K,
            L,
            &mut scratch,
        );
        quant.push(r.ids);
    }
    let r_full = mean_recall_at_k(&gt_ip, &full, K);
    let r_sq8 = mean_recall_at_k(&gt_ip, &quant, K);
    assert!(
        r_sq8 >= r_full - 0.01,
        "Ip: sq8 recall {r_sq8} more than 0.01 below full-precision {r_full}"
    );
}

#[test]
fn k_larger_than_l_is_clamped() {
    let f = fixture();
    let hnsw = Hnsw::build(f.base.clone(), f.metric, HnswParams::default()).unwrap();
    let r = hnsw.search(f.queries.get(0), 50, 10); // l < k
    assert_eq!(r.ids.len(), 50, "l must clamp up to k");
}

#[test]
fn k_equal_n_returns_all_points_on_connected_index() {
    let ds = Recipe::UqvLike.build(60, 3, 5);
    let base = Arc::new(ds.base);
    let hnsw = Hnsw::build(base, ds.metric, HnswParams::default()).unwrap();
    let r = hnsw.search(ds.queries.get(0), 60, 200);
    let mut ids = r.ids;
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 60, "full sweep must reach every point");
}

/// τ-MNG at τ = 0 is NSG. The τ rule with no slack is MRNG's, and both
/// builders run the same refinement pipeline, so with equal R, L and C they
/// give the same entry point and adjacency — on an L2 recipe and on a cosine
/// one. One build thread makes the reverse-edge phase run in the same order.
#[test]
fn nsg_equals_tau_mng_at_tau_zero() {
    std::env::set_var("ANN_THREADS", "1");
    let (r, l, c) = (32, 64, 200);
    for recipe in [Recipe::SiftLike, Recipe::GloveLike] {
        let ds = recipe.build(N, 1, 1234);
        let base = Arc::new(ds.base);
        let knn = brute_force_knn_graph(ds.metric, &base, 20).unwrap();
        let nsg = build_nsg(Arc::clone(&base), ds.metric, &knn, NsgParams { r, l, c }).unwrap();
        let tau_mng =
            build_tau_mng(base, ds.metric, &knn, TauMngParams { tau: 0.0, r, l, c }).unwrap();
        assert_eq!(nsg.entry_point(), tau_mng.entry_point(), "{recipe:?}: entry point");
        assert!(nsg.graph() == tau_mng.graph(), "{recipe:?}: adjacency differs");
    }
}
