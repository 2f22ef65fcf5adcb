//! Completeness and exactness of filtered serving search.
//!
//! A snapshot answers a filtered query by scanning the admitted rows when
//! they are few, and by walking the graph otherwise; a walk that comes back
//! short is finished by the scan. Two consequences are pinned here:
//!
//! * an attribute filter whose matches all sit where the widened walk never
//!   goes still fills `min(k, matches)` result slots;
//! * whenever the scan answers, its ids equal the exhaustive filtered
//!   ground truth ([`filtered_ground_truth`]) and its distances are the
//!   exact ones, bit for bit.

use ann_suite::ann_eval::filtered_ground_truth;
use ann_suite::ann_graph::{BitFilter, Scratch};
use ann_suite::ann_knng::brute_force_knn_graph;
use ann_suite::ann_service::{AttrValue, FilterExpr, IndexWriter, Metrics, Snapshot};
use ann_suite::ann_vectors::{Metric, VecStore};
use ann_suite::tau_mg::{
    build_tau_mng, tau_search_filtered, tau_search_planned, FilterPlan, TauMngParams,
    TauSearchOptions,
};
use std::sync::Arc;

const DIM: usize = 8;
const K: usize = 10;
const L: usize = 10;

fn rng(seed: u64) -> impl FnMut() -> f32 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 10_000) as f32 / 10_000.0
    }
}

/// Two far-apart clusters: `near` points in the unit cube at the origin,
/// then `far` points in the unit cube shifted by `offset` on every axis.
fn two_clusters(near: usize, far: usize, offset: f32) -> VecStore {
    let mut next = rng(0x5EED);
    let rows: Vec<Vec<f32>> = (0..near + far)
        .map(|i| {
            let shift = if i < near { 0.0 } else { offset };
            (0..DIM).map(|_| next() + shift).collect()
        })
        .collect();
    VecStore::from_rows(&rows).unwrap()
}

/// A snapshot serving `store` under identity external ids, every point
/// tagged with `tag(id)` and the ids in `deleted` tombstoned. Published
/// incrementally, so internal ids stay equal to external ids.
fn serve(
    store: &Arc<VecStore>,
    tag: impl Fn(u64) -> &'static str,
    deleted: &[u64],
) -> (IndexWriter, Arc<Snapshot>) {
    let params = TauMngParams { tau: 0.05, r: 16, l: 48, c: 200 };
    let knn = brute_force_knn_graph(Metric::L2, store, 10).unwrap();
    let index = build_tau_mng(Arc::clone(store), Metric::L2, &knn, params).unwrap();
    let (mut writer, cell) = IndexWriter::attach(index, params, Arc::new(Metrics::new()));
    for ext in 0..store.len() as u64 {
        writer
            .set_attrs(ext, vec![("side".into(), AttrValue::Str(tag(ext).into()))])
            .unwrap();
    }
    for &ext in deleted {
        writer.delete(ext).unwrap();
    }
    writer.publish_tombstones().unwrap();
    let snap = cell.load();
    (writer, snap)
}

/// The admitted rows of `snap` under `expr`, as the ground-truth oracle
/// sees them.
fn admitted(snap: &Snapshot, expr: &FilterExpr) -> Vec<bool> {
    snap.external_ids()
        .iter()
        .map(|&e| !snap.is_tombstoned(e) && expr.matches(snap.attrs_of(e)))
        .collect()
}

/// `snap`'s answer to every query equals the filtered ground truth: same
/// ids in the same order, and each distance the exact one.
fn assert_exact(
    snap: &Snapshot,
    store: &VecStore,
    queries: &VecStore,
    expr: &FilterExpr,
    l: usize,
) {
    let matches = admitted(snap, expr);
    let gt = filtered_ground_truth(Metric::L2, store, queries, &matches, K);
    let mut scratch = Scratch::new(snap.len());
    for (q, truth) in gt.iter().enumerate() {
        let query = queries.get(q as u32);
        let hit = snap.search_filtered(query, K, l, Some(expr), &mut scratch);
        let want: Vec<u64> = truth.iter().map(|&i| u64::from(i)).collect();
        assert_eq!(hit.ids, want, "query {q}: ids differ from the filtered ground truth");
        for (&id, &d) in hit.ids.iter().zip(&hit.dists) {
            let exact = Metric::L2.distance(query, store.get(id as u32)); // cast: identity ids
            assert_eq!(d.to_bits(), exact.to_bits(), "query {q}: distance of {id} is not exact");
        }
    }
}

#[test]
fn filter_matches_beyond_the_widened_walk_still_fill_k() {
    // 40 % of the corpus matches, so the plan walks (the matches outnumber
    // SCAN_FACTOR widened beams), but every match sits in the far cluster
    // while the queries and the walk stay in the near one.
    let (near, far) = (720usize, 480usize);
    let store = Arc::new(two_clusters(near, far, 40.0));
    let (_writer, snap) = serve(&store, |e| if e < near as u64 { "near" } else { "far" }, &[]);
    let expr = FilterExpr::eq("side", AttrValue::Str("far".into()));
    let mut next = rng(0xA11CE);
    let rows: Vec<Vec<f32>> = (0..12).map(|_| (0..DIM).map(|_| next() * 0.2).collect()).collect();
    let queries = VecStore::from_rows(&rows).unwrap();

    // The premise: the widened walk alone comes back short on every query.
    let bits = BitFilter::from_fn(store.len(), |i| i as usize >= near);
    let opts = TauSearchOptions::default();
    let mut scratch = Scratch::new(store.len());
    for q in 0..queries.len() as u32 {
        let walk =
            tau_search_filtered(snap.index(), queries.get(q), K, L, opts, &bits, &mut scratch);
        assert!(walk.ids.len() < K, "query {q}: the walk reached {} matches", walk.ids.len());
        let (r, plan) =
            tau_search_planned(snap.index(), queries.get(q), K, L, opts, &bits, &mut scratch);
        assert_eq!(plan, FilterPlan::WalkThenScan, "query {q}");
        assert!(r.stats.ndc >= far as u64 + walk.stats.ndc, "query {q}: both plans are charged");
    }

    // The served answer is never short, and it is the exact one.
    let mut scratch = Scratch::new(snap.len());
    for q in 0..queries.len() as u32 {
        let hit = snap.search_filtered(queries.get(q), K, L, Some(&expr), &mut scratch);
        assert_eq!(hit.ids.len(), K, "query {q} came back short: {:?}", hit.ids);
        assert!(hit.ids.iter().all(|&e| e >= near as u64), "query {q}: a near point leaked");
    }
    assert_exact(&snap, &store, &queries, &expr, L);
}

#[test]
fn scanned_filter_answers_equal_filtered_ground_truth() {
    // One cluster; a 5 % stride filter (few enough rows to scan) with and
    // without tombstones, and a filter matching fewer rows than k.
    let store = Arc::new(two_clusters(1200, 0, 0.0));
    let mut next = rng(0xBEEF);
    let rows: Vec<Vec<f32>> = (0..16).map(|_| (0..DIM).map(|_| next()).collect()).collect();
    let queries = VecStore::from_rows(&rows).unwrap();
    let tag = |e: u64| match e % 20 {
        7 => "picked",
        _ if e == 3 || e == 1111 => "rare",
        _ => "other",
    };
    let picked = FilterExpr::eq("side", AttrValue::Str("picked".into()));
    let rare = FilterExpr::eq("side", AttrValue::Str("rare".into()));

    let (_writer, snap) = serve(&store, tag, &[]);
    let bits = BitFilter::from_fn(store.len(), |i| i % 20 == 7);
    let mut scratch = Scratch::new(store.len());
    let opts = TauSearchOptions::default();
    let (_, plan) =
        tau_search_planned(snap.index(), queries.get(0), K, L, opts, &bits, &mut scratch);
    assert_eq!(plan, FilterPlan::Scan, "60 matches are scanned");
    assert_exact(&snap, &store, &queries, &picked, L);
    let hit = snap.search_filtered(queries.get(0), K, L, Some(&rare), &mut scratch);
    assert_eq!(hit.ids.len(), 2, "fewer matches than k: all of them, no more");
    assert_exact(&snap, &store, &queries, &rare, L);

    let deleted: Vec<u64> = (0..1200).filter(|e| e % 40 == 7).collect();
    let (_writer, snap) = serve(&store, tag, &deleted);
    assert_exact(&snap, &store, &queries, &picked, L);
}
