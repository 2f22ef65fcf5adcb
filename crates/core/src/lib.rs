//! # tau-mg — τ-monotonic graphs for exact-in-the-tube ANN search
//!
//! Primary contribution of *"Efficient Approximate Nearest Neighbor Search
//! in Multi-dimensional Databases"* (SIGMOD 2023): proximity graphs that
//! guarantee greedy search finds the **exact** nearest neighbor for every
//! query within Euclidean distance τ of the database.
//!
//! ## The idea
//!
//! MRNG (and its practical approximation NSG) guarantees greedy search
//! succeeds only when the query *is* a database point. Real queries are
//! not. τ-MG shrinks MRNG's occlusion lune by `3τ`:
//!
//! > an edge (p, b) may be dropped only if a closer selected neighbor r of p
//! > satisfies `d(r, b) < d(p, b) − 3τ`
//!
//! which is exactly enough slack to make every greedy step decrease the
//! distance to the query by at least τ whenever `d(q, P) ≤ τ` — see
//! [`prune`] for the two-triangle-inequality argument, and the property
//! tests in `tests/theorem.rs` that falsify-check it end to end.
//!
//! ## What's here
//!
//! | item | role |
//! |------|------|
//! | [`exact::build_tau_mg`] | exact Θ(n²) τ-MG (the theoretical object; τ = 0 ⇒ MRNG) |
//! | [`mng::build_tau_mng`] | practical τ-MNG: NSG-style pipeline with the τ rule |
//! | [`search::tau_search`] | two-phase τ-monotonic search with QEO distance skipping |
//! | [`index::TauIndex`] | frozen index: graph + Euclidean edge lengths + persistence |
//! | [`geometry`] | the dissimilarity ↔ Euclidean bridge (L2 / unit-sphere cosine) |
//!
//! ## Quick example
//!
//! ```
//! use std::sync::Arc;
//! use ann_graph::AnnIndex;
//! use ann_knng::brute_force_knn_graph;
//! use ann_vectors::{Metric, synthetic};
//! use tau_mg::{build_tau_mng, TauMngParams};
//!
//! let base = Arc::new(synthetic::uniform(16, 500, 7));
//! let tau = synthetic::mean_nn_distance(&base, 100, 0);
//! let knn = brute_force_knn_graph(Metric::L2, &base, 15).unwrap();
//! let index = build_tau_mng(
//!     base,
//!     Metric::L2,
//!     &knn,
//!     TauMngParams { tau, ..Default::default() },
//! )
//! .unwrap();
//! let result = index.search(&[0.1f32; 16], 10, 64);
//! assert_eq!(result.ids.len(), 10);
//! ```

#![forbid(unsafe_code)]

pub mod dynamic;
pub mod exact;
pub mod geometry;
pub mod index;
pub mod mng;
pub mod prune;
pub mod search;

pub use dynamic::DynamicTauMng;
pub use exact::{build_tau_mg, TauMgParams};
pub use geometry::EuclideanView;
pub use index::TauIndex;
pub use mng::{build_tau_mng, TauMngParams};
pub use prune::tau_prune;
pub use search::{
    tau_greedy_nn, tau_search, tau_search_filtered, tau_search_planned, tau_search_with_beam,
    FilterPlan, TauSearchOptions, SCAN_FACTOR,
};

#[cfg(test)]
mod send_sync_assertions {
    //! Compile-time concurrency audit for the serving layer: the frozen
    //! index is shared immutably across reader threads; the dynamic index
    //! is single-owner but must be movable to a writer thread.
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}
    fn assert_send<T: Send>() {}

    #[test]
    fn index_types_are_share_safe() {
        assert_send_sync::<TauIndex>();
        assert_send_sync::<TauMngParams>();
        assert_send_sync::<TauSearchOptions>();
        assert_send::<DynamicTauMng>();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_graph::{AnnIndex, Scratch};
    use ann_vectors::brute_force_ground_truth;
    use ann_vectors::synthetic::{tau_tube_queries, uniform};
    use ann_vectors::Metric;
    use std::sync::Arc;

    /// The headline theorem, end to end: on an exact τ-MG, *pure greedy
    /// descent* (beam width 1!) finds the exact nearest neighbor of every
    /// query in the τ-tube.
    #[test]
    fn exactness_theorem_holds_on_tau_mg() {
        // Seeds shared with the MRNG control below (same dataset, chosen for
        // the vendored compat/rand stream so the control actually misses).
        let base = Arc::new(uniform(8, 400, 22));
        let tau = 0.15f32;
        let idx =
            build_tau_mg(base.clone(), Metric::L2, TauMgParams { tau, degree_cap: None }).unwrap();
        let queries = tau_tube_queries(&base, 100, tau, 23);
        let gt = brute_force_ground_truth(Metric::L2, &base, &queries, 1).unwrap();
        for q in 0..queries.len() as u32 {
            let (node, _, _) = tau_greedy_nn(&idx, queries.get(q));
            assert_eq!(
                node,
                gt.nn(q as usize).0,
                "greedy missed the exact NN for tau-tube query {q}"
            );
        }
    }

    /// The MRNG control (τ = 0): greedy descent from a fixed entry *fails*
    /// for some tube queries — the failure that motivates the paper.
    #[test]
    fn mrng_control_fails_in_the_tube() {
        let base = Arc::new(uniform(8, 400, 22));
        let tau = 0.15f32;
        let idx = build_tau_mg(base.clone(), Metric::L2, TauMgParams::default()).unwrap();
        let queries = tau_tube_queries(&base, 100, tau, 23);
        let gt = brute_force_ground_truth(Metric::L2, &base, &queries, 1).unwrap();
        let misses = (0..queries.len() as u32)
            .filter(|&q| tau_greedy_nn(&idx, queries.get(q)).0 != gt.nn(q as usize).0)
            .count();
        assert!(
            misses > 0,
            "MRNG should miss at least one tube query (else the theorem is vacuous here)"
        );
    }

    /// QEO must not change results, only save distance computations.
    #[test]
    fn qeo_is_result_invariant_and_saves_ndc() {
        let base = Arc::new(uniform(12, 800, 31));
        let idx =
            build_tau_mg(base.clone(), Metric::L2, TauMgParams { tau: 0.1, degree_cap: Some(24) })
                .unwrap();
        // Queries near the data: the pool's admission bound gets tight,
        // which is when triangle-inequality skipping has teeth.
        let queries = tau_tube_queries(&base, 40, 0.2, 32);
        let mut scratch = Scratch::new(idx.num_points());
        let mut total_skipped = 0;
        for q in 0..queries.len() as u32 {
            let with = idx.search_opts(
                queries.get(q),
                10,
                20,
                TauSearchOptions { two_phase: false, qeo: true },
                &mut scratch,
            );
            let without = idx.search_opts(
                queries.get(q),
                10,
                20,
                TauSearchOptions { two_phase: false, qeo: false },
                &mut scratch,
            );
            assert_eq!(with.ids, without.ids, "QEO changed results for query {q}");
            assert!(with.stats.ndc <= without.stats.ndc);
            total_skipped += with.stats.skipped;
        }
        assert!(total_skipped > 0, "QEO never skipped anything — optimization inert");
    }

    /// Two-phase search returns the same quality as single-phase at equal L.
    #[test]
    fn two_phase_matches_single_phase_quality() {
        let base = Arc::new(uniform(10, 600, 41));
        let idx =
            build_tau_mg(base.clone(), Metric::L2, TauMgParams { tau: 0.1, degree_cap: Some(24) })
                .unwrap();
        let queries = uniform(10, 30, 42);
        let gt = brute_force_ground_truth(Metric::L2, &base, &queries, 10).unwrap();
        let mut scratch = Scratch::new(idx.num_points());
        let mut r_two = 0.0;
        let mut r_one = 0.0;
        for q in 0..queries.len() as u32 {
            let two = idx.search_opts(
                queries.get(q),
                10,
                60,
                TauSearchOptions { two_phase: true, qeo: false },
                &mut scratch,
            );
            let one =
                idx.search_opts(queries.get(q), 10, 60, TauSearchOptions::plain(), &mut scratch);
            r_two += ann_vectors::accuracy::recall_at_k(gt.ids(q as usize), &two.ids, 10);
            r_one += ann_vectors::accuracy::recall_at_k(gt.ids(q as usize), &one.ids, 10);
        }
        let n = queries.len() as f64;
        assert!((r_two / n) >= (r_one / n) - 0.03, "{} vs {}", r_two / n, r_one / n);
    }
}
