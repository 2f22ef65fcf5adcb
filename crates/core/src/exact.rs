//! Exact τ-MG construction — the paper's theoretical object.
//!
//! For every node, all other points are sorted by distance and filtered
//! through the τ-MG selection rule ([`crate::prune::tau_prune`]). This is
//! Θ(n²·d + n² log n), exactly like exact MRNG — which is *why* the paper
//! introduces τ-MNG for practical scales. The exact construction exists
//! here to (a) validate the exactness theorem end-to-end (experiment E10)
//! and (b) serve as the quality reference for τ-MNG at small n.

use crate::geometry::{check_unit_norm, EuclideanView};
use crate::index::TauIndex;
use crate::prune::tau_prune;
use ann_graph::{by_distance, FlatGraph, VarGraph};
use ann_vectors::error::{AnnError, Result};
use ann_vectors::metric::Metric;
use ann_vectors::parallel::{num_threads, parallel_map};
use ann_vectors::VecStore;
use std::sync::Arc;

/// Exact τ-MG parameters.
#[derive(Debug, Clone, Copy)]
pub struct TauMgParams {
    /// The τ-tube radius (Euclidean units). The exactness guarantee covers
    /// every query with `d(q, P) ≤ τ`.
    pub tau: f32,
    /// Optional out-degree cap. `None` is the theoretically exact graph;
    /// a cap trades the guarantee for bounded memory (τ-MNG territory).
    pub degree_cap: Option<usize>,
}

impl Default for TauMgParams {
    fn default() -> Self {
        TauMgParams { tau: 0.0, degree_cap: None }
    }
}

/// Build an exact τ-MG over `store`.
///
/// With `tau = 0` and no cap this is exactly MRNG — the E10 control.
///
/// # Errors
/// `EmptyDataset`; `InvalidParameter` for negative/non-finite τ, an
/// inner-product metric (not a metric space), or non-normalized cosine data.
pub fn build_tau_mg(store: Arc<VecStore>, metric: Metric, params: TauMgParams) -> Result<TauIndex> {
    if store.is_empty() {
        return Err(AnnError::EmptyDataset);
    }
    if !params.tau.is_finite() || params.tau < 0.0 {
        return Err(AnnError::InvalidParameter(format!(
            "tau must be finite and non-negative, got {}",
            params.tau
        )));
    }
    let view = EuclideanView::for_metric(metric)?;
    if view == EuclideanView::UnitSphere {
        check_unit_norm(&store, 1e-3)?;
    }
    let n = store.len();
    let cap = params.degree_cap.unwrap_or(usize::MAX);
    if cap == 0 {
        return Err(AnnError::InvalidParameter("degree cap must be positive".into()));
    }
    let entry = store.medoid(metric)?;

    let lists = parallel_map(n, num_threads(), |p| {
        let p = p as u32; // cast: node count fits u32, the graph id type
        let vp = store.get(p);
        let mut cands: Vec<(f32, u32)> = (0..n as u32) // cast: same bound
            .filter(|&i| i != p)
            .map(|i| (metric.distance(vp, store.get(i)), i))
            .collect();
        cands.sort_by(by_distance);
        tau_prune(&store, view, &cands, cap, params.tau)
    });

    let flat = FlatGraph::freeze(&VarGraph::from(lists), None);
    Ok(TauIndex::assemble(store, metric, view, flat, entry, params.tau, "tau-MG"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_graph::connectivity::fully_reachable;
    use ann_graph::{AnnIndex, GraphView};
    use ann_vectors::synthetic::uniform;

    #[test]
    fn validates_inputs() {
        let empty = Arc::new(VecStore::new(4).unwrap());
        assert!(build_tau_mg(empty, Metric::L2, TauMgParams::default()).is_err());
        let store = Arc::new(uniform(4, 20, 1));
        assert!(build_tau_mg(
            store.clone(),
            Metric::L2,
            TauMgParams { tau: -1.0, degree_cap: None }
        )
        .is_err());
        assert!(build_tau_mg(
            store.clone(),
            Metric::L2,
            TauMgParams { tau: f32::NAN, degree_cap: None }
        )
        .is_err());
        assert!(build_tau_mg(store.clone(), Metric::Ip, TauMgParams::default()).is_err());
        assert!(build_tau_mg(
            store,
            Metric::Cosine, // not normalized
            TauMgParams::default()
        )
        .is_err());
    }

    #[test]
    fn mrng_case_is_connected_and_sparse() {
        let store = Arc::new(uniform(6, 200, 7));
        let idx = build_tau_mg(store, Metric::L2, TauMgParams::default()).unwrap();
        assert!(fully_reachable(idx.graph(), idx.entry_point()));
        // MRNG average degree is a small constant for uniform data.
        assert!(idx.graph_stats().avg_degree < 40.0);
        assert_eq!(idx.name(), "tau-MG");
    }

    #[test]
    fn larger_tau_gives_denser_graph() {
        let store = Arc::new(uniform(6, 150, 9));
        let e0 = build_tau_mg(store.clone(), Metric::L2, TauMgParams::default())
            .unwrap()
            .graph_stats()
            .num_edges;
        let e1 =
            build_tau_mg(store.clone(), Metric::L2, TauMgParams { tau: 0.2, degree_cap: None })
                .unwrap()
                .graph_stats()
                .num_edges;
        let e2 = build_tau_mg(store, Metric::L2, TauMgParams { tau: 0.5, degree_cap: None })
            .unwrap()
            .graph_stats()
            .num_edges;
        assert!(e0 < e1 && e1 < e2, "edges must grow with tau: {e0} {e1} {e2}");
    }

    #[test]
    fn degree_cap_applies() {
        let store = Arc::new(uniform(6, 100, 3));
        let idx =
            build_tau_mg(store, Metric::L2, TauMgParams { tau: 0.4, degree_cap: Some(5) }).unwrap();
        assert!(idx.graph().max_degree() <= 5);
    }

    #[test]
    fn normalized_cosine_accepted() {
        let mut s = uniform(8, 100, 5);
        s.normalize();
        let idx =
            build_tau_mg(Arc::new(s), Metric::Cosine, TauMgParams { tau: 0.05, degree_cap: None })
                .unwrap();
        assert!(idx.graph_stats().num_edges > 0);
    }
}
