//! Filtered-search measurement (experiment E14): filter-during-search vs
//! the post-filter baseline and the exact scan, per selectivity band.
//!
//! Every strategy answers the same task — top-k among the points a
//! predicate admits — and is charged the same way (distance computations,
//! wall time), so their recall-vs-NDC curves are directly comparable:
//!
//! * **filter-during-search** — [`tau_mg::tau_search_filtered`]: the
//!   traversal beam stays unfiltered (it must route *through* non-matching
//!   regions), a separate result pool admits only matching nodes, and the
//!   beam is widened by the filter's selectivity (`ceil(L / s)`, capped).
//! * **post-filter** — the classic baseline: run the unfiltered search at
//!   beam `L` asking for `L` candidates, drop non-matching ids afterwards,
//!   keep the first `k`. At low selectivity most of the beam is wasted on
//!   points the answer can never contain.
//! * **scan** — [`ann_graph::exact_scan`] over the admitted rows: exact, and
//!   its cost is the admitted count whatever the beam.
//! * **planned** — [`tau_mg::tau_search_planned`], what serving runs: the
//!   scan or the walk, chosen from the exact count, plus the scan after a
//!   walk that came back short.
//!
//! Ground truth is exhaustive over the matching subset only
//! ([`filtered_ground_truth`]), so recall@k is measured against the true
//! filtered answer, not the unfiltered one.

use ann_graph::{exact_scan, AnnIndex, BitFilter, QueryResult, Scratch, SearchStats};
use ann_vectors::{Metric, TopK, VecStore};
use std::time::Instant;
use tau_mg::{FilterPlan, TauIndex, TauSearchOptions};

/// One measured point of a filtered L-ladder sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilteredPoint {
    /// Requested beam width (before any selectivity widening).
    pub l: usize,
    /// Mean recall@k against the filtered ground truth.
    pub recall: f64,
    /// Mean distance computations per query (the comparable cost axis).
    pub ndc: f64,
    /// Queries per second, single thread.
    pub qps: f64,
}

/// Exhaustive top-`k` per query over the matching subset of `base`:
/// the filtered analogue of brute-force ground truth. `matches[i]` says
/// whether base id `i` is admitted.
///
/// # Panics
/// If `matches.len() != base.len()`.
pub fn filtered_ground_truth(
    metric: Metric,
    base: &VecStore,
    queries: &VecStore,
    matches: &[bool],
    k: usize,
) -> Vec<Vec<u32>> {
    assert_eq!(matches.len(), base.len(), "one match flag per base point");
    (0..queries.len() as u32)
        .map(|q| {
            let query = queries.get(q);
            let mut top = TopK::new(k);
            for i in 0..base.len() as u32 {
                if matches[i as usize] {
                    top.push(metric.distance(query, base.get(i)), i);
                }
            }
            top.into_sorted().iter().map(|e| e.1).collect()
        })
        .collect()
}

fn mean_recall(results: &[Vec<u32>], gt: &[Vec<u32>], k: usize) -> f64 {
    let mut hits = 0usize;
    let mut want = 0usize;
    for (res, truth) in results.iter().zip(gt) {
        let truth = &truth[..truth.len().min(k)];
        want += truth.len();
        hits += res.iter().filter(|id| truth.contains(id)).count();
    }
    if want == 0 {
        1.0
    } else {
        hits as f64 / want as f64
    }
}

/// One [`FilteredPoint`] per beam width in `ls`: `search(query, l)` run
/// over every query, timed single-threaded, scored against `gt`.
fn sweep(
    queries: &VecStore,
    gt: &[Vec<u32>],
    k: usize,
    ls: &[usize],
    mut search: impl FnMut(&[f32], usize) -> QueryResult,
) -> Vec<FilteredPoint> {
    ls.iter()
        .map(|&l| {
            let mut stats = SearchStats::default();
            let mut results = Vec::with_capacity(queries.len());
            let t0 = Instant::now();
            for q in 0..queries.len() as u32 {
                let r = search(queries.get(q), l);
                stats.accumulate(r.stats);
                results.push(r.ids);
            }
            let wall = t0.elapsed().as_secs_f64();
            point(l, &results, gt, k, stats, wall, queries.len())
        })
        .collect()
}

/// Filter-during-search L-ladder sweep (the walk alone, never the scan):
/// one [`FilteredPoint`] per beam width in `ls`, measured against the
/// filtered ground truth `gt`.
pub fn run_filtered_sweep(
    index: &TauIndex,
    queries: &VecStore,
    allowed: &BitFilter,
    gt: &[Vec<u32>],
    k: usize,
    ls: &[usize],
) -> Vec<FilteredPoint> {
    let mut scratch = Scratch::new(index.num_points());
    let opts = TauSearchOptions::default();
    sweep(queries, gt, k, ls, |q, l| {
        tau_mg::tau_search_filtered(index, q, k, l, opts, allowed, &mut scratch)
    })
}

/// Post-filter baseline sweep: unfiltered search at beam `l` asking for
/// `l` candidates, non-matching ids dropped afterwards, first `k` kept.
pub fn run_postfilter_sweep(
    index: &TauIndex,
    queries: &VecStore,
    allowed: &BitFilter,
    gt: &[Vec<u32>],
    k: usize,
    ls: &[usize],
) -> Vec<FilteredPoint> {
    let mut scratch = Scratch::new(index.num_points());
    let opts = TauSearchOptions::default();
    sweep(queries, gt, k, ls, |q, l| {
        let mut r = index.search_opts(q, l.max(k), l, opts, &mut scratch);
        r.ids.retain(|&id| allowed.contains(id));
        r.ids.truncate(k);
        r
    })
}

/// The exact scan of the admitted rows: one point, reported at `l = 0`
/// since no beam is involved.
pub fn run_scan(
    index: &TauIndex,
    queries: &VecStore,
    allowed: &BitFilter,
    gt: &[Vec<u32>],
    k: usize,
) -> FilteredPoint {
    let (metric, store) = (index.metric(), index.store());
    sweep(queries, gt, k, &[0], |q, _| exact_scan(metric, store, q, k, allowed.iter()))[0]
}

/// The serving plan ([`tau_mg::tau_search_planned`]) over the L ladder.
/// Each point comes with the plan chosen up front at that beam and the
/// number of queries whose walk came back short and was finished by a scan.
pub fn run_planned_sweep(
    index: &TauIndex,
    queries: &VecStore,
    allowed: &BitFilter,
    gt: &[Vec<u32>],
    k: usize,
    ls: &[usize],
) -> Vec<(FilteredPoint, FilterPlan, usize)> {
    let mut scratch = Scratch::new(index.num_points());
    let opts = TauSearchOptions::default();
    ls.iter()
        .map(|&l| {
            let mut fallbacks = 0;
            let p = sweep(queries, gt, k, &[l], |q, l| {
                let (r, plan) =
                    tau_mg::tau_search_planned(index, q, k, l, opts, allowed, &mut scratch);
                fallbacks += usize::from(plan == FilterPlan::WalkThenScan);
                r
            })[0];
            (p, FilterPlan::choose(index, k, l, allowed).0, fallbacks)
        })
        .collect()
}

fn point(
    l: usize,
    results: &[Vec<u32>],
    gt: &[Vec<u32>],
    k: usize,
    stats: SearchStats,
    wall: f64,
    nq: usize,
) -> FilteredPoint {
    FilteredPoint {
        l,
        recall: mean_recall(results, gt, k),
        ndc: stats.ndc as f64 / nq.max(1) as f64,
        qps: if wall > 0.0 { nq as f64 / wall } else { f64::INFINITY },
    }
}

/// Linear interpolation of the recall a sweep achieves within an NDC
/// budget — the "recall at equal cost" comparison between strategies.
/// Points must be ascending in NDC (they are, for an ascending L ladder).
/// Returns `None` if even the cheapest point exceeds the budget.
pub fn recall_at_ndc(points: &[FilteredPoint], budget: f64) -> Option<f64> {
    let mut best: Option<f64> = None;
    for w in points.windows(2) {
        let (a, b) = (w[0], w[1]);
        if a.ndc <= budget {
            best = Some(best.map_or(a.recall, |r: f64| r.max(a.recall)));
            if b.ndc > budget && (b.ndc - a.ndc).abs() > 1e-12 {
                let t = (budget - a.ndc) / (b.ndc - a.ndc);
                let interp = a.recall + t * (b.recall - a.recall);
                best = Some(best.map_or(interp, |r: f64| r.max(interp)));
            }
        }
    }
    if let Some(last) = points.last() {
        if last.ndc <= budget {
            best = Some(best.map_or(last.recall, |r: f64| r.max(last.recall)));
        }
    }
    if points.len() == 1 && points[0].ndc <= budget {
        best = Some(points[0].recall);
    }
    best
}

/// Deterministic per-band match assignment: flags `round(n * fraction)`
/// base ids as matching, spread evenly across the id space (stride
/// sampling, no RNG — runs are reproducible byte for byte).
pub fn band_matches(n: usize, fraction: f64) -> Vec<bool> {
    let want = ((n as f64 * fraction).round() as usize).clamp(1, n);
    let mut matches = vec![false; n];
    let mut assigned = 0usize;
    let mut acc = 0f64;
    let step = n as f64 / want as f64;
    while assigned < want {
        let idx = (acc as usize).min(n - 1);
        if !matches[idx] {
            matches[idx] = true;
            assigned += 1;
        }
        acc += step;
        if acc as usize >= n {
            // Stride wrapped due to rounding: fill the first gaps.
            for m in &mut matches {
                if assigned >= want {
                    break;
                }
                if !*m {
                    *m = true;
                    assigned += 1;
                }
            }
        }
    }
    matches
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_vectors::synthetic::uniform;
    use std::sync::Arc;

    fn small_index(n: usize, seed: u64) -> (TauIndex, Arc<VecStore>) {
        let base = Arc::new(uniform(6, n, seed));
        let knn = ann_knng::brute_force_knn_graph(Metric::L2, &base, 8).unwrap();
        let idx = tau_mg::build_tau_mng(
            Arc::clone(&base),
            Metric::L2,
            &knn,
            tau_mg::TauMngParams { tau: 0.15, r: 16, l: 48, c: 150 },
        )
        .unwrap();
        (idx, base)
    }

    #[test]
    fn band_matches_hits_the_fraction() {
        for n in [10usize, 100, 997] {
            for frac in [0.01, 0.1, 0.5] {
                let m = band_matches(n, frac);
                let got = m.iter().filter(|&&x| x).count();
                let want = ((n as f64 * frac).round() as usize).clamp(1, n);
                assert_eq!(got, want, "n={n} frac={frac}");
            }
        }
        assert_eq!(band_matches(5, 0.1), band_matches(5, 0.1), "deterministic");
    }

    #[test]
    fn filtered_gt_only_contains_matching_ids() {
        let base = uniform(4, 50, 9);
        let queries = uniform(4, 5, 10);
        let matches: Vec<bool> = (0..50).map(|i| i % 3 == 0).collect();
        let gt = filtered_ground_truth(Metric::L2, &base, &queries, &matches, 7);
        assert_eq!(gt.len(), 5);
        for truth in &gt {
            assert_eq!(truth.len(), 7.min(matches.iter().filter(|&&m| m).count()));
            assert!(truth.iter().all(|&id| matches[id as usize]));
        }
    }

    #[test]
    fn filtered_sweep_beats_postfilter_at_low_selectivity() {
        let (idx, base) = small_index(600, 11);
        let queries = uniform(6, 24, 12);
        let matches = band_matches(600, 0.05);
        let gt = filtered_ground_truth(Metric::L2, &base, &queries, &matches, 5);
        let allowed = BitFilter::from_fn(600, |i| matches[i as usize]);
        let ls = [16usize, 32, 64];
        let during = run_filtered_sweep(&idx, &queries, &allowed, &gt, 5, &ls);
        let post = run_postfilter_sweep(&idx, &queries, &allowed, &gt, 5, &ls);
        assert!(during.iter().all(|p| p.recall.is_finite() && p.ndc > 0.0));
        // At 5% selectivity the widest post-filter beam is still mostly
        // wasted on non-matching points; filter-during-search at the same
        // requested L recalls at least as much.
        let best_during = during.iter().map(|p| p.recall).fold(0.0, f64::max);
        let best_post = post.iter().map(|p| p.recall).fold(0.0, f64::max);
        assert!(
            best_during >= best_post,
            "filter-during-search {best_during:.4} < post-filter {best_post:.4}"
        );
        // Results only contain matching ids.
        let mut scratch = Scratch::new(600);
        let opts = TauSearchOptions::default();
        let r =
            tau_mg::tau_search_filtered(&idx, queries.get(0), 5, 32, opts, &allowed, &mut scratch);
        assert!(r.ids.iter().all(|&id| matches[id as usize]));
    }

    #[test]
    fn scan_is_exact_and_the_plan_follows_the_count() {
        let (idx, base) = small_index(600, 13);
        let queries = uniform(6, 12, 14);
        let (k, ls) = (5, [8usize, 64]);
        for (fraction, cheap_beam_plan) in [(0.02, FilterPlan::Scan), (0.5, FilterPlan::Walk)] {
            let matches = band_matches(600, fraction);
            let gt = filtered_ground_truth(Metric::L2, &base, &queries, &matches, k);
            let allowed = BitFilter::from_fn(600, |i| matches[i as usize]);
            let scan = run_scan(&idx, &queries, &allowed, &gt, k);
            assert_eq!(scan.recall, 1.0, "{fraction}: the scan is exact");
            assert_eq!(scan.ndc, allowed.count() as f64, "{fraction}: one distance per row");
            let planned = run_planned_sweep(&idx, &queries, &allowed, &gt, k, &ls);
            assert_eq!(planned[0].1, cheap_beam_plan, "{fraction} at L = {}", ls[0]);
            for (p, plan, _) in &planned {
                if *plan == FilterPlan::Scan {
                    assert_eq!(p.recall, 1.0);
                }
            }
        }
    }

    #[test]
    fn recall_at_ndc_interpolates() {
        let p = |l, recall, ndc| FilteredPoint { l, recall, ndc, qps: 0.0 };
        let pts = vec![p(10, 0.5, 100.0), p(20, 0.9, 200.0)];
        assert_eq!(recall_at_ndc(&pts, 50.0), None);
        assert!((recall_at_ndc(&pts, 150.0).unwrap() - 0.7).abs() < 1e-9);
        assert!((recall_at_ndc(&pts, 500.0).unwrap() - 0.9).abs() < 1e-9);
    }
}
