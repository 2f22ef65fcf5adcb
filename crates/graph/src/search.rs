//! The traversal core: one best-first beam loop, and greedy descent.
//!
//! This is "Algorithm 1" of the graph-ANN literature. [`traverse`] is the
//! only beam loop in the workspace: every index — HNSW's bottom layer, NSG,
//! SSG, Vamana, HCNNG, τ-MG/τ-MNG — and every variant (plain, collecting,
//! filtered, SQ8, QEO) is an instantiation of it, so distance accounting
//! (NDC), hop counting and tie-breaks are implemented exactly once and are
//! directly comparable across algorithms, which is what the paper's NDC
//! figures require. It is monomorphised over the three axes on which the
//! variants differ:
//!
//! * a **distance source** ([`DistanceSource`]): exact f32 under a
//!   [`MetricKernel`] ([`Exact`]) or SQ8 codes; each owns its `prefetch`;
//! * a **sink**, a closure that sees every `(distance, id)` the traversal
//!   pays for — even one the pool then rejects — together with
//!   `scratch.results`: nothing, append to a log, or offer to the filtered
//!   result pool;
//! * an **edge gate** ([`EdgeGate`]) asked before a distance is paid:
//!   [`NoGate`], or τ-MNG's QEO triangle bound (in `tau-mg`). A gated-out
//!   node stays *unvisited*, so a later expansion may still evaluate it.
//!
//! The runtime [`Metric`] becomes a kernel type once per query, at the entry
//! point ([`with_kernel!`](crate::with_kernel)); nothing inside the loop
//! branches on it. SQ8 distances steer the frontier only: they never meet a
//! gate's exact bounds or a filter's admitted/rejected boundary.

use crate::adjacency::GraphView;
use crate::index::QueryResult;
use crate::pool::{Candidate, Pool};
use crate::visited::VisitedSet;
use ann_vectors::metric::MetricKernel;
use ann_vectors::{Metric, Sq8Query, Sq8Store, VecStore};

/// Per-query cost counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Number of distance computations (the paper's NDC metric).
    pub ndc: u64,
    /// Number of node expansions (hops of the traversal).
    pub hops: u64,
    /// Neighbor evaluations skipped by a lower-bound test (QEO); these are
    /// the distance computations the optimization *saved*.
    pub skipped: u64,
}

impl SearchStats {
    /// Accumulate another query's counters (for averaging over a query set).
    pub fn accumulate(&mut self, other: SearchStats) {
        self.ndc += other.ndc;
        self.hops += other.hops;
        self.skipped += other.skipped;
    }
}

/// Reusable per-thread search scratch: candidate pool + visited set.
///
/// Allocate once, pass to every search; nothing inside allocates in steady
/// state. [`traverse`] resizes the visited set if the graph grew.
#[derive(Debug, Clone)]
pub struct Scratch {
    /// Candidate pool (capacity is reset to L by each search call).
    pub pool: Pool,
    /// Visited set over node ids.
    pub visited: VisitedSet,
    /// Result accumulator for *filtered* searches: only filter-admitted
    /// nodes enter it, while `pool` steers the (unfiltered) traversal.
    /// The traversal hands it to the sink and never touches it otherwise.
    pub results: Pool,
}

impl Scratch {
    /// Scratch for a graph of `n` nodes.
    pub fn new(n: usize) -> Self {
        Scratch { pool: Pool::new(16), visited: VisitedSet::new(n), results: Pool::new(16) }
    }
}

/// Where a traversal's distances come from.
pub trait DistanceSource {
    /// Dissimilarity between the query and node `id`.
    fn dist(&self, id: u32) -> f32;
    /// Software prefetch: touch node `id`'s row while the previous one is
    /// in the distance kernel, hiding the cache miss.
    fn prefetch(&self, id: u32);
}

/// Exact f32 distances under kernel `K` (a zero-sized value, see
/// [`with_kernel!`](crate::with_kernel)).
pub struct Exact<'a, K> {
    /// The vectors traversed.
    pub store: &'a VecStore,
    /// The query, of the store's dimension.
    pub query: &'a [f32],
    /// The metric's kernel.
    pub kernel: K,
}

impl<K: MetricKernel> DistanceSource for Exact<'_, K> {
    fn dist(&self, id: u32) -> f32 {
        K::eval(self.query, self.store.get(id))
    }
    fn prefetch(&self, id: u32) {
        self.store.prefetch(id);
    }
}

/// Fused asymmetric u8×f32 distances over SQ8 codes (4x less memory traffic
/// per expansion); accurate enough to steer the frontier, not to report.
struct Sq8Codes<'a> {
    metric: Metric,
    sq8: &'a Sq8Store,
    query: Sq8Query<'a>,
}

impl DistanceSource for Sq8Codes<'_> {
    #[inline]
    fn dist(&self, id: u32) -> f32 {
        self.sq8.dist_to(self.metric, &self.query, id)
    }
    #[inline]
    fn prefetch(&self, id: u32) {
        self.sq8.prefetch(id);
    }
}

/// Consulted before a neighbor's distance is paid for. The defaults skip
/// nothing.
pub trait EdgeGate {
    /// `cand` is about to be expanded; [`EdgeGate::skips`] is asked about
    /// its out-edges next.
    fn expand(&mut self, _cand: Candidate) {}
    /// Whether out-edge `slot` of the node being expanded provably cannot
    /// lead into a pool whose admission bound is `bound`. The neighbor is
    /// then counted in [`SearchStats::skipped`] and left unvisited.
    fn skips(&self, _slot: usize, _bound: f32) -> bool {
        false
    }
}

/// The gate that skips nothing.
pub struct NoGate;

impl EdgeGate for NoGate {}

/// `with_kernel!(metric, |kernel| body)`: evaluate `body` with `kernel`
/// bound to the kernel value of the runtime `metric` — the boundary where a
/// search stops branching on the metric. The calling crate must depend on
/// `ann-vectors`.
#[macro_export]
macro_rules! with_kernel {
    ($metric:expr, |$k:ident| $body:expr) => {
        match $metric {
            ::ann_vectors::Metric::L2 => {
                let $k = ::ann_vectors::L2Kernel;
                $body
            }
            ::ann_vectors::Metric::Ip => {
                let $k = ::ann_vectors::IpKernel;
                $body
            }
            ::ann_vectors::Metric::Cosine => {
                let $k = ::ann_vectors::CosineKernel;
                $body
            }
        }
    };
}

/// Beam search: best-first traversal of `graph` from `entries` with a
/// bounded candidate pool of size `l`. On return `scratch.pool` holds the
/// best candidates found, ascending by `(distance, id)`.
///
/// The traversal expands the closest unexpanded candidate until every pool
/// entry is expanded — the standard termination used by HNSW (`ef`), NSG
/// (`L`) and the paper. `sink(&mut scratch.results, dist, id)` runs for
/// every distance paid, before the pool decides on it; `gate` may veto an
/// edge before its distance is paid. See the module docs for the contract
/// of each.
pub fn traverse<G: GraphView>(
    graph: &G,
    source: &impl DistanceSource,
    entries: &[u32],
    l: usize,
    scratch: &mut Scratch,
    mut sink: impl FnMut(&mut Pool, f32, u32),
    mut gate: impl EdgeGate,
) -> SearchStats {
    let Scratch { pool, visited, results } = scratch;
    let mut stats = SearchStats::default();
    pool.reset(l);
    visited.resize(graph.num_nodes());
    visited.clear();

    for &e in entries {
        if visited.insert(e) {
            let d = source.dist(e);
            stats.ndc += 1;
            sink(results, d, e);
            pool.insert(d, e);
        }
    }

    let mut cursor = 0usize;
    while let Some(pos) = pool.next_unexpanded(cursor) {
        let cand = pool.expand(pos);
        stats.hops += 1;
        gate.expand(cand);
        let mut best_insert = usize::MAX;
        let neighbors = graph.neighbors(cand.id);
        if let Some(&first) = neighbors.first() {
            source.prefetch(first);
        }
        for (slot, &v) in neighbors.iter().enumerate() {
            if let Some(&next) = neighbors.get(slot + 1) {
                source.prefetch(next);
            }
            if visited.contains(v) {
                continue;
            }
            let bound = pool.admission_bound();
            if gate.skips(slot, bound) {
                stats.skipped += 1;
                continue;
            }
            visited.insert(v);
            let d = source.dist(v);
            stats.ndc += 1;
            // The distance is paid for: the sink sees it even if the
            // traversal pool will not admit it.
            sink(results, d, v);
            if d >= bound {
                continue;
            }
            if let Some(p) = pool.insert(d, v) {
                best_insert = best_insert.min(p);
            }
        }
        // Resume scanning from the earliest new candidate if it landed at or
        // before the expansion point (an insertion *at* `pos` shifts the
        // just-expanded entry one slot right); otherwise continue past it.
        cursor = if best_insert <= pos { best_insert } else { pos + 1 };
    }
    stats
}

/// Plain beam search under a runtime metric; take the top-k from
/// `scratch.pool`.
pub fn beam_search_dyn<G: GraphView>(
    metric: Metric,
    store: &VecStore,
    graph: &G,
    entries: &[u32],
    query: &[f32],
    l: usize,
    scratch: &mut Scratch,
) -> SearchStats {
    let sink = |_: &mut Pool, _, _| {};
    with_kernel!(metric, |kernel| {
        traverse(graph, &Exact { store, query, kernel }, entries, l, scratch, sink, NoGate)
    })
}

/// Like [`beam_search_dyn`], but additionally appends every `(dist, id)`
/// pair evaluated during the traversal to `visited_log`, in evaluation
/// order.
///
/// This is the candidate-acquisition primitive of the NSG-family
/// construction pipelines (NSG, SSG, Vamana, τ-MNG): the pruning step wants
/// the *full* set of points the search touched, not just the final pool.
#[allow(clippy::too_many_arguments)]
pub fn beam_search_collect_dyn<G: GraphView>(
    metric: Metric,
    store: &VecStore,
    graph: &G,
    entries: &[u32],
    query: &[f32],
    l: usize,
    scratch: &mut Scratch,
    visited_log: &mut Vec<(f32, u32)>,
) -> SearchStats {
    let sink = |_: &mut Pool, d, v| visited_log.push((d, v));
    with_kernel!(metric, |kernel| {
        traverse(graph, &Exact { store, query, kernel }, entries, l, scratch, sink, NoGate)
    })
}

/// Beam search over **SQ8 codes** with an exact f32 re-rank of the final
/// pool — the quantized fast path.
///
/// Quantized distances are accurate enough to steer the frontier but not to
/// report, so after the traversal the whole pool (up to `l` candidates) is
/// re-evaluated with exact f32 distances from `store`, re-sorted by
/// `(distance, id)`, and truncated to `k`. Both the quantized traversal
/// evaluations and the exact re-rank evaluations count toward `ndc`.
///
/// Quantized and exact distances rank ties and near-ties differently, so the
/// *candidate set* may differ slightly from the full-precision path — the
/// recall-regression test in `tests/pipeline_comparison.rs` bounds that gap
/// at 0.01 recall@10 per metric.
#[allow(clippy::too_many_arguments)]
pub fn beam_search_sq8_rerank<G: GraphView>(
    metric: Metric,
    store: &VecStore,
    sq8: &Sq8Store,
    graph: &G,
    entries: &[u32],
    query: &[f32],
    k: usize,
    l: usize,
    scratch: &mut Scratch,
) -> QueryResult {
    let l = l.max(k).max(1);
    let source = Sq8Codes { metric, sq8, query: Sq8Query::new(metric, query) };
    let mut stats = traverse(graph, &source, entries, l, scratch, |_, _, _| {}, NoGate);

    // Exact re-rank: full-precision distances over the final pool, resorted
    // by (distance, id) so tie order matches the full-precision path.
    let mut reranked: Vec<(f32, u32)> = scratch
        .pool
        .as_slice()
        .iter()
        .map(|c| (store.dist_to(metric, query, c.id), c.id))
        .collect();
    stats.ndc += reranked.len() as u64;
    reranked.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    reranked.truncate(k);
    let (dists, ids) = reranked.into_iter().unzip();
    QueryResult { ids, dists, stats }
}

/// Pure greedy descent (beam width 1) under a runtime metric: repeatedly
/// move to the neighbor closest to the query; stop at a local minimum.
/// Returns `(node, dist)` of the minimum. This is the paper's "phase 1"
/// primitive and the routing step of HNSW's upper layers.
pub fn greedy_descent_dyn<G: GraphView>(
    metric: Metric,
    store: &VecStore,
    graph: &G,
    entry: u32,
    query: &[f32],
    stats: &mut SearchStats,
) -> (u32, f32) {
    with_kernel!(metric, |kernel| {
        let source = Exact { store, query, kernel };
        let mut cur = entry;
        let mut cur_dist = source.dist(cur);
        stats.ndc += 1;
        loop {
            let from = cur;
            for &v in graph.neighbors(from) {
                let d = source.dist(v);
                stats.ndc += 1;
                if d < cur_dist {
                    (cur, cur_dist) = (v, d);
                }
            }
            if cur == from {
                return (cur, cur_dist);
            }
            stats.hops += 1;
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::VarGraph;
    use crate::filter::{widened_beam, FnFilter, SearchFilter};

    /// A 1-d line of points 0..n at coordinates 0..n, chained both ways.
    fn line(n: usize) -> (VecStore, VarGraph) {
        let rows: Vec<Vec<f32>> = (0..n).map(|i| vec![i as f32]).collect();
        let store = VecStore::from_rows(&rows).unwrap();
        let mut g = VarGraph::new(n);
        for i in 0..n as u32 {
            if i > 0 {
                g.add_edge(i, i - 1);
            }
            if (i as usize) < n - 1 {
                g.add_edge(i, i + 1);
            }
        }
        (store, g)
    }

    #[test]
    fn beam_search_walks_the_line() {
        let (store, g) = line(50);
        let mut scratch = Scratch::new(50);
        let stats = beam_search_dyn(Metric::L2, &store, &g, &[0], &[42.2], 4, &mut scratch);
        let (ids, dists) = scratch.pool.top_k(1);
        assert_eq!(ids, vec![42]);
        assert!((dists[0] - 0.04).abs() < 1e-4);
        assert!(stats.hops >= 42, "must walk at least 42 hops, got {}", stats.hops);
        assert!(stats.ndc > 42);
    }

    #[test]
    fn beam_top_k_is_sorted_and_correct() {
        let (store, g) = line(30);
        let mut scratch = Scratch::new(30);
        beam_search_dyn(Metric::L2, &store, &g, &[0], &[10.0], 8, &mut scratch);
        let (ids, dists) = scratch.pool.top_k(5);
        assert_eq!(ids[0], 10);
        // 9/11, 8/12 ... all at the right distances, sorted ascending.
        assert!(dists.windows(2).all(|w| w[0] <= w[1]));
        let mut sorted_ids = ids;
        sorted_ids.sort_unstable();
        assert_eq!(sorted_ids, vec![8, 9, 10, 11, 12]);
    }

    #[test]
    fn multiple_entries_dedup() {
        let (store, g) = line(10);
        let mut scratch = Scratch::new(10);
        let stats = beam_search_dyn(Metric::L2, &store, &g, &[3, 3, 5], &[4.0], 4, &mut scratch);
        let (ids, _) = scratch.pool.top_k(1);
        assert_eq!(ids, vec![4]);
        // Entry 3 evaluated once, not twice.
        assert!(stats.ndc < 12);
    }

    #[test]
    fn greedy_descent_reaches_global_min_on_line() {
        let (store, g) = line(100);
        let mut stats = SearchStats::default();
        let (node, dist) = greedy_descent_dyn(Metric::L2, &store, &g, 0, &[77.3], &mut stats);
        assert_eq!(node, 77);
        assert!((dist - 0.09).abs() < 1e-3);
        assert_eq!(stats.hops, 77);
    }

    #[test]
    fn greedy_descent_stops_at_local_minimum() {
        // Two clusters with no bridge: start in the wrong one, get stuck.
        let store = VecStore::from_rows(&[vec![0.0], vec![1.0], vec![100.0], vec![101.0]]).unwrap();
        let mut g = VarGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(2, 3);
        g.add_edge(3, 2);
        let mut stats = SearchStats::default();
        let (node, _) = greedy_descent_dyn(Metric::L2, &store, &g, 0, &[100.0], &mut stats);
        assert_eq!(node, 1, "stuck at the edge of the wrong cluster");
    }

    #[test]
    fn beam_search_on_disconnected_graph_only_sees_component() {
        let store = VecStore::from_rows(&[vec![0.0], vec![1.0], vec![5.0], vec![6.0]]).unwrap();
        let mut g = VarGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(2, 3);
        g.add_edge(3, 2);
        let mut scratch = Scratch::new(4);
        beam_search_dyn(Metric::L2, &store, &g, &[0], &[6.0], 4, &mut scratch);
        let (ids, _) = scratch.pool.top_k(1);
        assert_eq!(ids, vec![1], "cannot cross components");
    }

    #[test]
    fn stats_accumulate() {
        let mut a = SearchStats { ndc: 3, hops: 1, skipped: 1 };
        a.accumulate(SearchStats { ndc: 5, hops: 2, skipped: 0 });
        assert_eq!(a, SearchStats { ndc: 8, hops: 3, skipped: 1 });
    }

    /// The filtered instantiation of [`traverse`], as `tau-mg` runs it:
    /// every evaluated node the filter admits is offered to
    /// `scratch.results` (capacity `l_result`).
    fn filtered_beam(
        (store, g): &(VecStore, VarGraph),
        query: f32,
        l_beam: usize,
        l_result: usize,
        filter: &impl SearchFilter,
        scratch: &mut Scratch,
    ) -> SearchStats {
        scratch.results.reset(l_result);
        let sink = |results: &mut Pool, d, v| {
            if filter.admits(v) {
                results.insert(d, v);
            }
        };
        let source = Exact { store, query: &[query], kernel: ann_vectors::L2Kernel };
        traverse(g, &source, &[0], l_beam, scratch, sink, NoGate)
    }

    #[test]
    fn filtered_beam_never_returns_non_matching_but_still_traverses_them() {
        let mut scratch = Scratch::new(50);
        // Only multiples of 5 are admissible; the line graph forces the
        // traversal *through* the rejected nodes to reach the target region.
        let filter = FnFilter::new(|id| id % 5 == 0, 0.2);
        filtered_beam(&line(50), 42.0, 20, 8, &filter, &mut scratch);
        let (ids, dists) = scratch.results.top_k(3);
        assert_eq!(ids, vec![40, 45, 35], "nearest admissible nodes to 42.0");
        assert!(dists.windows(2).all(|w| w[0] <= w[1]));
        for id in ids {
            assert_eq!(id % 5, 0, "non-matching id {id} surfaced");
        }
    }

    #[test]
    fn filtered_beam_widening_recovers_recall_under_selective_filter() {
        let mut scratch = Scratch::new(200);
        // 10% selectivity; unwidened beam 4 from node 0 toward 190 finds
        // few admissible nodes, the widened beam finds the true nearest.
        let filter = FnFilter::new(|id| id % 10 == 0, 0.1);
        let l = 4;
        let lb = widened_beam(l, filter.selectivity(), 200);
        assert_eq!(lb, 32, "10% selectivity widens 4 -> 32 (within cap)");
        filtered_beam(&line(200), 190.2, lb, l, &filter, &mut scratch);
        let (ids, _) = scratch.results.top_k(1);
        assert_eq!(ids, vec![190]);
    }

    #[test]
    fn scratch_reuse_across_searches_is_clean() {
        let (store, g) = line(20);
        let mut scratch = Scratch::new(20);
        beam_search_dyn(Metric::L2, &store, &g, &[0], &[19.0], 3, &mut scratch);
        let (ids1, _) = scratch.pool.top_k(1);
        beam_search_dyn(Metric::L2, &store, &g, &[0], &[0.0], 3, &mut scratch);
        let (ids2, _) = scratch.pool.top_k(1);
        assert_eq!(ids1, vec![19]);
        assert_eq!(ids2, vec![0]);
    }
}
