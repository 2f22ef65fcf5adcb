//! τ-monotonic search with query-aware edge occlusion (QEO).
//!
//! Every search here is an instantiation of the workspace's one traversal
//! core, [`ann_graph::traverse`]: exact distances, QEO as its edge gate,
//! and — for filtered search — a sink that offers admitted nodes to the
//! separate result pool. [`tau_search_with_beam`] is the one
//! implementation; [`tau_search`] and [`tau_search_filtered`] choose its
//! beam and filter.
//!
//! **Two-phase search \[R\].** Following the paper's analysis, the traversal
//! is split into (1) approaching the query's vicinity and (2) finishing the
//! τ-ball. Phase 1 is a pure greedy descent (beam width 1) — on a
//! τ-monotonic graph it provably lands on the exact NN for τ-tube queries,
//! and cheaply reaches the right region for general queries. Phase 2 is the
//! standard beam of width L seeded with phase 1's endpoint. The benefit is
//! measured by experiment E9; plain single-phase beam search is available
//! through [`TauSearchOptions`].
//!
//! **QEO \[R\].** Every edge's Euclidean length is stored with the index. When
//! the candidate pool is full with admission bound `b` (converted to
//! Euclidean), a neighbor `v` of the node `u` being expanded can be skipped
//! without computing `d(q, v)` whenever the triangle-inequality lower bound
//! already disqualifies it:
//!
//! ```text
//! d(q, v) ≥ |d(q, u) − d(u, v)| ≥ b   ⇒   v cannot enter the pool.
//! ```
//!
//! Skipped neighbors are *not* marked visited — a later expansion with a
//! looser bound may still evaluate them, so QEO never changes which nodes
//! can be found, only when distances are paid for. The bound is exact for
//! L2 and, via the chord identity, for unit-normalized cosine data; for a
//! non-normalized cosine query the optimization auto-disables (correctness
//! over speed).
//!
//! QEO stays sound under filtering because it bounds the *traversal* pool
//! only: a skipped neighbor provably cannot enter a full traversal pool, and
//! any admitted node at that distance would rank past the l-th traversal
//! candidate — outside the result capacity `l ≤ l_beam` too.
//!
//! **SQ8.** With the side-car enabled, an unfiltered search expands over u8
//! codes and re-ranks the final pool exactly. QEO is bypassed there — its
//! stored edge lengths bound *exact* distances, and mixing those bounds with
//! quantized candidate distances could prune a candidate the quantizer
//! displaced inward — and so are filters: quantized candidate distances
//! would make the admitted/rejected boundary depend on the quantizer.

use crate::geometry::EuclideanView;
use crate::index::TauIndex;
use ann_graph::{
    beam_search_sq8_rerank, exact_scan, greedy_descent_dyn, traverse, widened_beam, with_kernel,
    AcceptAll, BitFilter, Candidate, EdgeGate, Exact, GraphView, Pool, QueryResult, Scratch,
    SearchFilter, SearchStats,
};
use ann_vectors::metric::dot;

/// Options of the τ-monotonic search (experiment E9 ablates both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TauSearchOptions {
    /// Run the cheap greedy-descent phase before the beam phase.
    pub two_phase: bool,
    /// Skip provably-unhelpful distance computations using stored edge
    /// lengths.
    pub qeo: bool,
}

impl Default for TauSearchOptions {
    fn default() -> Self {
        TauSearchOptions { two_phase: true, qeo: true }
    }
}

impl TauSearchOptions {
    /// Plain beam search — no τ-specific machinery (the E9 baseline arm).
    pub fn plain() -> Self {
        TauSearchOptions { two_phase: false, qeo: false }
    }
}

/// QEO as the traversal's edge gate: the triangle bound over the stored
/// edge lengths of the node being expanded.
struct QeoGate<'a> {
    index: &'a TauIndex,
    on: bool,
    /// Euclidean distance from the query to the node being expanded.
    d_qu_eu: f32,
    /// Euclidean lengths of its out-edges, slot-aligned.
    lens: &'a [f32],
}

impl<'a> QeoGate<'a> {
    /// `enabled`, unless the bound would be unsound for this query: it is
    /// exact for L2; for cosine only when the query is on the unit sphere
    /// (the chord identity needs it).
    fn new(index: &'a TauIndex, query: &[f32], enabled: bool) -> Self {
        let on = enabled
            && match index.view {
                EuclideanView::SquaredL2 => true,
                EuclideanView::UnitSphere => (dot(query, query) - 1.0).abs() < 1e-3,
            };
        QeoGate { index, on, d_qu_eu: 0.0, lens: &[] }
    }
}

impl EdgeGate for QeoGate<'_> {
    #[inline]
    fn expand(&mut self, cand: Candidate) {
        if self.on {
            self.d_qu_eu = self.index.view.to_euclidean(cand.dist);
            self.lens = self.index.edge_lengths(cand.id);
        }
    }
    #[inline]
    fn skips(&self, slot: usize, bound: f32) -> bool {
        self.on
            && bound.is_finite()
            && (self.d_qu_eu - self.lens[slot]).abs() >= self.index.view.to_euclidean(bound)
    }
}

/// Execute the τ-monotonic search with beam width `l` (at least `k`). See
/// module docs for the algorithm.
pub fn tau_search(
    index: &TauIndex,
    query: &[f32],
    k: usize,
    l: usize,
    opts: TauSearchOptions,
    scratch: &mut Scratch,
) -> QueryResult {
    tau_search_with_beam(index, query, k, l, l, opts, None::<&AcceptAll>, scratch)
}

/// Filtered τ-monotonic search: the same two-phase traversal as
/// [`tau_search`] (greedy descent, then beam with QEO distance skipping),
/// except results accumulate in a *separate* pool that only admits nodes
/// passing `filter` — non-matching nodes still steer the beam.
///
/// `l` is the *requested* beam width; the traversal beam is widened by the
/// filter's estimated selectivity (see [`ann_graph::filter::widened_beam`])
/// so the expected number of admitted candidates matches an unfiltered
/// beam of width `l`. The result pool also has capacity `l` so ties at the
/// k-th distance resolve exactly as the unfiltered path does (by id).
pub fn tau_search_filtered<F: SearchFilter + ?Sized>(
    index: &TauIndex,
    query: &[f32],
    k: usize,
    l: usize,
    opts: TauSearchOptions,
    filter: &F,
    scratch: &mut Scratch,
) -> QueryResult {
    let l = l.max(k).max(1);
    let l_beam = widened_beam(l, filter.selectivity(), index.graph.num_nodes());
    tau_search_with_beam(index, query, k, l, l_beam, opts, Some(filter), scratch)
}

/// The τ-monotonic search with an explicit traversal beam `l_beam` (at
/// least `l`) and an optional result filter; `l` is the capacity of the
/// pool the answer is read from.
///
/// [`tau_search_planned`] calls this with the beam widened by a compiled
/// filter's exact selectivity. With `l_beam = num_nodes` the traversal is
/// exhaustive over the entry's connected component — a beam that never
/// fills never prunes.
///
/// Greedy descent (phase 1) is *unfiltered*: it only picks the beam's entry
/// point, and a non-matching entry is handled like a tombstoned one —
/// traversed, never returned.
#[allow(clippy::too_many_arguments)]
pub fn tau_search_with_beam<F: SearchFilter + ?Sized>(
    index: &TauIndex,
    query: &[f32],
    k: usize,
    l: usize,
    l_beam: usize,
    opts: TauSearchOptions,
    filter: Option<&F>,
    scratch: &mut Scratch,
) -> QueryResult {
    let TauIndex { metric, store, graph, .. } = index;
    let l = l.max(k).max(1);
    let mut stats = SearchStats::default();
    let entry = if opts.two_phase {
        greedy_descent_dyn(*metric, store, graph, index.entry, query, &mut stats).0
    } else {
        index.entry
    };
    if let (None, Some(sq8)) = (filter, index.sq8()) {
        let mut out =
            beam_search_sq8_rerank(*metric, store, sq8, graph, &[entry], query, k, l, scratch);
        out.stats.accumulate(stats);
        return out;
    }
    let gate = QeoGate::new(index, query, opts.qeo);
    let l_beam = l_beam.max(l);
    let no_sink = |_: &mut Pool, _, _| {};
    let (ids, dists) = with_kernel!(*metric, |kernel| {
        let source = Exact { store, query, kernel };
        if let Some(filter) = filter {
            scratch.results.reset(l);
            let sink = |results: &mut Pool, d, v| {
                if filter.admits(v) {
                    results.insert(d, v);
                }
            };
            stats.accumulate(traverse(graph, &source, &[entry], l_beam, scratch, sink, gate));
            scratch.results.top_k(k)
        } else {
            stats.accumulate(traverse(graph, &source, &[entry], l_beam, scratch, no_sink, gate));
            scratch.pool.top_k(k)
        }
    });
    QueryResult { ids, dists, stats }
}

/// Scan-or-walk crossover of [`tau_search_planned`]: a compiled filter
/// admitting at most `SCAN_FACTOR · l_beam` rows is answered by scanning
/// them, where `l_beam` is the selectivity-widened traversal beam the walk
/// would use. The walk pays a few distance computations per beam slot at
/// random rows, plus pool upkeep, while the scan pays one sequential
/// distance per admitted row, so the ratio of admitted rows to beam width
/// decides which plan is cheaper. Fixed from the E14 crossover sweep
/// (EXPERIMENTS.md); a constant rather than a knob, because the count it is
/// compared with is exact.
pub const SCAN_FACTOR: usize = 8;

/// How [`tau_search_planned`] answered a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterPlan {
    /// Few enough admitted rows: all of them were scanned exactly.
    Scan,
    /// The filtered graph walk, which found `min(k, count)` admitted nodes.
    Walk,
    /// The walk came back short, so the admitted rows were scanned after it.
    WalkThenScan,
}

impl FilterPlan {
    /// The plan [`tau_search_planned`] chooses up front for a `k`-NN query
    /// at requested beam `l` under `allowed`, with the traversal beam
    /// `l_beam` a walk would use (widened by the exact selectivity).
    pub fn choose(
        index: &TauIndex,
        k: usize,
        l: usize,
        allowed: &BitFilter,
    ) -> (FilterPlan, usize) {
        let l = l.max(k).max(1);
        let l_beam = widened_beam(l, allowed.selectivity(), index.graph.num_nodes());
        if allowed.count() <= SCAN_FACTOR.saturating_mul(l_beam) {
            (FilterPlan::Scan, l_beam)
        } else {
            (FilterPlan::Walk, l_beam)
        }
    }
}

/// Filtered search from a compiled filter, choosing its plan from the exact
/// admitted count ([`FilterPlan::choose`]):
///
/// * **scan** — few admitted rows: exact top-`k` over exactly those rows;
/// * **walk** — [`tau_search_with_beam`] with the beam widened by the exact
///   selectivity, the filter tested by one bit per evaluated node.
///
/// A walk that returns fewer than `min(k, count)` hits (admitted nodes the
/// widened beam never reached) falls back to the scan, counters summed, so
/// a filtered answer is never short while admitted rows remain.
pub fn tau_search_planned(
    index: &TauIndex,
    query: &[f32],
    k: usize,
    l: usize,
    opts: TauSearchOptions,
    allowed: &BitFilter,
    scratch: &mut Scratch,
) -> (QueryResult, FilterPlan) {
    let scan = || exact_scan(index.metric, &index.store, query, k, allowed.iter());
    let (plan, l_beam) = FilterPlan::choose(index, k, l, allowed);
    if plan == FilterPlan::Scan {
        return (scan(), FilterPlan::Scan);
    }
    let walk = tau_search_with_beam(index, query, k, l, l_beam, opts, Some(allowed), scratch);
    if walk.ids.len() >= k.min(allowed.count()) {
        return (walk, FilterPlan::Walk);
    }
    let mut r = scan();
    r.stats.accumulate(walk.stats);
    (r, FilterPlan::WalkThenScan)
}

/// Pure greedy descent on a τ-index from its entry point — the primitive the
/// exactness theorem (E10) is stated about. Returns `(node, dissimilarity)`.
pub fn tau_greedy_nn(index: &TauIndex, query: &[f32]) -> (u32, f32, SearchStats) {
    let TauIndex { metric, store, graph, entry, .. } = index;
    let mut stats = SearchStats::default();
    let (node, dist) = greedy_descent_dyn(*metric, store, graph, *entry, query, &mut stats);
    (node, dist, stats)
}
