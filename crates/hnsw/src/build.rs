//! Concurrent HNSW construction.
//!
//! Mirrors hnswlib's locking discipline: one mutex per node guarding its
//! per-level link lists, a read-write lock on the (entry point, top level)
//! pair, and worker threads that claim insertion indices from an atomic
//! cursor. Locks are never nested, so the build is deadlock-free by
//! construction. With `ANN_THREADS=1` the build is fully deterministic.

use crate::params::HnswParams;
use crate::select::select_neighbors_heuristic;
use ann_graph::{offer_edge, Pool, VisitedSet};
use ann_vectors::metric::Metric;
use ann_vectors::VecStore;
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Hard cap on assigned levels (beyond this the geometric distribution's
/// tail is irrelevant at any realistic n).
const MAX_LEVEL: usize = 24;

pub(crate) struct BuildState {
    pub(crate) links: Vec<Mutex<Vec<Vec<u32>>>>,
    pub(crate) entry: RwLock<(u32, usize)>,
    pub(crate) levels: Vec<usize>,
}

impl BuildState {
    fn neighbors_copy(&self, u: u32, level: usize, buf: &mut Vec<u32>) {
        buf.clear();
        let guard = self.links[u as usize].lock();
        if let Some(list) = guard.get(level) {
            buf.extend_from_slice(list);
        }
    }
}

/// Per-worker scratch: pool, visited set and neighbor copy buffer.
struct InsertScratch {
    pool: Pool,
    visited: VisitedSet,
    nbuf: Vec<u32>,
}

/// Draw node levels: `floor(-ln(U) · mL)`, capped.
pub(crate) fn assign_levels(n: usize, params: &HnswParams) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let ml = params.ml();
    (0..n)
        .map(|_| {
            let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
            ((-u.ln() * ml) as usize).min(MAX_LEVEL)
        })
        .collect()
}

/// Beam search over the under-construction graph at one level.
/// `entries` are (dist, id) pairs already evaluated. Returns candidates
/// ascending by distance.
#[allow(clippy::too_many_arguments)]
fn search_layer(
    store: &VecStore,
    metric: Metric,
    state: &BuildState,
    query: &[f32],
    entries: &[(f32, u32)],
    ef: usize,
    level: usize,
    scratch: &mut InsertScratch,
) -> Vec<(f32, u32)> {
    scratch.pool.reset(ef);
    scratch.visited.clear();
    for &(d, e) in entries {
        if scratch.visited.insert(e) {
            scratch.pool.insert(d, e);
        }
    }
    let mut cursor = 0usize;
    while let Some(pos) = scratch.pool.next_unexpanded(cursor) {
        let cand = scratch.pool.expand(pos);
        state.neighbors_copy(cand.id, level, &mut scratch.nbuf);
        let mut best_insert = usize::MAX;
        // The borrow of nbuf is disjoint from pool/visited fields.
        let nbuf = std::mem::take(&mut scratch.nbuf);
        for &v in &nbuf {
            if !scratch.visited.insert(v) {
                continue;
            }
            let d = metric.distance(query, store.get(v));
            if d >= scratch.pool.admission_bound() {
                continue;
            }
            if let Some(p) = scratch.pool.insert(d, v) {
                best_insert = best_insert.min(p);
            }
        }
        scratch.nbuf = nbuf;
        cursor = if best_insert <= pos { best_insert } else { pos + 1 };
    }
    scratch.pool.as_slice().iter().map(|c| (c.dist, c.id)).collect()
}

/// Greedy single-step descent used on layers above the new node's level.
#[allow(clippy::too_many_arguments)]
fn greedy_at_level(
    store: &VecStore,
    metric: Metric,
    state: &BuildState,
    query: &[f32],
    mut cur: u32,
    mut cur_d: f32,
    level: usize,
    nbuf: &mut Vec<u32>,
) -> (u32, f32) {
    loop {
        let mut improved = false;
        state.neighbors_copy(cur, level, nbuf);
        let taken = std::mem::take(nbuf);
        for &v in &taken {
            let d = metric.distance(query, store.get(v));
            if d < cur_d {
                cur = v;
                cur_d = d;
                improved = true;
            }
        }
        *nbuf = taken;
        if !improved {
            return (cur, cur_d);
        }
    }
}

/// Offer `u` to `v`'s list at `level`, shrinking with the selection
/// heuristic when the list exceeds `cap`.
fn add_link(
    store: &VecStore,
    metric: Metric,
    state: &BuildState,
    v: u32,
    u: u32,
    level: usize,
    cap: usize,
) {
    let mut guard = state.links[v as usize].lock();
    while guard.len() <= level {
        guard.push(Vec::new());
    }
    offer_edge(store, metric, v, &mut guard[level], u, cap, |cands| {
        select_neighbors_heuristic(store, metric, cands, cap)
    });
}

fn insert(
    store: &VecStore,
    metric: Metric,
    params: &HnswParams,
    state: &BuildState,
    u: u32,
    scratch: &mut InsertScratch,
) {
    let query = store.get(u);
    let l_u = state.levels[u as usize];
    let (entry_node, top_level) = *state.entry.read();
    let mut cur = entry_node;
    let mut cur_d = metric.distance(query, store.get(cur));

    // Phase 1: greedy routing down to level l_u + 1.
    let mut level = top_level;
    while level > l_u {
        let (c, d) =
            greedy_at_level(store, metric, state, query, cur, cur_d, level, &mut scratch.nbuf);
        cur = c;
        cur_d = d;
        level -= 1;
    }

    // Phase 2: beam search and linking from min(l_u, top_level) down to 0.
    let mut entries = vec![(cur_d, cur)];
    for level in (0..=l_u.min(top_level)).rev() {
        let cands = search_layer(
            store,
            metric,
            state,
            query,
            &entries,
            params.ef_construction,
            level,
            scratch,
        );
        let filtered: Vec<(f32, u32)> = cands.iter().copied().filter(|&(_, c)| c != u).collect();
        let selected = select_neighbors_heuristic(store, metric, &filtered, params.m);
        {
            let mut guard = state.links[u as usize].lock();
            while guard.len() <= level {
                guard.push(Vec::new());
            }
            guard[level] = selected.clone();
        }
        let cap = if level == 0 { params.max_m0() } else { params.max_m() };
        for &v in &selected {
            add_link(store, metric, state, v, u, level, cap);
        }
        entries = filtered;
        if entries.is_empty() {
            entries = vec![(cur_d, cur)];
        }
    }

    // Phase 3: possibly become the new entry point.
    if l_u > top_level {
        let mut e = state.entry.write();
        if l_u > e.1 {
            *e = (u, l_u);
        }
    }
}

/// Build the linked structure; returns (state, levels).
pub(crate) fn build_graph(store: &VecStore, metric: Metric, params: &HnswParams) -> BuildState {
    let n = store.len();
    assert!(n > 0, "caller validates non-empty store");
    let levels = assign_levels(n, params);
    let state = BuildState {
        links: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
        entry: RwLock::new((0, levels[0])),
        levels,
    };
    {
        // Seed node 0's link lists so it is a valid entry point.
        let mut guard = state.links[0].lock();
        for _ in 0..=state.levels[0] {
            guard.push(Vec::new());
        }
    }
    if n == 1 {
        return state;
    }
    let threads = ann_vectors::parallel::num_threads();
    let cursor = AtomicUsize::new(1);
    std::thread::scope(|s| {
        for _ in 0..threads.min(n - 1) {
            s.spawn(|| {
                let mut scratch = InsertScratch {
                    pool: Pool::new(params.ef_construction.max(1)),
                    visited: VisitedSet::new(n),
                    nbuf: Vec::with_capacity(params.max_m0() + 1),
                };
                loop {
                    let u = cursor.fetch_add(1, Ordering::Relaxed);
                    if u >= n {
                        break;
                    }
                    insert(store, metric, params, &state, u as u32, &mut scratch);
                }
            });
        }
    });
    state
}
