//! Per-layer probes: each layer's public function timed from outside, on the
//! run's own snapshots and at the workload's dimension, metric and beam.
//!
//! Nothing here is read from code inside the engine; counts come from the
//! `SearchStats` the public functions return. Times are medians over the
//! query set unless a probe says otherwise.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ann_graph::{beam_search_dyn, widened_beam, FnFilter, Scratch, SearchStats};
use ann_service::{
    merge_topk, shard_beam, DurabilityMode, Fanout, FilterExpr, Metrics, RealFs, ShardWal,
    Snapshot, SnapshotFs, SnapshotStore,
};
use ann_vectors::{Sq8Query, Sq8Store};
use tau_mg::{tau_search, tau_search_filtered, DynamicTauMng, TauMngParams, TauSearchOptions};

use crate::setup::Corpus;
use crate::stats::median;
use crate::trace::Recorder;
use crate::workload::{purpose, Rng, Spec, K};

/// One per-layer reading: name, value, samples behind it.
pub type Reading = (&'static str, f64, usize);

/// The snapshots a run serves, slot-aligned with its shards.
pub type Snaps = Vec<Option<Arc<Snapshot>>>;

fn ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// The attribute filter of `expr` over `snap`, rebuilt from public calls
/// (the engine's own closure is private): internal slot → external id →
/// attribute record → `FilterExpr::matches`.
fn admits<'a>(snap: &'a Snapshot, expr: &'a FilterExpr) -> impl Fn(u32) -> bool + 'a {
    move |internal| {
        snap.external_id(internal)
            .is_some_and(|e| !snap.is_tombstoned(e) && expr.matches(snap.attrs_of(e)))
    }
}

/// Selectivity of the workload's filter (exact: one bucket of `m`).
fn selectivity(corpus: &Corpus) -> f64 {
    corpus.filter_modulus.map_or(1.0, |m| 1.0 / m as f64)
}

/// `tau_search` on one shard the way its snapshot would run it: plain, or
/// through the workload's filter.
fn core_search(
    snap: &Snapshot,
    corpus: &Corpus,
    expr: Option<&FilterExpr>,
    query: &[f32],
    l: usize,
    scratch: &mut Scratch,
) -> SearchStats {
    let opts = TauSearchOptions::default();
    match expr {
        None => tau_search(snap.index(), query, K, l, opts, scratch).stats,
        Some(expr) => {
            let filter = FnFilter::new(admits(snap, expr), selectivity(corpus));
            tau_search_filtered(snap.index(), query, K, l, opts, &filter, scratch).stats
        }
    }
}

/// Beam width the graph layer runs at under the workload's filter.
fn graph_beam(snap: &Snapshot, corpus: &Corpus, l: usize) -> usize {
    widened_beam(l, selectivity(corpus), snap.len())
}

/// One level of the read path, timed over the query set.
///
/// Every level gets a pass of its own over all queries, in the same order,
/// so each call meets the same cache state (the rows the previous few
/// hundred queries touched) and the levels can be subtracted from each
/// other. Timing two levels back to back on one query would hand the second
/// a warm cache and make the outer layer look cheaper than the inner one.
fn pass(corpus: &Corpus, mut call: impl FnMut(&[f32]) -> SearchStats) -> (Vec<f64>, SearchStats) {
    let nq = corpus.queries.len();
    let mut times = Vec::with_capacity(nq);
    let mut total = SearchStats::default();
    for q in 0..nq as u32 {
        let query = corpus.queries.get(q);
        let t = Instant::now();
        let stats = call(black_box(query));
        times.push(ns(t));
        total.accumulate(stats);
    }
    (times, total)
}

/// The read path, layer by layer, over every query of the corpus.
pub fn read_path(spec: &Spec, corpus: &Corpus, snaps: &Snaps, seed: u64) -> Vec<Reading> {
    let live: Vec<&Arc<Snapshot>> = snaps.iter().flatten().collect();
    let per_l = shard_beam(spec.l, live.len(), K);
    let expr = corpus.filter();
    let nq = corpus.queries.len();
    let nodes: usize = live.iter().map(|s| s.len()).sum();
    let mut scratch = Scratch::new(nodes);
    let mut out = Vec::new();

    // vectors: the kernel as search calls it — a cache-resident query against
    // rows scattered over shard 0 — then with both operands resident
    // (compute only), then over SQ8 codes.
    let store = live[0].index().store();
    let metric = corpus.metric;
    let mut rng = Rng::new(seed, purpose::PROBE_ROWS);
    let rows: Vec<u32> = (0..4096).map(|_| rng.below(store.len()) as u32).collect();
    let query = corpus.queries.get(0);
    let blocks = 64;
    let per_call = |f: &mut dyn FnMut(u32) -> f32, rows: &[u32]| {
        let per_call: Vec<f64> = (0..blocks)
            .map(|_| {
                let t = Instant::now();
                let mut acc = 0.0f32;
                for &r in rows {
                    acc += f(black_box(r));
                }
                black_box(acc);
                ns(t) / rows.len() as f64
            })
            .collect();
        median(&per_call)
    };
    let dist_ns = per_call(&mut |r| metric.distance(query, store.get(r)), &rows);
    out.push(("vectors.dist_ns", dist_ns, blocks * rows.len()));
    let one_row = vec![rows[0]; rows.len()];
    let hot_ns = per_call(&mut |r| metric.distance(query, store.get(r)), &one_row);
    out.push(("vectors.dist_ns_hot", hot_ns, blocks * rows.len()));
    let sq8 = Sq8Store::quantize(store);
    let sq_query = Sq8Query::new(metric, query);
    let sq8_ns = per_call(&mut |r| sq8.dist_to(metric, &sq_query, r), &rows);
    out.push(("vectors.sq8_dist_ns", sq8_ns, blocks * rows.len()));
    drop(sq8);

    // graph / core / snapshot / shard: per query, over the shards a request
    // visits one after the other.
    let (beam_ns, beam) = pass(corpus, |query| {
        let mut stats = SearchStats::default();
        for snap in &live {
            let index = snap.index();
            stats.accumulate(beam_search_dyn(
                metric,
                index.store(),
                index.graph(),
                &[index.entry_point()],
                query,
                graph_beam(snap, corpus, per_l),
                &mut scratch,
            ));
        }
        stats
    });
    let (tau_ns, tau) = pass(corpus, |query| {
        let mut stats = SearchStats::default();
        for snap in &live {
            stats.accumulate(core_search(snap, corpus, expr.as_ref(), query, per_l, &mut scratch));
        }
        stats
    });
    let (mut ids, mut dists) = (Vec::new(), Vec::new());
    let mut slowest_share = Vec::with_capacity(nq);
    let (snap_ns, plain) = pass(corpus, |query| {
        let mut stats = SearchStats::default();
        let (mut sum, mut slowest) = (0.0f64, 0.0f64);
        for snap in &live {
            let t = Instant::now();
            stats.accumulate(snap.search_into(query, K, per_l, &mut scratch, &mut ids, &mut dists));
            let one = ns(t);
            sum += one;
            slowest = slowest.max(one);
        }
        slowest_share.push(slowest / sum);
        stats
    });
    let (filtered_ns, filtered) = pass(corpus, |query| {
        let mut stats = SearchStats::default();
        for snap in &live {
            stats.accumulate(snap.search_filtered_into(
                query,
                K,
                per_l,
                expr.as_ref(),
                &mut scratch,
                &mut ids,
                &mut dists,
            ));
        }
        stats
    });
    let mut fanout = Fanout::new(snaps.len());
    let (fanout_ns, _) = pass(corpus, |query| {
        fanout
            .search_filtered(snaps, query, K, spec.l, expr.as_ref(), &mut scratch, None)
            .stats
    });
    // The merge inside the fan-out, on the per-shard lists of each query.
    let mut merge_ns = Vec::with_capacity(nq);
    let mut lists: Vec<(Vec<u64>, Vec<f32>)> = vec![Default::default(); live.len()];
    for q in 0..nq as u32 {
        let query = corpus.queries.get(q);
        for (snap, (ids, dists)) in live.iter().zip(&mut lists) {
            snap.search_filtered_into(query, K, per_l, expr.as_ref(), &mut scratch, ids, dists);
        }
        let (ids, dists): (Vec<_>, Vec<_>) = lists.iter().cloned().unzip();
        let t = Instant::now();
        black_box(merge_topk(&ids, &dists, K));
        merge_ns.push(ns(t));
    }

    let per_query = |v: u64| v as f64 / nq as f64;
    let (beam_ns, tau_ns) = (median(&beam_ns), median(&tau_ns));
    out.push(("graph.beam_ns", beam_ns, nq));
    out.push(("graph.ndc", per_query(tau.ndc), nq));
    out.push(("graph.hops", per_query(tau.hops), nq));
    out.push(("graph.ns_per_ndc", beam_ns / per_query(beam.ndc) - dist_ns, nq));
    out.push(("core.tau_search_ns", tau_ns, nq));
    out.push(("core.qeo_skip_share", tau.skipped as f64 / (tau.ndc + tau.skipped) as f64, nq));
    // Compute and row fetch as shares of search time: the ceilings of a
    // faster kernel and of a better layout, prefetch or code size.
    out.push(("vectors.dist_share", per_query(tau.ndc) * hot_ns / tau_ns, nq));
    out.push(("vectors.fetch_share", per_query(tau.ndc) * (dist_ns - hot_ns) / tau_ns, nq));
    out.push(("snapshot.search_ns", median(&snap_ns), nq));
    out.push(("snapshot.filtered_search_ns", median(&filtered_ns), nq));
    out.push(("snapshot.filter_ndc_ratio", filtered.ndc as f64 / plain.ndc as f64, nq));
    out.push(("shard.slowest_shard_share", slowest_share.iter().sum::<f64>() / nq as f64, nq));
    out.push(("shard.fanout_ns", median(&fanout_ns), nq));
    out.push(("shard.merge_ns", median(&merge_ns), nq));
    out
}

/// The write path below the service: journal appends per durability mode,
/// dynamic insert, compaction, relayout, snapshot persist and load — each on
/// scratch state under `scratch_root`, at the workload's dimension.
///
/// # Errors
/// Any engine or I/O error, rendered.
pub fn write_path(
    corpus: &Corpus,
    snaps: &Snaps,
    params: TauMngParams,
    scratch_root: &Path,
) -> Result<Vec<Reading>, String> {
    let mut out = Vec::new();
    let snap = snaps.iter().flatten().next().ok_or("no healthy shard to probe")?;
    let rows = corpus.pool.len().min(100) as u32;

    // wal: fsync + read-back is the difference between the two modes.
    let fs: Arc<dyn SnapshotFs> = Arc::new(RealFs);
    for (name, mode) in [
        ("wal.append_us_strict", DurabilityMode::Strict),
        ("wal.append_us_none", DurabilityMode::None),
    ] {
        let dir = scratch_root.join(name);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut wal = ShardWal::fresh(&dir, 0, Arc::clone(&fs), mode, Arc::new(Metrics::new()));
        let mut us = Vec::new();
        for i in 0..200u32 {
            let t = Instant::now();
            wal.append_insert(u64::from(i), corpus.pool.get(i % rows))
                .map_err(|e| format!("{name}: {e}"))?;
            us.push(ns(t) / 1e3);
        }
        out.push((name, median(&us), us.len()));
    }

    // core::dynamic on a replica of shard 0, as the writer keeps one.
    let mut replica = DynamicTauMng::from_index_with_params(snap.index(), params);
    let mut us = Vec::new();
    for i in 0..rows {
        let t = Instant::now();
        replica.insert(corpus.pool.get(i)).map_err(|e| format!("core.insert_us: {e}"))?;
        us.push(ns(t) / 1e3);
    }
    out.push(("core.insert_us", median(&us), us.len()));
    let t = Instant::now();
    let compacted = replica.compact().map_err(|e| format!("core.compact_ms: {e}"))?;
    out.push(("core.compact_ms", ns(t) / 1e6, 1));
    drop(replica);
    let ms: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(compacted.0.relayout_bfs());
            ns(t) / 1e6
        })
        .collect();
    out.push(("graph.relayout_ms", median(&ms), ms.len()));
    drop(compacted);

    // store: persist and load the live snapshot of shard 0.
    let store = SnapshotStore::open(scratch_root.join("store.persist"))
        .map_err(|e| format!("store.persist_ms: {e}"))?;
    let mut persist_ms = Vec::new();
    let mut load_ms = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        store.persist(snap, params, 0).map_err(|e| format!("store.persist_ms: {e}"))?;
        persist_ms.push(ns(t) / 1e6);
        let t = Instant::now();
        let report = store.recover().map_err(|e| format!("store.load_ms: {e}"))?;
        load_ms.push(ns(t) / 1e6);
        if report.recovered.is_none() {
            return Err("store.load_ms: nothing recovered from a just-persisted snapshot".into());
        }
    }
    out.push(("store.persist_ms", median(&persist_ms), persist_ms.len()));
    out.push(("store.load_ms", median(&load_ms), load_ms.len()));
    Ok(out)
}

/// One answered request of the traced client, kept for [`replay`].
#[derive(Debug, Clone)]
pub struct Sampled {
    /// Request number (spans of one request share it).
    pub request: u32,
    /// Query rows of the request.
    pub rows: Vec<u32>,
    /// Send and reply-observed times, ns since the trace began.
    pub span_ns: (u64, u64),
}

/// Rebuild the span trees of the sampled requests by replaying their queries
/// through each level's public function (see [`crate::trace`]).
///
/// The replay runs after the traced phase and level by level — every level
/// passes over all sampled requests before the next level starts — for the
/// reason given at [`pass`]: each call then meets a cache that hundreds of
/// other queries have been through, as a worker's does.
pub fn replay(
    rec: &mut Recorder,
    sampled: &[Sampled],
    spec: &Spec,
    corpus: &Corpus,
    snaps: &Snaps,
    seed: u64,
) {
    let expr = corpus.filter();
    let live: Vec<&Arc<Snapshot>> = snaps.iter().flatten().collect();
    let per_l = shard_beam(spec.l, live.len(), K);
    let mut scratch = Scratch::new(live.iter().map(|s| s.len()).sum());
    let (mut ids, mut dists) = (Vec::new(), Vec::new());
    let queries = || sampled.iter().flat_map(|s| s.rows.iter().map(|&r| corpus.queries.get(r)));
    type Timed = (u64, SearchStats);

    // Level 1: one fan-out per query.
    let mut fanout = Fanout::new(snaps.len());
    let fanouts: Vec<Timed> = queries()
        .map(|query| {
            let t = Instant::now();
            let hit =
                fanout.search_filtered(snaps, query, K, spec.l, expr.as_ref(), &mut scratch, None);
            (ns(t) as u64, hit.stats)
        })
        .collect();
    // Levels 2 to 5: one call per query and shard.
    let level = |call: &mut dyn FnMut(&[f32], &Snapshot, usize) -> SearchStats| -> Vec<Timed> {
        let mut i = 0;
        queries()
            .flat_map(|query| live.iter().map(move |snap| (query, snap)))
            .map(|(query, snap)| {
                let t = Instant::now();
                let stats = call(query, snap, i);
                i += 1;
                (ns(t) as u64, stats)
            })
            .collect()
    };
    let searches = level(&mut |query, snap, _| {
        snap.search_filtered_into(
            query,
            K,
            per_l,
            expr.as_ref(),
            &mut scratch,
            &mut ids,
            &mut dists,
        )
    });
    let cores = level(&mut |query, snap, _| {
        core_search(snap, corpus, expr.as_ref(), query, per_l, &mut scratch)
    });
    let beams = level(&mut |query, snap, _| {
        let index = snap.index();
        beam_search_dyn(
            corpus.metric,
            index.store(),
            index.graph(),
            &[index.entry_point()],
            query,
            graph_beam(snap, corpus, per_l),
            &mut scratch,
        )
    });
    // As many distance evaluations as the beam made, on rows scattered over
    // the shard.
    let mut rows = Rng::new(seed, purpose::PROBE_ROWS + 1);
    let leaves = level(&mut |query, snap, i| {
        let store = snap.index().store();
        let ndc = beams[i].1.ndc;
        let mut acc = 0.0f32;
        for _ in 0..ndc {
            acc += corpus.metric.distance(query, store.get(rows.below(store.len()) as u32));
        }
        black_box(acc);
        SearchStats { ndc, ..SearchStats::default() }
    });

    // Assemble the trees: `fanouts` holds one entry per query, the deeper
    // levels one per query and shard, all in the order of `queries()`.
    let named = |name: &'static str, timed: &[Timed]| -> Vec<_> {
        timed.iter().map(|&(dur, stats)| (name, dur, stats)).collect()
    };
    let (mut query, mut call) = (0, 0);
    for s in sampled {
        let none = SearchStats::default();
        let root = rec.push(None, s.request, "service.request", s.span_ns.0, s.span_ns.1, none);
        let mine = &fanouts[query..query + s.rows.len()];
        query += s.rows.len();
        for fanout_span in rec.push_children(root, &named("shard.fanout", mine)) {
            let mine = &searches[call..call + live.len()];
            for search_span in rec.push_children(fanout_span, &named("snapshot.search", mine)) {
                let one = call..=call;
                let core =
                    rec.push_children(search_span, &named("core.tau_search", &cores[one.clone()]));
                let beam =
                    rec.push_children(core[0], &named("graph.beam_search", &beams[one.clone()]));
                rec.push_children(beam[0], &named("vectors.distance", &leaves[one]));
                call += 1;
            }
        }
    }
}
