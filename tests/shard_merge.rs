//! Merge correctness for sharded serving: for any corpus split across
//! 1..=4 shards by the production router, the k-way merge of exhaustive
//! per-shard top-k lists must equal the unsharded exhaustive top-k —
//! exactly, ids and distances, including ties (broken by external id).
//!
//! This is the property that makes fan-out/merge *semantics-preserving*:
//! sharding may only change which beam explores a point, never what the
//! assembled answer is when every shard answers exactly.

use ann_suite::ann_service::merge_topk;
use ann_suite::ann_vectors::route::shard_of;
use ann_suite::ann_vectors::Metric;
use proptest::prelude::*;

/// Exhaustive top-k over `points`, ordered by `(distance, external id)` —
/// the same total order the service's merge uses.
fn exhaustive_topk(
    metric: Metric,
    points: &[(u64, Vec<f32>)],
    query: &[f32],
    k: usize,
) -> (Vec<u64>, Vec<f32>) {
    let mut scored: Vec<(f32, u64)> =
        points.iter().map(|(ext, v)| (metric.distance(query, v), *ext)).collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    scored.truncate(k);
    (scored.iter().map(|s| s.1).collect(), scored.iter().map(|s| s.0).collect())
}

/// Deterministic corpus with plenty of exact duplicates (quantized
/// coordinates), so distance ties are common and the id tie-break is
/// actually exercised.
fn corpus(n: usize, dim: usize, levels: u32, seed: u64) -> Vec<(u64, Vec<f32>)> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n as u64)
        .map(|ext| {
            // Sparse external ids: shard routing must not depend on density.
            let id = ext * 7 + (ext % 3) * 1000;
            let v = (0..dim).map(|_| (next() % u64::from(levels)) as f32).collect();
            (id, v)
        })
        .collect()
}

fn check_split(points: &[(u64, Vec<f32>)], query: &[f32], k: usize, shards: usize) {
    let (want_ids, want_dists) = exhaustive_topk(Metric::L2, points, query, k);

    // Route every point with the production placement function, answer
    // each shard exhaustively, then merge.
    let mut per_shard: Vec<Vec<(u64, Vec<f32>)>> = vec![Vec::new(); shards];
    for (ext, v) in points {
        per_shard[shard_of(*ext, shards)].push((*ext, v.clone()));
    }
    let mut ids = Vec::with_capacity(shards);
    let mut dists = Vec::with_capacity(shards);
    for shard in &per_shard {
        let (i, d) = exhaustive_topk(Metric::L2, shard, query, k);
        ids.push(i);
        dists.push(d);
    }
    let (got_ids, got_dists) = merge_topk(&ids, &dists, k);

    assert_eq!(
        got_ids, want_ids,
        "sharded merge diverged from unsharded top-{k} ({shards} shards)"
    );
    assert_eq!(
        got_dists, want_dists,
        "merged distances must be bitwise equal to the unsharded ones"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn merged_shard_topk_equals_unsharded_topk(
        n in 1usize..120,
        k in 1usize..14,
        shards in 1usize..5,
        levels in 2u32..5,
        seed in 0u64..10_000,
    ) {
        let points = corpus(n, 6, levels, seed);
        let query: Vec<f32> = corpus(1, 6, levels, seed ^ 0xABCD)[0].1.clone();
        check_split(&points, &query, k, shards);
    }
}

/// Tombstone-filter property over the *production* search path: build a
/// real sharded set, delete a pseudo-random third of the corpus, publish
/// the deletes **incrementally** (tombstones ride the live snapshots'
/// deletion filters — no compaction), and the fan-out/k-way-merge must
/// never surface a tombstoned external id, return duplicates, or come up
/// short while live points remain (the beam-budget compensation at work).
/// Quantized coordinates make exact duplicates — and therefore distance
/// ties against the tombstoned points themselves — common; `shards` spans
/// the degenerate N=1 case.
fn check_tombstone_filter(n: usize, levels: u32, seed: u64, shards: usize, k: usize) {
    use ann_suite::ann_graph::Scratch;
    use ann_suite::ann_service::{split_index, Fanout, Metrics, ShardSetWriter};
    use ann_suite::ann_vectors::VecStore;
    use ann_suite::tau_mg::{build_tau_mng, TauMngParams};
    use std::sync::Arc;

    const PARAMS: TauMngParams = TauMngParams { tau: 0.15, r: 16, l: 48, c: 150 };
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|_| (0..6).map(|_| (next() % u64::from(levels)) as f32).collect())
        .collect();
    let store = Arc::new(VecStore::from_rows(&rows).unwrap());
    let knn = ann_suite::ann_knng::brute_force_knn_graph(Metric::L2, &store, 8).unwrap();
    let index = build_tau_mng(store, Metric::L2, &knn, PARAMS).unwrap();
    let parts = split_index(index, PARAMS, shards).unwrap();
    let (mut writer, set) =
        ShardSetWriter::attach(parts, PARAMS, Arc::new(Metrics::new())).unwrap();

    let mut deleted = std::collections::BTreeSet::new();
    while deleted.len() < n / 3 {
        deleted.insert(next() % n as u64);
    }
    for &d in &deleted {
        writer.delete(d).unwrap();
    }
    writer.publish_tombstones().unwrap();
    let live = n - deleted.len();

    let mut snaps = Vec::new();
    set.load_into(&mut snaps);
    let mut fanout = Fanout::new(shards);
    let mut scratch = Scratch::new(n);
    // Probe with tombstoned points' own vectors (distance-zero ties against
    // the filtered ids) plus one off-grid query.
    let mut queries: Vec<Vec<f32>> =
        deleted.iter().take(4).map(|&d| rows[d as usize].clone()).collect();
    queries.push((0..6).map(|_| (next() % u64::from(levels)) as f32 + 0.25).collect());
    for q in &queries {
        let hit = fanout.search_filtered(&snaps, q, k, 96, None, &mut scratch, None);
        assert_eq!(hit.ids.len(), k.min(live), "short merged answer despite {live} live points");
        let mut seen = std::collections::HashSet::new();
        for id in &hit.ids {
            assert!(!deleted.contains(id), "tombstoned id {id} in merged answer");
            assert!(seen.insert(*id), "duplicate id {id} in merged answer");
        }
        assert!(hit.dists.windows(2).all(|w| w[0] <= w[1]), "merged distances out of order");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn fanout_merge_never_returns_tombstoned_ids(
        n in 24usize..90,
        levels in 2u32..4,
        seed in 0u64..10_000,
        shards in 1usize..5,
        k in 1usize..12,
    ) {
        check_tombstone_filter(n, levels, seed, shards, k);
    }
}

/// Attribute-filter property over the production durable path: build a
/// real sharded set with per-shard write-ahead logs under each of the
/// three durability modes, attach attributes to half the corpus, delete a
/// pseudo-random sixth, and the filtered fan-out/k-way-merge must never
/// surface a non-matching or tombstoned external id — ties (quantized
/// coordinates, duplicate vectors) included. The no-filter submission must
/// stay bitwise identical to the plain search path.
fn check_attribute_filter(
    n: usize,
    levels: u32,
    seed: u64,
    shards: usize,
    k: usize,
    durability: ann_suite::ann_service::DurabilityMode,
) {
    use ann_suite::ann_graph::Scratch;
    use ann_suite::ann_service::{
        merge_topk, shard_beam, split_index, AttrValue, Fanout, FilterExpr, Metrics, RealFs,
        ShardSetWriter, SnapshotStoreConfig,
    };
    use ann_suite::ann_vectors::VecStore;
    use ann_suite::tau_mg::{build_tau_mng, TauMngParams};
    use std::sync::Arc;

    const PARAMS: TauMngParams = TauMngParams { tau: 0.15, r: 16, l: 48, c: 150 };
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|_| (0..6).map(|_| (next() % u64::from(levels)) as f32).collect())
        .collect();
    let store = Arc::new(VecStore::from_rows(&rows).unwrap());
    let knn = ann_suite::ann_knng::brute_force_knn_graph(Metric::L2, &store, 8).unwrap();
    let index = build_tau_mng(store, Metric::L2, &knn, PARAMS).unwrap();
    let parts = split_index(index, PARAMS, shards).unwrap();
    let root = std::env::temp_dir()
        .join(format!("ann-filter-prop-{}-{seed}-{shards}-{durability:?}", std::process::id()));
    let config = SnapshotStoreConfig {
        durability,
        backoff: std::time::Duration::ZERO,
        ..SnapshotStoreConfig::default()
    };
    let (mut writer, set) = ShardSetWriter::attach_durable_with_fs(
        parts,
        PARAMS,
        Arc::new(Metrics::new()),
        &root,
        Arc::new(RealFs),
        config,
    )
    .unwrap();

    // Attributes on even ids: band = id % 3 (journaled as WAL attribute
    // records under the chosen durability mode).
    for ext in (0..n as u64).filter(|e| e % 2 == 0) {
        writer.set_attrs(ext, vec![("band".into(), AttrValue::U64(ext % 3))]).unwrap();
    }
    let mut deleted = std::collections::BTreeSet::new();
    while deleted.len() < n / 6 {
        deleted.insert(next() % n as u64);
    }
    for &d in &deleted {
        writer.delete(d).unwrap();
    }
    // Odd seeds compact fully; even seeds publish tombstones incrementally
    // (attribute updates must be visible on both publication paths).
    if seed % 2 == 1 {
        writer.publish().unwrap();
    } else {
        writer.publish_tombstones().unwrap();
    }

    let mut snaps = Vec::new();
    set.load_into(&mut snaps);
    let mut fanout = Fanout::new(shards);
    let mut scratch = Scratch::new(n);
    let expr = FilterExpr::eq("band", AttrValue::U64(0));
    let matches = |id: u64| id.is_multiple_of(2) && id.is_multiple_of(3) && !deleted.contains(&id);
    // Probe with deleted and matching points' own vectors (distance-zero
    // ties against filtered ids) plus one off-grid query.
    let mut queries: Vec<Vec<f32>> =
        deleted.iter().take(2).map(|&d| rows[d as usize].clone()).collect();
    if let Some(m) = (0..n as u64).find(|&e| matches(e)) {
        queries.push(rows[m as usize].clone());
    }
    queries.push((0..6).map(|_| (next() % u64::from(levels)) as f32 + 0.25).collect());
    for q in &queries {
        let hit = fanout.search_filtered(&snaps, q, k, 96, Some(&expr), &mut scratch, None);
        let mut seen = std::collections::HashSet::new();
        for id in &hit.ids {
            assert!(matches(*id), "non-matching or tombstoned id {id} in filtered answer");
            assert!(seen.insert(*id), "duplicate id {id} in filtered answer");
        }
        assert!(hit.dists.windows(2).all(|w| w[0] <= w[1]), "filtered distances out of order");

        // No filter: bitwise identical to the plain search path, shard by
        // shard and merged.
        let per_l = shard_beam(96, shards, k);
        let (shard_ids, shard_dists): (Vec<_>, Vec<_>) = snaps
            .iter()
            .map(|snap| snap.as_ref().unwrap().search(q, k, per_l, &mut scratch))
            .map(|hit| (hit.ids, hit.dists))
            .unzip();
        let plain = merge_topk(&shard_ids, &shard_dists, k);
        let unfiltered = fanout.search_filtered(&snaps, q, k, 96, None, &mut scratch, None);
        assert_eq!(unfiltered.ids, plain.0, "no-filter path diverged from plain search");
        assert_eq!(unfiltered.dists, plain.1);
    }
    drop(writer);
    let _ = std::fs::remove_dir_all(&root);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn filtered_fanout_never_returns_nonmatching_or_tombstoned_ids(
        n in 24usize..72,
        levels in 2u32..4,
        seed in 0u64..10_000,
        shards in 1usize..5,
        k in 1usize..12,
        mode in 0usize..3,
    ) {
        use ann_suite::ann_service::DurabilityMode;
        use std::time::Duration;
        let durability = [
            DurabilityMode::None,
            DurabilityMode::Batched { max_records: 4, max_delay: Duration::from_secs(3600) },
            DurabilityMode::Strict,
        ][mode];
        check_attribute_filter(n, levels, seed, shards, k, durability);
    }
}

/// Beam-budget compensation regression (skewed deletes): the old policy
/// widened by the *absolute* tombstone count (`slack = min(tombstones,
/// max(l, k))`, searched at `k + slack, l + slack`, then post-dropped
/// tombstones), so a corpus with many deletes in absolute terms — but a
/// small deleted *fraction* — paid a doubled beam for nothing. The
/// selectivity-based widening asks for `ceil(l / live_fraction)` instead:
/// equal recall, measurably fewer distance computations.
#[test]
fn skewed_delete_widening_keeps_recall_at_lower_ndc() {
    use ann_suite::ann_graph::Scratch;
    use ann_suite::ann_service::{IndexWriter, Metrics};
    use ann_suite::ann_vectors::VecStore;
    use ann_suite::tau_mg::{build_tau_mng, TauMngParams, TauSearchOptions};
    use std::sync::Arc;

    const PARAMS: TauMngParams = TauMngParams { tau: 0.15, r: 20, l: 64, c: 300 };
    let (n, dim, k, l) = (1500usize, 8usize, 10usize, 64usize);
    let mut state = 0xC0FFEE_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|_| (0..dim).map(|_| (next() % 1000) as f32 / 1000.0).collect())
        .collect();
    let store = Arc::new(VecStore::from_rows(&rows).unwrap());
    let knn = ann_suite::ann_knng::brute_force_knn_graph(Metric::L2, &store, 10).unwrap();
    // Two deterministically identical builds: one serves the new path, one
    // emulates the retired additive-slack policy on the raw index.
    let index_new = build_tau_mng(Arc::clone(&store), Metric::L2, &knn, PARAMS).unwrap();
    let index_old = build_tau_mng(Arc::clone(&store), Metric::L2, &knn, PARAMS).unwrap();

    // Skewed deletes: one contiguous tenth of the id space (150 ids — large
    // in absolute count, so the old slack saturates at `l` and doubles the
    // beam; small as a fraction, so the new widening barely grows it).
    let deleted: std::collections::BTreeSet<u64> = (0..(n as u64) / 10).collect();
    let (mut writer, cell) = IndexWriter::attach(index_new, PARAMS, Arc::new(Metrics::new()));
    for &d in &deleted {
        writer.delete(d).unwrap();
    }
    writer.publish_tombstones().unwrap();
    let snap = cell.load();

    let queries: Vec<Vec<f32>> = (0..24)
        .map(|_| (0..dim).map(|_| (next() % 1000) as f32 / 1000.0).collect())
        .collect();
    let mut scratch = Scratch::new(n);
    let (mut hits_new, mut hits_old, mut ndc_new, mut ndc_old) = (0usize, 0usize, 0u64, 0u64);
    for q in &queries {
        // Exhaustive live ground truth.
        let mut truth: Vec<(f32, u64)> = rows
            .iter()
            .enumerate()
            .filter(|(i, _)| !deleted.contains(&(*i as u64)))
            .map(|(i, v)| (Metric::L2.distance(q, v), i as u64))
            .collect();
        truth.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let truth: std::collections::HashSet<u64> = truth[..k].iter().map(|t| t.1).collect();

        // New: selectivity-widened filter-during-search.
        let hit = snap.search(q, k, l, &mut scratch);
        ndc_new += hit.stats.ndc;
        hits_new += hit.ids.iter().filter(|id| truth.contains(id)).count();

        // Old: unfiltered search at `k + slack, l + slack`, post-dropped.
        let slack = deleted.len().min(l.max(k));
        let r = index_old.search_opts(
            q,
            k + slack,
            l.max(k) + slack,
            TauSearchOptions::default(),
            &mut scratch,
        );
        ndc_old += r.stats.ndc;
        let kept: Vec<u64> = r
            .ids
            .iter()
            .map(|&i| i as u64)
            .filter(|id| !deleted.contains(id))
            .take(k)
            .collect();
        hits_old += kept.iter().filter(|id| truth.contains(id)).count();
    }
    let recall_new = hits_new as f64 / (queries.len() * k) as f64;
    let recall_old = hits_old as f64 / (queries.len() * k) as f64;
    assert!(
        recall_new >= recall_old - 1e-9,
        "fraction-based widening lost recall: new {recall_new:.4} vs old {recall_old:.4}"
    );
    assert!(recall_new >= 0.9, "absolute recall floor: {recall_new:.4}");
    assert!(
        ndc_new < ndc_old,
        "fraction-based widening should cost fewer distance computations: \
         new {ndc_new} vs old {ndc_old} (recall {recall_new:.4} vs {recall_old:.4})"
    );
}

#[test]
fn merge_handles_every_shard_count_on_one_corpus() {
    // One deterministic corpus through all supported splits, k beyond the
    // corpus size included (short answers must merge short, not pad).
    let points = corpus(40, 4, 3, 99);
    let query = vec![1.0, 0.0, 2.0, 1.0];
    for shards in 1..=4 {
        for k in [1, 3, 40, 64] {
            check_split(&points, &query, k, shards);
        }
    }
}
