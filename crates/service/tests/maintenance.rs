//! Soak and crash tests for the background maintenance scheduler.
//!
//! The centerpiece is the **fault-injected churn soak**: sustained
//! insert/delete churn with transient filesystem faults, where after every
//! drained maintenance cycle the three debts the scheduler exists to repay
//! — tombstones in the frozen graph, snapshot generations on disk, live
//! journal bytes — must sit at or below their configured thresholds, and
//! the final index must answer within 0.01 recall@10 of an index rebuilt
//! from scratch over the same live points.
//!
//! The crash matrix then kills the process (a `Fault::Crash` that never
//! heals) at every filesystem operation of a maintenance pass that is
//! mid-compaction, and requires recovery to an audited snapshot
//! (`audit_on_recover` is on in the default recovery config) holding every
//! acknowledged write and no resurrected delete.

use ann_service::{
    split_index, DurabilityMode, Fanout, Fault, FaultFs, MaintenanceConfig, MaintenanceScheduler,
    Metrics, RealFs, ShardHealth, ShardSetWriter, SnapshotStoreConfig,
};
use ann_vectors::metric::Metric;
use ann_vectors::synthetic::uniform;
use ann_vectors::VecStore;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tau_mg::{build_tau_mng, TauMngParams};

const PARAMS: TauMngParams = TauMngParams { tau: 0.15, r: 16, l: 48, c: 150 };
const SHARDS: usize = 3;
const DIM: usize = 6;

fn test_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir()
        .join("ann_service_maintenance")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn build_rows(rows: &[Vec<f32>]) -> tau_mg::TauIndex {
    let store = Arc::new(VecStore::from_rows(rows).unwrap());
    let knn = ann_knng::brute_force_knn_graph(Metric::L2, &store, 8).unwrap();
    build_tau_mng(store, Metric::L2, &knn, PARAMS).unwrap()
}

/// No-retry store config so every injected fault is visible to the
/// scheduler (rather than absorbed by the store's own retry loop).
fn store_cfg(durability: DurabilityMode) -> SnapshotStoreConfig {
    SnapshotStoreConfig {
        retain: 2,
        max_retries: 0,
        backoff: Duration::ZERO,
        audit_on_recover: true,
        durability,
    }
}

/// Tight thresholds and near-zero backoff: debt crosses the line within a
/// round or two of churn, and a faulted job retries within milliseconds.
fn maint_cfg() -> MaintenanceConfig {
    MaintenanceConfig {
        tick: Duration::from_millis(5),
        max_tombstone_ratio: 0.10,
        max_tombstones: 12,
        max_wal_bytes: 16 << 10,
        compactions_per_tick: 1,
        backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(8),
        quarantine_after: 3,
        probation: 1,
    }
}

/// Run maintenance passes until one does nothing (no publish, no
/// compaction, no failure), waiting out per-shard backoff between passes.
/// Panics if the scheduler cannot reach quiescence within `cap` passes.
fn drain(sched: &MaintenanceScheduler, cap: usize) {
    for _ in 0..cap {
        let report = sched.run_once();
        if report.tombstones_published == 0
            && report.compacted.is_empty()
            && report.failures.is_empty()
            && report.backed_off.is_empty()
        {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("maintenance did not reach quiescence within {cap} passes");
}

/// Tie-tolerant recall@k: the fraction of returned points whose true
/// distance is within the true k-th distance (so an equally-near point
/// swapped in by a different traversal order still counts).
fn recall_at(live: &[(u64, Vec<f32>)], query: &[f32], returned: &[u64], k: usize) -> f64 {
    let mut true_dists: Vec<f32> =
        live.iter().map(|(_, v)| Metric::L2.distance(query, v)).collect();
    true_dists.sort_by(f32::total_cmp);
    let kth = true_dists[k.min(true_dists.len()) - 1];
    let by_id: BTreeMap<u64, &Vec<f32>> = live.iter().map(|(e, v)| (*e, v)).collect();
    let hits = returned
        .iter()
        .filter(|e| by_id.get(e).is_some_and(|v| Metric::L2.distance(query, v) <= kth + 1e-5))
        .count();
    hits.min(k) as f64 / k as f64
}

#[test]
fn churn_soak_bounds_debt_and_matches_fresh_rebuild_recall() {
    let dir = test_dir("soak");
    let base = uniform(DIM, 120, 42);
    let rows: Vec<Vec<f32>> = (0..120).map(|i| base.get(i).to_vec()).collect();
    let parts = split_index(build_rows(&rows), PARAMS, SHARDS).unwrap();
    let fs = Arc::new(FaultFs::new(RealFs));
    let metrics = Arc::new(Metrics::with_shards(SHARDS));
    let (writer, set) = ShardSetWriter::attach_durable_with_fs(
        parts,
        PARAMS,
        Arc::clone(&metrics),
        &dir,
        Arc::clone(&fs) as _,
        store_cfg(DurabilityMode::Strict),
    )
    .unwrap();

    let cfg = maint_cfg();
    let sched = MaintenanceScheduler::new_paused(writer, cfg, Arc::clone(&metrics));

    let mut live: BTreeMap<u64, Vec<f32>> =
        (0..120u64).map(|e| (e, rows[e as usize].clone())).collect();
    let mut deleted: Vec<u64> = Vec::new();
    let churn = uniform(DIM, 200, 7);
    let mut next_vec = 0u32;
    let mut rng = 0xD0_5EED_u64;

    let mut fanout = Fanout::new(SHARDS);
    let mut scratch = ann_graph::Scratch::new(set.total_points() + 200);

    for round in 0..30 {
        {
            let mut w = sched.writer().lock().unwrap();
            for _ in 0..6 {
                let v = churn.get(next_vec).to_vec();
                next_vec += 1;
                let ext = w.insert(&v).unwrap();
                live.insert(ext, v);
            }
            for _ in 0..4 {
                let keys: Vec<u64> = live.keys().copied().collect();
                let victim = keys[(xorshift(&mut rng) as usize) % keys.len()];
                w.delete(victim).unwrap();
                live.remove(&victim);
                deleted.push(victim);
            }
        }
        // A transient IO error lands inside the coming maintenance cycle
        // every few rounds; the scheduler must retry through it.
        if round % 7 == 3 {
            fs.arm(fs.ops() + 2, Fault::ErrorOnce);
        }
        drain(&sched, 24);

        // Debt invariants: a drained scheduler leaves every shard at or
        // below every threshold (strictly-over is what triggers a
        // compaction, so at-threshold is the worst legal resting state).
        let w = sched.writer().lock().unwrap();
        for s in 0..SHARDS {
            let sw = w.writer(s).unwrap();
            assert!(
                sw.tombstone_debt() <= cfg.max_tombstones,
                "round {round}: shard {s} tombstone debt {} over {}",
                sw.tombstone_debt(),
                cfg.max_tombstones
            );
            assert!(
                sw.tombstone_ratio() <= cfg.max_tombstone_ratio + 1e-9,
                "round {round}: shard {s} tombstone ratio {} over {}",
                sw.tombstone_ratio(),
                cfg.max_tombstone_ratio
            );
            assert!(
                sw.wal_live_bytes() <= cfg.max_wal_bytes,
                "round {round}: shard {s} journal {}B over {}B",
                sw.wal_live_bytes(),
                cfg.max_wal_bytes
            );
            // retain=2 plus at most two generations pinned above a stale
            // WAL floor while a persist failure heals.
            assert!(
                sw.durable_generations() <= 4,
                "round {round}: shard {s} retains {} generations",
                sw.durable_generations()
            );
            assert_eq!(sw.tombstones_unpublished(), 0, "round {round}: shard {s}");
        }
        drop(w);

        // Serving invariant: no search ever surfaces a deleted id, whether
        // the delete was repaid by compaction or still rides the filter.
        let mut snaps = Vec::new();
        set.load_into(&mut snaps);
        for _ in 0..4 {
            let q = churn.get((xorshift(&mut rng) % 200) as u32).to_vec();
            let hit = fanout.search_filtered(&snaps, &q, 10, 64, None, &mut scratch, None);
            for id in &hit.ids {
                assert!(
                    !deleted.contains(id),
                    "round {round}: deleted id {id} resurfaced in a merged answer"
                );
            }
        }
    }

    // The injected faults were really exercised, and the ladder healed.
    assert!(
        metrics.maintenance_failures.get() >= 1,
        "fault injection never reached a maintenance job"
    );
    assert_eq!(sched.worst_health(), ShardHealth::Healthy, "scheduler must heal after faults");
    assert!(metrics.maintenance_runs.get() > 0);

    // Disk usage bounded: snapshots within retention, journal segments
    // truncated behind the floor.
    for s in 0..SHARDS {
        let shard_dir = ann_service::SnapshotStore::shard_dir(&dir, s);
        let mut snaps = 0usize;
        let mut wals = 0usize;
        for entry in std::fs::read_dir(&shard_dir).unwrap().flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".snap") {
                snaps += 1;
            } else if name.ends_with(".wal") {
                wals += 1;
            }
        }
        assert!(snaps <= 4, "shard {s}: {snaps} snapshot files survived GC");
        assert!(wals <= 3, "shard {s}: {wals} journal segments survived truncation");
    }

    // Recall: fold everything in with one full publish, then the soaked
    // index must answer within 0.01 recall@10 of a fresh rebuild over the
    // same live points, through the same fan-out/merge path.
    {
        let mut w = sched.writer().lock().unwrap();
        w.publish().unwrap();
        assert!(w.last_persist_error().is_none());
    }
    let live_vec: Vec<(u64, Vec<f32>)> = live.iter().map(|(e, v)| (*e, v.clone())).collect();
    let queries = uniform(DIM, 32, 777);

    let mut snaps = Vec::new();
    set.load_into(&mut snaps);
    let mut soaked_recall = 0.0;
    for qi in 0..32 {
        let q = queries.get(qi).to_vec();
        let hit = fanout.search_filtered(&snaps, &q, 10, 64, None, &mut scratch, None);
        for id in &hit.ids {
            assert!(live.contains_key(id), "non-live id {id} in the final answer");
        }
        soaked_recall += recall_at(&live_vec, &q, &hit.ids, 10);
    }

    let fresh_rows: Vec<Vec<f32>> = live_vec.iter().map(|(_, v)| v.clone()).collect();
    let fresh_parts = split_index(build_rows(&fresh_rows), PARAMS, 1).unwrap();
    let (_fw, fresh_set) =
        ShardSetWriter::attach(fresh_parts, PARAMS, Arc::new(Metrics::new())).unwrap();
    let mut fresh_snaps = Vec::new();
    fresh_set.load_into(&mut fresh_snaps);
    let mut fresh_fanout = Fanout::new(1);
    let mut fresh_recall = 0.0;
    for qi in 0..32 {
        let q = queries.get(qi).to_vec();
        let hit = fresh_fanout.search_filtered(&fresh_snaps, &q, 10, 64, None, &mut scratch, None);
        // Fresh externals are dense 0..n in `live_vec` order.
        let ids: Vec<u64> = hit.ids.iter().map(|&i| live_vec[i as usize].0).collect();
        fresh_recall += recall_at(&live_vec, &q, &ids, 10);
    }
    let (soaked, fresh) = (soaked_recall / 32.0, fresh_recall / 32.0);
    assert!(
        soaked >= fresh - 0.01,
        "soaked recall@10 {soaked:.4} fell more than 0.01 below fresh rebuild {fresh:.4}"
    );
}

/// One deterministic over-threshold fixture for the crash matrix: eight
/// acknowledged inserts and six acknowledged deletes on a fresh durable
/// set, leaving every shard with compactable debt.
fn crash_fixture(
    dir: &std::path::Path,
    fs: &Arc<FaultFs<RealFs>>,
) -> (MaintenanceScheduler, Arc<ann_service::ShardSet>, Vec<u64>, Vec<u64>) {
    let base = uniform(DIM, 90, 42);
    let rows: Vec<Vec<f32>> = (0..90).map(|i| base.get(i).to_vec()).collect();
    let parts = split_index(build_rows(&rows), PARAMS, SHARDS).unwrap();
    let (mut writer, set) = ShardSetWriter::attach_durable_with_fs(
        parts,
        PARAMS,
        Arc::new(Metrics::with_shards(SHARDS)),
        dir,
        Arc::clone(fs) as _,
        store_cfg(DurabilityMode::Strict),
    )
    .unwrap();
    assert!(writer.last_persist_error().is_none(), "generation 0 must persist cleanly");

    let extra = uniform(DIM, 8, 999);
    let mut acked = Vec::new();
    for i in 0..8 {
        acked.push(writer.insert(extra.get(i)).unwrap());
    }
    let deleted: Vec<u64> = (0..6).map(|i| i * 3).collect();
    for &d in &deleted {
        writer.delete(d).unwrap();
    }
    let cfg = MaintenanceConfig { max_tombstones: 1, max_tombstone_ratio: 0.01, ..maint_cfg() };
    let sched =
        MaintenanceScheduler::new_paused(writer, cfg, Arc::new(Metrics::with_shards(SHARDS)));
    (sched, set, acked, deleted)
}

/// Crash kill-point matrix over a mid-compaction maintenance pass: at
/// every filesystem operation of the pass, the disk dies and never heals;
/// the "restarted process" must recover an audited snapshot per shard with
/// every acknowledged write present and no deleted id resurrected.
#[test]
fn mid_compaction_crash_recovers_audited_snapshots_with_all_acks() {
    // Probe: operation count of one clean maintenance cycle (run to
    // quiescence) on the fixture.
    let probe_ops = {
        let dir = test_dir("crash-probe");
        let fs = Arc::new(FaultFs::new(RealFs));
        let (sched, _set, _acked, _deleted) = crash_fixture(&dir, &fs);
        let before = fs.ops();
        drain(&sched, 24);
        fs.ops() - before
    };
    assert!(
        probe_ops >= 6,
        "a compacting pass must persist and truncate, saw {probe_ops} ops"
    );

    for at in 0..probe_ops {
        let tag = format!("crash@{at}");
        let dir = test_dir(&format!("crash-{at}"));
        let fs = Arc::new(FaultFs::new(RealFs));
        let (sched, set, acked, deleted) = crash_fixture(&dir, &fs);
        fs.arm(fs.ops() + at, Fault::Crash);
        // The dead disk surfaces as job failures, never a panic, and the
        // in-memory set keeps serving.
        for _ in 0..4 {
            let _ = sched.run_once();
        }
        assert!(set.healthy() > 0, "{tag}: serving must survive a dead disk");
        drop(sched); // "kill -9": no clean unwind of writers or journals
        drop(set);

        // Restart on the (healed) real filesystem. The default recovery
        // config audits every loaded snapshot payload.
        let rec = ShardSetWriter::recover(&dir, SHARDS, Arc::new(Metrics::with_shards(SHARDS)))
            .unwrap_or_else(|e| panic!("{tag}: sharded recovery failed: {e}"));
        assert!(
            rec.degraded.is_empty(),
            "{tag}: a mid-compaction crash must never lose a shard (quarantined: {:?})",
            rec.quarantined.iter().map(|(p, e)| (p, e.to_string())).collect::<Vec<_>>()
        );
        for &e in &acked {
            let shard = ann_vectors::route::shard_of(e, SHARDS);
            assert!(
                rec.writer.writer(shard).unwrap().contains(e),
                "{tag}: acknowledged insert {e} lost from shard {shard}"
            );
        }
        for &d in &deleted {
            let shard = ann_vectors::route::shard_of(d, SHARDS);
            assert!(
                !rec.writer.writer(shard).unwrap().contains(d),
                "{tag}: acknowledged delete {d} resurrected on shard {shard}"
            );
        }

        // And the recovered set serves merged answers without the deleted
        // points.
        let mut snaps = Vec::new();
        rec.set.load_into(&mut snaps);
        let mut fanout = Fanout::new(SHARDS);
        let mut scratch = ann_graph::Scratch::new(rec.set.total_points() + 8);
        let probe = uniform(DIM, 4, 31);
        for qi in 0..4 {
            let hit =
                fanout.search_filtered(&snaps, probe.get(qi), 10, 64, None, &mut scratch, None);
            for id in &hit.ids {
                assert!(!deleted.contains(id), "{tag}: deleted id {id} served after recovery");
            }
        }
    }
}

/// The live worker thread: foreground churn through the shared writer
/// mutex, kicks instead of tick-waits, and the background thread drains
/// all three debts on its own. Ends with a clean `into_writer` teardown.
#[test]
fn background_worker_drains_debt_under_live_churn() {
    let dir = test_dir("live-worker");
    let base = uniform(DIM, 120, 42);
    let rows: Vec<Vec<f32>> = (0..120).map(|i| base.get(i).to_vec()).collect();
    let parts = split_index(build_rows(&rows), PARAMS, SHARDS).unwrap();
    let metrics = Arc::new(Metrics::with_shards(SHARDS));
    let (writer, _set) =
        ShardSetWriter::attach_durable(parts, PARAMS, Arc::clone(&metrics), &dir).unwrap();

    let cfg = MaintenanceConfig { tick: Duration::from_millis(2), ..maint_cfg() };
    let sched = MaintenanceScheduler::start(writer, cfg, Arc::clone(&metrics));

    let churn = uniform(DIM, 120, 9);
    let mut rng = 0xFACE_u64;
    let mut live: Vec<u64> = (0..120).collect();
    for i in 0..15u32 {
        {
            let mut w = sched.writer().lock().unwrap();
            for j in 0..4 {
                live.push(w.insert(churn.get((i * 4 + j) % 120)).unwrap());
            }
            for _ in 0..3 {
                let at = (xorshift(&mut rng) as usize) % live.len();
                let victim = live.swap_remove(at);
                w.delete(victim).unwrap();
            }
        }
        sched.kick();
        std::thread::sleep(Duration::from_millis(3));
    }

    // The worker owns the drain: poll until every shard is at or below
    // threshold with nothing left unpublished.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let drained = {
            let w = sched.writer().lock().unwrap();
            (0..SHARDS).all(|s| {
                let sw = w.writer(s).unwrap();
                sw.tombstone_debt() <= cfg.max_tombstones
                    && sw.tombstone_ratio() <= cfg.max_tombstone_ratio + 1e-9
                    && sw.tombstones_unpublished() == 0
            })
        };
        if drained {
            break;
        }
        assert!(Instant::now() < deadline, "background worker failed to drain debt");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(sched.worst_health(), ShardHealth::Healthy);
    assert!(metrics.maintenance_runs.get() > 0, "the worker must have run jobs");

    // Teardown returns the writer for exclusive foreground use.
    let Ok(mut writer) = sched.into_writer() else {
        panic!("into_writer must succeed once the worker has joined")
    };
    let ext = writer.insert(churn.get(0)).unwrap();
    let generation = writer.publish().unwrap();
    let shard = ann_vectors::route::shard_of(ext, SHARDS);
    assert!(writer.writer(shard).unwrap().contains(ext));
    assert!(generation > 0);
}

/// Satellite property, durability-mode leg: with deletes published only
/// incrementally (tombstones riding the live snapshot's filter, never a
/// compaction), the fan-out/k-way-merge path must not return a tombstoned
/// external id — under every [`DurabilityMode`], at N=1 and N=3 shards, on
/// a corpus quantized so exact duplicates make distance ties common — and
/// the surviving twin of a deleted duplicate must still be returnable.
/// The shard-count/tie sweep with random delete sets lives in
/// `tests/shard_merge.rs` as a proptest.
#[test]
fn tombstone_filter_holds_at_every_durability_mode_and_shard_count() {
    let modes: [(&str, DurabilityMode); 3] = [
        ("strict", DurabilityMode::Strict),
        (
            "batched",
            DurabilityMode::Batched { max_records: 2, max_delay: Duration::from_secs(3600) },
        ),
        ("none", DurabilityMode::None),
    ];
    // Coarse quantization: 120 points on a 3^6 grid guarantees duplicate
    // vectors, so merged answers carry genuine distance ties.
    let mut rng = 0x7135_u64;
    let rows: Vec<Vec<f32>> = (0..120)
        .map(|_| (0..DIM).map(|_| (xorshift(&mut rng) % 3) as f32).collect())
        .collect();

    for (name, durability) in modes {
        for shards in [1usize, SHARDS] {
            let tag = format!("{name}/{shards}-shard");
            let dir = test_dir(&format!("modes-{name}-{shards}"));
            let parts = split_index(build_rows(&rows), PARAMS, shards).unwrap();
            let (mut writer, set) = ShardSetWriter::attach_durable_with_fs(
                parts,
                PARAMS,
                Arc::new(Metrics::with_shards(shards)),
                &dir,
                Arc::new(RealFs),
                store_cfg(durability),
            )
            .unwrap();

            let deleted: Vec<u64> = (0..120).filter(|e| e % 5 == 0).collect();
            for &d in &deleted {
                writer.delete(d).unwrap();
            }
            writer.publish_tombstones().unwrap_or_else(|e| panic!("{tag}: {e}"));

            let mut snaps = Vec::new();
            set.load_into(&mut snaps);
            let mut fanout = Fanout::new(shards);
            let mut scratch = ann_graph::Scratch::new(set.total_points());
            // Query with the deleted points' own vectors: the strongest tie
            // stress, since the tombstoned id sits at distance zero.
            let mut twin_checks = 0usize;
            for &d in &deleted {
                let q = &rows[d as usize];
                let hit = fanout.search_filtered(&snaps, q, 10, 96, None, &mut scratch, None);
                assert_eq!(hit.ids.len(), 10, "{tag}: short answer for query {d}");
                let mut seen = std::collections::HashSet::new();
                for id in &hit.ids {
                    assert!(!deleted.contains(id), "{tag}: tombstoned id {id} in merged answer");
                    assert!(seen.insert(*id), "{tag}: duplicate id {id} in merged answer");
                }
                assert!(
                    hit.dists.windows(2).all(|w| w[0] <= w[1]),
                    "{tag}: merged distances out of order"
                );
                // A live exact duplicate of the deleted point must still be
                // found at distance zero.
                if let Some((twin, _)) = rows.iter().enumerate().find(|(i, v)| {
                    *i as u64 != d && !deleted.contains(&(*i as u64)) && **v == rows[d as usize]
                }) {
                    assert!(
                        hit.ids.contains(&(twin as u64)) || hit.dists[9] <= 1e-6,
                        "{tag}: live twin {twin} of deleted {d} displaced by farther points"
                    );
                    twin_checks += 1;
                }
            }
            assert!(twin_checks > 0, "{tag}: quantization produced no duplicate pairs");

            // Restart: journaled deletes replay, and the recovered set
            // must not resurrect them either.
            drop(writer);
            let rec = ShardSetWriter::recover_with_fs(
                &dir,
                shards,
                Arc::new(Metrics::with_shards(shards)),
                Arc::new(RealFs),
                store_cfg(durability),
            )
            .unwrap_or_else(|e| panic!("{tag}: recovery failed: {e}"));
            assert!(rec.degraded.is_empty(), "{tag}");
            let mut snaps = Vec::new();
            rec.set.load_into(&mut snaps);
            for &d in deleted.iter().take(8) {
                let hit = fanout.search_filtered(
                    &snaps,
                    &rows[d as usize],
                    10,
                    96,
                    None,
                    &mut scratch,
                    None,
                );
                for id in &hit.ids {
                    assert!(!deleted.contains(id), "{tag}: {id} resurrected after recovery");
                }
            }
        }
    }
}
