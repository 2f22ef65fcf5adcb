//! The write side: replaying the seeded script through
//! `ShardSetWriter::{insert, delete, publish}`, then dropping the engine
//! without a final publish and recovering copies of its store.

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ann_service::{AnnService, Metrics, ShardSetWriter};

use crate::loadgen::DeletedAt;
use crate::setup::{exact_topk, query_options, service_config, Corpus};
use crate::workload::{Op, Spec, K};

/// What the writer did and how long each acknowledgement took.
#[derive(Debug, Default)]
pub struct WriteLog {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or were acknowledged with the wrong id.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_failure: Option<String>,
    /// External ids of acknowledged inserts.
    pub inserted: Vec<u64>,
    /// External ids of acknowledged deletes.
    pub deleted: Vec<u64>,
    /// Duration of each acknowledged `insert`/`delete` call, µs.
    pub ack_us: Vec<f64>,
    /// Duration of each `publish` call, ms.
    pub publish_ms: Vec<f64>,
}

impl WriteLog {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    /// Ids that must be live after recovery: the corpus and every
    /// acknowledged insert, less every acknowledged delete.
    pub fn survivors(&self, n0: usize) -> Vec<u64> {
        let dead: HashSet<u64> = self.deleted.iter().copied().collect();
        (0..n0 as u64)
            .chain(self.inserted.iter().copied())
            .filter(|id| !dead.contains(id))
            .collect()
    }
}

/// Replay `script` through `writer`, publishing after every
/// `spec.publish_every` acknowledged operations.
///
/// `pace` caps the rate (operations per second); the writer is closed-loop,
/// so an operation that is behind its slot simply goes at once. The whole
/// script is replayed however long that takes, so the operations, the
/// publishes and the un-published tail are the same run to run. Published
/// deletes are recorded in `deleted_at` with the generation that made them
/// visible.
pub fn replay(
    writer: &mut ShardSetWriter,
    spec: &Spec,
    corpus: &Corpus,
    script: &[Op],
    pace: Option<f64>,
    deleted_at: &DeletedAt,
) -> WriteLog {
    let mut log = WriteLog::default();
    let start = Instant::now();
    let mut acked_since_publish = 0usize;
    let mut deletes_since_publish: Vec<u64> = Vec::new();
    for (i, op) in script.iter().enumerate() {
        if let Some(rate) = pace {
            let slot = start + Duration::from_secs_f64(i as f64 / rate);
            if let Some(wait) = slot.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
        }
        log.attempted += 1;
        let t = Instant::now();
        let acked = match *op {
            Op::Insert { pool_row, expect_id } => match writer.insert(corpus.pool.get(pool_row)) {
                Ok(id) if id == expect_id => {
                    log.inserted.push(id);
                    true
                }
                Ok(id) => {
                    log.fail(format!("insert acknowledged as id {id}, script expects {expect_id}"));
                    false
                }
                Err(e) => {
                    log.fail(format!("insert of pool row {pool_row}: {e}"));
                    false
                }
            },
            Op::Delete { id } => match writer.delete(id) {
                Ok(()) => {
                    log.deleted.push(id);
                    deletes_since_publish.push(id);
                    true
                }
                Err(e) => {
                    log.fail(format!("delete of id {id}: {e}"));
                    false
                }
            },
        };
        if !acked {
            continue;
        }
        log.ack_us.push(t.elapsed().as_secs_f64() * 1e6);
        acked_since_publish += 1;
        if acked_since_publish == spec.publish_every {
            acked_since_publish = 0;
            log.attempted += 1;
            let t = Instant::now();
            match writer.publish() {
                Ok(generation) => {
                    log.publish_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    let mut map = deleted_at.lock().expect("no holder of this lock panics");
                    map.extend(deletes_since_publish.drain(..).map(|id| (id, generation)));
                }
                Err(e) => log.fail(format!("publish: {e}")),
            }
        }
    }
    log
}

/// Copy a store root (one level of `shard-<i>/` directories of plain files).
///
/// # Errors
/// The first I/O error, rendered.
pub fn copy_store(from: &Path, to: &Path) -> Result<(), String> {
    let e = |p: &Path, err: std::io::Error| format!("copying the store: {}: {err}", p.display());
    std::fs::create_dir_all(to).map_err(|err| e(to, err))?;
    for entry in std::fs::read_dir(from).map_err(|err| e(from, err))? {
        let entry = entry.map_err(|err| e(from, err))?;
        let (src, dst) = (entry.path(), to.join(entry.file_name()));
        if src.is_dir() {
            copy_store(&src, &dst)?;
        } else {
            std::fs::copy(&src, &dst).map_err(|err| e(&src, err))?;
        }
    }
    Ok(())
}

/// Total size of the regular files under `root`, bytes.
pub fn bytes_under(root: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(root) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(m) if m.is_dir() => bytes_under(&entry.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A store brought back to serving.
pub struct Recovered {
    /// `recover` → `start_sharded` → first correct reply, seconds.
    pub seconds: f64,
    /// Checks made (first reply + one per acknowledged write + the count).
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_failure: Option<String>,
    /// The recovered service, still running.
    pub service: AnnService,
    /// Its writer.
    pub writer: ShardSetWriter,
}

/// Recover the store under `root`, start serving it, wait for the first
/// correct reply, then check the durability contract: every acknowledged
/// insert that was not later deleted is present, every acknowledged delete
/// is absent, and nothing else is live.
///
/// # Errors
/// If the store cannot be recovered or served at all.
pub fn recover(
    root: &Path,
    spec: &Spec,
    corpus: &Corpus,
    log: &WriteLog,
) -> Result<Recovered, String> {
    let survivors: HashSet<u64> = log.survivors(spec.n).into_iter().collect();
    let t = Instant::now();
    let metrics = Arc::new(Metrics::with_shards(spec.shards));
    let rec = ShardSetWriter::recover(root, spec.shards, Arc::clone(&metrics))
        .map_err(|e| format!("recover: {e}"))?;
    let service = AnnService::start_sharded(rec.set, metrics, service_config(spec))
        .map_err(|e| format!("start_sharded after recovery: {e}"))?;
    let first = service
        .submit_filtered(
            vec![corpus.queries.get(0).to_vec()],
            K,
            corpus.filter(),
            query_options(spec),
        )
        .wait();
    let seconds = t.elapsed().as_secs_f64();

    let mut out = Recovered {
        seconds,
        attempted: 1,
        failed: 0,
        first_failure: None,
        service,
        writer: rec.writer,
    };
    let fail = |out: &mut Recovered, why: String| {
        out.failed += 1;
        out.first_failure.get_or_insert(why);
    };
    match first.as_ref().and_then(|r| r.replies.first()) {
        None => fail(&mut out, "no first reply after recovery".into()),
        Some(reply) => {
            let ok = reply.ids.len() == K
                && reply.ids.iter().all(|id| survivors.contains(id) && corpus.admits(*id));
            if !ok {
                fail(&mut out, format!("first reply after recovery is wrong: {:?}", reply.ids));
            }
        }
    }
    if !rec.degraded.is_empty() {
        fail(&mut out, format!("shards {:?} did not recover", rec.degraded));
    }
    let present = |w: &ShardSetWriter, id: u64| {
        w.writer(w.router().route(id)).is_some_and(|shard| shard.contains(id))
    };
    for &id in &log.inserted {
        out.attempted += 1;
        if survivors.contains(&id) && !present(&out.writer, id) {
            fail(&mut out, format!("acknowledged insert {id} is missing after recovery"));
        }
    }
    for &id in &log.deleted {
        out.attempted += 1;
        if present(&out.writer, id) {
            fail(&mut out, format!("acknowledged delete {id} is present after recovery"));
        }
    }
    out.attempted += 1;
    if out.writer.len() != survivors.len() {
        let (got, want) = (out.writer.len(), survivors.len());
        fail(&mut out, format!("{got} live vectors after recovery, {want} acknowledged"));
    }
    Ok(out)
}

/// Recall@K of the recovered service over every query, against brute force
/// over the surviving live set. Returns `(recall, queries, failed)`.
pub fn recall_after_recovery(
    recovered: &Recovered,
    spec: &Spec,
    corpus: &Corpus,
    log: &WriteLog,
) -> (f64, u64, u64) {
    let survivors: Vec<u64> =
        log.survivors(spec.n).into_iter().filter(|&id| corpus.admits(id)).collect();
    let truth = exact_topk(
        corpus.metric,
        corpus.base.dim(),
        &survivors,
        |id| corpus.vector(id),
        &corpus.queries,
    );
    let (mut hits, mut wanted, mut failed) = (0u64, 0u64, 0u64);
    for (q, truth) in truth.iter().enumerate() {
        let reply = recovered
            .service
            .submit_filtered(
                vec![corpus.queries.get(q as u32).to_vec()],
                K,
                corpus.filter(),
                query_options(spec),
            )
            .wait();
        match reply.as_ref().and_then(|r| r.replies.first()) {
            Some(reply) if reply.ids.len() == K && !reply.degraded => {
                wanted += truth.len() as u64;
                hits += reply.ids.iter().filter(|id| truth.contains(id)).count() as u64;
            }
            _ => failed += 1,
        }
    }
    (hits as f64 / wanted as f64, truth.len() as u64, failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_vectors::{Metric, VecStore};

    #[test]
    fn survivors_are_corpus_plus_inserts_minus_deletes() {
        let log = WriteLog { inserted: vec![5, 6, 7], deleted: vec![1, 6], ..WriteLog::default() };
        assert_eq!(log.survivors(5), [0, 2, 3, 4, 5, 7]);
    }

    #[test]
    fn post_churn_ground_truth_follows_the_surviving_set() {
        // Corpus 0..4 at x = id; pool rows at x = 10, 11 get ids 4, 5.
        let base =
            VecStore::from_rows(&(0..4).map(|i| vec![i as f32]).collect::<Vec<_>>()).unwrap();
        let pool = VecStore::from_rows(&[vec![10.0], vec![11.0]]).unwrap();
        let queries = VecStore::from_rows(&[vec![9.0]]).unwrap();
        let corpus = Corpus {
            metric: Metric::L2,
            base: Arc::new(base),
            pool,
            queries,
            gt: Vec::new(),
            filter_modulus: None,
        };
        // Insert both pool rows, delete id 4 (x = 10) and id 3.
        let log = WriteLog { inserted: vec![4, 5], deleted: vec![4, 3], ..WriteLog::default() };
        let survivors = log.survivors(4);
        assert_eq!(survivors, [0, 1, 2, 5]);
        let truth = exact_topk(Metric::L2, 1, &survivors, |id| corpus.vector(id), &corpus.queries);
        // Nearest to 9: id 5 (x = 11), then 2, 1, 0 — never the deleted 4 or 3.
        assert_eq!(truth[0], [5, 2, 1, 0]);
    }

    #[test]
    fn store_copy_is_deep_and_sized() {
        let dir = crate::report::scratch_dir("copy-test");
        let (from, to) = (dir.join("from"), dir.join("to"));
        std::fs::create_dir_all(from.join("shard-0")).unwrap();
        std::fs::write(from.join("shard-0/gen-0.snap"), [7u8; 100]).unwrap();
        std::fs::write(from.join("shard-0/wal-1.wal"), [1u8; 28]).unwrap();
        copy_store(&from, &to).unwrap();
        assert_eq!(std::fs::read(to.join("shard-0/gen-0.snap")).unwrap(), [7u8; 100]);
        assert_eq!(bytes_under(&to), 128);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
