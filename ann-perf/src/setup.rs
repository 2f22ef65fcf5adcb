//! Set-up: corpus, exact ground truth, index build, durable attach, launch.
//!
//! Everything here goes through the engine's public functions, as an
//! embedding application would call them; each step is timed because
//! `setup_s` is an end-to-end metric and its parts are per-layer ones.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ann_knng::{nn_descent, NnDescentParams};
use ann_service::{
    split_index, AnnService, AttrValue, FilterExpr, Metrics, QueryOptions, RealFs, ServiceConfig,
    ShardSetWriter, SnapshotStoreConfig,
};
use ann_vectors::synthetic::mean_nn_distance;
use ann_vectors::{brute_force_ground_truth, Metric, VecStore};
use tau_mg::{build_tau_mng, TauMngParams};

use crate::workload::{Spec, CORPUS_SEED, FILTER_BUCKET, K};

/// τ as a share of the corpus's mean nearest-neighbour distance — the
/// operating point of the repository's experiment grid.
const TAU_SHARE: f32 = 0.03;

/// The generated inputs of one run.
#[derive(Debug)]
pub struct Corpus {
    /// Dissimilarity the corpus is searched under.
    pub metric: Metric,
    /// The `n` vectors indexed during set-up; row `i` has external id `i`.
    pub base: Arc<VecStore>,
    /// Vectors held back for inserts.
    pub pool: VecStore,
    /// Query vectors.
    pub queries: VecStore,
    /// Exact top-`K` external ids per query over `base` (over the matching
    /// rows only, for a filtered workload).
    pub gt: Vec<Vec<u64>>,
    /// `Some(m)`: vector `i < n` carries `bucket = i mod m`.
    pub filter_modulus: Option<u64>,
}

impl Corpus {
    /// The filter every query of this workload carries.
    pub fn filter(&self) -> Option<FilterExpr> {
        self.filter_modulus
            .map(|_| FilterExpr::eq("bucket", AttrValue::U64(FILTER_BUCKET)))
    }

    /// Whether external id `id` may appear in a reply of this workload.
    /// Inserted vectors carry no attributes, so a filtered query must never
    /// return one.
    pub fn admits(&self, id: u64) -> bool {
        match self.filter_modulus {
            None => true,
            Some(m) => id < self.base.len() as u64 && id % m == FILTER_BUCKET,
        }
    }

    /// The vector behind external id `id`: a corpus row or a pool row.
    pub fn vector(&self, id: u64) -> &[f32] {
        let n = self.base.len() as u64;
        if id < n {
            self.base.get(id as u32)
        } else {
            self.pool.get((id - n) as u32)
        }
    }
}

/// Exact top-`K` per query over the vectors of `ids` (brute force), as
/// external ids, nearest first.
pub fn exact_topk<'a>(
    metric: Metric,
    dim: usize,
    ids: &[u64],
    vector_of: impl Fn(u64) -> &'a [f32],
    queries: &VecStore,
) -> Vec<Vec<u64>> {
    let rows: Vec<f32> = ids.iter().flat_map(|&e| vector_of(e).iter().copied()).collect();
    let subset = VecStore::from_flat(dim, rows).expect("subset rows are whole");
    let gt = brute_force_ground_truth(metric, &subset, queries, K.min(ids.len()))
        .expect("ground truth over a non-empty subset");
    (0..queries.len())
        .map(|q| gt.ids(q).iter().map(|&i| ids[i as usize]).collect())
        .collect()
}

/// Generate the corpus of `spec` (the same for every `--seed`, see
/// [`CORPUS_SEED`]) and compute its ground truth.
pub fn corpus(spec: &Spec) -> Corpus {
    let data = spec.recipe.build(spec.n + spec.pool, spec.nq, CORPUS_SEED);
    let dim = data.base.dim();
    let flat = data.base.as_flat();
    let base = VecStore::from_flat(dim, flat[..spec.n * dim].to_vec()).expect("whole rows");
    let pool = VecStore::from_flat(dim, flat[spec.n * dim..].to_vec()).expect("whole rows");
    let eligible: Vec<u64> = match spec.filter_modulus {
        None => (0..spec.n as u64).collect(),
        Some(m) => (0..spec.n as u64).filter(|e| e % m == FILTER_BUCKET).collect(),
    };
    let gt = exact_topk(data.metric, dim, &eligible, |e| base.get(e as u32), &data.queries);
    Corpus {
        metric: data.metric,
        base: Arc::new(base),
        pool,
        queries: data.queries,
        gt,
        filter_modulus: spec.filter_modulus,
    }
}

/// A launched engine: the service, its writer, and where its store lives.
pub struct Engine {
    /// The serving side.
    pub service: AnnService,
    /// The single writer of the shard set.
    pub writer: ShardSetWriter,
    /// Registry shared by service and writer.
    pub metrics: Arc<Metrics>,
    /// Root of the durable store (`shard-<i>/` below it).
    pub store_root: PathBuf,
    /// Parameters the writer inserts with (τ included).
    pub params: TauMngParams,
}

/// Wall time of each set-up step, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `Recipe::build` + exact ground truth (the benchmark's own work).
    pub inputs_s: f64,
    /// `nn_descent`.
    pub knng_s: f64,
    /// `build_tau_mng`.
    pub build_s: f64,
    /// `split_index`.
    pub split_s: f64,
    /// Everything, up to the first reply.
    pub total_s: f64,
}

/// `ServiceConfig` of a workload: its worker count, defaults otherwise.
pub fn service_config(spec: &Spec) -> ServiceConfig {
    ServiceConfig { workers: spec.workers, ..ServiceConfig::default() }
}

/// The options every request of a workload carries.
pub fn query_options(spec: &Spec) -> QueryOptions {
    QueryOptions { l: Some(spec.l), deadline: None }
}

/// FNV-1a over a byte string: the per-shard graph checksum printed in the
/// run log, so a count that fails to repeat can be told apart from a build
/// that produced a different graph at two threads.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Build the index over `corpus`, attach it durably under `store_root`,
/// tag the attributes a filtered workload needs, launch the service and
/// wait for its first reply.
///
/// # Errors
/// Any engine error, rendered; a set-up failure refuses the run.
pub fn launch(
    spec: &Spec,
    corpus: &Corpus,
    store_root: &Path,
    log: &mut Vec<String>,
) -> Result<(Engine, SetupTimes), String> {
    let e = |what: &str, err: &dyn std::fmt::Display| format!("set-up: {what}: {err}");
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let knn = nn_descent(
        corpus.metric,
        &corpus.base,
        NnDescentParams { k: spec.knn_k.min(spec.n - 1), seed: CORPUS_SEED, ..Default::default() },
    )
    .map_err(|err| e("nn_descent", &err))?;
    times.knng_s = t.elapsed().as_secs_f64();

    let tau0 = mean_nn_distance(&corpus.base, 200.min(spec.n), CORPUS_SEED);
    let params = TauMngParams { tau: tau0 * TAU_SHARE, ..spec.build };
    let t = Instant::now();
    let index = build_tau_mng(Arc::clone(&corpus.base), corpus.metric, &knn, params)
        .map_err(|err| e("build_tau_mng", &err))?;
    times.build_s = t.elapsed().as_secs_f64();
    drop(knn);

    let t = Instant::now();
    let parts = split_index(index, params, spec.shards).map_err(|err| e("split_index", &err))?;
    times.split_s = t.elapsed().as_secs_f64();
    for (s, part) in parts.iter().enumerate() {
        log.push(format!(
            "shard {s}: {} points, graph fnv1a {:016x}",
            part.external_ids.len(),
            fnv1a(&part.index.to_bytes())
        ));
    }

    let metrics = Arc::new(Metrics::with_shards(spec.shards));
    let store_config =
        SnapshotStoreConfig { durability: spec.durability, ..SnapshotStoreConfig::default() };
    let (mut writer, set) = ShardSetWriter::attach_durable_with_fs(
        parts,
        params,
        Arc::clone(&metrics),
        store_root,
        Arc::new(RealFs),
        store_config,
    )
    .map_err(|err| e("attach_durable", &err))?;

    if let Some(m) = spec.filter_modulus {
        for id in 0..spec.n as u64 {
            writer
                .set_attrs(id, vec![("bucket".to_string(), AttrValue::U64(id % m))])
                .map_err(|err| e("set_attrs", &err))?;
        }
        writer.publish().map_err(|err| e("publish of attributes", &err))?;
    }

    let service = AnnService::start_sharded(set, Arc::clone(&metrics), service_config(spec))
        .map_err(|err| e("start_sharded", &err))?;
    let first = service
        .submit_filtered(
            vec![corpus.queries.get(0).to_vec()],
            K,
            corpus.filter(),
            query_options(spec),
        )
        .wait()
        .ok_or_else(|| "set-up: the service shut down before its first reply".to_string())?;
    if first.replies.len() != 1 || first.replies[0].ids.len() != K {
        return Err("set-up: the first reply is short".to_string());
    }
    let engine = Engine { service, writer, metrics, store_root: store_root.to_path_buf(), params };
    Ok((engine, times))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> VecStore {
        // Points 0..8 on a line at x = id.
        VecStore::from_rows(&(0..8).map(|i| vec![i as f32, 0.0]).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn filtered_ground_truth_sees_only_matching_ids() {
        let base = grid();
        let queries = VecStore::from_rows(&[vec![0.1, 0.0], vec![6.9, 0.0]]).unwrap();
        // Only even ids are eligible: nearest to 0.1 are 0, 2, 4; to 6.9 are 6, 4, 2.
        let even: Vec<u64> = (0..8).filter(|e| e % 2 == 0).collect();
        let gt = exact_topk(Metric::L2, 2, &even, |e| base.get(e as u32), &queries);
        assert_eq!(&gt[0][..3], &[0, 2, 4]);
        assert_eq!(&gt[1][..3], &[6, 4, 2]);
        assert_eq!(gt[0].len(), 4, "k is capped at the eligible count");
        // Unfiltered: odd ids appear.
        let all: Vec<u64> = (0..8).collect();
        let gt = exact_topk(Metric::L2, 2, &all, |e| base.get(e as u32), &queries);
        assert_eq!(&gt[1][..3], &[7, 6, 5]);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
