//! One run of one workload: set-up, timed phases, the write script, an
//! un-published drop, recovery, verification — and, in the traced run, the
//! per-layer probes and the replayed spans.
//!
//! The end-to-end run (`--trace 0`) measures with tracing off and emits
//! every end-to-end metric; the traced run (`--trace 1`) is a separate,
//! differently divided run that emits every per-layer metric.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use ann_service::{
    read_wal_dir, AnnService, MaintenanceConfig, MaintenanceScheduler, Metrics, RealFs,
    ShardSetWriter, SnapshotFs, SnapshotStore,
};

use crate::layers::{self, Sampled, Snaps};
use crate::loadgen::{backlog_grew, closed_loop, good_share, open_loop, DeletedAt, Judge, Tally};
use crate::report::{self, Metric, Report};
use crate::setup::{self, Corpus, Engine};
use crate::stats::{median, percentile_sorted, samples_needed, sorted, supports};
use crate::trace::Recorder;
use crate::workload::{
    op_script, permutation, poisson_schedule, purpose, Phases, Rng, Spec, WriteShape,
};
use crate::writes::{self, WriteLog};

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload.
    pub spec: Spec,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds the timed phases add up to.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Smoke run: the validity gates that need a full-length run are off.
    pub smoke: bool,
}

/// Publishes a run must time before `publish_p50_ms` is reported.
const MIN_PUBLISHES: usize = 8;
/// Copies of the dropped store recovered for `recovery_s`.
const RECOVERIES: usize = 5;
/// Every this-many-th request of the traced client is replayed into spans.
const TRACE_EVERY: u32 = 8;

/// Degraded share the median second of a gated phase may have before the
/// run is refused. The service sheds recall when its queue backs up. On this
/// two-core sandbox the host stalls a vCPU for tens of ms a few times a
/// minute, and for most of a second once in some dozens of runs; the
/// arrivals queued meanwhile come back degraded — none in most runs, 0.1–0.7 %
/// of a phase in some, 8.5 % seen once. Those are the host's, so a degraded
/// reply is not a *failed* operation (a workload must be one on which no
/// operation fails) and a cap on the phase's share would refuse runs at
/// random. It is never a good reply either: it does not count toward
/// `qps_closed`, its latency stays out of `lat_p50_us`, and its phase's share
/// is reported. What must not pass is shedding as a habit — a rate the
/// engine cannot hold, whose latencies would read as a speed-up — and a
/// habit shows in most seconds of a phase where a stall shows in one or two.
const MAX_TYPICAL_DEGRADED_SHARE: f64 = 0.01;

/// Running totals of operations attempted and failed.
#[derive(Debug, Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    /// Degraded share of each gated phase, for the report.
    degraded: Vec<(&'static str, f64)>,
    /// Smoke run: the degraded-share gate is off.
    smoke: bool,
}

impl Ops {
    /// Count a phase's queries. A *gated* phase feeds an end-to-end metric:
    /// its degraded share is reported, and shedding in its median second
    /// refuses the run (see [`MAX_TYPICAL_DEGRADED_SHARE`]).
    fn reads(
        &mut self,
        phase: &'static str,
        tally: &Tally,
        gated: bool,
        log: &mut Vec<String>,
    ) -> Result<(), String> {
        self.attempted += tally.queries;
        self.failed += tally.failed;
        if let Some(why) = &tally.first_failure {
            log.push(format!(
                "{phase}: FAILED {} of {} queries; first: {why}",
                tally.failed, tally.queries
            ));
        }
        if !gated {
            return Ok(());
        }
        self.degraded.push((phase, tally.degraded as f64 / tally.queries.max(1) as f64));
        let typical = tally.typical_degraded_share();
        if !self.smoke && typical > MAX_TYPICAL_DEGRADED_SHARE {
            return Err(format!(
                "{phase}: {} of {} replies were degraded, {typical:.4} of its median second; \
                 a gated phase may shed at most {MAX_TYPICAL_DEGRADED_SHARE} of that",
                tally.degraded, tally.queries
            ));
        }
        Ok(())
    }

    fn writes(&mut self, wlog: &WriteLog, log: &mut Vec<String>) {
        self.attempted += wlog.attempted;
        self.failed += wlog.failed;
        if let Some(why) = &wlog.first_failure {
            log.push(format!("writes: FAILED {} of {}; first: {why}", wlog.failed, wlog.attempted));
        }
    }
}

fn describe(phase: &str, t: &Tally, log: &mut Vec<String>) {
    let lat = sorted(&t.latency_us);
    log.push(format!(
        "{phase}: {} requests / {} queries in {:.3} s, {} good, {} degraded, {} failed; \
         latency p50 {:.1} us p90 {:.1} us p95 {:.1} us p99 {:.1} us over {} samples",
        t.requests,
        t.queries,
        t.wall_s,
        t.good_queries,
        t.degraded,
        t.failed,
        percentile_sorted(&lat, 0.50),
        percentile_sorted(&lat, 0.90),
        percentile_sorted(&lat, 0.95),
        percentile_sorted(&lat, 0.99),
        lat.len(),
    ));
}

/// The mid phase and the write script, in the order the workload's write
/// shape asks for: the writer beside the reads, or after them.
#[allow(clippy::too_many_arguments)]
fn mid_and_writes(
    spec: &Spec,
    corpus: &Corpus,
    service: &AnnService,
    writer: &mut ShardSetWriter,
    seed: u64,
    mid_s: f64,
    order: &[u32],
    deleted_at: &DeletedAt,
) -> (Tally, WriteLog) {
    let due = poisson_schedule(spec.rates[1], mid_s, &mut Rng::new(seed, purpose::ARRIVALS + 1));
    let script =
        op_script(spec.n, spec.pool, spec.script_len(mid_s), &mut Rng::new(seed, purpose::WRITES));
    match spec.write {
        WriteShape::BesideReads { ops_per_s } => std::thread::scope(|scope| {
            let writing = scope.spawn(|| {
                writes::replay(writer, spec, corpus, &script, Some(ops_per_s), deleted_at)
            });
            // The indexed set changes under the reads: no exact ground truth.
            let judge = Judge { corpus, exact: false, deleted_at: Some(deleted_at) };
            let mid = open_loop(service, spec, &judge, &due, order);
            (mid, writing.join().expect("the writer thread panicked"))
        }),
        WriteShape::Quiet { .. } => {
            let judge = Judge { corpus, exact: true, deleted_at: None };
            let mid = open_loop(service, spec, &judge, &due, order);
            let wlog = writes::replay(writer, spec, corpus, &script, None, deleted_at);
            (mid, wlog)
        }
    }
}

/// Run one workload once.
///
/// # Errors
/// A refused run: set-up failed, or a validity gate says the measurement
/// cannot be trusted (the generator ran late, a phase is too short for its
/// percentile, recall fell below the workload's floor). A refused run
/// prints no metrics.
pub fn run(args: RunArgs) -> Result<Report, String> {
    let RunArgs { spec, seed, seconds, trace, smoke } = args;
    let mut log = vec![format!(
        "{} seed {seed} seconds {seconds} trace {trace}{}",
        spec.name,
        if smoke { " (smoke)" } else { "" }
    )];
    let scratch = report::scratch_dir(&format!("{}-{seed}", spec.name));
    let outcome = run_in(&args, &scratch, &mut log);
    let _ = std::fs::remove_dir_all(&scratch);
    for line in &log {
        eprintln!("[ann-perf] {line}");
    }
    let (ops, metrics) = outcome?;
    let mut report = Report {
        spec,
        seed,
        seconds,
        trace,
        attempted: ops.attempted,
        failed: ops.failed,
        degraded: ops.degraded,
        metrics,
        log,
    };
    report.seal()?;
    Ok(report)
}

fn run_in(
    args: &RunArgs,
    scratch: &std::path::Path,
    log: &mut Vec<String>,
) -> Result<(Ops, Vec<Metric>), String> {
    let RunArgs { spec, seed, seconds, trace, smoke } = *args;
    let mut ops = Ops { smoke, ..Ops::default() };

    // Set-up, timed as a whole until the first reply.
    let t_setup = Instant::now();
    let corpus = setup::corpus(&spec);
    let inputs_s = t_setup.elapsed().as_secs_f64();
    let (engine, mut times) = setup::launch(&spec, &corpus, &scratch.join("store"), log)?;
    times.total_s = t_setup.elapsed().as_secs_f64();
    times.inputs_s = inputs_s;
    ops.attempted += 1; // the first reply
    log.push(format!(
        "set-up {:.3} s: inputs {:.3}, nn_descent {:.3}, build_tau_mng {:.3}, split_index {:.3}",
        times.total_s, times.inputs_s, times.knng_s, times.build_s, times.split_s
    ));

    let Engine { service, mut writer, metrics, store_root, params } = engine;
    let order = permutation(spec.nq, &mut Rng::new(seed, purpose::QUERY_ORDER));
    let exact = Judge { corpus: &corpus, exact: true, deleted_at: None };
    let deleted_at = DeletedAt::default();
    let mut out: Vec<Metric> = Vec::new();
    let mut put = |name: &'static str, value: f64, samples: usize| {
        out.push(Metric { name, value, samples });
    };

    let phases = Phases::of(seconds);
    let warm = closed_loop(&service, &spec, &exact, spec.workers, phases.warm_s, &order, None);
    ops.reads("warm-up", &warm, false, log)?;

    let (mid, wlog);
    if trace {
        // ---- The traced run: probes on the idle engine, then short phases.
        let mut snaps: Snaps = Vec::new();
        service.shard_set().load_into(&mut snaps);
        let readings = layers::read_path(&spec, &corpus, &snaps, seed);
        let fanout_ns =
            readings.iter().find(|r| r.0 == "shard.fanout_ns").map_or(f64::NAN, |r| r.1);
        for (name, value, samples) in readings {
            put(name, value, samples);
        }
        put("knng.build_s", times.knng_s, 1);
        put("core.build_s", times.build_s, 1);
        put("shard.split_s", times.split_s, 1);

        // One idle client: the service round trip with nothing queued.
        let idle = closed_loop(&service, &spec, &exact, 1, seconds * 1.5 / 12.0, &order, None);
        ops.reads("idle", &idle, true, log)?;
        describe("idle (1 client, untraced)", &idle, log);
        let round_trip_us = median(&idle.good_latency_us);
        put(
            "service.overhead_us",
            round_trip_us - spec.batch as f64 * fanout_ns / 1e3,
            idle.good_latency_us.len(),
        );

        // The same client again, every TRACE_EVERY-th exchange kept as a root
        // span; the levels below it are replayed once the phase is over.
        let mut sampled: Vec<Sampled> = Vec::new();
        let epoch = Instant::now();
        let mut request = 0u32;
        let mut observe = |rows: &[u32], sent: Instant, done: Instant| {
            request += 1;
            if request.is_multiple_of(TRACE_EVERY) {
                let span_ns = ((sent - epoch).as_nanos() as u64, (done - epoch).as_nanos() as u64);
                sampled.push(Sampled { request, rows: rows.to_vec(), span_ns });
            }
        };
        let traced = closed_loop(
            &service,
            &spec,
            &exact,
            1,
            seconds * 1.5 / 12.0,
            &order,
            Some(&mut observe),
        );
        ops.reads("traced", &traced, true, log)?;
        describe("traced (1 client)", &traced, log);
        let mut recorder = Recorder::default();
        layers::replay(&mut recorder, &sampled, &spec, &corpus, &snaps, seed);
        put(
            "trace.overhead_share",
            1.0 - traced.good_qps() / idle.good_qps(),
            traced.requests as usize,
        );
        let by_name = recorder.by_name();
        for (metric, span) in [
            ("trace.self_us.service", "service.request"),
            ("trace.self_us.shard", "shard.fanout"),
            ("trace.self_us.snapshot", "snapshot.search"),
            ("trace.self_us.core", "core.tau_search"),
            ("trace.self_us.graph", "graph.beam_search"),
            ("trace.self_us.vectors", "vectors.distance"),
        ] {
            let (n, _, own_ns) = by_name.get(span).copied().unwrap_or((0, f64::NAN, f64::NAN));
            put(metric, own_ns / 1e3, n);
        }
        for (name, (n, total, own)) in &by_name {
            log.push(format!(
                "span {name}: {n} spans, mean {:.1} us, self {:.1} us",
                total / 1e3,
                own / 1e3
            ));
        }
        let trace_file = report::out_dir().join(format!("{}.trace.jsonl", spec.name));
        recorder.write_jsonl(&trace_file)?;
        log.push(format!("{} spans written to {}", recorder.spans().len(), trace_file.display()));
        drop(snaps);

        // lo and hi: diagnostic open-loop phases on the unchanged index.
        let open = |rate_ix: usize, secs: f64| {
            let due = poisson_schedule(
                spec.rates[rate_ix],
                secs,
                &mut Rng::new(seed, purpose::ARRIVALS + rate_ix as u64),
            );
            open_loop(&service, &spec, &exact, &due, &order)
        };
        let lo = open(0, seconds * 2.0 / 12.0);
        ops.reads("lo", &lo, false, log)?;
        describe("lo", &lo, log);
        let (overflow0, batches0) = (metrics.shed_overflow.get(), metrics.batches.get());
        let hi = open(2, seconds * 2.0 / 12.0);
        ops.reads("hi", &hi, false, log)?;
        describe("hi", &hi, log);
        let overflow = (metrics.shed_overflow.get() - overflow0) as f64;
        let batches = (metrics.batches.get() - batches0) as f64;
        let hi_lat = sorted(&hi.latency_us);
        put("service.hi.lat_p99_us", percentile_sorted(&hi_lat, 0.99), hi_lat.len());
        put(
            "service.hi.degraded_share",
            hi.degraded as f64 / hi.queries as f64,
            hi.queries as usize,
        );
        put(
            "service.hi.effective_l_mean",
            hi.effective_l_sum as f64 / (hi.queries - hi.failed) as f64,
            hi.queries as usize,
        );
        // Degraded replies included: it is the quality a caller gets at 80 %.
        put("service.hi.recall_at_10", hi.recall(), hi.queries as usize);
        put("service.hi.overflow_share", overflow / batches, batches as usize);

        (mid, wlog) = mid_and_writes(
            &spec,
            &corpus,
            &service,
            &mut writer,
            seed,
            seconds * 4.0 / 12.0,
            &order,
            &deleted_at,
        );
        let ok_rate = [(0, &lo), (1, &mid), (2, &hi)]
            .iter()
            .filter(|(_, t)| {
                good_share(t, spec.limit_us, spec.batch) >= 0.99 && !backlog_grew(t, spec.limit_us)
            })
            .map(|(ix, _)| spec.rates[*ix] * spec.batch as f64)
            .fold(0.0, f64::max);
        put("service.rate_ok_qps", ok_rate, 3);
    } else {
        // ---- The end-to-end run: closed, then mid (+ writes).
        let closed =
            closed_loop(&service, &spec, &exact, spec.workers, phases.closed_s, &order, None);
        ops.reads("closed", &closed, true, log)?;
        describe("closed", &closed, log);
        put("qps_closed", closed.good_qps(), closed.good_queries as usize);
        if !spec.recall_after_recovery() {
            put("recall_at_10", closed.recall(), closed.good_queries as usize);
        }
        (mid, wlog) = mid_and_writes(
            &spec,
            &corpus,
            &service,
            &mut writer,
            seed,
            phases.mid_s,
            &order,
            &deleted_at,
        );
    }

    // Both kinds of run: account for mid and the writes.
    ops.reads("mid", &mid, true, log)?;
    describe("mid", &mid, log);
    ops.writes(&wlog, log);
    let late = sorted(&mid.late_us);
    let late_p99 = percentile_sorted(&late, 0.99);
    let late_p50 = percentile_sorted(&late, 0.50);
    // Latencies of the requests answered in full at the requested beam.
    let mid_lat = sorted(&mid.good_latency_us);
    let acks = sorted(&wlog.ack_us);
    log.push(format!(
        "writes: {} acknowledged ({} inserts, {} deletes), ack p50 {:.1} us p99 {:.1} us; {} publishes, median {:.2} ms",
        acks.len(),
        wlog.inserted.len(),
        wlog.deleted.len(),
        percentile_sorted(&acks, 0.50),
        percentile_sorted(&acks, 0.99),
        wlog.publish_ms.len(),
        median(&wlog.publish_ms),
    ));
    log.push(format!(
        "generator lateness p50 {late_p50:.1} us p99 {late_p99:.1} us over {} sends",
        late.len()
    ));
    if !smoke {
        // A generator that cannot keep its schedule is late at the median.
        // Its tail is not gated: a hypervisor stall or a two-thread publish
        // on this two-core box delays a burst of sends, and since latency
        // runs from the due time those delays are already in the latencies.
        if late_p50 > 0.1 * spec.limit_us {
            return Err(format!(
                "generator lateness p50 {late_p50:.1} us exceeds a tenth of the {} us limit",
                spec.limit_us
            ));
        }
        if !supports(mid_lat.len(), 0.50) {
            return Err(format!("mid delivered only {} good replies", mid_lat.len()));
        }
        if !supports(acks.len(), 0.99) {
            return Err(format!(
                "the write-acknowledgement p99 needs {} samples, the writer made {}",
                samples_needed(0.99),
                acks.len()
            ));
        }
        if !trace && wlog.publish_ms.len() < MIN_PUBLISHES {
            return Err(format!("only {} publishes were timed", wlog.publish_ms.len()));
        }
    }

    let mut wlog = wlog;
    if trace {
        put("service.inproc_lat_p50_us", median(&mid.inproc_us), mid.inproc_us.len());
        for (name, q) in [("service.lat_p99_us", 0.99), ("service.lat_p999_us", 0.999)] {
            put(name, percentile_sorted(&mid_lat, q), mid_lat.len());
            if !supports(mid_lat.len(), q) {
                log.push(format!(
                    "{name}: {} samples do not support it ({} needed)",
                    mid_lat.len(),
                    samples_needed(q)
                ));
            }
        }
        put("wal.write_ack_p99_us", percentile_sorted(&acks, 0.99), acks.len());
        put(
            "service.mid.degraded_share",
            mid.degraded as f64 / mid.queries as f64,
            mid.queries as usize,
        );
        put("loadgen.late_p99_us", late_p99, late.len());
        put("loadgen.sent", mid.requests as f64, 1);

        // The write path below the service, on scratch state.
        let mut snaps: Snaps = Vec::new();
        service.shard_set().load_into(&mut snaps);
        for (name, value, samples) in
            layers::write_path(&corpus, &snaps, params, &scratch.join("probe"))?
        {
            put(name, value, samples);
        }
        drop(snaps);
        let appends = metrics.wal_appends.get() as f64;
        put("wal.fsyncs_per_op", metrics.wal_fsyncs.get() as f64 / appends, appends as usize);
        put("wal.bytes_per_op", metrics.wal_bytes.get() as f64 / appends, appends as usize);

        // Delete visibility without a compaction: 100 deletes, one
        // incremental publish.
        let scripted: HashSet<u64> = wlog.deleted.iter().copied().collect();
        let victims: Vec<u64> =
            (0..spec.n as u64).filter(|id| !scripted.contains(id)).take(100).collect();
        for &id in &victims {
            ops.attempted += 1;
            match writer.delete(id) {
                Ok(()) => wlog.deleted.push(id),
                Err(e) => {
                    ops.failed += 1;
                    log.push(format!("tombstone probe: FAILED delete of {id}: {e}"));
                }
            }
        }
        let t = Instant::now();
        writer.publish_tombstones().map_err(|e| format!("publish_tombstones: {e}"))?;
        put("snapshot.publish_tombstones_us", t.elapsed().as_secs_f64() * 1e6, 1);
        let live_bytes = (writer.len() * corpus.base.dim() * 4) as f64;
        put("store.disk_amp", writes::bytes_under(&store_root) as f64 / live_bytes, 1);
    } else {
        put("lat_p50_us", percentile_sorted(&mid_lat, 0.50), mid_lat.len());
        put("write_ack_p50_us", percentile_sorted(&acks, 0.50), acks.len());
        put("publish_p50_ms", median(&wlog.publish_ms), wlog.publish_ms.len());
    }

    // Drop the engine with its last writes journaled but not published.
    service.shutdown();
    drop(writer);
    drop(metrics);

    let copies = if trace { 1 } else { RECOVERIES };
    let mut recovery_s = Vec::with_capacity(copies);
    for i in 0..copies {
        let copy = scratch.join(format!("copy-{i}"));
        writes::copy_store(&store_root, &copy)?;
        if trace {
            let fs: Arc<dyn SnapshotFs> = Arc::new(RealFs);
            let t = Instant::now();
            let mut records = 0;
            for shard in 0..spec.shards {
                let replay = read_wal_dir(&fs, &SnapshotStore::shard_dir(&copy, shard), 0)
                    .map_err(|e| format!("read_wal_dir: {e}"))?;
                records += replay.records.len();
            }
            put("wal.replay_ms", t.elapsed().as_secs_f64() * 1e3, records);
        }
        let recovered = writes::recover(&copy, &spec, &corpus, &wlog)?;
        recovery_s.push(recovered.seconds);
        ops.attempted += recovered.attempted;
        ops.failed += recovered.failed;
        if let Some(why) = &recovered.first_failure {
            log.push(format!("recovery {i}: FAILED {} checks; first: {why}", recovered.failed));
        }
        if i == 0 && !trace && spec.recall_after_recovery() {
            let (recall, queries, failed) =
                writes::recall_after_recovery(&recovered, &spec, &corpus, &wlog);
            ops.attempted += queries;
            ops.failed += failed;
            put("recall_at_10", recall, queries as usize);
        }
        let writes::Recovered { service, writer, .. } = recovered;
        if trace {
            let (ms, compactions, failures) = maintenance_probe(&spec, &wlog, writer);
            ops.attempted += 1;
            ops.failed += failures.len() as u64;
            for f in failures {
                log.push(format!("maintenance: FAILED {f}"));
            }
            put("maintenance.run_once_ms", ms, 1);
            put("maintenance.compactions", compactions as f64, 1);
        } else {
            drop(writer);
        }
        service.shutdown();
        let _ = std::fs::remove_dir_all(&copy);
    }
    log.push(format!("recovery: {recovery_s:.3?} s"));

    if !trace {
        put("setup_s", times.total_s, 1);
        put("recovery_s", median(&recovery_s), recovery_s.len());
        put("rss_peak_mb", report::rss_peak_mib(), 1);
        let recall = out.iter().find(|m| m.name == "recall_at_10").map_or(f64::NAN, |m| m.value);
        log.push(format!("recall@10 {recall:.4} (floor {})", spec.recall_floor));
        if !smoke && (recall.is_nan() || recall < spec.recall_floor) {
            return Err(format!("recall@10 {recall:.4} is below the floor {}", spec.recall_floor));
        }
    }
    log.push(format!("operations: {} attempted, {} failed", ops.attempted, ops.failed));
    Ok((ops, out))
}

/// 10 % deletes, then one maintenance pass on the calling thread. Returns
/// `(pass ms, shards compacted, failures)`.
fn maintenance_probe(
    spec: &Spec,
    wlog: &WriteLog,
    mut writer: ShardSetWriter,
) -> (f64, usize, Vec<String>) {
    let mut failures = Vec::new();
    let survivors = wlog.survivors(spec.n);
    for &id in survivors.iter().take(survivors.len() / 10) {
        if let Err(e) = writer.delete(id) {
            failures.push(format!("delete of {id}: {e}"));
        }
    }
    // A tenth deleted must cross the ratio, so the pass compacts.
    let config = MaintenanceConfig { max_tombstone_ratio: 0.05, ..MaintenanceConfig::default() };
    let scheduler = MaintenanceScheduler::new_paused(
        writer,
        config,
        Arc::new(Metrics::with_shards(spec.shards)),
    );
    let t = Instant::now();
    let pass = scheduler.run_once();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    failures.extend(pass.failures.iter().map(|(shard, why)| format!("shard {shard}: {why}")));
    drop(scheduler.into_writer());
    (ms, pass.compacted.len(), failures)
}
