//! The load generator: closed-loop clients and an open-loop Poisson
//! generator, both in-process, driving `AnnService::submit_filtered` →
//! `BatchHandle::wait` exactly as an embedding application would.
//!
//! Thread budget (the sandbox has two cores): closed-loop clients block in
//! `wait()` while a worker searches, so clients + workers keep at most two
//! threads busy. The open loop runs one generator thread, which sleeps to
//! within [`SPIN_WINDOW`] of the next due time and then spins, and one
//! collector thread blocked in `wait()`.
//!
//! Open-loop latency is measured from the time a request was **due**, not
//! from when it was sent, so a stall charges every request it delayed.

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ann_service::{AnnService, BatchHandle, BatchResult};

use crate::setup::{query_options, Corpus};
use crate::workload::{Spec, K};

/// Slice length of [`Tally::good_qps`], seconds.
const QPS_SLICE_S: f64 = 0.25;

/// The generator sleeps until this close to a due time, then spins.
const SPIN_WINDOW: Duration = Duration::from_micros(200);

/// Set generation at which each delete became reader-visible, filled by the
/// writer as it publishes. A reply stamped with that generation or a later
/// one must not contain the id.
pub type DeletedAt = Mutex<HashMap<u64, u64>>;

/// What replies are checked against.
pub struct Judge<'a> {
    /// The run's inputs (ground truth, filter, id space).
    pub corpus: &'a Corpus,
    /// Whether the indexed set still equals `corpus.base`, so the exact
    /// ground truth applies and recall is counted.
    pub exact: bool,
    /// Deletes published so far, when a writer runs beside the reads.
    pub deleted_at: Option<&'a DeletedAt>,
}

/// Everything one phase observed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent (one `submit*` call each).
    pub requests: u64,
    /// Queries in them.
    pub queries: u64,
    /// Queries answered in full and not degraded.
    pub good_queries: u64,
    /// Queries answered with a narrowed beam.
    pub degraded: u64,
    /// Queries with no reply or a wrong one.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_failure: Option<String>,
    /// Ground-truth ids found / looked for, over every full reply (degraded
    /// ones included: they are what the caller got).
    pub recall_hits: u64,
    /// See `recall_hits`.
    pub recall_wanted: u64,
    /// Sum of `effective_l` over replies.
    pub effective_l_sum: u64,
    /// Per request, µs: due time (open loop) or send time (closed loop) →
    /// reply observed by the client.
    pub latency_us: Vec<f64>,
    /// The same, over the requests whose every query was good. A degraded
    /// reply comes back sooner for having searched less, so the latencies
    /// that feed a gated metric are taken from here.
    pub good_latency_us: Vec<f64>,
    /// Per query, µs: `QueryReply::latency_us` (enqueue → answer, in-process).
    pub inproc_us: Vec<f64>,
    /// Per request, µs: how late the generator sent it (open loop only).
    pub late_us: Vec<f64>,
    /// Per good query, seconds from the phase start to its reply (closed
    /// loop only).
    pub good_at_s: Vec<f64>,
    /// Per whole second since the phase began: queries replied to in it,
    /// and how many of them came back degraded.
    pub per_second: Vec<(u64, u64)>,
    /// Phase wall time, seconds (until the last reply was observed).
    pub wall_s: f64,
}

impl Tally {
    /// Mean recall@K over the full replies (`NaN` if none were checked).
    pub fn recall(&self) -> f64 {
        self.recall_hits as f64 / self.recall_wanted as f64
    }

    /// Good queries per second: the median over [`QPS_SLICE_S`]-long slices
    /// of the phase, so a stall or a slow second moves the figure by one
    /// slice's weight and not by its depth. The whole-phase rate when the
    /// phase is shorter than three slices.
    pub fn good_qps(&self) -> f64 {
        let slices = (self.wall_s / QPS_SLICE_S) as usize;
        if slices < 3 {
            return self.good_queries as f64 / self.wall_s;
        }
        let mut counts = vec![0.0f64; slices];
        for &at in &self.good_at_s {
            if let Some(c) = counts.get_mut((at / QPS_SLICE_S) as usize) {
                *c += 1.0;
            }
        }
        crate::stats::median(&counts) / QPS_SLICE_S
    }

    /// Degraded share of the phase's median second. The service sheds when
    /// its queue backs up; a stall of the host backs it up for a moment and
    /// spoils a second or two, whereas a rate the engine cannot hold spoils
    /// most of them — so the median tells the habit from the accident.
    pub fn typical_degraded_share(&self) -> f64 {
        let shares: Vec<f64> = self
            .per_second
            .iter()
            .filter(|(queries, _)| *queries > 0)
            .map(|&(queries, degraded)| degraded as f64 / queries as f64)
            .collect();
        if shares.is_empty() {
            return 0.0;
        }
        crate::stats::median(&shares)
    }

    /// Count one request's replies, observed `at_s` seconds into the phase,
    /// into [`Tally::per_second`].
    fn count_second(&mut self, at_s: f64, queries: usize, degraded: u64) {
        let second = at_s as usize;
        if self.per_second.len() <= second {
            self.per_second.resize(second + 1, (0, 0));
        }
        self.per_second[second].0 += queries as u64;
        self.per_second[second].1 += degraded;
    }

    fn fail(&mut self, queries: u64, why: impl FnOnce() -> String) {
        self.failed += queries;
        if self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }

    fn merge(&mut self, other: Tally) {
        self.requests += other.requests;
        self.queries += other.queries;
        self.good_queries += other.good_queries;
        self.degraded += other.degraded;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
        self.recall_hits += other.recall_hits;
        self.recall_wanted += other.recall_wanted;
        self.effective_l_sum += other.effective_l_sum;
        self.latency_us.extend(other.latency_us);
        self.good_latency_us.extend(other.good_latency_us);
        self.inproc_us.extend(other.inproc_us);
        self.late_us.extend(other.late_us);
        self.good_at_s.extend(other.good_at_s);
        if self.per_second.len() < other.per_second.len() {
            self.per_second.resize(other.per_second.len(), (0, 0));
        }
        for (mine, theirs) in self.per_second.iter_mut().zip(other.per_second) {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
        }
        self.wall_s = self.wall_s.max(other.wall_s);
    }
}

impl Judge<'_> {
    /// Check one request's reply and count it into `tally`. Returns whether
    /// every query of the request was good.
    pub fn check(&self, rows: &[u32], result: Option<&BatchResult>, tally: &mut Tally) -> bool {
        let n = rows.len() as u64;
        let good_before = tally.good_queries;
        tally.requests += 1;
        tally.queries += n;
        let Some(result) = result else {
            tally.fail(n, || "no reply: the service shut down with the request in flight".into());
            return false;
        };
        if result.replies.len() != rows.len() {
            tally.fail(n, || format!("{} replies for {} queries", result.replies.len(), n));
            return false;
        }
        for (&row, reply) in rows.iter().zip(&result.replies) {
            tally.effective_l_sum += reply.effective_l as u64;
            tally.inproc_us.push(reply.latency_us as f64);
            if reply.ids.len() < K {
                // Every workload keeps far more than K eligible vectors.
                tally.fail(1, || format!("query {row}: {} ids, {K} eligible", reply.ids.len()));
                continue;
            }
            if let Some(&bad) = reply.ids.iter().find(|&&id| !self.corpus.admits(id)) {
                tally.fail(1, || format!("query {row}: id {bad} violates the filter"));
                continue;
            }
            if let Some(deleted_at) = self.deleted_at {
                let map = deleted_at.lock().expect("no judge panics holding the lock");
                let stale = reply
                    .ids
                    .iter()
                    .find(|id| map.get(id).is_some_and(|&gen| reply.generation >= gen));
                if let Some(&id) = stale {
                    let gen = reply.generation;
                    tally
                        .fail(1, || format!("query {row}: tombstoned id {id} served at gen {gen}"));
                    continue;
                }
            }
            if self.exact {
                let truth = &self.corpus.gt[row as usize];
                tally.recall_wanted += truth.len() as u64;
                tally.recall_hits +=
                    reply.ids.iter().filter(|id| truth.contains(id)).count() as u64;
            }
            if reply.degraded {
                tally.degraded += 1;
            } else {
                tally.good_queries += 1;
            }
        }
        tally.good_queries - good_before == n
    }
}

/// The `batch` query rows of request number `i` in visiting order `order`.
fn rows_of(order: &[u32], batch: usize, i: usize) -> Vec<u32> {
    (0..batch).map(|j| order[(i * batch + j) % order.len()]).collect()
}

fn submit(service: &AnnService, spec: &Spec, corpus: &Corpus, rows: &[u32]) -> BatchHandle {
    let queries = rows.iter().map(|&r| corpus.queries.get(r).to_vec()).collect();
    service.submit_filtered(queries, K, corpus.filter(), query_options(spec))
}

/// What the traced run hangs on client 0 of a closed loop: called after
/// every exchange with the request's query rows and its send and
/// reply-observed times.
pub type Observer<'a> = dyn FnMut(&[u32], Instant, Instant) + Send + 'a;

/// Closed loop: `clients` threads each submit a request, wait for its reply,
/// and submit the next, for `seconds`. `observe` sees every exchange of
/// client 0 (the traced run hangs its replay there).
pub fn closed_loop(
    service: &AnnService,
    spec: &Spec,
    judge: &Judge<'_>,
    clients: usize,
    seconds: f64,
    order: &[u32],
    observe: Option<&mut Observer<'_>>,
) -> Tally {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut total = Tally::default();
    let mut observe = observe;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let mut observe = if c == 0 { observe.take() } else { None };
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    // Clients start at different points of the visiting order.
                    let mut i = c * order.len() / clients / spec.batch;
                    while Instant::now() < end {
                        let rows = rows_of(order, spec.batch, i);
                        i += 1;
                        let sent = Instant::now();
                        let result = submit(service, spec, judge.corpus, &rows).wait();
                        let done = Instant::now();
                        let latency_us = (done - sent).as_secs_f64() * 1e6;
                        tally.latency_us.push(latency_us);
                        let (good_before, degraded_before) = (tally.good_queries, tally.degraded);
                        if judge.check(&rows, result.as_ref(), &mut tally) {
                            tally.good_latency_us.push(latency_us);
                        }
                        let at = (done - start).as_secs_f64();
                        tally.good_at_s.extend((good_before..tally.good_queries).map(|_| at));
                        tally.count_second(at, rows.len(), tally.degraded - degraded_before);
                        if let Some(observe) = observe.as_mut() {
                            observe(&rows, sent, done);
                        }
                    }
                    tally.wall_s = start.elapsed().as_secs_f64();
                    tally
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("a closed-loop client panicked"));
        }
    });
    total
}

/// Sleep, then spin, until `due`.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN_WINDOW {
            std::thread::sleep(left - SPIN_WINDOW);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Open loop: one request at each offset of `due_ns` from now, whether or
/// not earlier ones have been answered. The calling thread generates; one
/// scoped thread collects replies in submission order.
pub fn open_loop(
    service: &AnnService,
    spec: &Spec,
    judge: &Judge<'_>,
    due_ns: &[u64],
    order: &[u32],
) -> Tally {
    let start = Instant::now();
    let (tx, rx) = mpsc::channel::<(Vec<u32>, Instant, BatchHandle)>();
    let mut late_us = Vec::with_capacity(due_ns.len());
    let mut tally = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut tally = Tally::default();
            tally.latency_us.reserve(due_ns.len());
            for (rows, due, handle) in rx {
                let result = handle.wait();
                let done = Instant::now();
                let latency_us = (done - due).as_secs_f64() * 1e6;
                tally.latency_us.push(latency_us);
                let degraded_before = tally.degraded;
                if judge.check(&rows, result.as_ref(), &mut tally) {
                    tally.good_latency_us.push(latency_us);
                }
                let at = (done - start).as_secs_f64();
                tally.count_second(at, rows.len(), tally.degraded - degraded_before);
            }
            tally.wall_s = start.elapsed().as_secs_f64();
            tally
        });
        for (i, &offset) in due_ns.iter().enumerate() {
            let due = start + Duration::from_nanos(offset);
            let rows = rows_of(order, spec.batch, i);
            wait_until(due);
            late_us.push((Instant::now() - due).as_secs_f64() * 1e6);
            let handle = submit(service, spec, judge.corpus, &rows);
            if tx.send((rows, due, handle)).is_err() {
                break; // the collector is gone; its panic surfaces at join
            }
        }
        drop(tx);
        collector.join().expect("the collector panicked")
    });
    tally.late_us = late_us;
    tally
}

/// Share of requests answered within `limit_us` of their due time, counting
/// every query that failed or was degraded as a miss of its request.
pub fn good_share(tally: &Tally, limit_us: f64, batch: usize) -> f64 {
    if tally.requests == 0 {
        return 0.0;
    }
    let in_time = tally.latency_us.iter().filter(|&&l| l <= limit_us).count() as f64;
    let spoiled = (tally.failed + tally.degraded).div_ceil(batch as u64) as f64;
    ((in_time - spoiled) / tally.requests as f64).max(0.0)
}

/// Whether the backlog was still growing when the phase ended: the last
/// tenth of the requests took, at the median, longer than the limit.
pub fn backlog_grew(tally: &Tally, limit_us: f64) -> bool {
    let n = tally.latency_us.len();
    let tail = &tally.latency_us[n - n / 10..];
    !tail.is_empty() && crate::stats::median(tail) > limit_us
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(ids: Vec<u64>, degraded: bool) -> ann_service::QueryReply {
        ann_service::QueryReply {
            dists: vec![0.0; ids.len()],
            ids,
            generation: 0,
            effective_l: if degraded { 40 } else { 100 },
            degraded,
            latency_us: 50,
            ndc: 0,
        }
    }

    #[test]
    fn a_degraded_or_wrong_reply_spoils_its_request() {
        use ann_vectors::{Metric, VecStore};
        let line = |n: u32| {
            VecStore::from_rows(&(0..n).map(|i| vec![i as f32]).collect::<Vec<_>>()).unwrap()
        };
        let corpus = Corpus {
            metric: Metric::L2,
            base: std::sync::Arc::new(line(100)),
            pool: line(1),
            queries: line(2),
            gt: vec![(0..10).collect(), (0..10).collect()],
            filter_modulus: Some(10),
        };
        let judge = Judge { corpus: &corpus, exact: true, deleted_at: None };
        // Ids 3, 13, … 93 are in the bucket every query is filtered to.
        let bucket: Vec<u64> = (0..K as u64).map(|i| 10 * i + 3).collect();
        let mut tally = Tally::default();
        let full = BatchResult { replies: vec![reply(bucket.clone(), false); 2] };
        assert!(judge.check(&[0, 1], Some(&full), &mut tally));
        let shed = BatchResult {
            replies: vec![reply(bucket.clone(), false), reply(bucket.clone(), true)],
        };
        assert!(!judge.check(&[0, 1], Some(&shed), &mut tally));
        assert_eq!((tally.good_queries, tally.degraded, tally.failed), (3, 1, 0));
        let mut outside = bucket.clone();
        outside[4] = 8;
        let wrong = BatchResult {
            replies: vec![reply(outside, false), reply(bucket[..9].to_vec(), false)],
        };
        assert!(!judge.check(&[0, 1], Some(&wrong), &mut tally));
        assert!(!judge.check(&[0, 1], None, &mut tally));
        assert_eq!((tally.good_queries, tally.degraded, tally.failed), (3, 1, 4));
        assert!(tally.first_failure.as_deref().unwrap().contains("violates the filter"));
        assert_eq!((tally.requests, tally.queries), (4, 8));
        // Id 3 of the ten wanted, on each of the four full replies.
        assert_eq!((tally.recall_hits, tally.recall_wanted), (4, 40));
    }

    #[test]
    fn rows_wrap_around_the_visiting_order() {
        let order = [4, 2, 0, 1, 3];
        assert_eq!(rows_of(&order, 2, 0), [4, 2]);
        assert_eq!(rows_of(&order, 2, 2), [3, 4]);
        assert_eq!(rows_of(&order, 1, 7), [0]);
    }

    #[test]
    fn qps_is_the_median_slice_rate() {
        // 100 good queries in each of 8 slices, none in a ninth (a stall).
        let good_at_s: Vec<f64> = (0..8)
            .flat_map(|s| (0..100).map(move |i| s as f64 * 0.25 + i as f64 * 0.002))
            .collect();
        let tally = Tally { good_queries: 800, wall_s: 2.25, good_at_s, ..Tally::default() };
        assert_eq!(tally.good_qps(), 400.0);
        // Too short to slice: the whole-phase rate.
        let short = Tally { good_queries: 50, wall_s: 0.5, ..Tally::default() };
        assert_eq!(short.good_qps(), 100.0);
    }

    #[test]
    fn the_median_second_tells_a_habit_from_a_stall() {
        // Nine seconds of 100 queries; a stall degrades most of one second
        // and some of the next: 8.4 % of the phase, but not its habit.
        let mut stalled = Tally::default();
        for second in 0..9 {
            let degraded = [0, 0, 0, 60, 16, 0, 0, 0, 0][second];
            stalled.count_second(second as f64 + 0.5, 100, degraded);
        }
        assert_eq!(stalled.typical_degraded_share(), 0.0);
        // A rate the engine cannot hold sheds a little in most seconds.
        let mut habit = Tally::default();
        for second in 0..9 {
            habit.count_second(second as f64 + 0.5, 100, if second % 3 == 0 { 0 } else { 4 });
        }
        assert_eq!(habit.typical_degraded_share(), 0.04);
        // Clients merge second by second.
        let mut other = Tally::default();
        other.count_second(9.2, 50, 50);
        habit.merge(other);
        assert_eq!(habit.per_second.len(), 10);
        assert_eq!(habit.per_second[9], (50, 50));
        assert_eq!(Tally::default().typical_degraded_share(), 0.0);
    }

    #[test]
    fn good_share_counts_late_and_spoiled_requests_as_misses() {
        let tally = Tally {
            requests: 10,
            latency_us: vec![100.0; 8].into_iter().chain([900.0, 950.0]).collect(),
            degraded: 1,
            ..Tally::default()
        };
        assert!((good_share(&tally, 500.0, 1) - 0.7).abs() < 1e-12);
        assert!(!backlog_grew(&tally, 1_000.0));
        assert!(backlog_grew(&tally, 900.0));
    }
}
