//! Metric names, the run report, and the environment fingerprint.
//!
//! The two tables below are the benchmark's vocabulary. `BENCHMARK.json`
//! lists the same names (the smoke run checks both directions); later
//! issues refer to metrics by these names and may not rename them.

use std::path::{Path, PathBuf};

use crate::json::{obj, s, Value};
use crate::workload::{Spec, WriteShape, BUILD_THREADS};

/// `(name, unit)` of every end-to-end metric, in report order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("qps_closed", "queries/s"),
    ("recall_at_10", "fraction"),
    ("lat_p50_us", "us"),
    ("rss_peak_mb", "MiB"),
    ("write_ack_p50_us", "us"),
    ("publish_p50_ms", "ms"),
    ("recovery_s", "s"),
];

/// `(name, unit)` of every per-layer metric, in report order.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("vectors.dist_ns", "ns"),
    ("vectors.dist_ns_hot", "ns"),
    ("vectors.dist_share", "fraction"),
    ("vectors.fetch_share", "fraction"),
    ("vectors.sq8_dist_ns", "ns"),
    ("graph.beam_ns", "ns"),
    ("graph.ndc", "count"),
    ("graph.hops", "count"),
    ("graph.ns_per_ndc", "ns"),
    ("graph.relayout_ms", "ms"),
    ("core.tau_search_ns", "ns"),
    ("core.qeo_skip_share", "fraction"),
    ("core.build_s", "s"),
    ("core.insert_us", "us"),
    ("core.compact_ms", "ms"),
    ("knng.build_s", "s"),
    ("snapshot.search_ns", "ns"),
    ("snapshot.filtered_search_ns", "ns"),
    ("snapshot.filter_ndc_ratio", "ratio"),
    ("snapshot.publish_tombstones_us", "us"),
    ("shard.fanout_ns", "ns"),
    ("shard.merge_ns", "ns"),
    ("shard.slowest_shard_share", "fraction"),
    ("shard.split_s", "s"),
    ("service.overhead_us", "us"),
    ("service.inproc_lat_p50_us", "us"),
    ("service.lat_p99_us", "us"),
    ("service.lat_p999_us", "us"),
    ("service.mid.degraded_share", "fraction"),
    ("service.hi.lat_p99_us", "us"),
    ("service.hi.degraded_share", "fraction"),
    ("service.hi.effective_l_mean", "count"),
    ("service.hi.recall_at_10", "fraction"),
    ("service.hi.overflow_share", "fraction"),
    ("service.rate_ok_qps", "queries/s"),
    ("wal.write_ack_p99_us", "us"),
    ("wal.append_us_strict", "us"),
    ("wal.append_us_none", "us"),
    ("wal.fsyncs_per_op", "ratio"),
    ("wal.bytes_per_op", "bytes"),
    ("wal.replay_ms", "ms"),
    ("store.persist_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.disk_amp", "ratio"),
    ("maintenance.run_once_ms", "ms"),
    ("maintenance.compactions", "count"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.sent", "count"),
    ("trace.overhead_share", "fraction"),
    ("trace.self_us.service", "us"),
    ("trace.self_us.shard", "us"),
    ("trace.self_us.snapshot", "us"),
    ("trace.self_us.core", "us"),
    ("trace.self_us.graph", "us"),
    ("trace.self_us.vectors", "us"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// Samples behind the value (1 for a single timing or a count).
    pub samples: usize,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    /// Workload run.
    pub spec: Spec,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Operations attempted (queries, writes, publishes, recovery checks).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Share of degraded replies in each gated phase (they are not failed
    /// operations, not good ones, and stay out of the latency samples).
    pub degraded: Vec<(&'static str, f64)>,
    /// The metrics of the run's kind, every one, in table order.
    pub metrics: Vec<Metric>,
    /// Human-readable run log (also printed to stderr).
    pub log: Vec<String>,
}

impl Report {
    /// The table this report's metrics come from.
    pub fn table(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Unit of metric `name` in this report's table.
    pub fn unit_of(&self, name: &str) -> &'static str {
        self.table().iter().find(|(n, _)| *n == name).map_or("", |(_, u)| u)
    }

    /// Order the metrics as their table and refuse a report that misses one,
    /// repeats one, or holds a value that is not a finite number.
    ///
    /// # Errors
    /// Names what is wrong.
    pub fn seal(&mut self) -> Result<(), String> {
        let table = self.table();
        let mut sealed = Vec::with_capacity(table.len());
        for (name, _) in table {
            let mut found = self.metrics.iter().filter(|m| m.name == *name);
            let m = found.next().ok_or_else(|| format!("metric {name} was not measured"))?;
            if found.next().is_some() {
                return Err(format!("metric {name} was measured twice"));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {name} is {} over {} samples", m.value, m.samples));
            }
            sealed.push(m.clone());
        }
        if let Some(extra) = self.metrics.iter().find(|m| !table.iter().any(|(n, _)| *n == m.name))
        {
            return Err(format!("metric {} is not in the table", extra.name));
        }
        self.metrics = sealed;
        Ok(())
    }

    /// The one-line result the driver reads: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let unit = self.unit_of(m.name);
                (m.name.to_string(), obj(vec![("value", Value::Num(m.value)), ("unit", s(unit))]))
            })
            .collect();
        obj(vec![
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
        .render()
    }

    /// This run as a run-set file records it: the result plus the seed,
    /// the sample count behind every metric and the degraded shares.
    pub fn record(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    obj(vec![
                        ("value", Value::Num(m.value)),
                        ("unit", s(self.unit_of(m.name))),
                        ("samples", Value::Num(m.samples as f64)),
                    ]),
                )
            })
            .collect();
        let degraded = self.degraded.iter().map(|(phase, share)| (*phase, Value::Num(*share)));
        obj(vec![
            ("seed", Value::Num(self.seed as f64)),
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("degraded_share", obj(degraded.collect())),
            ("metrics", Value::Obj(metrics)),
        ])
    }
}

/// A run-set file, `<dir>/<workload>.json`: what its runs share — workload,
/// kind of run, run length, the workload's frozen constants, the environment
/// — and one record per run. `--json` adds the run to the file, so a loop
/// over seeds makes a set; a run that does not share the file's header
/// (another run length, commit or compiler) is refused before it starts.
#[derive(Debug)]
pub struct RunSetFile {
    path: PathBuf,
    header: Value,
    runs: Vec<Value>,
}

impl RunSetFile {
    /// Open `path` for a run of `spec`, creating it in memory if it does
    /// not exist.
    ///
    /// # Errors
    /// If the file is unreadable, or was made by runs with another header.
    pub fn open(path: &Path, spec: &Spec, seconds: f64, trace: bool) -> Result<Self, String> {
        let header = obj(vec![
            ("workload", s(spec.name)),
            ("trace", Value::Bool(trace)),
            ("seconds", Value::Num(seconds)),
            ("constants", constants(spec)),
            ("environment", fingerprint()),
        ]);
        let mut runs = Vec::new();
        if path.exists() {
            let at = |e: String| format!("{}: {e}", path.display());
            let text = std::fs::read_to_string(path).map_err(|e| at(e.to_string()))?;
            let file = crate::json::parse(&text).map_err(at)?;
            for (key, value) in header.as_obj().unwrap_or_default() {
                if file.get(key) != Some(value) {
                    return Err(at(format!("its runs were made with another `{key}`")));
                }
            }
            runs = file.get("runs").and_then(Value::as_arr).unwrap_or_default().to_vec();
        }
        Ok(RunSetFile { path: path.to_path_buf(), header, runs })
    }

    /// Add a run and write the file: the header indented, one line per run.
    ///
    /// # Errors
    /// If the file cannot be written.
    pub fn push_run(mut self, record: Value) -> Result<(), String> {
        self.runs.push(record);
        let mut text = self.header.render_pretty();
        text.truncate(text.trim_end().len() - 1); // the closing brace
        text.truncate(text.trim_end().len());
        text.push_str(",\n  \"runs\": [\n");
        let lines: Vec<String> = self.runs.iter().map(|r| format!("    {}", r.render())).collect();
        text.push_str(&lines.join(",\n"));
        text.push_str("\n  ]\n}\n");
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&self.path, text).map_err(|e| format!("{}: {e}", self.path.display()))
    }
}

/// The frozen constants of a workload, as they go into every report.
pub fn constants(spec: &Spec) -> Value {
    let write = match spec.write {
        WriteShape::Quiet { ops } => format!("quiet, {ops} ops after the reads"),
        WriteShape::BesideReads { ops_per_s } => {
            format!("beside the mid-phase reads, closed loop paced to {ops_per_s} ops/s")
        }
    };
    obj(vec![
        ("corpus_seed", Value::Num(crate::workload::CORPUS_SEED as f64)),
        ("n", Value::Num(spec.n as f64)),
        ("queries", Value::Num(spec.nq as f64)),
        ("shards", Value::Num(spec.shards as f64)),
        ("workers", Value::Num(spec.workers as f64)),
        ("batch", Value::Num(spec.batch as f64)),
        ("beam_l", Value::Num(spec.l as f64)),
        ("k", Value::Num(crate::workload::K as f64)),
        ("rate_lo_rps", Value::Num(spec.rates[0])),
        ("rate_mid_rps", Value::Num(spec.rates[1])),
        ("rate_hi_rps", Value::Num(spec.rates[2])),
        ("latency_limit_us", Value::Num(spec.limit_us)),
        ("recall_floor", Value::Num(spec.recall_floor)),
        ("durability", s(spec.durability.name())),
        ("writer", s(write)),
        ("publish_every_ops", Value::Num(spec.publish_every as f64)),
    ])
}

/// Where and with what the run was made.
pub fn fingerprint() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    obj(vec![
        ("git_sha", s(git_sha())),
        ("rustc", s(env!("ANN_PERF_RUSTC"))),
        ("profile", s(env!("ANN_PERF_PROFILE"))),
        ("nproc", Value::Num(nproc as f64)),
        ("cpu", s(cpu)),
        ("kernel_path", s(ann_vectors::kernel_path().name())),
        ("ann_threads", s(BUILD_THREADS)),
        (
            "note",
            s("fsync and reads hit the OS cache in this sandbox: latencies are the \
               sandbox's, not a device's"),
        ),
    ])
}

/// The checked-out commit, read from `.git` without running git; "unknown"
/// in a checkout that is not a repository.
fn git_sha() -> String {
    let git = repo_root().join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(reference) => {
            std::fs::read_to_string(git.join(reference)).map(|t| t.trim().to_string()).ok()
        }
        None if !head.is_empty() => Some(head.to_string()),
        None => None,
    };
    sha.unwrap_or_else(|| "unknown".into())
}

/// The checkout the benchmark was built in (the parent of its package).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Where the benchmark writes: `$CARGO_TARGET_DIR/ann-perf-out`, or
/// `target/ann-perf-out` in its own package — both ignored by git and
/// inside the checkout.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("target"),
        |t| {
            let t = PathBuf::from(t);
            if t.is_absolute() {
                t
            } else {
                repo_root().join(t)
            }
        },
    );
    target.join("ann-perf-out")
}

/// A fresh, empty scratch directory for this process under [`out_dir`].
pub fn scratch_dir(label: &str) -> PathBuf {
    let dir = out_dir().join("tmp").join(format!("{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the benchmark's output directory is writable");
    dir
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ALL;

    fn report(trace: bool, metrics: Vec<Metric>) -> Report {
        Report {
            spec: ALL[0],
            seed: 1,
            seconds: 1.0,
            trace,
            attempted: 10,
            failed: 0,
            degraded: vec![("closed", 0.0), ("mid", 0.002)],
            metrics,
            log: Vec::new(),
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(*name), "{name} appears twice");
            assert!(name.len() <= 64 && unit.len() <= 16 && !unit.is_empty());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().any(|(n, u)| *n == "setup_s" && *u == "s"));
    }

    #[test]
    fn seal_orders_and_refuses_gaps() {
        let all = |value: f64| -> Vec<Metric> {
            END_TO_END
                .iter()
                .rev()
                .map(|(name, _)| Metric { name, value, samples: 1 })
                .collect()
        };
        let mut ok = report(false, all(1.5));
        ok.seal().unwrap();
        assert_eq!(ok.metrics[0].name, "setup_s");
        let line = ok.result_line();
        let parsed = crate::json::parse(&line).unwrap();
        let keys: Vec<_> = parsed.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("metrics").unwrap().as_obj().unwrap().len(), END_TO_END.len());

        let record = ok.record();
        assert_eq!(record.get("seed"), Some(&Value::Num(1.0)));
        assert_eq!(record.get("degraded_share").unwrap().get("mid"), Some(&Value::Num(0.002)));
        assert_eq!(
            record.get("metrics").unwrap().get("setup_s").unwrap().get("samples"),
            Some(&Value::Num(1.0))
        );

        let mut missing = report(false, all(1.5)[1..].to_vec());
        assert!(missing.seal().unwrap_err().contains("not measured"));
        let mut nan = report(false, all(f64::NAN));
        assert!(nan.seal().unwrap_err().contains("NaN"));
        let mut wrong_kind = report(true, all(1.5));
        assert!(wrong_kind.seal().is_err());
    }

    #[test]
    fn run_set_file_collects_runs_and_refuses_another_header() {
        let dir = scratch_dir("run-set-test");
        let path = dir.join("set").join("w.json");
        for seed in [1.0, 2.0] {
            let file = RunSetFile::open(&path, &ALL[0], 16.0, false).unwrap();
            file.push_run(obj(vec![("seed", Value::Num(seed))])).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = crate::json::parse(&text).unwrap();
        assert_eq!(parsed.get("workload"), Some(&s(ALL[0].name)));
        assert_eq!(parsed.get("seconds"), Some(&Value::Num(16.0)));
        let runs = parsed.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1].get("seed"), Some(&Value::Num(2.0)));
        // One line per run, so that adding a run adds a line.
        assert_eq!(text.lines().filter(|l| l.trim_start().starts_with("{\"seed\"")).count(), 2);
        // Another run length, kind of run or workload does not mix in.
        assert!(RunSetFile::open(&path, &ALL[0], 12.0, false).unwrap_err().contains("seconds"));
        assert!(RunSetFile::open(&path, &ALL[0], 16.0, true).unwrap_err().contains("trace"));
        assert!(RunSetFile::open(&path, &ALL[1], 16.0, false).unwrap_err().contains("workload"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
